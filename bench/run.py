"""Benchmark of the osifl command line on fixed workloads.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

One round runs the workload's CLI command in a fresh process, with
PYTHONPATH=src and a fixed BLAS thread count, then checks the CSVs it
wrote (checks.py). Rounds repeat until --seconds have passed and each
timing is the median over rounds. With --trace 0 the end-to-end metrics
are reported, after timing the set-up SETUP_REPEATS times. With
--trace 1 each round runs the command once plainly and once under
traced.py, and the per-layer metrics are reported.

Metric names and units come from BENCHMARK.json. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import Outcome, check_output
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# One BLAS thread: cpu_s then tracks wall_s, and a busy second core on a
# shared machine does not move the timings. Never more than nproc.
BLAS_THREADS = 1
SETUP_REPEATS = 5
# Every invocation must end well inside 180 s, however long --seconds is.
DEADLINE_S = 170.0


@dataclass
class Measured:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # The override would replace the seeds the workload config names.
    env.pop("OSIFL_SEED_OVERRIDE", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(argv: list[str], log_dir: Path, deadline: float) -> Measured:
    """Run argv to completion in a fresh process; wall time from spawn to
    exit, and that process's own CPU time and peak resident memory."""
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout.txt", "wb") as out, \
            open(log_dir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        killer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                 proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Measured(wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss * 1024 / 1e6, proc.returncode)


def run_command(workload: Workload, n: int, config: Path, log_dir: Path,
                deadline: float, trace_json: Path | None = None
                ) -> tuple[Measured, Outcome]:
    csv_dir = log_dir / "csv"
    cli_args = workload.cli_args(str(config), str(csv_dir))
    if trace_json is None:
        argv = [sys.executable, "-m", "osifl.cli", *cli_args]
    else:
        argv = [sys.executable, str(BENCH / "traced.py"), str(trace_json),
                "--", *cli_args]
    measured = spawn(argv, log_dir, deadline)
    stderr = (log_dir / "stderr.txt").read_text(errors="replace")
    outcome = check_output(csv_dir, workload, n, stderr)
    if measured.code != 0 and not outcome.failed:
        outcome.problems.append(
            f"exit: {' '.join(argv[1:3])} exited {measured.code} without "
            f"naming a failed run: {stderr.strip()[-300:]}")
    return measured, outcome


def measure(workload: Workload, n: int, seconds: float, trace: bool,
            units: dict[str, str]) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    run_dir = OUT / f"{workload.name}-seed{n}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "workload.cfg"
    config.write_text(workload.config_text(n))
    setup = [] if trace else [
        spawn([sys.executable, str(BENCH / "setup_probe.py"), str(config)],
              run_dir / f"setup{i}", deadline)
        for i in range(SETUP_REPEATS)]
    problems = [f"setup: probe exited {m.code}" for m in setup if m.code]

    plain: list[Measured] = []
    traced: list[Measured] = []
    layers: list[dict] = []
    outcomes: list[Outcome] = []
    loop_start = time.monotonic()
    while True:
        round_start = time.monotonic()
        i = len(plain)
        m, o = run_command(workload, n, config, run_dir / f"round{i}",
                           deadline)
        plain.append(m)
        outcomes.append(o)
        if trace:
            trace_json = run_dir / f"round{i}-trace.json"
            m, o = run_command(workload, n, config,
                               run_dir / f"round{i}-traced", deadline,
                               trace_json)
            traced.append(m)
            outcomes.append(o)
            if trace_json.exists():
                layers.append(json.loads(trace_json.read_text()))
            else:
                problems.append(f"trace: round {i} wrote no trace")
        now = time.monotonic()
        if now - loop_start >= seconds or \
                now + (now - round_start) > deadline:
            break

    for o in outcomes:
        problems += [p for p in o.problems if p not in problems]
        if o.digest != outcomes[0].digest:
            problems.append("rerun: a rerun of the same command wrote "
                            "different CSVs")
    ops = len(workload.operations(n))
    first = outcomes[0]
    if trace:
        values = {k: statistics.median(d[k] for d in layers)
                  for k in layers[0]} if layers else {}
        values["trace.overhead_s"] = (
            statistics.median(m.wall_s for m in traced)
            - statistics.median(m.wall_s for m in plain))
    else:
        values = {
            "wall_s": statistics.median(m.wall_s for m in plain),
            "cpu_s": statistics.median(m.cpu_s for m in plain),
            "setup_s": statistics.median(m.wall_s for m in setup),
            "peak_rss_mb": statistics.median(m.peak_rss_mb for m in plain),
            "acc_final": first.acc_final,
            "upload_floats": first.upload_floats,
        }
    missing = sorted(set(units) - set(values))
    if missing:
        problems.append(f"metrics: not measured: {missing}")
    return {
        "workload": workload.name,
        "rounds": len(plain),
        "digest": first.digest,
        "walls": [m.wall_s for m in plain + traced],
        "problems": problems,
        "result": {
            "correct": not problems,
            "attempted": ops * len(outcomes),
            "failed": sum(len(o.failed) for o in outcomes),
            "metrics": {k: {"value": values[k], "unit": units[k]}
                        for k in units if k in values},
        },
    }


def machine() -> str:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"nproc {os.cpu_count()}, numpy {numpy.__version__}, BLAS "
            f"{blas.get('name')} {blas.get('version')}, "
            f"{BLAS_THREADS} BLAS thread(s)")


def report(res: dict, n: int) -> None:
    r = res["result"]
    print(f"{res['workload']} seed {n}: {res['rounds']} round(s), "
          f"attempted {r['attempted']}, failed {r['failed']}, "
          f"correct {str(r['correct']).lower()}")
    for name, m in r["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print("  round walls " + " ".join(f"{w:.3f}" for w in res["walls"]))
    print(f"  csv sha256 {res['digest']}")
    for problem in res["problems"]:
        print(f"  problem: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: shifts the osifl seeds")
    parser.add_argument("--seconds", type=float,
                        help="run length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "osifl" / "__init__.py").is_file():
        print(f"error: osifl sources not found under {SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print(machine())
    results = []
    for name in names:
        res = measure(WORKLOADS[name], args.seed, seconds, bool(args.trace),
                      units)
        report(res, args.seed)
        results.append(res["result"])
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}/{k}": v for name, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
