"""Command line front end: run, sweep, selftest."""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

import numpy as np

from .config import FIELD_SPECS, ExperimentConfig, _distinct, \
    build_run_inputs, parse_config
from .errors import ConfigError
# Grids drive `run_steps` through `lockstep`; `run_method`, which drives
# one run alone, stays bound here for callers that wrap it.
from .orchestrator import CSV_HEADER, ServerMemo, lockstep, rows_to_csv, \
    run_key, run_method, run_steps, write_report_csv

SEED_ENV = "OSIFL_SEED_OVERRIDE"

SWEEP_AXES = ("p", "clients_per_task", "w")

SWEEP_HEADER = ("axis,value,method,seed,avg_acc_final,forgetting_mean,"
                "upload_floats_total,madds_total")


def resolve_seeds(config: ExperimentConfig) -> tuple[int, ...]:
    """Config seeds, unless the override environment variable is set;
    its value is parsed like the config file's `seeds` key."""
    raw = os.environ.get(SEED_ENV)
    if raw is None or not raw.strip():
        return tuple(config.seeds)
    try:
        return FIELD_SPECS["seeds"][1](raw)
    except ConfigError as err:
        raise ConfigError(f"{SEED_ENV}: {err}") from None


def _seed_means(cfg: ExperimentConfig, reports: list):
    """Per configured method with reports: its per-task seed means."""
    cols = ("avg_after", "forgetting_after", "uploads_after", "madds_after")
    for method in cfg.methods:
        mine = [r for r in reports if r.method == method.value]
        if mine:
            yield method, [[float(np.mean([getattr(r, col)[t_idx]
                                           for r in mine])) for col in cols]
                           for t_idx in range(len(mine[0].avg_after))]


def run_grid(config: ExperimentConfig, axis: str | None, values, seeds,
             server: ServerMemo | None = None):
    """Run every (axis value, seed, method) cell; return one `(cfg,
    reports)` per value, reports in that order, and a line per failed
    run in that order. All cells share `server` (a new memo by default),
    so each seed's inputs are built (`p` and `w` do not change them),
    each generator pretrained, each task's data synthesized and each
    `run_key` run once. The seeds of one value and method that still
    need a run advance together (`lockstep`), so that their matching
    training calls train as one stack. A cell that reuses a report gets
    its own `config_echo`; a failed run is not kept, so every cell that
    reaches it runs and fails again."""
    server = ServerMemo() if server is None else server
    cells, failures = [], []

    def steps(method, cfg, seed):
        # `run_steps` on the seed's inputs, built once the run is first
        # driven, so that an error building them fails the run.
        key = ("inputs", seed, dataclasses.replace(
            cfg, retain_per_class=None, guidance_w=None))
        inputs = server.recall(key, lambda _: build_run_inputs(cfg, seed),
                               None)
        return (yield from run_steps(method, *inputs, cfg, seed,
                                     server=server))

    for value in values:
        cfg = config if axis is None else \
            dataclasses.replace(config, **{FIELD_SPECS[axis][0]: value})
        done = {(seed, method): None for seed in seeds
                for method in cfg.methods}
        for method in cfg.methods:
            keys = {seed: run_key(method, cfg, seed) for seed in seeds}
            todo = [seed for seed in seeds if keys[seed] not in server]
            ran = dict(zip(todo, lockstep([steps(method, cfg, seed)
                                           for seed in todo])))
            for seed in seeds:
                result = ran.get(seed)
                if not isinstance(result, Exception):
                    # Keeps a new report, or recalls the kept one.
                    result = server.recall(keys[seed], lambda _: ran[seed],
                                           None)
                done[seed, method] = result
        tag = "" if axis is None else f"{axis}={value} "
        failures.extend(f"{tag}{m.value} seed={seed}: {result}"
                        for (seed, m), result in done.items()
                        if isinstance(result, Exception))
        cells.append((cfg, [dataclasses.replace(
            result, config_echo=cfg.canonical())
            for result in done.values() if not isinstance(result, Exception)]))
    return cells, failures


def _run_into(out_dir: str, config: ExperimentConfig, axis, values):
    """Create `out_dir`, then run the grid over the resolved seeds."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise ConfigError(
            f"cannot create output directory {out_dir}: {err}") from None
    return run_grid(config, axis, values, resolve_seeds(config))


def _write_summary(out_dir: str, stem: str, header: str, rows: list,
                   failures: list[str], label: str) -> int:
    """Write `<stem>.csv`, or `<stem>.partial.csv` and print each failure
    if a run failed; remove the other name, so an earlier run's summary
    cannot read as this one's. Exit code 1 if a run failed."""
    name, stale = f"{stem}.csv", f"{stem}.partial.csv"
    if failures:
        name, stale = stale, name
    with open(os.path.join(out_dir, name), "w", newline="\n") as fh:
        fh.write(rows_to_csv(rows, header=header))
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, stale))
    for failure in failures:
        print(f"{label}: {failure}", file=sys.stderr)
    return 1 if failures else 0


def run_experiment(config: ExperimentConfig, out_dir: str) -> int:
    """Run every configured (method, seed) pair; write one CSV per run
    plus a seed-averaged summary. Nonzero exit if any run failed, with
    whatever completed written under a 'partial' summary name."""
    [(_, reports)], failures = _run_into(out_dir, config, None, [None])
    for report in reports:
        write_report_csv(os.path.join(
            out_dir, f"run_{report.method}_seed{report.seed}.csv"), [report])
    rows = [[method.value, -1, t_idx + 1, -1, avg, avg, forg, ups, madds]
            for method, means in _seed_means(config, reports)
            for t_idx, (avg, forg, ups, madds) in enumerate(means)]
    return _write_summary(out_dir, "summary", CSV_HEADER, rows, failures,
                          "run failed")


def sweep(config: ExperimentConfig, axis: str, values, out_dir: str) -> int:
    """Run the whole experiment per axis value; same world and seeds
    across values, so comparisons are paired. One combined CSV. Values
    are checked with the config file's parser for the axis key, and for
    a value listed twice, before any run starts. A method that does not
    read the axis runs once per seed and its report is reused for every
    value."""
    if axis not in SWEEP_AXES:
        raise ConfigError(
            f"unknown sweep axis {axis!r}; choose from {sorted(SWEEP_AXES)}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    try:
        parsed = _distinct(tuple(FIELD_SPECS[axis][1](value)
                                 for value in values), "value")
    except ConfigError as err:
        raise ConfigError(f"sweep {axis}: {err}") from None
    cells, failures = _run_into(out_dir, config, axis, parsed)
    rows = []
    for value, (cfg, reports) in zip(parsed, cells):
        rows.extend([axis, value, r.method, r.seed, r.avg_after[-1],
                     r.forgetting_mean, r.upload_floats_total, r.madds_total]
                    for r in reports)
        rows.extend([axis, value, method.value, -1] + means[-1]
                    for method, means in _seed_means(cfg, reports))
    return _write_summary(out_dir, f"sweep_{axis}", SWEEP_HEADER, rows,
                          failures, "sweep run failed")


def _load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return parse_config(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="osifl",
        description="One-shot incremental federated learning simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run all configured methods and seeds")
    p_run.add_argument("--config", required=True, help="config file path")
    p_run.add_argument("--out", help="output directory (default from config)")
    p_sweep = sub.add_parser("sweep", help="sweep one config axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True,
                         choices=sorted(SWEEP_AXES))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    p_sweep.add_argument("--out", help="output directory")
    sub.add_parser("selftest", help="run the acceptance checks")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = _load_config(args.config)
            return run_experiment(config, args.out or config.out_dir)
        if args.command == "sweep":
            config = _load_config(args.config)
            values = [tok.strip() for tok in args.values.split(",")
                      if tok.strip()]
            return sweep(config, args.axis, values,
                         args.out or config.out_dir)
        if args.command == "selftest":
            from .acceptance import run_all
            return run_all()
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
