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
from .orchestrator import CSV_HEADER, ServerMemo, rows_to_csv, run_key, \
    run_method, write_report_csv

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


def _seed_means(reports: list) -> list[list[float]]:
    """Per task: seed means of accuracy, forgetting, uploads, madds."""
    cols = ("avg_after", "forgetting_after", "uploads_after", "madds_after")
    return [[float(np.mean([getattr(r, col)[t_idx] for r in reports]))
             for col in cols]
            for t_idx in range(len(reports[0].avg_after))]


def _run_grid(config: ExperimentConfig, axis: str | None, values,
              out_dir: str, stem: str, header: str, run_rows,
              mean_rows) -> int:
    """Run every (axis value, seed, method) cell in that order. Each
    report's rows come from `run_rows(value, report)`, then, per value
    and method, the seed-mean rows from `mean_rows(value, method, means)`.
    The rows go to `<stem>.csv`, or `<stem>.partial.csv` if any run
    failed; then the exit code is 1 and each failure is printed. The
    other of the two files, left by an earlier run, is removed. All
    cells share one server memo, so each generator is pretrained and
    each task's data synthesized once for the whole grid. A cell whose
    `run_key` an earlier cell already ran reuses that report with its
    own `config_echo`; a failed run is not kept, so every cell that
    reaches it runs and fails again."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise ConfigError(
            f"cannot create output directory {out_dir}: {err}") from None
    seeds = resolve_seeds(config)
    server = ServerMemo()
    memo: dict = {}
    rows: list[list] = []
    failures: list[str] = []
    for value in values:
        cfg = config if axis is None else \
            dataclasses.replace(config, **{FIELD_SPECS[axis][0]: value})
        tag = "" if axis is None else f"{axis}={value} "
        done: dict = {method: [] for method in cfg.methods}
        for seed in seeds:
            inputs = build_run_inputs(cfg, seed)
            for method in cfg.methods:
                key = run_key(method, cfg, seed)
                if key in memo:
                    report = dataclasses.replace(
                        memo[key], config_echo=cfg.canonical())
                else:
                    try:
                        report = run_method(method, *inputs, cfg, seed,
                                            server=server)
                    except Exception as err:
                        failures.append(
                            f"{tag}{method.value} seed={seed}: {err}")
                        continue
                    memo[key] = report
                done[method].append(report)
                rows.extend(run_rows(value, report))
        for method, reports in done.items():
            if reports:
                rows.extend(mean_rows(value, method, _seed_means(reports)))
    name, stale = f"{stem}.csv", f"{stem}.partial.csv"
    if failures:
        name, stale = stale, name
    with open(os.path.join(out_dir, name), "w", newline="\n") as fh:
        fh.write(rows_to_csv(rows, header=header))
    # A summary an earlier run left under the other name would read as
    # this run's.
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, stale))
    for failure in failures:
        print(f"{'' if axis is None else 'sweep '}run failed: {failure}",
              file=sys.stderr)
    return 1 if failures else 0


def run_experiment(config: ExperimentConfig, out_dir: str) -> int:
    """Run every configured (method, seed) pair; write one CSV per run
    plus a seed-averaged summary. Nonzero exit if any run failed, with
    whatever completed written under a 'partial' summary name."""
    def write_run(_value, report):
        write_report_csv(os.path.join(
            out_dir, f"run_{report.method}_seed{report.seed}.csv"), [report])
        return []

    def summary_rows(_value, method, means):
        return [[method.value, -1, t_idx + 1, -1, avg, avg, forg, ups, madds]
                for t_idx, (avg, forg, ups, madds) in enumerate(means)]

    return _run_grid(config, None, [None], out_dir, "summary", CSV_HEADER,
                     write_run, summary_rows)


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

    def seed_row(value, report):
        return [[axis, value, report.method, report.seed,
                 report.avg_after[-1], report.forgetting_mean,
                 report.upload_floats_total, report.madds_total]]

    def mean_row(value, method, means):
        return [[axis, value, method.value, -1] + means[-1]]

    return _run_grid(config, axis, parsed, out_dir, f"sweep_{axis}",
                     SWEEP_HEADER, seed_row, mean_row)


def _load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
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
