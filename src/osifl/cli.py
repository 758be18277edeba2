"""Command line front end: run, sweep, selftest."""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import os
import sys

import numpy as np

from . import plan
from .config import FIELD_SPECS, ExperimentConfig, _distinct, \
    build_run_inputs, parse_config
from .encoder import make_encoder
from .errors import ConfigError
# Grids drive `run_steps` through `lockstep`; `run_method`, which drives
# one run alone, stays bound here for callers that wrap it.
from .orchestrator import CSV_HEADER, FEDERATED_METHODS, ServerMemo, \
    build_generator, lockstep, memo_key, rows_to_csv, run_method, \
    run_steps, task_synthesis, write_report_csv

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


def _check_axis(axis: str) -> None:
    if axis not in SWEEP_AXES:
        raise ConfigError(
            f"unknown sweep axis {axis!r}; choose from {sorted(SWEEP_AXES)}")


def _axis_configs(config: ExperimentConfig, axis: str | None, values):
    """One config per axis value (`config` itself when `axis` is None),
    all built before any run; a value the config refuses raises
    `ConfigError` prefixed `{axis}={value}:`."""
    if axis is None:
        return [config] * len(values)
    _check_axis(axis)
    configs = []
    for value in values:
        try:
            configs.append(dataclasses.replace(
                config, **{FIELD_SPECS[axis][0]: value}))
        except ConfigError as err:
            raise ConfigError(f"{axis}={value}: {err}", err.key) from None
    return configs


def run_grid(config: ExperimentConfig, axis: str | None, values, seeds,
             server: ServerMemo | None = None, workers: int = 0):
    """Run every (axis value, seed, method) cell; return one `(cfg,
    reports)` per value, reports in that order, and a line per failed
    run in that order. Every value's config is built, and refused with
    `ConfigError`, before any run. All cells share `server` (a new memo
    by default), so each seed's inputs, generator, task synthesis and run
    is computed once per `memo_key`: a run's report, or its error, fills
    every cell that names its key. The seeds of one value and method
    that still need a run advance together (`lockstep`), so that their
    matching training calls train as one stack. A cell that reuses a
    report gets its own `config_echo`.

    `workers=1` lets the grid, on a machine with `os.fork` and two CPUs,
    give part of its pending work to one forked worker, as `plan.split`
    places it: lockstep groups across all values and, under `ddpm`, a
    one-shot group's runs of a seed. One call, `plan.forked`, runs this
    process's units and the worker's; each process builds what its own
    runs read, and the worker pipes back only each report, or each
    failure's text. If the plan gives the worker nothing, a `ddpm`
    seed's generator is built here first, and a worker that inherits it
    synthesizes some of its tasks and pipes back their drawn rows; then
    the runs are planned again, the built entries priced at 0, and may
    fork a second worker. Reports and failure lines are those of
    `workers=0`, which runs everything in this process in serial order,
    so that a wrapper around a module function sees every call. A worker
    that dies fails each run it held; a task it held is left to the
    runs."""
    return _run_cells(_axis_configs(config, axis, values), axis, values,
                      seeds, ServerMemo() if server is None else server,
                      workers)


def _run_cells(configs, axis, values, seeds, server: ServerMemo,
               workers: int):
    """`run_grid` over the already built config of each value."""
    if workers not in (0, 1):
        raise ConfigError(f"workers must be 0 or 1, not {workers!r}")
    results = _run_groups(_pending(configs, seeds, server), server, workers)
    keys = [{(seed, method): memo_key(method, cfg, seed) for seed in seeds
             for method in cfg.methods} for cfg in configs]
    cells, failures = [], []
    for value, cfg, key in zip(values, configs, keys):
        done = {}
        for (seed, method), run_key in key.items():
            result = results.get(run_key)
            if not isinstance(result, Exception):
                # Keeps a new report, or recalls the kept one.
                result = server.recall(run_key, lambda _: results[run_key],
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


def _pending(configs, seeds, server: ServerMemo) -> list:
    """The lockstep groups `(config, method, seeds)`, in serial order, of
    the runs that `server` lacks, each run in the first that names it."""
    groups, planned = [], set()
    for cfg in configs:
        for method in cfg.methods:
            ready = [seed for seed in seeds
                     if memo_key(method, cfg, seed) not in server
                     and memo_key(method, cfg, seed) not in planned]
            planned.update(memo_key(method, cfg, seed) for seed in ready)
            if ready:
                groups.append((cfg, method, ready))
    return groups


def _run_groups(groups, server: ServerMemo, workers: int) -> dict:
    """Each run's report or error by `memo_key`, from the lockstep groups
    `(config, method, seeds)` in order, or split by `plan.split`. If the
    plan gives the worker nothing, the `ddpm` synthesis is split by task
    first (`_synthesize`), and the runs are planned again."""

    def inputs(cfg, seed):
        return server.recall(memo_key("inputs", cfg, seed),
                             lambda _: build_run_inputs(cfg, seed), None)

    def steps(method, cfg, seed):
        # Inputs are built as the run starts: an error fails it.
        return (yield from run_steps(method, *inputs(cfg, seed), cfg, seed,
                                     server=server))

    def run(jobs) -> dict:
        """Each job's runs, adjacent jobs of one config and method in one
        lockstep."""
        out = {}
        for (cfg, method), same in itertools.groupby(jobs, lambda j: j[:2]):
            ready = [seed for job in same for seed in job[2]]
            out.update(zip([memo_key(method, cfg, seed) for seed in ready],
                           lockstep([steps(method, cfg, seed)
                                     for seed in ready])))
        return out

    here, there = [], []
    if workers and groups and plan.can_fork():
        here, there = plan.split(plan.units(groups))
        if not there and (built := _synthesize(groups, inputs, server)):
            here, there = plan.split(plan.units(groups, built))
    if not there:
        return run(groups)
    return plan.forked(lambda: run([u.job for u in here]),
                       lambda: run([u.job for u in there]),
                       [key for u in there for key in u.key])


def _synthesize(groups, inputs, server: ServerMemo) -> set:
    """Build here, through `server`, the generator of each seed of a
    pending one-shot `ddpm` group; then the synthesis of each of their
    tasks, this process's and a forked worker's tasks as `plan.split`
    places `plan.task_units`. The worker inherits the generators and
    pipes back each task's drawn rows, which this process keeps as the
    task's synthesis. Return the plan's names of the entries built. What
    cannot be built, or comes back unreadable, is left for the runs to
    build, and fail on."""
    units, built = {}, set()
    for cfg, method, seeds in groups:
        if cfg.generator != "ddpm" or method in FEDERATED_METHODS:
            continue
        for seed in seeds:
            # A seed whose generator fails is its runs' to fail on.
            with contextlib.suppress(Exception):
                world = inputs(cfg, seed)[0]
                build_generator(cfg, seed, world,
                                make_encoder(cfg.dim_e, world.dim_x, seed),
                                server)
                built.add(memo_key("generator", cfg, seed))
                units.update((u.key, u) for u in plan.task_units(cfg, seed))
    if not units:
        return built
    here, there = plan.split(list(units.values()))

    def synthesize(tasks, drawn=None) -> dict:
        """Each task's rows, or the error that stopped it."""
        out = {}
        for unit in tasks:
            cfg, seed, t = unit.job
            try:
                world, _, shards, _ = inputs(cfg, seed)
                out[unit.key] = task_synthesis(
                    cfg, seed, world, shards, t, server,
                    None if drawn is None else drawn[unit.key]).data.x
            except Exception as err:
                out[unit.key] = err
        return out

    if there:
        got = plan.forked(lambda: synthesize(here), lambda: synthesize(there),
                          [u.key for u in there])
        got.update(synthesize([u for u in there if isinstance(
            got[u.key], np.ndarray)], got))
        built.update(key for key, rows in got.items()
                     if isinstance(rows, np.ndarray))
    return built


def _run_into(out_dir: str, configs, axis, values, seeds, workers: int):
    """Create `out_dir`, then run the grid of `configs`."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise ConfigError(
            f"cannot create output directory {out_dir}: {err}") from None
    return _run_cells(configs, axis, values, seeds, ServerMemo(), workers)


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


def run_experiment(config: ExperimentConfig, out_dir: str,
                   workers: int = 0) -> int:
    """Run every configured (method, seed) pair; write one CSV per run
    plus a seed-averaged summary. Nonzero exit if any run failed, with
    whatever completed written under a 'partial' summary name, and an
    earlier run's CSV under a failed run's name removed, so that it
    cannot read as this run's. `workers` is `run_grid`'s."""
    seeds = resolve_seeds(config)
    [(_, reports)], failures = _run_into(out_dir, [config], None, [None],
                                         seeds, workers)
    by_cell = {(r.method, r.seed): r for r in reports}
    for seed in seeds:
        for method in config.methods:
            path = os.path.join(out_dir, f"run_{method.value}_seed{seed}.csv")
            report = by_cell.get((method.value, seed))
            if report is None:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
            else:
                write_report_csv(path, [report])
    rows = [[method.value, -1, t_idx + 1, -1, avg, avg, forg, ups, madds]
            for method, means in _seed_means(config, reports)
            for t_idx, (avg, forg, ups, madds) in enumerate(means)]
    return _write_summary(out_dir, "summary", CSV_HEADER, rows, failures,
                          "run failed")


def sweep(config: ExperimentConfig, axis: str, values, out_dir: str,
          workers: int = 0) -> int:
    """Run the whole experiment per axis value; same world and seeds
    across values, so comparisons are paired. One combined CSV. Values
    are checked with the config file's parser for the axis key, for a
    value listed twice, and by building each value's config, before any
    run starts. A method that does not read the axis runs once per
    seed and its report is reused for every value. `workers` is
    `run_grid`'s."""
    _check_axis(axis)
    if not values:
        raise ConfigError("sweep needs at least one value")
    try:
        parsed = _distinct(tuple(FIELD_SPECS[axis][1](value)
                                 for value in values), "value")
    except ConfigError as err:
        raise ConfigError(f"sweep {axis}: {err}") from None
    try:
        configs = _axis_configs(config, axis, parsed)
    except ConfigError as err:
        raise ConfigError(f"sweep {err}") from None
    cells, failures = _run_into(out_dir, configs, axis, parsed,
                                resolve_seeds(config), workers)
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


def main(argv=None, workers: int = 0) -> int:
    """The `osifl` command on `argv`. `workers` is `run_grid`'s: 0 keeps
    every run in this process."""
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
            return run_experiment(config, args.out or config.out_dir,
                                  workers)
        if args.command == "sweep":
            config = _load_config(args.config)
            values = [tok.strip() for tok in args.values.split(",")
                      if tok.strip()]
            return sweep(config, args.axis, values,
                         args.out or config.out_dir, workers)
        if args.command == "selftest":
            from .acceptance import run_all
            return run_all()
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


def command() -> int:
    """The `osifl` console script, and `python -m osifl.cli`: the command
    owns its process, so a grid may fork its worker."""
    return main(workers=1)


if __name__ == "__main__":
    sys.exit(command())
