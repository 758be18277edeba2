"""Checks on the CSVs one workload command wrote, computed apart from the
program: from the benchmark's own reading of the files, its own
arithmetic and the closed forms in `workloads.py`.

Each check returns a list of problems, each starting with the check's
name; an empty list means the output passed.
"""
from __future__ import annotations

import csv
import hashlib
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Workload

REL_TOL = 1e-12

# `run failed: OSIFL seed=42: ...` from `run`, and
# `sweep run failed: p=0 OSIFL seed=42: ...` from `sweep`.
FAILURE_LINE = re.compile(
    r"run failed: (?:(?P<axis>\w+)=(?P<value>\S+) )?(?P<method>\w+) "
    r"seed=(?P<seed>-?\d+):")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def csv_digest(out_dir: Path) -> str:
    """sha256 over every CSV's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def accuracy_matrix(rows: list[dict], num_tasks: int
                    ) -> list[list[float]] | None:
    """Row t-1 holds the accuracies on tasks 1..t after task t; None if
    any (task, eval task) row or per-task summary row is missing."""
    acc = {(int(r["task"]), int(r["eval_task"])): float(r["accuracy"])
           for r in rows}
    need = [(t, j) for t in range(1, num_tasks + 1)
            for j in list(range(1, t + 1)) + [-1]]
    if any(key not in acc for key in need):
        return None
    return [[acc[(t, j)] for j in range(1, t + 1)]
            for t in range(1, num_tasks + 1)]


def check_task_average(rows: list[dict]) -> list[str]:
    """Each task's avg_acc is the mean of its eval-task accuracies, on
    every row of that task, and the summary row's accuracy repeats it."""
    problems = []
    by_task: dict[int, list[dict]] = {}
    for r in rows:
        by_task.setdefault(int(r["task"]), []).append(r)
    for t, task_rows in sorted(by_task.items()):
        accs = [float(r["accuracy"]) for r in task_rows
                if int(r["eval_task"]) != -1]
        expect = _mean(accs)
        for r in task_rows:
            if not _close(float(r["avg_acc"]), expect):
                problems.append(
                    f"task_average: {r['method']} seed {r['seed']} task {t}"
                    f" eval {r['eval_task']}: avg_acc {r['avg_acc']} != "
                    f"mean {expect!r}")
            if int(r["eval_task"]) == -1 and \
                    not _close(float(r["accuracy"]), expect):
                problems.append(
                    f"task_average: {r['method']} seed {r['seed']} task {t}"
                    f" summary accuracy {r['accuracy']} != mean {expect!r}")
    return problems


def _off_grid(value: float, denominator: int) -> bool:
    scaled = value * denominator
    k = round(scaled)
    return abs(scaled - k) > 1e-9 * denominator or not 0 <= k <= denominator


def check_accuracy_grid(rows: list[dict], workload: Workload) -> list[str]:
    """Each accuracy counts correct test samples: a multiple of
    1 / (test_per_class * classes in the evaluated task), in [0, 1]."""
    problems = []
    for r in rows:
        j = int(r["eval_task"])
        if j == -1:
            continue
        n = workload.test_count(j)
        if _off_grid(float(r["accuracy"]), n):
            problems.append(
                f"accuracy_grid: {r['method']} seed {r['seed']} task "
                f"{r['task']} eval {j}: {r['accuracy']} is not k/{n}")
    return problems


def forgetting_after(matrix: list[list[float]]) -> list[float]:
    """Mean best-ever minus current accuracy over earlier tasks, after
    each task; 0 after the first."""
    out = []
    for t in range(len(matrix)):
        drops = [max(matrix[s][j] for s in range(j, t + 1)) - matrix[t][j]
                 for j in range(t)]
        out.append(_mean(drops) if drops else 0.0)
    return out


def check_forgetting(rows: list[dict], matrix: list[list[float]]
                     ) -> list[str]:
    problems = []
    expect = forgetting_after(matrix)
    for r in rows:
        t = int(r["task"])
        if not _close(float(r["forgetting_mean"]), expect[t - 1]):
            problems.append(
                f"forgetting: {r['method']} seed {r['seed']} task {t}: "
                f"{r['forgetting_mean']} != recomputed {expect[t - 1]!r}")
    return problems


def check_uploads(rows: list[dict], workload: Workload) -> list[str]:
    """upload_floats_total equals its closed form from the config; rows
    without a task column (sweep rows) hold the total after the last."""
    problems = []
    for r in rows:
        t = int(r.get("task", workload.param("num_tasks")))
        expect = workload.uploads_after(r["method"], t)
        if float(r["upload_floats_total"]) != expect:
            problems.append(
                f"uploads: {r['method']} seed {r['seed']} task {t}: "
                f"{r['upload_floats_total']} != closed form {expect}")
    return problems


MEANED = ("avg_acc", "forgetting_mean", "upload_floats_total",
          "madds_total")


def check_summary(summary: list[dict], per_run: dict[tuple, list[dict]]
                  ) -> list[str]:
    """summary.csv holds, per method and task, the seed means of the
    per-run task rows (eval_task = -1), with seed = -1."""
    problems = []
    expect: dict[tuple[str, int], list[dict]] = {}
    for (method, _seed), rows in per_run.items():
        for r in rows:
            if int(r["eval_task"]) == -1:
                expect.setdefault((method, int(r["task"])), []).append(r)
    got = {}
    for r in summary:
        key = (r["method"], int(r["task"]))
        if key in got or r["seed"] != "-1" or r["eval_task"] != "-1":
            problems.append(f"summary: unexpected row {r}")
        got[key] = r
    if sorted(got) != sorted(expect):
        problems.append(f"summary: rows for {sorted(got)} but per-run "
                        f"files give {sorted(expect)}")
    for key in sorted(set(got) & set(expect)):
        for col in MEANED + ("accuracy",):
            src = "avg_acc" if col == "accuracy" else col
            mean = _mean(float(r[src]) for r in expect[key])
            if not _close(float(got[key][col]), mean):
                problems.append(
                    f"summary: {key[0]} task {key[1]} {col} "
                    f"{got[key][col]} != seed mean {mean!r}")
    return problems


def check_ordering(final_acc: dict[str, float]) -> list[str]:
    """Seed-mean final accuracies order as
    OSCAR_CEILING >= OSIFL - 0.02 >= OSCAR_IL - 0.04."""
    if not {"OSCAR_CEILING", "OSIFL", "OSCAR_IL"} <= set(final_acc):
        return []
    ceiling, replay, naive = (final_acc[m] for m in
                              ("OSCAR_CEILING", "OSIFL", "OSCAR_IL"))
    if ceiling >= replay - 0.02 >= naive - 0.04:
        return []
    return [f"ordering: ceiling {ceiling!r}, OSIFL {replay!r}, "
            f"OSCAR_IL {naive!r} break ceiling >= OSIFL - 0.02 >= "
            f"OSCAR_IL - 0.04"]


# The result columns of a sweep row.
SWEEP_RESULT = ("avg_acc_final", "forgetting_mean", "upload_floats_total",
                "madds_total")


def check_sweep_summary(rows: list[dict]) -> list[str]:
    """Each (value, method) row with seed = -1 is the seed mean."""
    problems = []
    groups: dict[tuple[str, str], list[dict]] = {}
    means = {}
    for r in rows:
        key = (r["value"], r["method"])
        if r["seed"] == "-1":
            if key in means:
                problems.append(f"summary: duplicate seed-mean row {key}")
            means[key] = r
        else:
            groups.setdefault(key, []).append(r)
    if sorted(means) != sorted(groups):
        problems.append(f"summary: seed-mean rows for {sorted(means)} but "
                        f"per-seed rows for {sorted(groups)}")
    for key in sorted(set(means) & set(groups)):
        for col in SWEEP_RESULT:
            mean = _mean(float(r[col]) for r in groups[key])
            if not _close(float(means[key][col]), mean):
                problems.append(f"summary: p={key[0]} {key[1]} {col} "
                                f"{means[key][col]} != seed mean {mean!r}")
    return problems


def check_sweep_grid(rows: list[dict], workload: Workload) -> list[str]:
    """A final average accuracy is a mean of num_tasks accuracies, so a
    multiple of 1 / (num_tasks * lcm of the test set sizes)."""
    tasks = workload.param("num_tasks")
    n = tasks * math.lcm(*(workload.test_count(t)
                           for t in range(1, tasks + 1)))
    return [f"accuracy_grid: p={r['value']} {r['method']} seed {r['seed']}: "
            f"{r['avg_acc_final']} is not k/{n}"
            for r in rows if r["seed"] != "-1"
            and _off_grid(float(r["avg_acc_final"]), n)]


def check_sweep_inert(rows: list[dict]) -> list[str]:
    """p sizes only OSIFL's exemplar memory, so every other method's row
    is identical for every p."""
    problems = []
    first: dict[tuple[str, str], dict] = {}
    for r in rows:
        if r["method"] == "OSIFL":
            continue
        key = (r["method"], r["seed"])
        base = first.setdefault(key, r)
        if any(r[c] != base[c] for c in SWEEP_RESULT):
            problems.append(
                f"sweep_inert: {r['method']} seed {r['seed']} differs "
                f"between p={base['value']} and p={r['value']}")
    return problems


def check_p0_is_naive(rows: list[dict]) -> list[str]:
    """Replay from an empty memory is naive fine-tuning: OSIFL at p = 0
    has OSCAR_IL's accuracy and forgetting, to the last digit."""
    problems = []
    naive = {r["seed"]: r for r in rows if r["method"] == "OSCAR_IL"}
    for r in rows:
        if r["method"] != "OSIFL" or r["value"] != "0" \
                or r["seed"] not in naive:
            continue
        for col in ("avg_acc_final", "forgetting_mean"):
            if r[col] != naive[r["seed"]][col]:
                problems.append(
                    f"p0_is_naive: seed {r['seed']} OSIFL {col} {r[col]} "
                    f"!= OSCAR_IL {naive[r['seed']][col]}")
    return problems


@dataclass
class Outcome:
    """What one workload command produced, as the benchmark reads it."""

    problems: list[str] = field(default_factory=list)
    failed: set = field(default_factory=set)
    acc_final: float = 0.0
    upload_floats: int = 0
    digest: str = ""


def failures_named(stderr_text: str) -> set[tuple[str, int, str | None]]:
    """(method, seed, axis value) of every run the CLI reported failed."""
    return {(m["method"], int(m["seed"]), m["value"])
            for m in FAILURE_LINE.finditer(stderr_text)}


def _check_run(out_dir: Path, workload: Workload, n: int,
               outcome: Outcome) -> None:
    tasks = workload.param("num_tasks")
    per_run, osifl_final = {}, []
    for method, seed, _ in workload.operations(n):
        path = out_dir / f"run_{method}_seed{seed}.csv"
        rows = read_csv(path) if path.exists() else []
        matrix = accuracy_matrix(rows, tasks)
        if matrix is None:
            outcome.failed.add((method, seed, None))
            continue
        per_run[(method, seed)] = rows
        outcome.problems += check_task_average(rows)
        outcome.problems += check_accuracy_grid(rows, workload)
        outcome.problems += check_forgetting(rows, matrix)
        outcome.problems += check_uploads(rows, workload)
        outcome.upload_floats += int(rows[-1]["upload_floats_total"])
        if method == "OSIFL":
            osifl_final.append(_mean(matrix[-1]))
    name = "summary.partial.csv" if outcome.failed else "summary.csv"
    summary = read_csv(out_dir / name) if (out_dir / name).exists() else []
    outcome.problems += check_summary(summary, per_run)
    final = {r["method"]: float(r["avg_acc"]) for r in summary
             if int(r["task"]) == tasks}
    outcome.problems += check_ordering(final)
    outcome.acc_final = _mean(osifl_final) if osifl_final else 0.0


def _check_sweep(out_dir: Path, workload: Workload, n: int,
                 outcome: Outcome) -> None:
    axis = workload.sweep_axis
    path = out_dir / f"sweep_{axis}.csv"
    if not path.exists():
        path = out_dir / f"sweep_{axis}.partial.csv"
    rows = read_csv(path) if path.exists() else []
    if any(r["axis"] != axis for r in rows):
        outcome.problems.append(f"sweep: rows for another axis than {axis}")
    present = {(r["method"], int(r["seed"]), r["value"]) for r in rows}
    per_seed = [r for r in rows if r["seed"] != "-1"]
    for method, seed, value in workload.operations(n):
        if (method, seed, str(value)) not in present:
            outcome.failed.add((method, seed, str(value)))
    outcome.problems += check_sweep_summary(rows)
    outcome.problems += check_sweep_grid(rows, workload)
    outcome.problems += check_uploads(per_seed, workload)
    outcome.problems += check_sweep_inert(per_seed)
    outcome.problems += check_p0_is_naive(per_seed)
    outcome.upload_floats = sum(int(r["upload_floats_total"])
                                for r in per_seed)
    osifl = [float(r["avg_acc_final"]) for r in per_seed
             if r["method"] == "OSIFL"]
    outcome.acc_final = _mean(osifl) if osifl else 0.0


def check_output(out_dir, workload: Workload, n: int,
                 stderr_text: str) -> Outcome:
    """Run every check on one command's output directory.

    An operation is one (method, seed, axis value) run; it failed when
    the CLI names it in a `run failed` line or its rows are missing.
    """
    out_dir = Path(out_dir)
    outcome = Outcome(digest=csv_digest(out_dir))
    if workload.command == "sweep":
        _check_sweep(out_dir, workload, n, outcome)
    else:
        _check_run(out_dir, workload, n, outcome)
    outcome.failed |= failures_named(stderr_text)
    return outcome
