"""Each output check passes on a consistent hand-built output and fails
once that output is corrupted by hand.

    python3 -m pytest bench/test_checks.py
"""
import csv
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import check_output, csv_digest  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

RUN_HEADER = ["method", "seed", "task", "eval_task", "accuracy", "avg_acc",
              "forgetting_mean", "upload_floats_total", "madds_total"]
SWEEP_HEADER = ["axis", "value", "method", "seed", "avg_acc_final",
                "forgetting_mean", "upload_floats_total", "madds_total"]

# Three tasks of two classes, five test samples a class: accuracies are
# tenths. Correct counts after each task, per method.
TINY_RUN = Workload(
    name="tiny-run", command="run",
    methods=("OSIFL", "OSCAR_IL", "OSCAR_CEILING", "FEDAVG"),
    base_seeds=(1, 2),
    params={"num_classes": 6, "num_tasks": 3, "classes_per_task": 2,
            "test_per_class": 5, "dim_e": 4, "rounds": 2})
CORRECT = {
    "OSIFL": [[10], [9, 10], [9, 8, 10]],
    "OSCAR_IL": [[10], [3, 10], [1, 2, 10]],
    "OSCAR_CEILING": [[10], [10, 10], [9, 9, 10]],
    "FEDAVG": [[9], [2, 9], [0, 1, 9]],
}
TINY_SWEEP = Workload(
    name="tiny-sweep", command="sweep",
    methods=("OSIFL", "OSCAR_IL", "FEDAVG"), base_seeds=(1, 2),
    params={"suite_mode": "domain_incremental", "num_classes": 3,
            "num_tasks": 2, "test_per_class": 5, "dim_e": 4, "rounds": 2},
    sweep_axis="p", sweep_values=(0, 2))


def _write(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _edit(path: Path, where: dict, column: str, value) -> None:
    """Set `column` to `value` on every row matching `where`."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    hits = 0
    for r in rows:
        if all(r[k] == str(v) for k, v in where.items()):
            r[column] = str(value)
            hits += 1
    assert hits, f"no row of {path.name} matches {where}"
    _write(path, list(rows[0]), [list(r.values()) for r in rows])


def _drops(matrix, t):
    """Mean best-ever minus current accuracy after task t (0-based)."""
    drops = [max(matrix[s][j] for s in range(j, t + 1)) - matrix[t][j]
             for j in range(t)]
    return sum(drops) / len(drops) if drops else 0.0


def make_run_output(out: Path, correct=CORRECT) -> None:
    """Per-run CSVs and summary.csv for TINY_RUN, as `osifl run` lays
    them out; seed 2 gets one more correct answer on task 1."""
    out.mkdir()
    tasks = TINY_RUN.param("num_tasks")
    summary: dict = {}
    for method in TINY_RUN.methods:
        for seed in TINY_RUN.base_seeds:
            counts = [row[:] for row in correct[method]]
            if seed == 2 and counts[-1][0] < 10:
                counts[-1][0] += 1
            matrix = [[k / 10 for k in row] for row in counts]
            rows = []
            for t in range(tasks):
                avg = sum(matrix[t]) / len(matrix[t])
                common = [avg, _drops(matrix, t),
                          TINY_RUN.uploads_after(method, t + 1),
                          1000 * (t + 1)]
                for j, acc in enumerate(matrix[t]):
                    rows.append([method, seed, t + 1, j + 1, acc] + common)
                rows.append([method, seed, t + 1, -1, avg] + common)
                summary.setdefault((method, t + 1), []).append(common)
            _write(out / f"run_{method}_seed{seed}.csv", RUN_HEADER, rows)
    rows = []
    for (method, t), commons in summary.items():
        means = [sum(c[i] for c in commons) / len(commons)
                 for i in range(4)]
        rows.append([method, -1, t, -1, means[0]] + means)
    _write(out / "summary.csv", RUN_HEADER, rows)


def make_sweep_output(out: Path) -> None:
    """sweep_p.csv for TINY_SWEEP. Accuracies average two tasks of 15
    test samples, so they are thirtieths."""
    out.mkdir()
    tasks = TINY_SWEEP.param("num_tasks")
    # (avg_acc_final in thirtieths, forgetting in fifteenths, madds)
    result = {
        ("OSCAR_IL", "0"): (20, 4, 500), ("OSCAR_IL", "2"): (20, 4, 500),
        ("FEDAVG", "0"): (18, 5, 700), ("FEDAVG", "2"): (18, 5, 700),
        ("OSIFL", "0"): (20, 4, 540), ("OSIFL", "2"): (27, 1, 600),
    }
    rows = []
    for value in TINY_SWEEP.sweep_values:
        for method in TINY_SWEEP.methods:
            per_seed = []
            for seed in TINY_SWEEP.base_seeds:
                acc, forg, madds = result[(method, str(value))]
                per_seed.append([acc / 30, forg / 15,
                                 TINY_SWEEP.uploads_after(method, tasks),
                                 madds + seed])
                rows.append(["p", value, method, seed] + per_seed[-1])
            rows.append(["p", value, method, -1] + [
                sum(r[i] for r in per_seed) / len(per_seed)
                for i in range(4)])
    _write(out / "sweep_p.csv", SWEEP_HEADER, rows)


def _names(outcome):
    return {p.split(":")[0] for p in outcome.problems}


def test_closed_form_uploads_match_reference_figures():
    surrogate = WORKLOADS["class-inc-surrogate"]
    sweep = WORKLOADS["domain-inc-p-sweep"]
    # Per-run totals written by `osifl run` and `osifl sweep` at the
    # default config: 6 tasks, 5 or 30 classes, dim_e 64, 20 rounds.
    assert surrogate.uploads_after("OSIFL", 6) == 6 * 5 * 64 == 1920
    assert surrogate.uploads_after("FEDAVG", 6) == 136500
    assert sweep.uploads_after("OSCAR_IL", 6) == 11520
    assert sweep.uploads_after("FEDAVG", 6) == 6 * 20 * (30 * 64 + 30)


def test_consistent_outputs_pass(tmp_path):
    make_run_output(tmp_path / "run")
    make_sweep_output(tmp_path / "sweep")
    run = check_output(tmp_path / "run", TINY_RUN, 0, "")
    sweep = check_output(tmp_path / "sweep", TINY_SWEEP, 0, "")
    assert run.problems == [] and run.failed == set()
    assert sweep.problems == [] and sweep.failed == set()
    # OSIFL's final rows: 9, 8, 10 and 10, 8, 10 tenths.
    assert run.acc_final == pytest.approx((27 / 30 + 28 / 30) / 2)
    assert sweep.acc_final == pytest.approx((20 + 27) / 30 / 2)


@pytest.mark.parametrize("file, where, column, value, check", [
    ("run_OSIFL_seed1.csv", {"task": 2, "eval_task": -1}, "avg_acc", 0.9,
     "task_average"),
    ("run_OSIFL_seed1.csv", {"task": 3, "eval_task": 2}, "accuracy", 0.85,
     "accuracy_grid"),
    ("run_OSCAR_IL_seed2.csv", {"task": 3}, "forgetting_mean", 0.5,
     "forgetting"),
    ("run_FEDAVG_seed1.csv", {"task": 2}, "upload_floats_total", 61,
     "uploads"),
    ("summary.csv", {"method": "OSIFL", "task": 3}, "madds_total", 3001.0,
     "summary"),
])
def test_corrupted_run_output_fails(tmp_path, file, where, column, value,
                                    check):
    make_run_output(tmp_path / "out")
    _edit(tmp_path / "out" / file, where, column, value)
    assert check in _names(check_output(tmp_path / "out", TINY_RUN, 0, ""))


def test_ceiling_below_replay_fails_ordering(tmp_path):
    correct = dict(CORRECT, OSCAR_CEILING=[[10], [9, 10], [5, 5, 10]])
    make_run_output(tmp_path / "out", correct)
    outcome = check_output(tmp_path / "out", TINY_RUN, 0, "")
    assert _names(outcome) == {"ordering"}


def test_replay_below_naive_fails_ordering(tmp_path):
    correct = dict(CORRECT, OSIFL=[[10], [3, 10], [0, 0, 9]])
    make_run_output(tmp_path / "out", correct)
    outcome = check_output(tmp_path / "out", TINY_RUN, 0, "")
    assert _names(outcome) == {"ordering"}


@pytest.mark.parametrize("where, column, value, check", [
    ({"method": "FEDAVG", "seed": 1, "value": 2}, "madds_total", 702,
     "sweep_inert"),
    ({"method": "OSIFL", "seed": 2, "value": 0}, "forgetting_mean", 0.2,
     "p0_is_naive"),
    ({"method": "OSIFL", "seed": -1, "value": 2}, "avg_acc_final", 0.8,
     "summary"),
    ({"method": "OSIFL", "seed": 1, "value": 2}, "avg_acc_final", 0.91,
     "accuracy_grid"),
    ({"method": "OSCAR_IL", "seed": 1}, "upload_floats_total", 23,
     "uploads"),
])
def test_corrupted_sweep_output_fails(tmp_path, where, column, value, check):
    make_sweep_output(tmp_path / "out")
    _edit(tmp_path / "out" / "sweep_p.csv", where, column, value)
    assert check in _names(check_output(tmp_path / "out", TINY_SWEEP, 0,
                                         ""))


def test_missing_rows_and_reported_failures_count_as_failed(tmp_path):
    make_run_output(tmp_path / "run")
    (tmp_path / "run" / "run_OSCAR_IL_seed2.csv").unlink()
    stderr = "run failed: FEDAVG seed=1: boom\n"
    run = check_output(tmp_path / "run", TINY_RUN, 0, stderr)
    assert run.failed == {("OSCAR_IL", 2, None), ("FEDAVG", 1, None)}

    make_sweep_output(tmp_path / "sweep")
    path = tmp_path / "sweep" / "sweep_p.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines
                            if not line.startswith("p,2,OSIFL,1,")))
    stderr = "sweep run failed: p=0 FEDAVG seed=2: boom\n"
    sweep = check_output(tmp_path / "sweep", TINY_SWEEP, 0, stderr)
    assert sweep.failed == {("OSIFL", 1, "2"), ("FEDAVG", 2, "0")}


def test_digest_sees_one_changed_byte(tmp_path):
    make_run_output(tmp_path / "out")
    before = csv_digest(tmp_path / "out")
    path = tmp_path / "out" / "summary.csv"
    path.write_bytes(path.read_bytes().replace(b"OSIFL", b"OSIFM", 1))
    assert csv_digest(tmp_path / "out") != before
