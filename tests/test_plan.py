"""The grid's plan: `plan.split` over arbitrary units, and what the
estimates decide for the default grids."""
import contextlib
import dataclasses
import os
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osifl import cli, orchestrator, plan
from osifl.config import ExperimentConfig
from osifl.orchestrator import FEDERATED_METHODS, ONESHOT_METHODS, \
    Method, ServerMemo, memo_key
from reference_run import record_states


@st.composite
def _units(draw):
    """Up to eight units; each needs some of four shared entries, at the
    seconds of that entry."""
    seconds = st.floats(0, 2, allow_nan=False)
    entries = {f"e{i}": draw(seconds) for i in range(4)}
    units = []
    for i in range(draw(st.integers(0, 8))):
        own = draw(seconds)
        names = draw(st.lists(st.sampled_from(list(entries)), unique=True,
                              max_size=4))
        units.append(plan.Unit(f"u{i}", own, {e: entries[e] for e in names},
                               None))
    return units


# A saving of FORK_S or less on the returned lists, which once forked
# because the check summed the units in the order they were placed.
_KNIFE_EDGE = [plan.Unit(*unit, None) for unit in (
    ("u0", 0.40789860582892434, {"e0": 1.0094392623686816, "e1": 0.5}),
    ("u1", 0.0, {}), ("u2", 0.40789860582892434, {"e0": 1.0094392623686816}),
    ("u3", 0.0001, {}), ("u4", 0.0001, {"e0": 1.0094392623686816}),
    ("u5", 5.95203091724876e-17, {}))]


@settings(max_examples=300, deadline=None)
@given(units=_units(), fork_s=st.floats(0, 1, allow_nan=False))
@example(units=_KNIFE_EDGE, fork_s=0.0001)
def test_the_split_plans_each_unit_once_and_forks_only_for_a_saving(
        units, fork_s):
    # Hypothesis refuses a function-scoped fixture such as monkeypatch.
    with mock.patch.object(plan, "FORK_S", fork_s):
        here, there = plan.split(units)
    keys = [u.key for u in units]
    # Each unit once, each side in serial order.
    assert sorted(u.key for u in here + there) == sorted(keys)
    for side in (here, there):
        assert [u.key for u in side] == [k for k in keys
                                         if k in {u.key for u in side}]
    # No unit in the worker rebuilds entries this process builds too
    # that cost as much as its own work.
    built_here = {e for u in here for e in u.needs}
    for unit in there:
        assert sum(s for e, s in unit.needs.items()
                   if e in built_here) < unit.seconds
    # The worker gets nothing unless the estimated saving beats the fork.
    assert not there or \
        plan.seconds(units) - plan.finish(here, there) > fork_s


def _grid_units(cfg, axis=None, values=(None,)):
    """The units of `cfg`'s grid as the command would make them."""
    return plan.units(cli._pending(cli._axis_configs(cfg, axis, list(values)),
                                   cfg.seeds, ServerMemo()))


def _plan(cfg, axis=None, values=(None,)):
    """The plan of `cfg`'s grid as the command would make it."""
    return plan.split(_grid_units(cfg, axis, values))


_ONESHOT = tuple(m for m in Method if m in ONESHOT_METHODS)


def test_the_default_ddpm_grids_fork_only_for_a_second_generator():
    # One seed: every unit reads its one generator and its synthesis, so
    # nothing pays for a fork. Three seeds: the worker takes one-shot
    # runs, each unit of them one seed's, whose generator it makes.
    one_seed = ExperimentConfig(generator="ddpm", methods=_ONESHOT,
                                seeds=(42,))
    assert _plan(one_seed)[1] == []
    _, there = _plan(dataclasses.replace(one_seed, methods=tuple(Method),
                                         seeds=(42, 18, 50)))
    one_shot = [u for u in there if u.job[1] not in FEDERATED_METHODS]
    assert one_shot and all(len(u.job[2]) == 1 for u in one_shot)


def test_a_p_sweep_gives_the_worker_a_later_value():
    cfg = ExperimentConfig(suite_mode="domain_incremental",
                           methods=(Method.OSIFL, Method.OSCAR_IL,
                                    Method.FEDAVG), seeds=(42,))
    _, there = _plan(cfg, "p", (0, 5, 10))
    assert any(u.job[1] is Method.OSIFL and u.job[0].retain_per_class
               for u in there)


def test_a_one_seed_ddpm_grid_below_the_gate_forks_nothing(monkeypatch):
    # The first plan gives the worker nothing, so the generator is built
    # here and the synthesis planned by task; neither that plan nor the
    # runs' second one saves more than a fork.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    forks, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real())
    plans, split = [], plan.split
    monkeypatch.setattr(plan, "split", lambda units: plans.append(
        split(units)) or plans[-1])
    cfg = ExperimentConfig(
        dim_x=6, num_classes=8, num_domains=2, num_tasks=2,
        classes_per_task=4, n_per_class=8, test_per_class=6, z_per_class=6,
        base_pool_total=240, dim_e=12, epochs_per_task=2, generator="ddpm",
        diffusion_steps=10, denoiser_hidden=16, pretrain_steps=200,
        methods=_ONESHOT, seeds=(5,))
    _, failures = cli.run_grid(cfg, None, [None], cfg.seeds, workers=1)
    assert failures == [] and forks == []
    assert [len(here + there) for here, there in plans] == [4, 2, 4]
    assert all(there == [] for _, there in plans)


def test_a_one_seed_ddpm_grid_forks_its_synthesis_then_its_runs():
    # `class-inc-ddpm`: once its generator is built, the worker takes
    # tasks 2, 4 and 6 of its synthesis; once every task's synthesis is
    # built too, it takes OSIFL, OSCAR_IL and OSCAR_R, and OSCAR_CEILING
    # stays here. Each plan's serial and finish estimates.
    cfg = _PINNED["class-inc-ddpm"][0]
    [seed] = cfg.seeds
    tasks = plan.task_units(cfg, seed)
    here, there = plan.split(tasks)
    assert [u.job[2] for u in there] == [2, 4, 6]
    assert plan.seconds(tasks) == pytest.approx(0.4866, rel=1e-12)
    assert plan.finish(here, there) == pytest.approx(0.2433, rel=1e-12)
    built = {memo_key("generator", cfg, seed), *(u.key for u in tasks)}
    units = plan.units(cli._pending([cfg], cfg.seeds, ServerMemo()), built)
    here, there = plan.split(units)
    assert [u.job[1] for u in there] == [
        Method.OSIFL, Method.OSCAR_IL, Method.OSCAR_R]
    assert plan.seconds(units) == pytest.approx(0.3366801075, rel=1e-12)
    assert plan.finish(here, there) == pytest.approx(0.1719096025, rel=1e-12)


# A tiny grid of three tasks; each case below changes one thing.
_TINY = ExperimentConfig(
    dim_x=6, num_classes=9, num_domains=3, num_tasks=3, classes_per_task=3,
    n_per_class=6, test_per_class=4, z_per_class=5, base_pool_total=120,
    dim_e=8, batch_size=4, epochs_per_task=2, rounds=2, local_epochs=2,
    diffusion_steps=4, denoiser_hidden=8, pretrain_steps=6,
    pretrain_batch=8, seeds=(3,))


def _blas_threads():
    """The getter and setter of NumPy's OpenBLAS thread count; the test
    skips where NumPy carries none."""
    found = plan._blas_threads()
    if found is None:
        pytest.skip("NumPy carries no OpenBLAS")
    return found


def _log_threads(monkeypatch, path, names, get):
    """Wrap each orchestrator function of `names`, and `os.fork`, to
    append `<pid> <name> <threads>` to `path`: a line from either
    process."""
    def logged(name, real):
        def wrapped(*args, **kwargs):
            with open(path, "a") as fh:
                fh.write(f"{os.getpid()} {name} {get()}\n")
            return real(*args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(orchestrator, name,
                            logged(name, getattr(orchestrator, name)))
    monkeypatch.setattr(os, "fork", logged("fork", os.fork))


def _read_log(path):
    """The log's lines as `(in this process, name, threads)`."""
    return [(int(pid) == os.getpid(), name, int(threads)) for pid, name,
            threads in (line.split() for line in path.read_text().splitlines())]


@pytest.mark.parametrize("workers", [0, 1])
def test_library_calls_leave_the_blas_thread_count_alone(
        tmp_path, monkeypatch, workers):
    # At two threads, a grid's training reads two threads in this process
    # and in the worker, and the grid leaves two: only the command sets
    # the count.
    get, put = _blas_threads()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    # The worker takes the federated groups; this process trains OSIFL.
    monkeypatch.setattr(plan, "split", lambda units: (
        [u for u in units if u.job[1] not in FEDERATED_METHODS],
        [u for u in units if u.job[1] in FEDERATED_METHODS]))
    log = tmp_path / "threads.log"
    _log_threads(monkeypatch, log, ("train_osifl", "train_local"), get)
    cfg = dataclasses.replace(_TINY, methods=(Method.OSIFL, Method.FEDAVG))
    before = get()
    put(2)
    try:
        _, failures = cli.run_grid(cfg, None, [None], cfg.seeds,
                                   workers=workers)
        assert failures == [] and get() == 2
    finally:
        put(before)
    forks = {(True, "fork", 2)} if workers else set()
    assert set(_read_log(log)) == {(True, "train_osifl", 2),
                                   (not workers, "train_local", 2), *forks}


def _command(tmp_path, monkeypatch, cfg):
    """`osifl run` on `cfg` through the console script's function."""
    path = tmp_path / "grid.cfg"
    path.write_text(cfg.canonical())
    monkeypatch.setattr(sys, "argv", ["osifl", "run", "--config", str(path),
                                      "--out", str(tmp_path / "out")])
    return cli.command()


# A one-seed `ddpm` grid of two one-shot methods, which pretrains its one
# generator here when its first plan gives the worker nothing.
_TINY_DDPM = dataclasses.replace(_TINY, generator="ddpm", methods=(
    Method.OSIFL, Method.OSCAR_IL))


def test_the_command_holds_one_blas_thread_for_its_whole_run(
        tmp_path, monkeypatch):
    # From two threads, the command's pretraining reads one thread here,
    # before its first fork, and the worker's sampling of task 2 and its
    # OSCAR_IL runs read one too.
    get, put = _blas_threads()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    plans = []
    away = (lambda job: False, lambda job: job[2] == 2,
            lambda job: job[1] is Method.OSCAR_IL)
    monkeypatch.setattr(plan, "split", lambda units: plans.append((
        [u for u in units if not away[len(plans)](u.job)],
        [u for u in units if away[len(plans)](u.job)])) or plans[-1])
    log = tmp_path / "threads.log"
    _log_threads(monkeypatch, log,
                 ("pretrain", "synthesize_task_data", "train_naive"), get)
    before = get()
    put(2)
    try:
        assert _command(tmp_path, monkeypatch, _TINY_DDPM) == 0
    finally:
        put(before)
    calls = _read_log(log)
    assert {threads for *_, threads in calls} == {1}
    assert (True, "pretrain", 1) in calls[:calls.index((True, "fork", 1))]
    assert {(False, "synthesize_task_data", 1),
            (False, "train_naive", 1)} <= set(calls)
    assert [len(there) for _, there in plans] == [0, 1, 1]


def test_the_command_runs_where_numpy_carries_no_openblas(
        tmp_path, monkeypatch):
    found = plan._blas_threads()
    before = found and found[0]()
    monkeypatch.setattr(plan, "_blas_threads", lambda: None)
    assert plan.one_blas_thread() is None
    assert _command(tmp_path, monkeypatch, _TINY_DDPM) == 0
    assert (tmp_path / "out" / "summary.csv").exists()
    assert found is None or found[0]() == before


@pytest.mark.parametrize("changes", [
    {}, {"retain_per_class": 7}, {"clients_per_task": 2},
    {"suite_mode": "domain_incremental"},
    {"classes_per_task": (1, 4, 2), "retain_per_class": 2},
    {"generator": "ddpm"}, {"scoring_point": "post_update"},
    {"score_by": "loss"}],
    ids=["class-inc", "p-over-z", "two-clients", "domain-inc", "uneven",
         "ddpm", "post-update", "loss"])
def test_the_plan_prices_the_multiply_adds_the_runs_bill(monkeypatch,
                                                        changes):
    # At a second per multiply-add, none per call, step or pass, and no
    # evaluation or Fisher pass, which nothing bills, a group of one run
    # costs its `train_*` and `exemplar_scoring` multiply-adds, and a
    # task unit its task's `diffusion_sampling`.
    cfg = dataclasses.replace(_TINY, **changes)
    states = record_states(monkeypatch)
    [(_, reports)], failures = cli.run_grid(cfg, None, [None], cfg.seeds)
    assert failures == [] and len(reports) == len(Method)
    zero = ("HEAD_CALL_S", "STEP_S", "PASS_S", "PRETRAIN_STEP_S",
            "CHAIN_STEP_S")
    one = ("MADD_S", "PRETRAIN_MADD_S", "SAMPLE_MADD_S")
    with contextlib.ExitStack() as stack:
        for name in zero + one:
            stack.enter_context(mock.patch.object(plan, name,
                                                  float(name in one)))
        stack.enter_context(mock.patch.object(plan, "_pass",
                                              lambda *args: 0.0))
        for report in reports:
            method = Method(report.method)
            billed = report.madds_by_kind
            assert sum(plan._group_seconds(cfg, method, 1)) == sum(
                n for kind, n in billed.items()
                if kind.startswith(("train_", "exemplar_scoring"))), method
            if cfg.generator == "ddpm" and method not in FEDERATED_METHODS:
                assert plan._ddpm_seconds(cfg) == (
                    billed["diffusion_pretrain"],
                    billed["diffusion_sampling"])
                sampled = [states[method, report.seed, cfg, t][-1].get(
                    "diffusion_sampling", 0) for t in range(
                        1, cfg.num_tasks + 1)]
                assert [u.seconds for u in plan.task_units(
                    cfg, report.seed)] == [
                    b - a for a, b in zip([0, *sampled], sampled)]


# The benchmark's workloads and the default `ddpm` run, restated (each
# workload writes the config defaults but for the keys named here): the
# grid's config, axis and values, the units the worker takes, as (method,
# p, seeds), and the estimated serial and finish seconds.
# These change only on purpose.
_PINNED = {
    "class-inc-surrogate": (
        ExperimentConfig(methods=tuple(Method), seeds=(42, 18, 50)), None,
        (None,),
        [("OSCAR_IL", 5, (42, 18, 50)), ("FEDAVG", 5, (42, 18, 50)),
         ("FEDPROX", 5, (42, 18, 50)), ("FEDEWC", 5, (42, 18, 50))],
        1.12035528, 0.5684228075),
    "class-inc-ddpm": (
        ExperimentConfig(methods=_ONESHOT, seeds=(42,), generator="ddpm"),
        None, (None,), [], 2.4328801075, 2.4328801075),
    "domain-inc-p-sweep": (
        ExperimentConfig(suite_mode="domain_incremental", seeds=(42,),
                         methods=(Method.OSIFL, Method.OSCAR_IL,
                                  Method.FEDAVG)),
        "p", (0, 5, 10), [("FEDAVG", 0, (42,)), ("OSIFL", 5, (42,))],
        1.4892439, 0.77362476),
    "default-ddpm": (
        ExperimentConfig(generator="ddpm"), None, (None,),
        [("OSIFL", 5, (18,)), ("OSCAR_IL", 5, (18,)), ("OSCAR_R", 5, (18,)),
         ("OSCAR_CEILING", 5, (18,)), ("FEDAVG", 5, (42, 18, 50)),
         ("FEDPROX", 5, (42, 18, 50))],
        7.40895528, 4.7970621425),
}


@pytest.mark.parametrize("name", _PINNED)
def test_the_benchmark_and_default_plans_are_pinned(name):
    cfg, axis, values, taken, serial, finish = _PINNED[name]
    units = _grid_units(cfg, axis, values)
    # No unit needs another unit's key.
    assert not {u.key for u in units} & {e for u in units for e in u.needs}
    here, there = plan.split(units)
    assert [(u.job[1], u.job[0].retain_per_class, tuple(u.job[2]))
            for u in there] == taken
    assert plan.seconds(units) == pytest.approx(serial, rel=1e-12)
    assert plan.finish(here, there) == pytest.approx(finish, rel=1e-12)
