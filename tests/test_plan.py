"""The grid's plan: `plan.split` over arbitrary units, and what the
estimates decide for the default grids."""
import dataclasses
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osifl import cli, plan
from osifl.config import ExperimentConfig
from osifl.orchestrator import ONESHOT_METHODS, Method, ServerMemo


@st.composite
def _units(draw):
    """Up to eight units; each needs some of four shared entries and of
    the units before it, at the seconds of that entry or unit."""
    seconds = st.floats(0, 2, allow_nan=False)
    entries = {f"e{i}": draw(seconds) for i in range(4)}
    units = []
    for i in range(draw(st.integers(0, 8))):
        own = draw(seconds)
        names = draw(st.lists(st.sampled_from(
            [*entries, *(u.key for u in units)]), unique=True, max_size=4))
        costs = {**entries, **{u.key: u.seconds for u in units}}
        units.append(plan.Unit(f"u{i}", own, {e: costs[e] for e in names},
                               None))
    return units


@settings(max_examples=300, deadline=None)
@given(units=_units(), fork_s=st.floats(0, 1, allow_nan=False))
def test_the_split_plans_each_unit_once_and_forks_only_for_a_saving(
        units, fork_s):
    here, there = plan.split(units, fork_s)
    keys = [u.key for u in units]
    # Each unit once, each side in serial order.
    assert sorted(u.key for u in here + there) == sorted(keys)
    for side in (here, there):
        assert [u.key for u in side] == [k for k in keys
                                         if k in {u.key for u in side}]
    # No unit in the worker rebuilds entries this process builds too
    # that cost as much as its own work.
    made_there = {u.key for u in there}
    built_here = {u.key for u in here} | {e for u in here for e in u.needs}
    for unit in there:
        assert sum(s for e, s in unit.needs.items() if e in built_here
                   and e not in made_there) < unit.seconds
    # The worker gets nothing unless the estimated saving beats the fork.
    assert not there or \
        plan.seconds(units) - plan.finish(here, there) > fork_s


def _plan(cfg, axis=None, values=(None,)):
    """The plan of `cfg`'s grid as the command would make it."""
    server = ServerMemo()
    return plan.split(plan.units(cli._pending(
        cli._axis_configs(cfg, axis, list(values)), cfg.seeds, server),
        server))


_ONESHOT = tuple(m for m in Method if m in ONESHOT_METHODS)


def test_the_default_ddpm_grids_fork_only_for_a_second_generator():
    # One seed: every unit reads its one generator and its synthesis, so
    # nothing pays for a fork. Three seeds: the worker makes a generator.
    one_seed = ExperimentConfig(generator="ddpm", methods=_ONESHOT,
                                seeds=(42,))
    assert _plan(one_seed)[1] == []
    _, there = _plan(dataclasses.replace(one_seed, methods=tuple(Method),
                                         seeds=(42, 18, 50)))
    assert any(u.job[1] == "generator" for u in there)


def test_a_p_sweep_gives_the_worker_a_later_value():
    cfg = ExperimentConfig(suite_mode="domain_incremental",
                           methods=(Method.OSIFL, Method.OSCAR_IL,
                                    Method.FEDAVG), seeds=(42,))
    _, there = _plan(cfg, "p", (0, 5, 10))
    assert any(u.job[1] is Method.OSIFL and u.job[0].retain_per_class
               for u in there)


def test_a_one_seed_one_shot_ddpm_grid_forks_nothing(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    forks, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real())
    cfg = ExperimentConfig(
        dim_x=6, num_classes=8, num_domains=2, num_tasks=2,
        classes_per_task=4, n_per_class=8, test_per_class=6, z_per_class=6,
        base_pool_total=240, dim_e=12, epochs_per_task=2, generator="ddpm",
        diffusion_steps=10, denoiser_hidden=16, pretrain_steps=200,
        methods=_ONESHOT, seeds=(5,))
    assert _plan(cfg)[1] == []
    _, failures = cli.run_grid(cfg, None, [None], cfg.seeds, workers=1)
    assert failures == [] and forks == []


def test_the_fork_holds_openblas_to_one_thread_and_restores_it():
    found = plan._blas_threads()
    if found is None:
        pytest.skip("NumPy carries no OpenBLAS")
    get, _ = found
    before = get()
    with plan.one_blas_thread():
        assert get() == 1
    assert get() == before
