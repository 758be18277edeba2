"""The reference run as a property: on any small valid config, seed set,
method subset, sweep axis and placement of the plan's units, every
report of `run_grid` is `reference_run`'s, and a run that fails in the
grid fails in the reference run with the same error type.

The grid runs in this process (`workers=0`) or, on two faked CPUs, with
a drawn subset of its units in one forked worker (`workers=1`), which
starts at most two processes an example: where the first plan keeps
every unit here, a `ddpm` grid's synthesis is placed by task, and its
runs are planned again. An error's type crosses the
worker's pipe in its failure text: each run's inputs and steps re-raise
an error as RuntimeError named after its type, in either process.
"""
import os
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

from osifl import cli, plan
from osifl.config import ExperimentConfig
from osifl.datagen import CLASS_INCREMENTAL, DOMAIN_INCREMENTAL
from osifl.orchestrator import Method
from reference_run import reference_run


@st.composite
def _configs(draw):
    """A small valid config: either suite mode and generator, 1-3 tasks
    and clients, `p` from 0 to above `z_per_class`, both penalties at 0
    and above, both scoring points and scores, and either Adam reset."""
    tasks = draw(st.integers(1, 3))
    mode = draw(st.sampled_from((CLASS_INCREMENTAL, DOMAIN_INCREMENTAL)))
    if mode == CLASS_INCREMENTAL:
        one = st.integers(1, 3)
        per_task = draw(one if tasks == 1 else st.one_of(
            one, st.lists(one, min_size=tasks, max_size=tasks).map(tuple)))
        needed = sum(per_task) if isinstance(per_task, tuple) \
            else tasks * per_task
        shape = dict(classes_per_task=per_task,
                     num_classes=max(2, needed) + draw(st.integers(0, 1)),
                     num_domains=draw(st.integers(1, 2)))
    else:
        shape = dict(num_classes=draw(st.integers(2, 4)),
                     num_domains=tasks + draw(st.integers(0, 1)))
    z = draw(st.integers(0, 4))
    generator = draw(st.sampled_from(("surrogate", "ddpm")))
    diffusion = {} if generator == "surrogate" else dict(
        diffusion_steps=draw(st.integers(1, 4)),
        denoiser_hidden=draw(st.integers(1, 6)),
        pretrain_steps=draw(st.integers(1, 4)),
        pretrain_batch=draw(st.integers(1, 8)),
        guidance_w=draw(st.sampled_from((1.0, 2.0, 3.5))))
    return ExperimentConfig(
        suite_mode=mode, num_tasks=tasks, generator=generator,
        dim_x=draw(st.integers(1, 4)), dim_e=draw(st.integers(1, 5)),
        clients_per_task=draw(st.integers(1, 3)),
        n_per_class=draw(st.integers(1, 4)),
        test_per_class=draw(st.integers(1, 3)), z_per_class=z,
        retain_per_class=draw(st.integers(0, z + 2)),
        base_pool_total=draw(st.integers(1, 40)),
        batch_size=draw(st.integers(1, 8)),
        epochs_per_task=draw(st.integers(0, 2)),
        rounds=draw(st.integers(1, 2)), local_epochs=draw(st.integers(1, 2)),
        lambda_ewc=draw(st.sampled_from((0.0, 0.1, 100.0))),
        mu_prox=draw(st.sampled_from((0.0, 0.01, 1.0))),
        adam_reset_per_task=draw(st.booleans()),
        scoring_point=draw(st.sampled_from(("pre_update", "post_update"))),
        score_by=draw(st.sampled_from(("grad_norm", "loss"))),
        methods=tuple(draw(st.lists(st.sampled_from(tuple(Method)),
                                    min_size=1, unique=True))),
        seeds=tuple(draw(st.lists(st.integers(0, 99), min_size=1,
                                  max_size=3, unique=True))),
        **shape, **diffusion)


# Each sweep axis and the typed values it may take, `p` bounded by the
# drawn config's `z_per_class`.
_AXES = {"p": lambda cfg: st.integers(0, cfg.z_per_class + 2),
         "w": lambda cfg: st.sampled_from((1.0, 2.0, 3.5)),
         "clients_per_task": lambda cfg: st.integers(1, 3)}


def _typed(fn):
    """`fn`, with an error re-raised as RuntimeError named after its type."""
    def call(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            raise RuntimeError(f"{type(err).__name__}: {err}") from None
    return call


def _typed_steps(steps):
    """The generator function `steps`, with its errors as in `_typed`."""
    def run(*args, **kwargs):
        try:
            return (yield from steps(*args, **kwargs))
        except Exception as err:
            raise RuntimeError(f"{type(err).__name__}: {err}") from None
    return run


def _expected(method, cfg, seed):
    """The reference run's report, or the type name of its error."""
    try:
        return reference_run(method, cfg, seed).report
    except Exception as err:
        return type(err).__name__


@settings(max_examples=40, deadline=None)
@given(cfg=_configs(), data=st.data())
def test_every_grid_report_is_the_reference_runs(cfg, data):
    axis = data.draw(st.sampled_from((None, *_AXES)), label="axis")
    values = [None] if axis is None else data.draw(st.lists(
        _AXES[axis](cfg), min_size=1, max_size=3, unique=True),
        label="values")
    workers = data.draw(st.integers(0, 1), label="workers")

    plans = []

    def split(units):
        # A task unit's job is (config, seed, task), a run unit's
        # (config, method, seeds). The first plan may keep every unit
        # here, so that the synthesis is split by task.
        keep = not plans and data.draw(st.booleans(), label="keeps all")
        away = [not keep and data.draw(st.booleans(), label=f"unit {i} away")
                for i in range(len(units))]
        tasks = any(not isinstance(u.job[1], Method) for u in units)
        if any(away) and tasks:
            event("synthesis split")
        elif any(away) and any(plans):
            event("runs split after synthesis")
        plans.append(tasks)
        return ([u for u, a in zip(units, away) if not a],
                [u for u, a in zip(units, away) if a])

    # Hypothesis refuses a function-scoped fixture such as monkeypatch.
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1},
                           create=True), \
            mock.patch.object(plan, "split", split), \
            mock.patch.object(cli, "build_run_inputs",
                              _typed(cli.build_run_inputs)), \
            mock.patch.object(cli, "run_steps", _typed_steps(cli.run_steps)):
        cells, failures = cli.run_grid(cfg, axis, values, cfg.seeds,
                                       workers=workers)
    tags = {"" if axis is None else f"{axis}={value} ": cell
            for value, (cell, _) in zip(values, cells)}
    got = {}
    for cell, reports in cells:
        got.update({(r.method, r.seed, cell): r for r in reports})
    for line in failures:
        head, kind, _ = line.split(": ", 2)
        [tag] = [tag for tag in tags if head.startswith(tag)]
        method, seed = head[len(tag):].split(" seed=")
        got[method, int(seed), tags[tag]] = kind
    assert len(got) == len(values) * len(cfg.seeds) * len(cfg.methods)
    for (method, seed, cell), result in got.items():
        assert result == _expected(method, cell, seed), (method, seed)
