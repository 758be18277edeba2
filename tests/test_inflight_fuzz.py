"""The message boundary at the run level: one client blob of a tiny grid,
changed in flight, fails each run that reads it with ProtocolError alone
or lets it complete, and leaves every other run's report as it was.

Hypothesis picks one `serialize_message` call by its index in the grid's
fixed call order and changes its bytes: a flipped byte, a truncation, an
extension, or an earlier blob (another client's or task's) in its place.
The grid runs in this process (`workers=0`) and with the runs its plan
gives a forked worker (`workers=1`), which starts one process an
example. From the fork on, each process builds and counts its own
uploads: the one-shot runs of either process serialize the grid's blobs
in the same order, so one index changes the same blob in both. Each
failed run's error type crosses the worker's pipe in its failure text.
"""
import functools
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osifl import cli, orchestrator, plan
from osifl.config import ExperimentConfig, build_run_inputs
from osifl.encoder import build_client_message, make_encoder, \
    serialize_message
from osifl.errors import ProtocolError
from osifl.orchestrator import ONESHOT_METHODS, Method, ServerMemo

# Two seeds, two tasks of two clients each: 8 blobs, read by the two
# one-shot methods of their seed, and a federated method that reads none.
_CFG = ExperimentConfig(
    dim_x=3, num_classes=4, num_domains=2, num_tasks=2, classes_per_task=2,
    clients_per_task=2, n_per_class=3, test_per_class=2, z_per_class=2,
    base_pool_total=12, dim_e=3, batch_size=4, epochs_per_task=1, rounds=1,
    methods=(Method.OSIFL, Method.OSCAR_IL, Method.FEDAVG), seeds=(1, 2))


@functools.cache
def _seed_of_each_blob() -> dict[bytes, int]:
    """Each client blob of the grid, built as a run builds it, and its
    seed."""
    seeds = {}
    for seed in _CFG.seeds:
        world, _, shards, _ = build_run_inputs(_CFG, seed)
        encoder = make_encoder(_CFG.dim_e, world.dim_x, seed)
        for shard in shards:
            seeds[serialize_message(build_client_message(encoder, shard))] = \
                seed
    return seeds


def _grid(workers: int, at: int = -1, change: bytes = b""):
    """Run the grid, with the blob of the serializing call of index `at`
    replaced by `change` if one is given; return the blobs made in call
    order, each run's report, and the type name of each run's error."""
    made = []
    real_serialize, real_steps = orchestrator.serialize_message, cli.run_steps

    def serialize(msg):
        made.append(real_serialize(msg))
        return change if len(made) - 1 == at else made[-1]

    def steps(method, *args, **kwargs):
        try:
            return (yield from real_steps(method, *args, **kwargs))
        except Exception as err:
            raise RuntimeError(f"{type(err).__name__}: {err}") from None

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orchestrator, "serialize_message", serialize)
        patch.setattr(cli, "run_steps", steps)
        # Two CPUs, so that `workers=1` forks wherever it can.
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                      raising=False)
        [(_, reports)], failures = cli.run_grid(_CFG, None, [None],
                                                _CFG.seeds, workers=workers)
    runs = {(Method(r.method), r.seed): r for r in reports}
    raised = {}
    for line in failures:
        cell, kind, _ = line.split(": ", 2)
        method, seed = cell.split(" seed=")
        raised[Method(method), int(seed)] = kind
    assert len(runs) + len(raised) == len(_CFG.methods) * len(_CFG.seeds)
    return made, runs, raised


@functools.cache
def _clean(workers: int):
    """The unchanged grid's blobs in this process's call order, and its
    reports. At `workers=1` the plan gives the worker a one-shot unit, so
    that a changed blob is read in the worker too."""
    if workers:
        _, there = plan.split(plan.units(cli._pending(
            [_CFG], _CFG.seeds, ServerMemo())))
        assert any(u.job[1] in ONESHOT_METHODS for u in there)
    made, runs, raised = _grid(workers)
    assert not raised and sorted(made) == sorted(_seed_of_each_blob())
    return made, runs


@st.composite
def _changes(draw, workers: int):
    """A call index, and the bytes that replace that call's blob."""
    made, _ = _clean(workers)
    at = draw(st.integers(0, len(made) - 1))
    blob = made[at]

    def flip(where_and_mask):
        where, mask = where_and_mask
        return blob[:where] + bytes([blob[where] ^ mask]) + blob[where + 1:]

    # A third of the flips land in the 16-byte header, where the ids and
    # sizes live, and a third in the last byte of an 8-byte word, which
    # holds a mean's sign and exponent: every float64 is 8-aligned.
    where = st.one_of(st.integers(0, 15),
                      st.integers(2, len(blob) // 8 - 1).map(
                          lambda word: 8 * word + 7),
                      st.integers(0, len(blob) - 1))
    changed = [st.integers(0, len(blob) - 1).map(lambda n: blob[:n]),
               st.binary(min_size=1, max_size=24).map(lambda t: blob + t),
               st.tuples(where, st.integers(1, 255)).map(flip)]
    if at:
        changed.append(st.sampled_from(made[:at]))
    return at, draw(st.one_of(changed))


@pytest.mark.parametrize("workers", [0, 1])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_blob_changed_in_flight_fails_only_its_runs(workers, data):
    at, changed = data.draw(_changes(workers))
    clean_made, clean_runs = _clean(workers)
    seed = _seed_of_each_blob()[clean_made[at]]
    made, runs, raised = _grid(workers, at, changed)
    # The calls up to the changed one are the unchanged grid's; a run
    # that fails there makes no later call.
    assert made[:at + 1] == clean_made[:at + 1]
    for key, clean in clean_runs.items():
        method, run_seed = key
        if method in ONESHOT_METHODS and run_seed == seed:
            # A run that reads the blob completes, or fails with
            # ProtocolError alone.
            assert (key in runs) != (raised.get(key) == ProtocolError.__name__)
        else:
            assert runs.get(key) == clean and key not in raised
