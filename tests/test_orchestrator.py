import dataclasses
import hashlib

import numpy as np
import pytest

from osifl import cli, orchestrator, trainer
from osifl.config import ExperimentConfig, build_run_inputs
from osifl.datagen import Batch, draw_base_pool
from osifl.diffusion import make_surrogate
from osifl.encoder import build_client_message, make_encoder, \
    parse_message, serialize_message
from osifl.errors import ConfigError, ProtocolError
from osifl.ledgers import ComputeLedger
from osifl.orchestrator import (CSV_HEADER, FEDERATED_METHODS, Method,
                                ONESHOT_METHODS, RunState, ServerMemo,
                                evaluate, federated_task_phase, forgetting,
                                memo_key, oneshot_task_phase,
                                parse_method, report_rows, rows_to_csv,
                                run_method, _weighted_average)
from osifl.rng import stream
from osifl.ssr import ExemplarMemory
from osifl.trainer import AdamState, AnchorState, Classifier, head_key, \
    train
from reference_run import record_states, reference_run


def _small(**overrides):
    base = dict(dim_x=6, num_classes=8, num_domains=2, num_tasks=2,
                classes_per_task=4, clients_per_task=1, n_per_class=12,
                test_per_class=8, z_per_class=8, base_pool_total=320,
                dim_e=12, epochs_per_task=3, rounds=3)
    base.update(overrides)
    return ExperimentConfig(**base)


def _oneshot_state(cfg, world, encoder, seed, method=Method.OSIFL):
    pool = draw_base_pool(world, cfg.base_pool_total, seed)
    memory = ExemplarMemory(cfg.retain_per_class) \
        if method is Method.OSIFL else None
    return RunState(method=method, config=cfg, seed=seed, world=world,
                    encoder=encoder, classifier=Classifier(encoder),
                    generator=make_surrogate(world, encoder, pool),
                    memory=memory)


def _run_phase(phase):
    """Drive one task phase to its end, each training call made alone."""
    [result] = orchestrator.lockstep([phase])
    if isinstance(result, Exception):
        raise result
    return result


@pytest.fixture(scope="module")
def default_reports():
    """One full-default run per one-shot method, shared by the ledger
    and structure tests (the default generator is the surrogate)."""
    cfg = ExperimentConfig()
    world, suite, shards, test_sets = build_run_inputs(cfg, 42)
    return {m: run_method(m, world, suite, shards, test_sets, cfg, 42)
            for m in (Method.OSIFL, Method.OSCAR_IL, Method.OSCAR_CEILING)}


def test_parse_method_accepts_all_and_rejects_unknown():
    for m in Method:
        assert parse_method(m.value) is m
    with pytest.raises(ConfigError):
        parse_method("OSCAR")
    assert ONESHOT_METHODS | FEDERATED_METHODS == frozenset(Method)
    assert not ONESHOT_METHODS & FEDERATED_METHODS


def test_single_task_replay_equals_plain_incremental():
    cfg = _small(num_tasks=1, num_classes=4)
    world, suite, shards, test_sets = build_run_inputs(cfg, 5)
    a = run_method(Method.OSIFL, world, suite, shards, test_sets, cfg, 5)
    b = run_method(Method.OSCAR_IL, world, suite, shards, test_sets, cfg, 5)
    assert len(a.accuracy) == 1 and len(a.accuracy[0]) == 1
    assert a.accuracy == b.accuracy


def test_accuracy_matrix_is_lower_triangular(default_reports):
    report = default_reports[Method.OSIFL]
    assert len(report.accuracy) == 6
    for t, row in enumerate(report.accuracy, start=1):
        assert len(row) == t
    for t, avg in enumerate(report.avg_after):
        assert avg == pytest.approx(np.mean(report.accuracy[t]), abs=1e-12)


def test_ledgers_are_monotone_over_tasks(default_reports):
    for report in default_reports.values():
        assert report.uploads_after == sorted(report.uploads_after)
        assert report.madds_after == sorted(report.madds_after)
        assert report.madds_after[-1] == report.madds_total
        assert report.uploads_after[-1] == report.upload_floats_total


def test_ceiling_compute_outgrows_replay(default_reports):
    # Joint retraining revisits every synthesized set at each arrival,
    # so its per-task compute increment must pull strictly ahead of the
    # replay method's (which only adds small exemplar groups) once a few
    # tasks have accumulated.
    def increments(report):
        after = report.madds_after
        return [after[0]] + [after[i] - after[i - 1]
                             for i in range(1, len(after))]

    ceil_inc = increments(default_reports[Method.OSCAR_CEILING])
    replay_inc = increments(default_reports[Method.OSIFL])
    for t_idx in (3, 4, 5):
        assert ceil_inc[t_idx] > replay_inc[t_idx]
    assert default_reports[Method.OSCAR_CEILING].madds_total > \
        default_reports[Method.OSIFL].madds_total


def test_replay_costs_more_than_naive_at_positive_p(default_reports):
    assert default_reports[Method.OSIFL].madds_total > \
        default_reports[Method.OSCAR_IL].madds_total
    kinds = default_reports[Method.OSIFL].madds_by_kind
    assert "exemplar_scoring" in kinds
    assert "exemplar_scoring" not in \
        default_reports[Method.OSCAR_IL].madds_by_kind


def test_oneshot_upload_invariant(default_reports):
    # Every client speaks exactly once, and its entire upload is one
    # vector of means: |task classes| * dim_e floats.
    report = default_reports[Method.OSIFL]
    assert set(report.messages_by_client.values()) == {1}
    assert set(report.floats_by_client.values()) == {5 * 64}
    assert report.upload_floats_total == 6 * 5 * 64


def test_memory_reaches_three_hundred_vectors():
    # p = 5 with 10 classes per task over 6 tasks: 50 exemplars banked
    # per arrival, 300 held at the end.
    cfg = ExperimentConfig(dim_x=8, num_classes=60, num_domains=2,
                           num_tasks=6, classes_per_task=10,
                           clients_per_task=1, n_per_class=8,
                           test_per_class=4, z_per_class=6,
                           base_pool_total=600, dim_e=16,
                           epochs_per_task=1, retain_per_class=5)
    world, suite, shards, test_sets = build_run_inputs(cfg, 7)
    report = run_method(Method.OSIFL, world, suite, shards, test_sets,
                        cfg, 7)
    for t in range(1, 7):
        assert f"task{t}:memory_update size={50 * t}" in report.events
        assert f"task{t}:select params=pre_update kept=50" in report.events


def test_event_order_within_task(default_reports):
    events = default_reports[Method.OSIFL].events
    for t in range(1, 7):
        tagged = [e for e in events if e.startswith(f"task{t}:")]
        stages = [e.split(":")[1].split(" ")[0] for e in tagged]
        assert stages == ["upload", "synthesize", "train", "select",
                          "memory_update"]


def _selection(monkeypatch, scoring_point):
    """The rows OSIFL keeps after each task at p = 3 of 8 candidates a
    class, scored at `scoring_point`: the reference run's, bit for bit.
    At a learning rate of 0.01 training moves the head enough that the
    scoring point changes which rows are kept."""
    cfg = _small(retain_per_class=3, scoring_point=scoring_point,
                 learning_rate=0.01)
    states = record_states(monkeypatch)
    report = run_method(Method.OSIFL, *build_run_inputs(cfg, 3), cfg, 3)
    ref = reference_run(Method.OSIFL, cfg, 3)
    assert report == ref.report
    assert [states[Method.OSIFL, 3, cfg, t] for t in (1, 2)] == ref.snapshots
    return [kept for _, _, _, _, kept, *_ in ref.snapshots]


def test_selection_scores_against_pre_update_snapshot(monkeypatch):
    # In pre_update mode the rows are scored by the head as it stood
    # before training on the arriving task (for task 1: the freshly
    # expanded zero head), as the reference run scores them; the trained
    # head would keep other rows.
    assert _selection(monkeypatch, "pre_update") != \
        _selection(monkeypatch, "post_update")


def test_selection_scores_against_trained_head(monkeypatch):
    _selection(monkeypatch, "post_update")


def test_upload_guards_reject_repeats_and_foreign_messages():
    cfg = _small(z_per_class=2, epochs_per_task=1)
    world, suite, shards, _ = build_run_inputs(cfg, 4)
    encoder = make_encoder(cfg.dim_e, world.dim_x, 4)
    state = _oneshot_state(cfg, world, encoder, 4, method=Method.OSCAR_IL)
    by_task = {}
    for s in shards:
        by_task.setdefault(s.task_id, []).append(s)
    msgs1, msgs2 = ([serialize_message(build_client_message(encoder, s))
                     for s in by_task[t]] for t in (1, 2))
    _run_phase(oneshot_task_phase(state, suite.tasks[0], msgs1))
    with pytest.raises(ProtocolError):
        _run_phase(oneshot_task_phase(state, suite.tasks[0], msgs1))
    with pytest.raises(ProtocolError):
        _run_phase(oneshot_task_phase(state, suite.tasks[1], msgs1))
    with pytest.raises(ProtocolError):
        _run_phase(oneshot_task_phase(state, suite.tasks[1], []))
    _run_phase(oneshot_task_phase(state, suite.tasks[1], msgs2))


@pytest.mark.parametrize("method", [Method.FEDAVG, Method.FEDPROX,
                                    Method.FEDEWC])
def test_federated_single_client_is_sequential_local_training(
        monkeypatch, method):
    # With one client the weighted average is that client's parameters,
    # so each task must replay as the reference run's round-by-round
    # local training with the same per-round streams, and its own
    # anchors: FedProx pulls toward each round's broadcast head at
    # F = 1/2, FedEWC toward the last task's head and Fisher, zero-padded
    # for the new classes.
    cfg = _small(rounds=3, lambda_ewc=50.0, mu_prox=0.5)
    states = record_states(monkeypatch)
    report = run_method(method, *build_run_inputs(cfg, 6), cfg, 6)
    ref = reference_run(method, cfg, 6)
    assert report == ref.report
    assert [states[method, 6, cfg, t] for t in (1, 2)] == ref.snapshots
    assert set(report.messages_by_client.values()) == {cfg.rounds}


def test_federated_phase_rejects_foreign_and_missing_shards():
    cfg = _small(num_tasks=2)
    world, suite, shards, _ = build_run_inputs(cfg, 6)
    encoder = make_encoder(cfg.dim_e, world.dim_x, 6)
    state = RunState(method=Method.FEDAVG, config=cfg, seed=6, world=world,
                     encoder=encoder, classifier=Classifier(encoder))
    task2_shards = [s for s in shards if s.task_id == 2]
    with pytest.raises(ProtocolError):
        _run_phase(federated_task_phase(state, suite.tasks[0],
                                        task2_shards))
    with pytest.raises(ProtocolError):
        _run_phase(federated_task_phase(state, suite.tasks[0], []))


def test_weighted_average_matches_hand_arithmetic():
    a = np.array([1.0, 3.0])
    b = np.array([3.0, 5.0])
    equal = _weighted_average([a, b], [4, 4])
    assert np.array_equal(equal, np.array([2.0, 4.0]))
    skewed = _weighted_average([a, b], [1, 3])
    assert np.allclose(skewed, [2.5, 4.5], atol=1e-15)
    with pytest.raises(ProtocolError):
        _weighted_average([a, b], [0, 0])


class _PassEncoder:
    dim_e = 2
    dim_x = 2

    def encode(self, x):
        return np.asarray(x, dtype=float)

    def encode_batch(self, xs):
        return np.asarray(xs, dtype=float)


def _eval_set(points):
    return Batch(np.array([p for p, _ in points]).reshape(-1, 2),
                 [y for _, y in points], np.zeros(len(points), dtype=int))


def test_evaluate_constant_and_perfect_heads():
    enc = _PassEncoder()
    constant = Classifier(enc, classes=(0, 1))
    constant.bias[...] = np.array([1.0, 0.0])
    balanced = _eval_set([((0.3, 0.1), 0), ((0.2, 0.7), 1),
                          ((0.5, 0.4), 0), ((0.1, 0.9), 1)])
    accs, mean, pooled = evaluate(constant, [balanced])
    assert accs == [0.5] and mean == 0.5 and pooled == 0.5
    perfect = Classifier(enc, classes=(0, 1))
    perfect.weights[...] = np.eye(2)
    split = _eval_set([((5.0, 0.0), 0), ((0.0, 5.0), 1)])
    assert evaluate(perfect, [split]) == ([1.0], 1.0, 1.0)


def test_evaluate_matches_independent_recount():
    world_rng = np.random.default_rng(10)
    enc = make_encoder(6, 3, 10)
    clf = Classifier(enc, classes=(0, 1, 2))
    clf.weights[...] = world_rng.normal(size=(3, 6))
    clf.bias[...] = world_rng.normal(size=3)
    test_sets = []
    for n in (40, 25):
        ys = world_rng.integers(0, 3, size=n)
        test_sets.append(Batch(world_rng.normal(size=(n, 3)), ys,
                               np.zeros(n, dtype=int)))
    accs, mean, pooled = evaluate(clf, test_sets)
    all_hits = 0
    for ts, reported in zip(test_sets, accs):
        hits = 0
        for x, y in zip(ts.x, ts.y.tolist()):
            logits = clf.weights @ enc.encode(x) + clf.bias
            hits += clf.classes[int(np.argmax(logits))] == y
        assert reported == hits / len(ts)
        all_hits += hits
    assert mean == pytest.approx((accs[0] + accs[1]) / 2, abs=1e-15)
    # Pooled over rows, so the larger set weighs more than in the mean.
    assert pooled == all_hits / 65


def test_evaluate_rejects_gaps():
    enc = _PassEncoder()
    clf = Classifier(enc, classes=(0, 1))
    with pytest.raises(ProtocolError):
        evaluate(clf, [])
    with pytest.raises(ProtocolError):
        evaluate(clf, [_eval_set([])])
    with pytest.raises(ProtocolError):
        evaluate(clf, [_eval_set([((0.0, 0.0), 9)])])


def test_forgetting_definition_and_edges():
    per_task, mean = forgetting([[0.9], [0.6, 0.8]])
    assert per_task == [pytest.approx(0.3, abs=1e-12)]
    assert mean == pytest.approx(0.3, abs=1e-12)
    rising = [[0.5], [0.6, 0.7], [0.7, 0.8, 0.9]]
    per_task, mean = forgetting(rising)
    assert per_task == [0.0, 0.0] and mean == 0.0
    assert forgetting([[0.9]]) == ([], 0.0)
    with pytest.raises(ConfigError):
        forgetting([])
    with pytest.raises(ConfigError):
        forgetting([[0.9], [0.6]])


def test_lockstep_gives_each_run_its_result_in_any_order(monkeypatch):
    # Two seeds of every method, handed to `lockstep` in grid order and
    # shuffled, each time with a fresh memo: each run ends with the same
    # report, and the same state after every task.
    cfg = _small(methods=tuple(Method), seeds=(3, 4))
    states = record_states(monkeypatch)
    inputs = {seed: build_run_inputs(cfg, seed) for seed in cfg.seeds}
    runs = [(method, seed) for seed in cfg.seeds for method in cfg.methods]

    def drive(order):
        states.clear()
        memo = ServerMemo()
        results = orchestrator.lockstep([orchestrator.run_steps(
            method, *inputs[seed], cfg, seed, server=memo)
            for method, seed in order])
        assert not any(isinstance(r, Exception) for r in results)
        return dict(zip(order, results)), dict(states)

    shuffled = [runs[i] for i in np.random.default_rng(0).permutation(14)]
    assert shuffled != runs and drive(shuffled) == drive(runs)


def test_a_stacked_call_that_raises_fails_each_of_its_runs(monkeypatch):
    # OSCAR_IL's stacked training call raises: each of its runs fails
    # with that error, one line per cell at both values of p, which it
    # does not read, and every other run is the reference run's.
    def refuse(*args, **kwargs):
        raise ProtocolError("no head trains in this stack")

    monkeypatch.setattr(orchestrator, "train_naive", refuse)
    cfg = _small(methods=tuple(Method), seeds=(3, 4))
    cells, failures = cli.run_grid(cfg, "p", [0, 2], cfg.seeds)
    assert failures == [f"p={p} OSCAR_IL seed={seed}: no head trains in "
                        f"this stack" for p in (0, 2) for seed in (3, 4)]
    for cell, reports in cells:
        assert len(reports) == (len(Method) - 1) * len(cfg.seeds)
        for r in reports:
            assert r == reference_run(r.method, cell, r.seed).report


def test_run_report_is_bit_deterministic():
    cfg = _small()
    world, suite, shards, test_sets = build_run_inputs(cfg, 8)
    a = run_method(Method.OSIFL, world, suite, shards, test_sets, cfg, 8)
    b = run_method(Method.OSIFL, world, suite, shards, test_sets, cfg, 8)
    assert a == b
    csv_a = rows_to_csv(report_rows(a))
    csv_b = rows_to_csv(report_rows(b))
    assert hashlib.sha256(csv_a.encode()).digest() == \
        hashlib.sha256(csv_b.encode()).digest()


def test_report_rows_layout():
    cfg = _small()
    world, suite, shards, test_sets = build_run_inputs(cfg, 8)
    report = run_method(Method.OSCAR_IL, world, suite, shards, test_sets,
                        cfg, 8)
    rows = report_rows(report)
    assert len(rows) == (1 + 1) + (2 + 1)
    csv = rows_to_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert all(len(line.split(",")) == len(CSV_HEADER.split(","))
               for line in lines[1:])
    summary = [line for line in lines[1:]
               if line.split(",")[3] == "-1"]
    assert len(summary) == 2


def test_run_method_covers_federated_methods():
    # Each round-based baseline runs as its reference run does: every
    # client uploads once a round, and FedEWC refreshes its anchor.
    cfg = _small(rounds=2)
    inputs = build_run_inputs(cfg, 9)
    for method in (Method.FEDAVG, Method.FEDPROX, Method.FEDEWC):
        report = run_method(method, *inputs, cfg, 9)
        assert report == reference_run(method, cfg, 9).report
        assert set(report.messages_by_client.values()) == {cfg.rounds}
        assert ("task2:anchor_refresh" in report.events) == \
            (method is Method.FEDEWC)


class _SealableShard:
    """A client's shard that hands out its samples until it is sealed,
    and raises on every read of them after."""

    def __init__(self, shard):
        self.client_id, self.task_id = shard.client_id, shard.task_id
        self._samples, self.sealed = shard.samples, False

    @property
    def samples(self):
        if self.sealed:
            raise AssertionError(f"client {self.client_id}'s samples were "
                                 f"read after its upload")
        return self._samples


def test_the_oneshot_server_reads_only_the_uploaded_bytes(monkeypatch):
    # Each shard is sealed as soon as its client's blob exists, so the
    # server can learn a task only from the bytes; the runs share one
    # memo, so the later methods find every shard sealed from the start.
    cfg = _small(clients_per_task=2)
    world, suite, shards, test_sets = build_run_inputs(cfg, 6)
    sealable = {(s.task_id, s.client_id): _SealableShard(s) for s in shards}
    real = orchestrator.serialize_message

    def sealing(msg):
        blob = real(msg)
        sealable[msg.task_id, msg.client_id].sealed = True
        return blob

    monkeypatch.setattr(orchestrator, "serialize_message", sealing)
    memo = ServerMemo()
    for method in sorted(ONESHOT_METHODS):
        report = run_method(method, world, suite, list(sealable.values()),
                            test_sets, cfg, 6, server=memo)
        assert report == reference_run(method, cfg, 6).report
    assert all(s.sealed for s in sealable.values())


def test_osifl_at_p0_bills_and_scores_like_naive_training():
    # Replay from a memory that keeps nothing is naive fine-tuning, and
    # scoring candidates that are all thrown away costs nothing.
    cfg = _small(retain_per_class=0)
    inputs = build_run_inputs(cfg, 5)
    osifl = run_method(Method.OSIFL, *inputs, cfg, 5)
    naive = run_method(Method.OSCAR_IL, *inputs, cfg, 5)
    assert "exemplar_scoring" not in osifl.madds_by_kind
    assert osifl.madds_by_kind == naive.madds_by_kind
    assert osifl.madds_after == naive.madds_after
    assert osifl.accuracy == naive.accuracy
    assert "task2:select params=pre_update kept=0" in osifl.events


_DDPM = dict(generator="ddpm", diffusion_steps=5, denoiser_hidden=8,
             pretrain_steps=10, pretrain_batch=16)


def _key(cfg, seed):
    return memo_key("generator", cfg, seed)


@pytest.mark.parametrize("field, value", [
    ("seed", 8), ("dim_x", 7), ("num_classes", 9), ("num_domains", 3),
    ("within_std", 0.6), ("base_pool_total", 321), ("dim_e", 13),
    ("generator", "surrogate"), ("diffusion_steps", 6), ("beta_min", 2e-4),
    ("beta_max", 0.06), ("denoiser_hidden", 9), ("p_drop", 0.2),
    ("pretrain_steps", 11), ("pretrain_batch", 17)])
def test_generator_key_changes_with_each_field(field, value):
    cfg = _small(**_DDPM)
    base = _key(cfg, 7)
    if field == "seed":
        assert _key(cfg, value) != base
    else:
        assert _key(dataclasses.replace(cfg, **{field: value}), 7) != base


def test_synthesized_samples_view_read_only_memo_arrays():
    cfg = _small()
    world, suite, shards, _ = build_run_inputs(cfg, 4)
    encoder = make_encoder(cfg.dim_e, world.dim_x, 4)
    state = _oneshot_state(cfg, world, encoder, 4,
                           method=Method.OSCAR_CEILING)
    task = suite.tasks[0]
    blobs = [serialize_message(build_client_message(encoder, s))
             for s in shards if s.task_id == 1]
    _run_phase(oneshot_task_phase(state, task, blobs))
    ((data, batches), _madds), = [entry for key, entry
                                  in state.server._entries.items()
                                  if key[0] == "synthesis"]
    assert sorted(batches) == list(task.classes)
    # The run trains on the memo's task batch itself, not on a copy.
    assert state.synth_history[0] is data
    assert data.task == 1 and len(data) == len(task.classes) * cfg.z_per_class
    assert not data.x.base.flags.writeable
    assert data.y.tolist() == [k for k in task.classes
                               for _ in range(cfg.z_per_class)]
    again, per_class = orchestrator.synthesized(
        cfg, 4, state.generator, 1, blobs,
        [parse_message(blob) for blob in blobs], state.server,
        state.compute)
    assert again is data
    for k, batch in per_class.items():
        assert batch is batches[k]
        assert np.shares_memory(batch.x, data.x)
        assert batch.x.shape == (cfg.z_per_class, cfg.dim_x)
        assert not batch.x.base.flags.writeable
        assert batch.y.tolist() == [k] * cfg.z_per_class
        assert batch.domain.tolist() == [-1] * cfg.z_per_class
        assert batch.task == 1
        with pytest.raises(ValueError):
            batch.x[0, 0] = 1.0
    assert np.array_equal(data.x, np.concatenate([batches[k].x
                                                  for k in task.classes]))


def test_server_memo_replays_the_cost_of_each_hit():
    memo, built = ServerMemo(), []

    def build(ledger):
        built.append(True)
        ledger.add("work", 7)
        return "value"

    ledgers = [ComputeLedger() for _ in range(3)]
    assert [memo.recall("k", build, lg) for lg in ledgers] == ["value"] * 3
    assert built == [True]
    assert all(lg.madds_by_kind == {"work": 7} for lg in ledgers)


def test_server_memo_never_stores_a_failure():
    memo, calls = ServerMemo(), []

    def build(_ledger):
        calls.append(True)
        raise ProtocolError("boom")

    for _ in range(2):
        with pytest.raises(ProtocolError, match="boom"):
            memo.recall("k", build, ComputeLedger())
    assert len(calls) == 2


class _NaNGenerator:
    def sample_chains(self, conds, counts, w, rng, ledger=None):
        return np.full((sum(counts), 6), np.nan)


def test_non_finite_synthesis_fails_at_synthesis(monkeypatch):
    monkeypatch.setattr(orchestrator, "make_surrogate",
                        lambda *args: _NaNGenerator())
    cfg = _small()
    inputs = build_run_inputs(cfg, 5)
    memo = ServerMemo()
    for method in (Method.OSIFL, Method.OSCAR_IL):
        with pytest.raises(ProtocolError,
                           match=r"synthesis \(seed 5, task 1\)"):
            run_method(method, *inputs, cfg, 5, server=memo)


def test_non_finite_denoiser_fails_at_pretraining(monkeypatch):
    real, calls = orchestrator.pretrain, []

    def broken(pool, encoder, cfg, seed, ledger=None):
        calls.append(seed)
        model = real(pool, encoder, cfg, seed, ledger=ledger)
        model.denoiser.params["b2"][0] = np.inf
        return model

    monkeypatch.setattr(orchestrator, "pretrain", broken)
    cfg = _small(**_DDPM)
    inputs = build_run_inputs(cfg, 5)
    memo = ServerMemo()
    for _ in range(2):
        with pytest.raises(ProtocolError,
                           match=r"pretraining \(seed 5\).*b2"):
            run_method(Method.OSCAR_IL, *inputs, cfg, 5, server=memo)
    assert calls == [5, 5]


@pytest.mark.parametrize("method, trainer", [
    (Method.OSCAR_IL, "train_naive"), (Method.FEDAVG, "train_local")])
def test_non_finite_head_fails_after_its_task_phase(monkeypatch, method,
                                                    trainer):
    real = getattr(orchestrator, trainer)

    def diverging(clfs, groups, *args, **kwargs):
        out = real(clfs, groups, *args, **kwargs)
        for clf, data in zip(clfs, groups):
            if data.task == 2:
                clf.bias[0] = np.nan
        return out

    monkeypatch.setattr(orchestrator, trainer, diverging)
    cfg = _small()
    with pytest.raises(ProtocolError,
                       match=rf"{method.value} task phase \(seed 5, task 2\)"
                             r".*non-finite values in the head"):
        run_method(method, *build_run_inputs(cfg, 5), cfg, 5)


def _train_parts():
    """The inputs of one head's training call, with an anchor and Adam
    state that carries over, as `_train_key_of` takes them."""
    draw = np.random.default_rng(11)
    groups = [Batch(draw.normal(size=(n, 3)), np.arange(n) % 3,
                    np.zeros(n, dtype=int), task)
              for n, task in ((9, 2), (4, 1))]
    size = 3 * (5 + 1)
    return dict(encoder_seed=1, classes=[0, 1, 2],
                flat=draw.normal(size=size), groups=groups, rng_draws=0,
                hp=ExperimentConfig(adam_reset_per_task=False), epochs=None,
                theta=draw.normal(size=size), fisher=draw.random(size),
                anchored=True, lam=0.5,
                adam=(4, draw.normal(size=size), draw.random(size)))


def _train_key_of(parts):
    clf = Classifier(make_encoder(5, 3, parts["encoder_seed"]),
                     classes=parts["classes"])
    clf.flat[...] = parts["flat"]
    clf.adam = AdamState(*parts["adam"])
    rng = stream(2, "train")
    rng.random(parts["rng_draws"])
    anchor = AnchorState(parts["theta"], parts["fisher"]) \
        if parts["anchored"] else None
    _, call = trainer._prepare(clf, parts["groups"], parts["hp"], rng,
                               parts["epochs"], anchor, parts["lam"], None)
    return head_key(call)


def _ulp(values, at=0):
    out = np.array(values, dtype=float)
    out.flat[at] = np.nextafter(out.flat[at], np.inf)
    return out


def _relabel(groups):
    first = groups[0]
    return [Batch(first.x, np.r_[first.y[:-1], (first.y[-1] + 1) % 3],
                  first.domain, first.task)] + groups[1:]


# A change of each field that the training loop reads, with the epochs.
_HP_CHANGES = dict(learning_rate=0.002, batch_size=31, epochs_per_task=19,
                   weight_decay=2e-4, adam_reset_per_task=True)


@pytest.mark.parametrize("part, change", [
    ("encoder_seed", lambda v: 2), ("classes", lambda v: [2, 1, 0]),
    ("flat", _ulp), ("rng_draws", lambda v: 1), ("epochs", lambda v: 3),
    ("groups", lambda v: [Batch(_ulp(v[0].x, 5), v[0].y, v[0].domain,
                                v[0].task)] + v[1:]),
    ("groups", _relabel), ("groups", lambda v: v[::-1]),
    ("theta", _ulp), ("fisher", _ulp), ("lam", lambda v: 0.6),
    ("adam", lambda v: (5,) + v[1:]),
    ("adam", lambda v: (v[0], _ulp(v[1]), v[2])),
    ("adam", lambda v: v[:2] + (_ulp(v[2]),)),
] + [("hp", lambda v, f=f, x=x: dataclasses.replace(v, **{f: x}))
     for f, x in _HP_CHANGES.items()])
def test_train_key_changes_with_each_input_training_reads(part, change):
    parts = _train_parts()
    base = _train_key_of(parts)
    assert _train_key_of(_train_parts()) == base
    assert _train_key_of(dict(parts, **{part: change(parts[part])})) != base


def test_train_key_ignores_what_training_does_not_read():
    parts = _train_parts()
    free = dict(parts, anchored=False)
    # Lambda with no anchor, and an anchor at lambda 0, pull nothing.
    assert _train_key_of(dict(free, lam=0.9)) == _train_key_of(free)
    assert _train_key_of(dict(parts, lam=0.0)) == _train_key_of(free)
    # Moments that are reset are not read.
    reset = dict(parts, hp=ExperimentConfig())
    assert _train_key_of(dict(reset, adam=(7,) + parts["adam"][1:])) == \
        _train_key_of(reset)
    # Nor is any config field outside `trainer.HP_FIELDS` and the epochs,
    # such as the penalty strengths, which reach training as `lam`.
    for field, value in (("lambda_ewc", 0.2), ("mu_prox", 0.02),
                         ("retain_per_class", 0), ("rounds", 3)):
        moved = dataclasses.replace(parts["hp"], **{field: value})
        assert _train_key_of(dict(parts, hp=moved)) == _train_key_of(parts), \
            field


def test_server_memo_never_keeps_an_overflowing_head():
    encoder = make_encoder(5, 3, 1)
    data = _train_parts()["groups"][0]
    memo = ServerMemo()
    for _ in range(2):
        clf = Classifier(encoder, classes=[0, 1, 2])
        anchor = AnchorState(np.ones_like(clf.flat),
                             np.full_like(clf.flat, 1e300))
        with pytest.raises(ProtocolError, match="overflowed Adam's moments"):
            train(clf, data, ExperimentConfig(), stream(1, "t"),
                  anchor=anchor, lam=1.0, memo=memo)
        # A head that steps past float64 is not an error here; its task
        # phase fails on it. It is not kept either.
        clf = Classifier(encoder, classes=[0, 1, 2])
        train(clf, data, ExperimentConfig(learning_rate=1e308),
              stream(1, "t"), ledger=ComputeLedger(), memo=memo)
        assert not np.isfinite(clf.flat).all()
        assert memo._entries == {}


def test_a_restored_head_leaves_behind_what_training_leaves(monkeypatch):
    encoder, data = make_encoder(5, 3, 1), _train_parts()["groups"][0]
    cfg, memo = ExperimentConfig(adam_reset_per_task=False), ServerMemo()

    def trained():
        clf, rng, ledger = Classifier(encoder, classes=[0, 1, 2]), \
            stream(1, "t"), ComputeLedger()
        train(clf, data, cfg, rng, ledger=ledger, memo=memo)
        return (clf.flat.tobytes(), clf.adam.step, clf.adam.m.tobytes(),
                clf.adam.v.tobytes(), rng.bit_generator.state,
                ledger.madds_by_kind)

    first = trained()
    fits = []
    monkeypatch.setattr(trainer, "_fit", lambda calls: fits.append(calls))
    assert trained() == first and fits == []
