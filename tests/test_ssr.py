import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osifl.datagen import CLASS_INCREMENTAL, Batch, build_world, \
    draw_base_pool, draw_client_shards, make_task_suite
from osifl.diffusion import make_surrogate, synthesize_task_data
from osifl.encoder import build_client_message, make_encoder
from osifl.errors import ConfigError, ProtocolError
from osifl.rng import stream
from osifl.ssr import (ExemplarMemory, exemplar_scores, select_exemplars,
                       top_p_indices)
from osifl.trainer import Classifier, ce_loss_and_grads
from reference_run import _select_per_class


class IdentityEncoder:
    """Passes raw vectors through so feature values can be rigged."""

    def __init__(self, dim):
        self.dim_e = dim
        self.dim_x = dim

    def encode(self, x):
        return np.asarray(x, dtype=float)

    def encode_batch(self, xs):
        return np.asarray(xs, dtype=float)


def _one(x, y=0):
    """A single candidate row of class y."""
    return Batch(np.asarray(x, dtype=float)[None, :], [y], [0])


def _score(classifier, x, y=0, score_by="grad_norm"):
    return exemplar_scores(classifier, _one(x, y), score_by)[0]


def _row_scores(classifier, xs, ys, score_by):
    """Per-row oracle: one encode and one softmax per candidate, the
    gradient norm taken over the explicit outer-product gradient."""
    out = []
    for x, y in zip(xs, ys):
        emb = classifier.encoder.encode(x)
        logits = classifier.weights @ emb + classifier.bias
        shifted = logits - logits.max()
        probs = np.exp(shifted) / np.exp(shifted).sum()
        k = classifier.class_index[y]
        if score_by == "loss":
            out.append(np.log(np.exp(shifted).sum()) - shifted[k])
            continue
        delta = probs.copy()
        delta[k] -= 1.0
        grad = np.concatenate([np.outer(delta, emb).ravel(), delta])
        out.append(np.sqrt(grad @ grad))
    return np.array(out)


def test_importance_score_hand_case():
    # Zero 2-class head, feature (1, 0): softmax is (0.5, 0.5), per
    # parameter gradients are (-0.5, 0.5, 0, 0) for the weights and
    # (-0.5, 0.5) for the bias, whose overall norm is exactly 1.
    clf = Classifier(IdentityEncoder(2), classes=(0, 1))
    assert _score(clf, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_importance_score_vanishes_when_confident():
    clf = Classifier(IdentityEncoder(2), classes=(0, 1))
    clf.weights[...] = np.array([[40.0, 0.0], [-40.0, 0.0]])
    assert _score(clf, [1.0, 0.0]) < 1e-6


def test_importance_score_matches_finite_difference_norm():
    rng = np.random.default_rng(4)
    enc = make_encoder(5, 3, 2)
    clf = Classifier(enc, classes=(0, 1, 2))
    clf.weights[...] = rng.normal(size=(3, 5))
    clf.bias[...] = rng.normal(size=3)
    x = rng.normal(size=3)
    sample = _one(x, 1)
    analytic = _score(clf, x, 1)
    h = 1e-5
    sq = 0.0
    for arr in (clf.weights, clf.bias):
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = ce_loss_and_grads(clf, sample)
            flat[i] = orig - h
            down, _ = ce_loss_and_grads(clf, sample)
            flat[i] = orig
            sq += ((up - down) / (2 * h)) ** 2
    numeric = np.sqrt(sq)
    assert abs(numeric - analytic) / max(numeric, analytic, 1e-5) < 1e-4


def test_importance_score_rejects_unknown_class():
    clf = Classifier(IdentityEncoder(2), classes=(0, 1))
    candidates = Batch(np.zeros((2, 2)), [0, 9], [0, 0])
    for score_by in ("grad_norm", "loss"):
        with pytest.raises(ProtocolError, match="class 9"):
            select_exemplars(clf, candidates, 1, score_by=score_by)


def test_sample_loss_is_single_sample_ce():
    clf = Classifier(IdentityEncoder(2), classes=(0, 1))
    x = np.array([0.3, -0.1])
    assert _score(clf, x, score_by="loss") == \
        pytest.approx(np.log(2.0), abs=1e-12)
    clf.weights[...] = np.array([[0.5, -1.0], [2.0, 0.25]])
    clf.bias[...] = np.array([0.1, -0.3])
    loss, _ = ce_loss_and_grads(clf, _one(x))
    assert _score(clf, x, score_by="loss") == pytest.approx(loss, abs=1e-12)


@pytest.mark.parametrize("score_by", ["grad_norm", "loss"])
def test_batched_scores_match_the_per_row_oracle(score_by):
    rng = np.random.default_rng(8)
    compared = 0
    for trial in range(20):
        n_classes = int(rng.integers(2, 12))
        enc = make_encoder(int(rng.integers(3, 20)), 4, trial)
        clf = Classifier(enc, classes=rng.permutation(40)[:n_classes].tolist())
        clf.weights[...] = rng.normal(scale=3.0, size=clf.weights.shape)
        clf.bias[...] = rng.normal(size=n_classes)
        n = int(rng.integers(1, 60))
        ys = rng.choice(clf.classes, size=n)
        candidates = Batch(rng.normal(scale=2.0, size=(n, 4)), ys,
                           np.full(n, -1))
        oracle = _row_scores(clf, candidates.x, ys.tolist(), score_by)
        scores = exemplar_scores(clf, candidates, score_by)
        assert np.allclose(scores, oracle, rtol=1e-12, atol=1e-12)
        every = select_exemplars(clf, candidates, n, score_by=score_by)
        assert np.array_equal(every.x,
                              candidates.x[np.argsort(ys, kind="stable")])
        p = int(rng.integers(0, n + 1))
        keep, near_tie = [], False
        for k in np.unique(ys):
            rows = np.flatnonzero(ys == k)
            ranked = np.sort(oracle[rows])[::-1]
            if 0 < p < len(rows) and ranked[p - 1] - ranked[p] < 1e-9:
                near_tie = True  # a near-tie may reorder within rounding
            keep.extend(rows[top_p_indices(oracle[rows].tolist(), p)])
        if near_tie:
            continue
        kept = select_exemplars(clf, candidates, p, score_by=score_by)
        assert np.array_equal(kept.x, candidates.x[keep])
        compared += 1
    assert compared >= 15


def test_top_p_hand_case():
    assert top_p_indices([5.0, 1.0, 3.0, 2.0], 2) == [0, 2]


def test_top_p_matches_exhaustive_subsets():
    scores = [5.0, 1.0, 3.0, 2.0]
    best = max(itertools.combinations(range(4), 2),
               key=lambda c: sum(scores[i] for i in c))
    assert tuple(top_p_indices(scores, 2)) == best


def test_top_p_edge_cases():
    assert top_p_indices([3.0, 1.0], 0) == []
    assert top_p_indices([], 2) == []
    assert top_p_indices([1.0, 1.0, 1.0], 2) == [0, 1]
    assert top_p_indices([1.0, 2.0], 5) == [0, 1]
    with pytest.raises(ConfigError):
        top_p_indices([1.0], -1)


@settings(max_examples=60, deadline=None)
@given(scores=st.lists(st.floats(-100, 100), min_size=1, max_size=7),
       p=st.integers(0, 4))
def test_top_p_optimality_property(scores, p):
    got = tuple(top_p_indices(scores, p))
    size = min(p, len(scores))
    candidates = list(itertools.combinations(range(len(scores)), size))
    # Exact sums: float sums can round two different subsets to a tie.
    exact = [Fraction(v) for v in scores]
    best_sum = max(sum(exact[i] for i in c) for c in candidates)
    ties = [c for c in candidates
            if sum(exact[i] for i in c) == best_sum]
    assert got in ties
    assert got == min(ties)


def test_select_exemplars_scores_and_keeps_top():
    clf = Classifier(IdentityEncoder(2), classes=(0, 1))
    clf.weights[...] = np.array([[2.0, 0.0], [-2.0, 0.0]])
    samples = Batch(np.array([[3.0, 0.0], [0.0, 0.0], [-3.0, 0.0]]),
                    [0, 0, 0], [0, 0, 0])
    chosen = select_exemplars(clf, samples, 1)
    # The sample the head gets most wrong carries the largest gradient.
    assert len(chosen) == 1
    assert chosen.x[0, 0] == -3.0
    scores = _row_scores(clf, samples.x, [0, 0, 0], "grad_norm")
    assert exemplar_scores(clf, chosen)[0] == pytest.approx(max(scores))


def test_select_exemplars_loss_mode_and_unknown_mode():
    clf = Classifier(IdentityEncoder(2), classes=(0, 1))
    samples = Batch(np.array([[1.0, 0.0]]), [0], [0])
    by_loss = exemplar_scores(clf, samples, score_by="loss")
    assert by_loss[0] == pytest.approx(np.log(2.0), abs=1e-12)
    with pytest.raises(ConfigError):
        select_exemplars(clf, samples, 1, score_by="entropy")
    with pytest.raises(ConfigError):
        exemplar_scores(clf, samples, score_by="entropy")


def _assert_kept(kept, candidates, keep):
    """`kept` holds exactly candidates' rows `keep`, byte for byte, in
    read-only columns."""
    for name in ("x", "y", "domain"):
        got, want = getattr(kept, name), getattr(candidates, name)[keep]
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert kept.task == candidates.task


@pytest.mark.parametrize("score_by", ["grad_norm", "loss"])
def test_whole_task_selection_equals_the_per_class_reference(score_by):
    # Two clients hold the task's three classes, so every class's seven
    # rows alternate between two providers' conditions.
    world = build_world(5, 6, 2, 0.5, 3)
    suite = make_task_suite(world, CLASS_INCREMENTAL, 2, 3)
    shards, _ = draw_client_shards(world, suite, 2, 10, 2, 3)
    encoder = make_encoder(8, 5, 3)
    generator = make_surrogate(world, encoder,
                               draw_base_pool(world, 120, 3))
    messages = [build_client_message(encoder, s) for s in shards
                if s.task_id == 1]
    assert all(len(m.classes) == 3 for m in messages)
    data = synthesize_task_data(generator, messages, 7, 1.0,
                                stream(3, "synth", 1)).data
    rng = np.random.default_rng(2)
    clf = Classifier(encoder, classes=suite.tasks[0].classes)
    clf.flat[...] = rng.normal(size=clf.flat.shape)
    order = rng.permutation(len(data))
    interleaved = Batch(data.x[order], data.y[order], data.domain[order], 1)
    empty = Batch(np.zeros((0, 5)), [], [], 1)
    for candidates in (data, interleaved, empty):
        for p in (0, 1, 3, 7, 9):
            kept = select_exemplars(clf, candidates, p, score_by=score_by)
            _assert_kept(kept, candidates,
                         _select_per_class(clf, candidates, p, score_by))
            assert len(kept) == min(p, 7) * len(set(candidates.y.tolist()))
        with pytest.raises(ConfigError):
            select_exemplars(clf, candidates, -1, score_by=score_by)


def test_whole_task_selection_breaks_ties_like_the_reference():
    # A zero head scores every unit-norm row of a class alike, so each
    # class keeps its earliest candidates.
    clf = Classifier(IdentityEncoder(2), classes=(0, 1))
    candidates = Batch([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
                        [-1.0, 0.0], [0.0, 1.0]], [1, 0, 1, 0, 0, 1],
                       [0, 1, 0, 1, 0, 1], 4)
    for score_by in ("grad_norm", "loss"):
        for p in (0, 1, 2, 3, 4):
            kept = select_exemplars(clf, candidates, p, score_by=score_by)
            keep = _select_per_class(clf, candidates, p, score_by)
            _assert_kept(kept, candidates, keep)
            assert keep.tolist() == sorted(
                [1, 3, 4][:p]) + sorted([0, 2, 5][:p])


def _kept(classes, x, times=1):
    """`times` copies of the row x for each class, classes in order."""
    n = times * len(classes)
    return Batch(np.tile(np.asarray(x, dtype=float), (n, 1)),
                 np.repeat(classes, times), np.full(n, -1))


def test_memory_growth_arithmetic():
    mem = ExemplarMemory(5)
    for t in range(1, 7):
        mem.add_task(t, _kept(range(10 * (t - 1), 10 * t), [t, t], 5))
        assert mem.size == t * 10 * 5
    assert mem.size == 300
    assert [b.task for b in mem.replay_sets()] == [1, 2, 3, 4, 5, 6]


def test_memory_rejects_rewrites_and_overfill():
    mem = ExemplarMemory(2)
    mem.add_task(1, _kept([0], [0.0]))
    with pytest.raises(ProtocolError):
        mem.add_task(1, _kept([0], [0.0], 0))
    with pytest.raises(ProtocolError):
        mem.add_task(2, _kept([1], [0.0], 3))
    with pytest.raises(ConfigError):
        ExemplarMemory(-1)


def test_memory_entries_are_frozen_copies():
    mem = ExemplarMemory(1)
    src = np.array([[1.0, 2.0]])
    labels = np.array([3])
    mem.add_task(1, Batch(src, labels, [0]))
    src[0, 0] = 99.0
    labels[0] = 99
    stored = mem.replay_sets()[0]
    assert stored.x[0, 0] == 1.0
    assert stored.y[0] == 3
    with pytest.raises(ValueError):
        stored.x[0, 0] = 5.0
    with pytest.raises(ValueError):
        stored.y[0] = 5


def test_replay_sets_hand_out_the_stored_batches():
    mem = ExemplarMemory(2)
    src = np.arange(8.0).reshape(4, 2)
    mem.add_task(1, Batch(src, [0, 0, 1, 1], [-1] * 4, 1))
    mem.add_task(2, _kept([2], [0.5, 0.5], 2))
    first, again = mem.replay_sets(), mem.replay_sets()
    assert len(first) == 2
    assert all(a is b for a, b in zip(first, again, strict=True))
    src[...] = -1.0
    assert first[0].x.tolist() == np.arange(8.0).reshape(4, 2).tolist()
    assert [b.task for b in first] == [1, 2]
    for batch in first:
        for column in (batch.x, batch.y, batch.domain):
            assert not column.flags.writeable
            assert not np.shares_memory(column, src)


def test_replay_sets_counts_and_exclusion():
    mem = ExemplarMemory(2)
    assert mem.replay_sets(1) == []
    for t in (1, 2):
        mem.add_task(t, _kept([2 * t, 2 * t + 1], [t], 2))
    sets = mem.replay_sets(3)
    assert [len(s) for s in sets] == [4, 4]
    assert [s.task for s in sets] == [1, 2]
    # Learning task 2 replays only task 1.
    sets = mem.replay_sets(2)
    assert [s.task for s in sets] == [1]
    # Order is stable across calls.
    a = [grp.x.tolist() for grp in mem.replay_sets(None)]
    b = [grp.x.tolist() for grp in mem.replay_sets(None)]
    assert a == b


def test_replay_order_equals_the_per_row_loop():
    # Reference: every kept row of every remembered task in arrival
    # order, classes ascending within a task, slots in order. Each task's
    # candidates arrive with their classes interleaved.
    rng = np.random.default_rng(5)
    clf = Classifier(IdentityEncoder(4), classes=range(10))
    mem = ExemplarMemory(3)
    stored = {}
    for t, classes in ((2, (7, 1, 4)), (1, (0, 9)), (5, (3,))):
        per_class = {k: rng.normal(size=(int(n), 4))
                     for k, n in zip(classes, rng.integers(0, 4, 3))}
        ys = np.concatenate([np.full(len(x), k)
                             for k, x in per_class.items()]).astype(int)
        order = rng.permutation(len(ys))
        xs = np.concatenate([np.zeros((0, 4)), *per_class.values()])[order]
        ys = ys[order]
        mem.add_task(t, select_exemplars(
            clf, Batch(xs, ys, np.full(len(ys), -1), t), 3))
        stored[t] = {k: [x for x, y in zip(xs, ys.tolist()) if y == k]
                     for k in classes}
    for current in (None, 1, 2, 5):
        sets = mem.replay_sets(current)
        expect = [(t, [(x, k) for k in sorted(pc) for x in pc[k]])
                  for t, pc in stored.items() if t != current]
        expect = [(t, rows) for t, rows in expect if rows]
        assert [s.task for s in sets] == [t for t, _ in expect]
        for batch, (_, rows) in zip(sets, expect):
            assert np.array_equal(batch.x, np.stack([x for x, _ in rows]))
            assert np.array_equal(batch.y, [k for _, k in rows])
            assert np.array_equal(batch.domain, np.full(len(rows), -1))


def test_loss_scoring_ranks_saturated_candidates():
    # Both candidates put the true class's softmax below the smallest
    # float, so -log(p) would tie them at inf and keep the lower index;
    # the log-softmax keeps the one with the larger margin.
    clf = Classifier(IdentityEncoder(2), classes=(0, 1))
    clf.weights[...] = np.array([[0.0, 0.0], [1000.0, 0.0]])
    candidates = Batch(np.array([[0.8, 0.0], [0.9, 0.0]]), [0, 0], [0, 0])
    kept = select_exemplars(clf, candidates, 1, score_by="loss")
    assert kept.x.tolist() == [[0.9, 0.0]]
    assert exemplar_scores(clf, kept, "loss")[0] == \
        pytest.approx(900.0, rel=1e-12)
