import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osifl.datagen import Batch
from osifl.encoder import make_encoder
from osifl.errors import ConfigError, ProtocolError
from osifl.ssr import (ExemplarMemory, Exemplars, select_exemplars,
                       top_p_indices)
from osifl.trainer import Classifier, ce_loss_and_grads


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
    return select_exemplars(classifier, _one(x, y), 1,
                            score_by=score_by).score[0]


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
        every = select_exemplars(clf, candidates, n, score_by=score_by)
        assert np.array_equal(every.x, candidates.x)
        assert np.allclose(every.score, oracle, rtol=1e-12, atol=1e-12)
        p = int(rng.integers(0, n + 1))
        ranked = np.sort(oracle)[::-1]
        if 0 < p < n and ranked[p - 1] - ranked[p] < 1e-9:
            continue  # a near-tie may reorder within rounding
        kept = select_exemplars(clf, candidates, p, score_by=score_by)
        keep = top_p_indices(oracle.tolist(), p)
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
    assert chosen.score[0] == pytest.approx(max(scores))


def test_select_exemplars_loss_mode_and_unknown_mode():
    clf = Classifier(IdentityEncoder(2), classes=(0, 1))
    samples = Batch(np.array([[1.0, 0.0]]), [0], [0])
    by_loss = select_exemplars(clf, samples, 1, score_by="loss")
    assert by_loss.score[0] == pytest.approx(np.log(2.0), abs=1e-12)
    with pytest.raises(ConfigError):
        select_exemplars(clf, samples, 1, score_by="entropy")


def _kept(x, times=1, score=1.0):
    """`times` copies of the row x, each scored `score`."""
    return Exemplars(x=np.tile(np.asarray(x, dtype=float), (times, 1)),
                     score=np.full(times, score))


def test_memory_growth_arithmetic():
    mem = ExemplarMemory(5)
    for t in range(1, 7):
        per_class = {k: _kept([k, t], 5)
                     for k in range(10 * (t - 1), 10 * t)}
        mem.add_task(t, per_class)
        assert mem.size == t * 10 * 5
    assert mem.size == 300
    assert [b.task for b in mem.replay_sets()] == [1, 2, 3, 4, 5, 6]


def test_memory_rejects_rewrites_and_overfill():
    mem = ExemplarMemory(2)
    mem.add_task(1, {0: _kept([0.0])})
    with pytest.raises(ProtocolError):
        mem.add_task(1, {0: _kept([0.0], 0)})
    with pytest.raises(ProtocolError):
        mem.add_task(2, {1: _kept([0.0], 3)})
    with pytest.raises(ConfigError):
        ExemplarMemory(-1)


def test_memory_entries_are_frozen_copies():
    mem = ExemplarMemory(1)
    src = np.array([[1.0, 2.0]])
    score = np.array([3.0])
    mem.add_task(1, {0: Exemplars(x=src, score=score)})
    src[0, 0] = 99.0
    score[0] = 99.0
    stored = mem.replay_sets()[0]
    assert stored.x[0, 0] == 1.0
    assert mem._store[1][0].score[0] == 3.0
    with pytest.raises(ValueError):
        stored.x[0, 0] = 5.0
    with pytest.raises(ValueError):
        mem._store[1][0].score[0] = 5.0


def test_replay_sets_counts_and_exclusion():
    mem = ExemplarMemory(2)
    assert mem.replay_sets(1) == []
    for t in (1, 2):
        per_class = {k: _kept([k], 2) for k in (2 * t, 2 * t + 1)}
        mem.add_task(t, per_class)
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


def test_memory_dump_text_layout():
    mem = ExemplarMemory(1)
    mem.add_task(4, {7: _kept([0.25, -1.5], score=2.0)})
    dump = mem.dump_text()
    lines = dump.strip().split("\n")
    assert lines[0] == "task\tclass\tslot\tscore\tvector"
    assert lines[1] == "4\t7\t0\t2.0\t0.25 -1.5"


def test_replay_order_equals_the_per_row_loop():
    # Reference: every kept row of every remembered task in arrival
    # order, classes ascending within a task, slots in order.
    rng = np.random.default_rng(5)
    mem = ExemplarMemory(3)
    stored = {}
    for t, classes in ((2, (7, 1, 4)), (1, (0, 9)), (5, (3,))):
        per_class = {k: Exemplars(x=rng.normal(size=(int(n), 4)),
                                  score=rng.normal(size=int(n)))
                     for k, n in zip(classes, rng.integers(0, 4, 3))}
        mem.add_task(t, per_class)
        stored[t] = per_class
    for current in (None, 1, 2, 5):
        sets = mem.replay_sets(current)
        expect = [(t, [(x, k) for k in sorted(pc) for x in pc[k].x])
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
    assert kept.score[0] == pytest.approx(900.0, rel=1e-12)
