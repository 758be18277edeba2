import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osifl.datagen import Sample
from osifl.encoder import make_encoder
from osifl.errors import ConfigError, ProtocolError
from osifl.ssr import (ExemplarMemory, ScoredSample, importance_score,
                       sample_loss, select_exemplars, top_p_indices)
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


def test_importance_score_hand_case():
    # Zero 2-class head, feature (1, 0): softmax is (0.5, 0.5), per
    # parameter gradients are (-0.5, 0.5, 0, 0) for the weights and
    # (-0.5, 0.5) for the bias, whose overall norm is exactly 1.
    clf = Classifier(IdentityEncoder(2), classes=(0, 1))
    score = importance_score(clf, Sample(x=np.array([1.0, 0.0]), y=0,
                                         domain=0))
    assert score == pytest.approx(1.0, abs=1e-12)


def test_importance_score_vanishes_when_confident():
    clf = Classifier(IdentityEncoder(2), classes=(0, 1))
    clf.weights = np.array([[40.0, 0.0], [-40.0, 0.0]])
    score = importance_score(clf, Sample(x=np.array([1.0, 0.0]), y=0,
                                         domain=0))
    assert score < 1e-6


def test_importance_score_matches_finite_difference_norm():
    rng = np.random.default_rng(4)
    enc = make_encoder(5, 3, 2)
    clf = Classifier(enc, classes=(0, 1, 2))
    clf.weights = rng.normal(size=(3, 5))
    clf.bias = rng.normal(size=3)
    sample = Sample(x=rng.normal(size=3), y=1, domain=0)
    analytic = importance_score(clf, sample)
    h = 1e-5
    sq = 0.0
    for arr in (clf.weights, clf.bias):
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = ce_loss_and_grads(clf, [sample])
            flat[i] = orig - h
            down, _ = ce_loss_and_grads(clf, [sample])
            flat[i] = orig
            sq += ((up - down) / (2 * h)) ** 2
    numeric = np.sqrt(sq)
    assert abs(numeric - analytic) / max(numeric, analytic, 1e-5) < 1e-4


def test_importance_score_rejects_unknown_class():
    clf = Classifier(IdentityEncoder(2), classes=(0, 1))
    with pytest.raises(ProtocolError):
        importance_score(clf, Sample(x=np.zeros(2), y=9, domain=0))


def test_sample_loss_is_single_sample_ce():
    clf = Classifier(IdentityEncoder(2), classes=(0, 1))
    loss = sample_loss(clf, Sample(x=np.array([0.3, -0.1]), y=0, domain=0))
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)


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
    clf.weights = np.array([[2.0, 0.0], [-2.0, 0.0]])
    samples = [Sample(x=np.array([v, 0.0]), y=0, domain=0)
               for v in (3.0, 0.0, -3.0)]
    chosen = select_exemplars(clf, samples, 1)
    # The sample the head gets most wrong carries the largest gradient.
    assert len(chosen) == 1
    assert chosen[0].sample.x[0] == -3.0
    scores = [importance_score(clf, s) for s in samples]
    assert chosen[0].score == pytest.approx(max(scores))


def test_select_exemplars_loss_mode_and_unknown_mode():
    clf = Classifier(IdentityEncoder(2), classes=(0, 1))
    samples = [Sample(x=np.array([1.0, 0.0]), y=0, domain=0)]
    by_loss = select_exemplars(clf, samples, 1, score_by="loss")
    assert by_loss[0].score == pytest.approx(np.log(2.0), abs=1e-12)
    with pytest.raises(ConfigError):
        select_exemplars(clf, samples, 1, score_by="entropy")


def _scored(x, y, task, score=1.0):
    return ScoredSample(sample=Sample(x=np.asarray(x, dtype=float), y=y,
                                      domain=-1, task=task), score=score)


def test_memory_growth_arithmetic():
    mem = ExemplarMemory(5)
    for t in range(1, 7):
        per_class = {k: [_scored([k, t], k, t) for _ in range(5)]
                     for k in range(10 * (t - 1), 10 * t)}
        mem.add_task(t, per_class)
        assert mem.size == t * 10 * 5
    assert mem.size == 300
    assert mem.task_ids == [1, 2, 3, 4, 5, 6]


def test_memory_rejects_rewrites_and_overfill():
    mem = ExemplarMemory(2)
    mem.add_task(1, {0: [_scored([0.0], 0, 1)]})
    with pytest.raises(ProtocolError):
        mem.add_task(1, {0: []})
    with pytest.raises(ProtocolError):
        mem.add_task(2, {1: [_scored([0.0], 1, 2) for _ in range(3)]})
    with pytest.raises(ConfigError):
        ExemplarMemory(-1)


def test_memory_entries_are_frozen_copies():
    mem = ExemplarMemory(1)
    src = np.array([1.0, 2.0])
    mem.add_task(1, {0: [_scored(src, 0, 1)]})
    src[0] = 99.0
    stored = mem.replay_sets()[0][0]
    assert stored.x[0] == 1.0
    with pytest.raises(ValueError):
        stored.x[0] = 5.0


def test_replay_sets_counts_and_exclusion():
    mem = ExemplarMemory(2)
    assert mem.replay_sets(1) == []
    for t in (1, 2):
        per_class = {k: [_scored([k], k, t) for _ in range(2)]
                     for k in (2 * t, 2 * t + 1)}
        mem.add_task(t, per_class)
    sets = mem.replay_sets(3)
    assert [len(s) for s in sets] == [4, 4]
    assert [s[0].task for s in sets] == [1, 2]
    # Learning task 2 replays only task 1.
    sets = mem.replay_sets(2)
    assert [s[0].task for s in sets] == [1]
    # Order is stable across calls.
    a = [[tuple(s.x) for s in grp] for grp in mem.replay_sets(None)]
    b = [[tuple(s.x) for s in grp] for grp in mem.replay_sets(None)]
    assert a == b


def test_memory_dump_text_layout():
    mem = ExemplarMemory(1)
    mem.add_task(4, {7: [_scored([0.25, -1.5], 7, 4, score=2.0)]})
    dump = mem.dump_text()
    lines = dump.strip().split("\n")
    assert lines[0] == "task\tclass\tslot\tscore\tvector"
    assert lines[1] == "4\t7\t0\t2.0\t0.25 -1.5"
