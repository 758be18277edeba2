import os
import re
import warnings

import numpy as np
import pytest

from osifl.config import ExperimentConfig
from osifl.datagen import CLASS_INCREMENTAL, Batch, build_world, \
    draw_client_shards, make_task_suite
from osifl.encoder import make_encoder
from osifl.errors import ConfigError, ProtocolError
from osifl.ledgers import ComputeLedger, encoder_forward_madds, \
    head_forward_madds
from osifl.orchestrator import ServerMemo
from osifl.rng import stream
from osifl.ssr import ExemplarMemory, select_exemplars
from osifl.trainer import (Adam, AdamState, AnchorState, Classifier, Stack,
                           ce_loss_and_grads, estimate_fisher,
                           ewc_penalty_and_grads, load_head, save_head, train)
from reference_run import _anchor_pull, _params, _ref_adam_step, \
    _ref_grow, _ref_pad, _ref_train, _ref_zeros


def _toy_data(seed, n=24, classes=(0, 1), dim=4, shift=0.0, task=1):
    rng = np.random.default_rng(seed)
    y = np.repeat(classes, n // len(classes))
    return Batch(rng.normal(size=(len(y), dim)) + shift, y,
                 np.zeros(len(y), dtype=int), task)


def _row(x, y):
    """A one-row batch."""
    return Batch(np.asarray(x, dtype=float)[None, :], [y], [0])


def _empty(dim=3):
    return Batch(np.empty((0, dim)), [], [])


def full_objective(classifier, groups):
    """Sum over groups of the group's mean cross-entropy (audit helper)."""
    total = 0.0
    for group in groups:
        if group:
            loss, _ = ce_loss_and_grads(classifier, group)
            total += loss
    return total


def _moments(clf):
    """The trainer's kept Adam state as (step, m, v) with m and v keyed
    like the head's parameters."""
    adam = clf.adam
    return adam.step, _params(clf, adam.m), _params(clf, adam.v)


def _assert_state_equal(clf, params, state):
    for k in ("weights", "bias"):
        assert np.array_equal(getattr(clf, k), params[k])
    step, m, v = _moments(clf)
    assert step == state[0]
    for k in ("weights", "bias"):
        assert np.array_equal(m[k], state[1][k])
        assert np.array_equal(v[k], state[2][k])


def _random_head(clf, seed):
    rng = np.random.default_rng(seed)
    clf.weights[...] = rng.normal(size=clf.weights.shape)
    clf.bias[...] = rng.normal(size=clf.bias.shape)
    return clf


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["learning_rate", "weight_decay",
                                  "lambda_ewc", "mu_prox"])
def test_hp_rejects_non_finite_floats(name, value):
    with pytest.raises(ConfigError, match=rf"^{name}: expected a finite"):
        ExperimentConfig(**{name: value})


def test_ce_uniform_logits_is_log_c():
    enc = make_encoder(6, 3, 1)
    for n_classes in (2, 3, 5):
        clf = Classifier(enc, classes=range(n_classes))
        batch = _toy_data(0, n=6, classes=range(n_classes), dim=3)
        loss, _ = ce_loss_and_grads(clf, batch)
        assert loss == pytest.approx(np.log(n_classes), abs=1e-12)


def test_ce_duplicated_batch_mean_invariance():
    enc = make_encoder(6, 3, 1)
    clf = Classifier(enc, classes=(0, 1))
    clf.weights[...] = np.random.default_rng(2).normal(size=(2, 6))
    batch = _toy_data(1, n=8, dim=3)
    loss_once, grads_once = ce_loss_and_grads(clf, batch)
    twice = Batch(np.concatenate([batch.x, batch.x]),
                  np.concatenate([batch.y, batch.y]),
                  np.concatenate([batch.domain, batch.domain]), batch.task)
    loss_twice, grads_twice = ce_loss_and_grads(clf, twice)
    assert loss_twice == pytest.approx(loss_once, abs=1e-12)
    for key in grads_once:
        assert np.allclose(grads_once[key], grads_twice[key], atol=1e-12)


def test_ce_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    enc = make_encoder(4, 3, 5)
    clf = Classifier(enc, classes=(0, 1, 2))
    clf.weights[...] = rng.normal(size=(3, 4))
    clf.bias[...] = rng.normal(size=3)
    batch = _toy_data(4, n=6, classes=(0, 1, 2), dim=3)
    for wd in (0.0, 0.05):
        _, grads = ce_loss_and_grads(clf, batch, weight_decay=wd)
        h = 1e-5
        for arr, key in ((clf.weights, "weights"), (clf.bias, "bias")):
            flat = arr.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up, _ = ce_loss_and_grads(clf, batch, weight_decay=wd)
                flat[i] = orig - h
                down, _ = ce_loss_and_grads(clf, batch, weight_decay=wd)
                flat[i] = orig
                numeric = (up - down) / (2 * h)
                analytic = grads[key].ravel()[i]
                denom = max(abs(numeric), abs(analytic), 1e-5)
                assert abs(numeric - analytic) / denom < 1e-4


def test_ce_rejects_empty_and_unknown_class():
    enc = make_encoder(4, 3, 5)
    clf = Classifier(enc, classes=(0,))
    with pytest.raises(ProtocolError):
        ce_loss_and_grads(clf, _empty())
    with pytest.raises(ProtocolError):
        ce_loss_and_grads(clf, _row(np.zeros(3), 9))


def test_ce_loss_stays_finite_when_the_true_class_underflows():
    # softmax gives the true class exp(-1000), which is 0.0 in float64;
    # the loss is still the exact margin.
    enc = make_encoder(4, 3, 5)
    clf = Classifier(enc, classes=(0, 1))
    clf.bias[...] = np.array([0.0, 1000.0])
    loss, grads = ce_loss_and_grads(clf, _row(np.zeros(3), 0))
    assert np.isfinite(loss) and loss == 1000.0
    assert np.array_equal(grads["bias"], [-1.0, 1.0])


def test_adam_zero_gradient_fixed_point():
    w = np.array([1.0, -2.0])
    adam = Adam(2)
    adam.update(w, np.zeros(2), 0.001, 0.0)
    assert np.array_equal(w, [1.0, -2.0])
    assert adam.step == 1


def test_adam_first_step_magnitude():
    # Bias corrections cancel at t = 1: the step is lr * g / (|g| + eps),
    # so a unit gradient moves the parameter by about -lr.
    w = np.array([0.5])
    Adam(1).update(w, np.array([1.0]), 0.001, 0.0)
    delta = float(w[0] - 0.5)
    assert delta == pytest.approx(-0.001, abs=1e-10)


def test_adam_updates_params_in_place_and_leaves_grads():
    w = np.array([1.0])
    grads = np.array([2.0])
    adam = Adam(1)
    assert adam.step == 0 and adam.m[0] == 0.0
    adam.update(w, grads, 0.001, 1e-4)
    assert w[0] != 1.0 and grads[0] == 2.0
    assert adam.step == 1 and adam.m[0] != 0.0
    # The step is a function of its inputs alone.
    a, b = np.array([1.0]), np.array([1.0])
    Adam(1).update(a, grads, 0.001, 1e-4)
    Adam(1).update(b, grads, 0.001, 1e-4)
    assert np.array_equal(a, b) and np.array_equal(a, w)


def test_adam_without_decay_reads_the_gradient_and_never_writes_it():
    # At weight_decay = 0 the gradient is read as it is, signed zeros
    # included: the caller's array keeps its bits, and the parameters and
    # moments equal those of the decay-0 expression g + 0 * p.
    rng = np.random.default_rng(8)
    params = {"p": rng.normal(size=40)}
    flat, adam, state = params["p"].copy(), Adam(40), _ref_zeros(params)
    for _ in range(6):
        grads = rng.normal(size=40)
        grads[:4], grads[4:8] = 0.0, -0.0
        kept = grads.copy()
        adam.update(flat, grads, 0.01, 0.0)
        params, state = _ref_adam_step(state, params, {"p": grads}, 0.01,
                                       0.0)
        assert np.array_equal(grads.view(np.uint64), kept.view(np.uint64))
        assert np.array_equal(flat, params["p"])
        assert np.array_equal(adam.m, state[1]["p"])
        assert np.array_equal(adam.v, state[2]["p"])
    assert adam.step == state[0] == 6


def test_adam_validates_counts_and_shapes():
    w = np.zeros(2)
    adam = Adam(2)
    with pytest.raises(ValueError):
        adam.update(w, np.zeros(4), 0.001, 1e-4)
    with pytest.raises(ValueError):
        adam.update(np.zeros(4), np.zeros(2), 0.001, 1e-4)
    with pytest.raises(ValueError):
        adam.update(w, np.zeros(3), 0.001, 1e-4)
    with pytest.raises(ValueError):
        adam.update(w, np.zeros((1, 2)), 0.001, 1e-4)
    assert adam.step == 0 and np.array_equal(w, [0.0, 0.0])


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
def test_adam_matches_reference_across_head_growth(weight_decay):
    # 24 steps on a 2-class head, then two new rows whose moments start
    # at zero, then 24 more: bit for bit the pure reference step. A
    # standalone Adam takes the steps; the head's AdamState carries them
    # across the growth.
    enc = make_encoder(6, 3, 1)
    clf = Classifier(enc, classes=(0, 1))
    rng = np.random.default_rng(21)
    clf.weights[...] = rng.normal(size=(2, 6))
    clf.bias[...] = rng.normal(size=2)
    adam = Adam(clf.param_count)
    ref_params = _params(clf)
    ref_state = _ref_zeros(ref_params)
    for phase in range(2):
        for _ in range(24):
            grads = {"weights": rng.normal(size=clf.weights.shape),
                     "bias": rng.normal(size=clf.bias.shape)}
            flat_grads = np.concatenate([grads["weights"].ravel(),
                                         grads["bias"]])
            adam.update(clf.flat, flat_grads, 0.01, weight_decay)
            ref_params, ref_state = _ref_adam_step(
                ref_state, ref_params, grads, 0.01, weight_decay)
            assert np.array_equal(clf.weights, ref_params["weights"])
            assert np.array_equal(clf.bias, ref_params["bias"])
        clf.adam = AdamState(adam.step, adam.m, adam.v)
        if phase == 0:
            clf.expand_head([2, 3])
            adam = Adam(clf.param_count)
            adam.step, adam.m[...], adam.v[...] = clf.adam
            ref_params, ref_state = _ref_grow(ref_params, ref_state, 2)
    assert clf.adam.step == ref_state[0] == 48
    assert np.array_equal(_moments(clf)[1]["weights"],
                          ref_state[1]["weights"])
    assert np.array_equal(_moments(clf)[2]["bias"], ref_state[2]["bias"])


def _replay_memory(dim=3, seed=40):
    """Two remembered tasks of 7 and 3 rows, for replay groups."""
    rng = np.random.default_rng(seed)
    memory = ExemplarMemory(5)
    memory.add_task(1, Batch(np.concatenate([rng.normal(size=(5, dim)),
                                             rng.normal(size=(2, dim))]),
                             [0] * 5 + [1] * 2, [-1] * 7))
    memory.add_task(2, Batch(rng.normal(size=(3, dim)), [2] * 3, [-1] * 3))
    return memory


def _ewc_anchor(clf, seed):
    rng = np.random.default_rng(seed)
    return AnchorState(theta=rng.normal(size=clf.flat.shape),
                       fisher=rng.uniform(0.0, 2.0, size=clf.flat.shape))


def test_persisted_moments_across_growth_with_groups_and_anchor():
    # Three tasks with adam_reset_per_task = false: naive on two
    # classes, joint over unequal groups after growing by two rows, then
    # EWC after growing by one. Partial batches throughout.
    enc = make_encoder(6, 3, 1)
    cfg = ExperimentConfig(epochs_per_task=2, batch_size=4,
                           adam_reset_per_task=False)
    first = _toy_data(5, n=10, dim=3)
    second = [_toy_data(6, n=10, classes=(2, 3), dim=3, task=2),
              _toy_data(7, n=3, classes=(0,), dim=3)]
    third = _toy_data(8, n=9, classes=(4,), dim=3, task=3)
    clf = _random_head(Classifier(enc, classes=(0, 1)), 43)
    params = _params(clf)
    state = _ref_zeros(params)
    params, state = _ref_train(clf, [first], cfg, stream(3, "t", 1), state,
                               epochs=2)
    train(clf, first, cfg, stream(3, "t", 1))
    _assert_state_equal(clf, params, state)
    clf.expand_head([2, 3])
    params, state = _ref_grow(params, state, 2)
    _assert_state_equal(clf, params, state)
    params, state = _ref_train(clf, second, cfg, stream(3, "t", 2), state,
                               epochs=2)
    train(clf, second, cfg, stream(3, "t", 2))
    _assert_state_equal(clf, params, state)
    anchor = estimate_fisher(clf, second[0])
    ref_theta, ref_fisher = (_ref_pad(_params(clf, a), 1)
                             for a in (anchor.theta, anchor.fisher))
    clf.expand_head([4])
    params, state = _ref_grow(params, state, 1)
    anchor = AnchorState(clf.grow(anchor.theta), clf.grow(anchor.fisher))
    for k in ("weights", "bias"):
        assert np.array_equal(_params(clf, anchor.theta)[k], ref_theta[k])
        assert np.array_equal(_params(clf, anchor.fisher)[k], ref_fisher[k])
    params, state = _ref_train(clf, [third], cfg, stream(3, "t", 3), state,
                               epochs=2,
                               pull=_anchor_pull(ref_theta, ref_fisher, 5.0))
    train(clf, third, cfg, stream(3, "t", 3), anchor=anchor, lam=5.0)
    assert state[0] == 2 * 3 + 2 * 4 + 2 * 3
    _assert_state_equal(clf, params, state)


def test_later_training_moves_no_snapshot_copy_or_anchor():
    enc = make_encoder(6, 3, 1)
    data = _toy_data(5, n=10, dim=3)
    cfg = ExperimentConfig(epochs_per_task=2, batch_size=4)
    clf = _random_head(Classifier(enc, classes=(0, 1)), 44)
    frozen = clf.flat.copy()

    def unmoved(flat):
        return np.array_equal(flat, frozen)

    snapshot = clf.flat.copy()
    dup = clf.copy()
    train(clf, data, cfg, stream(0, "t"))
    assert unmoved(snapshot)
    assert unmoved(dup.flat)
    # A copy's training moves neither the original nor the snapshot.
    trained = clf.flat.copy()
    train(dup, data, cfg, stream(1, "t"))
    assert unmoved(snapshot)
    assert np.array_equal(clf.flat, trained)
    # FedProx: the broadcast anchor stays put while a local copy trains.
    broadcast = _prox_anchor(clf.flat.copy())
    kept = broadcast.theta.copy()
    local = clf.copy()
    train(local, data, cfg, stream(2, "t"), epochs=2,
          anchor=broadcast, lam=0.5)
    assert np.array_equal(broadcast.theta, kept)
    assert np.array_equal(clf.flat, kept)
    for moved, v in zip(clf.split(local.flat), clf.split(kept)):
        assert not np.array_equal(moved, v)
    # The pre-update scoring head: a copy taken before training keeps
    # its values however the model trains on.
    scorer = clf.copy()
    train(clf, data, cfg, stream(3, "t"))
    assert unmoved(snapshot) and np.array_equal(scorer.flat, kept)
    train(scorer, data, cfg, stream(4, "t"))
    assert unmoved(snapshot)
    assert not np.array_equal(scorer.flat, kept)


def test_train_naive_single_full_batch_is_one_adam_step():
    enc = make_encoder(6, 3, 1)
    data = _toy_data(5, n=10, dim=3)
    cfg = ExperimentConfig(epochs_per_task=1, batch_size=10,
                           adam_reset_per_task=False)
    clf = Classifier(enc, classes=(0, 1))
    # A random starting head keeps the gradients well away from Adam's
    # epsilon; at a zero init the bias gradient cancels to rounding
    # noise and the one-step comparison is vacuous.
    head_rng = np.random.default_rng(11)
    clf.weights[...] = head_rng.normal(size=(2, 6))
    clf.bias[...] = head_rng.normal(size=2)
    manual_grads = ce_loss_and_grads(clf, data)[1]
    expect, _ = _ref_adam_step(_ref_zeros(_params(clf)),
                               _params(clf), manual_grads,
                               cfg.learning_rate, cfg.weight_decay)
    train(clf, data, cfg, stream(0, "t"))
    assert clf.adam.step == 1
    assert np.allclose(clf.weights, expect["weights"], atol=1e-12)
    assert np.allclose(clf.bias, expect["bias"], atol=1e-12)


def test_train_naive_reduces_loss_three_seeds():
    enc = make_encoder(8, 4, 2)
    cfg = ExperimentConfig(epochs_per_task=5, batch_size=8)
    drops = []
    for seed in (0, 1, 2):
        data = _toy_data(seed, n=32, dim=4, shift=1.0)
        clf = Classifier(enc, classes=(0, 1))
        before, _ = ce_loss_and_grads(clf, data)
        train(clf, data, cfg, stream(seed, "t"))
        after, _ = ce_loss_and_grads(clf, data)
        drops.append(before - after)
    assert np.mean(drops) > 0


def test_train_naive_deterministic_and_encoder_untouched():
    enc = make_encoder(6, 3, 1)
    checksum = enc.checksum()
    data = _toy_data(5, n=16, dim=3)
    cfg = ExperimentConfig(epochs_per_task=3, batch_size=4)
    runs = []
    for _ in range(2):
        clf = Classifier(enc, classes=(0, 1))
        train(clf, data, cfg, stream(7, "t"))
        runs.append((clf.weights.copy(), clf.bias.copy()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
    assert enc.checksum() == checksum


def test_train_rejects_empty_data():
    enc = make_encoder(6, 3, 1)
    clf = Classifier(enc, classes=(0, 1))
    cfg = ExperimentConfig()
    with pytest.raises(ProtocolError):
        train(clf, _empty(), cfg, stream(0, "t"))
    with pytest.raises(ProtocolError):
        train(clf, [_empty(), _empty()], cfg, stream(0, "t"))


def test_joint_single_dataset_equals_naive():
    enc = make_encoder(6, 3, 1)
    data = _toy_data(5, n=16, dim=3)
    cfg = ExperimentConfig(epochs_per_task=3, batch_size=4)
    a = Classifier(enc, classes=(0, 1))
    b = Classifier(enc, classes=(0, 1))
    train(a, data, cfg, stream(7, "t"))
    train(b, [data], cfg, stream(7, "t"))
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)


def test_joint_weighting_sums_group_means():
    # Two groups with a 100x size imbalance, one full-size batch and one
    # epoch: the update must equal a hand-built Adam step on the sum of
    # per-group mean-CE gradients, i.e. per-sample weights 1/10 vs
    # 1/1000.
    enc = make_encoder(6, 3, 1)
    small = _toy_data(1, n=10, dim=3, task=1)
    large = _toy_data(2, n=1000, dim=3, task=2)
    cfg = ExperimentConfig(epochs_per_task=1, batch_size=1010)
    clf = Classifier(enc, classes=(0, 1))
    head_rng = np.random.default_rng(12)
    clf.weights[...] = head_rng.normal(size=(2, 6))
    clf.bias[...] = head_rng.normal(size=2)
    g_small = ce_loss_and_grads(clf, small)[1]
    g_large = ce_loss_and_grads(clf, large)[1]
    summed = {k: g_small[k] + g_large[k] for k in g_small}
    expect, _ = _ref_adam_step(_ref_zeros(_params(clf)),
                               _params(clf), summed, cfg.learning_rate,
                               cfg.weight_decay)
    train(clf, [small, large], cfg, stream(3, "t"))
    assert np.allclose(clf.weights, expect["weights"], atol=1e-12)
    assert np.allclose(clf.bias, expect["bias"], atol=1e-12)


def test_replay_with_empty_memory_equals_naive():
    enc = make_encoder(6, 3, 1)
    data = _toy_data(5, n=16, dim=3)
    cfg = ExperimentConfig(epochs_per_task=3, batch_size=4)
    a = Classifier(enc, classes=(0, 1))
    b = Classifier(enc, classes=(0, 1))
    train(a, data, cfg, stream(7, "t"))
    train(b, [data, *ExemplarMemory(5).replay_sets(1)], cfg, stream(7, "t"))
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)


def _independent_objective(clf, groups):
    """Re-derive the summed per-group mean CE with local log-sum-exp."""
    total = 0.0
    for group in groups:
        vals = []
        for x, y in zip(group.x, group.y.tolist()):
            logits = clf.weights @ clf.encoder.encode(x) + clf.bias
            lse = np.log(np.sum(np.exp(logits - logits.max()))) \
                + logits.max()
            vals.append(lse - logits[clf.class_index[y]])
        total += float(np.mean(vals))
    return total


def test_objective_audit_matches_independent_evaluation():
    enc = make_encoder(6, 3, 1)
    rng = np.random.default_rng(9)
    clf = Classifier(enc, classes=(0, 1, 2))
    clf.weights[...] = rng.normal(size=(3, 6))
    clf.bias[...] = rng.normal(size=3)
    groups = [_toy_data(1, n=12, classes=(0, 1), dim=3),
              _toy_data(2, n=6, classes=(2,), dim=3)]
    reported = full_objective(clf, groups)
    assert abs(reported - _independent_objective(clf, groups)) < 1e-10


def test_replay_retention_beats_naive_by_ten_points():
    # Two-task separable world; the replay trainer must hold on to task
    # 1 at least 10 points better than plain fine-tuning (3-seed mean).
    gaps = []
    for seed in (42, 18, 50):
        world = build_world(8, 10, 1, 0.6, seed)
        suite = make_task_suite(world, CLASS_INCREMENTAL, 2, 5)
        shards, test_sets = draw_client_shards(world, suite, 1, 30, 20,
                                               seed)
        enc = make_encoder(32, 8, seed)
        cfg = ExperimentConfig(epochs_per_task=10, batch_size=16)
        accs = {}
        for variant in ("naive", "replay"):
            clf = Classifier(enc, classes=suite.tasks[0].classes)
            train(clf, shards[0].samples, cfg, stream(seed, "t", 1))
            memory = ExemplarMemory(5)
            if variant == "replay":
                memory.add_task(1, select_exemplars(clf, shards[0].samples,
                                                    5))
            clf.expand_head(suite.tasks[1].classes)
            if variant == "replay":
                train(clf, [shards[1].samples, *memory.replay_sets(2)],
                      cfg, stream(seed, "t", 2))
            else:
                train(clf, shards[1].samples, cfg, stream(seed, "t", 2))
            test1 = test_sets[1]
            preds = clf.predict(test1.x)
            accs[variant] = float(np.mean(preds == test1.y))
        gaps.append(accs["replay"] - accs["naive"])
    assert float(np.mean(gaps)) >= 0.10


def test_fisher_zero_for_perfectly_confident_head():
    enc = make_encoder(4, 3, 5)
    clf = Classifier(enc, classes=(0,))
    anchor = estimate_fisher(clf, _row(np.zeros(3), 0))
    assert anchor.fisher.shape == clf.flat.shape
    assert np.all(_params(clf, anchor.fisher)["weights"] == 0.0)
    assert np.all(_params(clf, anchor.fisher)["bias"] == 0.0)


def test_fisher_single_sample_is_squared_gradient():
    rng = np.random.default_rng(6)
    enc = make_encoder(4, 3, 5)
    clf = Classifier(enc, classes=(0, 1))
    clf.weights[...] = rng.normal(size=(2, 4))
    sample = _row(rng.normal(size=3), 1)
    anchor = estimate_fisher(clf, sample)
    assert np.array_equal(anchor.theta, clf.flat)
    fisher = _params(clf, anchor.fisher)
    _, grads = ce_loss_and_grads(clf, sample)
    for key in ("weights", "bias"):
        rel = np.abs(fisher[key] - grads[key] ** 2) / np.maximum(
            np.abs(grads[key] ** 2), 1e-300)
        assert rel.max() < 1e-12


def test_fisher_matches_bruteforce_accumulation():
    rng = np.random.default_rng(8)
    enc = make_encoder(4, 3, 5)
    clf = Classifier(enc, classes=(0, 1, 2))
    clf.weights[...] = rng.normal(size=(3, 4))
    clf.bias[...] = rng.normal(size=3)
    data = _toy_data(3, n=12, classes=(0, 1, 2), dim=3)
    anchor = estimate_fisher(clf, data)
    brute = {"weights": np.zeros_like(clf.weights),
             "bias": np.zeros_like(clf.bias)}
    for x, y in zip(data.x, data.y.tolist()):
        _, g = ce_loss_and_grads(clf, _row(x, y))
        brute["weights"] += g["weights"] ** 2
        brute["bias"] += g["bias"] ** 2
    fisher = _params(clf, anchor.fisher)
    for key in brute:
        assert np.allclose(fisher[key], brute[key] / len(data),
                           atol=1e-10)
    with pytest.raises(ProtocolError):
        estimate_fisher(clf, _empty())


def test_ewc_penalty_hand_case_and_gradient():
    params = np.array([4.0])
    anchor = AnchorState(theta=np.array([1.0]), fisher=np.array([2.0]))
    loss, grads = ewc_penalty_and_grads(params, anchor, 0.5)
    assert loss == pytest.approx(9.0, abs=1e-12)
    assert grads[0] == pytest.approx(6.0, abs=1e-12)


def _prox_anchor(ref):
    """FedProx's anchor: the reference model at a flat Fisher of 1/2."""
    return AnchorState(theta=ref, fisher=np.full_like(ref, 0.5))


def test_proximal_penalty_hand_case():
    # (mu / 2) ||theta - ref||^2 as the anchor penalty at F = 1/2.
    params = np.array([3.0, 4.0])
    loss, grads = ewc_penalty_and_grads(params, _prox_anchor(np.zeros(2)),
                                        2.0)
    assert loss == pytest.approx(25.0, abs=1e-12)
    assert np.allclose(grads, [6.0, 8.0], atol=1e-12)


def test_fedprox_pull_is_mu_times_the_gap_bit_for_bit():
    rng = np.random.default_rng(31)
    # The trainer's coefficient is lam * (2 F); at F = 1/2 it is mu
    # itself, even where 2 mu would overflow.
    for mu in [0.01, 1.0, 1e-300, 3.7e5, 1e308] + list(rng.uniform(0, 2, 50)):
        theta, ref = rng.uniform(-0.5, 0.5, (2, 40))
        pull = mu * (2.0 * np.full(40, 0.5)) * (theta - ref)
        assert np.array_equal(pull, mu * (theta - ref))
    # In training: a FedProx local pass equals the reference loop that
    # adds mu * (theta - ref) to every step's gradient. The kept moments
    # hold the gradients at full precision, so they are compared too.
    enc = make_encoder(6, 3, 1)
    data = _toy_data(5, n=16, dim=3)
    cfg = ExperimentConfig(epochs_per_task=20, batch_size=6,
                           adam_reset_per_task=False)
    clf = Classifier(enc, classes=(0, 1))
    clf.weights[...] = rng.normal(size=(2, 6))
    clf.bias[...] = rng.normal(size=2)
    ref = {"weights": rng.normal(size=(2, 6)), "bias": rng.normal(size=2)}
    expect, state = _ref_train(
        clf, [data], cfg, stream(1, "t"), _ref_zeros(ref), epochs=3,
        pull=lambda p: {k: 0.3 * (p[k] - ref[k]) for k in p})
    train(clf, data, cfg, stream(1, "t"), epochs=3,
          anchor=_prox_anchor(np.concatenate([ref["weights"].ravel(),
                                              ref["bias"]])), lam=0.3)
    assert state[0] == 9
    _assert_state_equal(clf, expect, state)


def test_regularized_lambda_zero_equals_naive():
    enc = make_encoder(6, 3, 1)
    data = _toy_data(5, n=16, dim=3)
    cfg = ExperimentConfig(epochs_per_task=3, batch_size=4)
    anchor = AnchorState(theta=np.ones(14), fisher=np.ones(14))
    a = Classifier(enc, classes=(0, 1))
    b = Classifier(enc, classes=(0, 1))
    train(a, data, cfg, stream(7, "t"))
    train(b, data, cfg, stream(7, "t"), anchor=anchor, lam=0.0)
    assert np.array_equal(a.weights, b.weights)
    with pytest.raises(ConfigError):
        train(b, data, cfg, stream(7, "t"), anchor=anchor, lam=-1.0)


def test_regularized_large_lambda_stays_near_anchor():
    enc = make_encoder(6, 3, 1)
    data = _toy_data(5, n=16, dim=3)
    cfg = ExperimentConfig(epochs_per_task=5, batch_size=8)
    anchor = AnchorState(theta=np.zeros(14), fisher=np.ones(14))
    free = Classifier(enc, classes=(0, 1))
    pinned = Classifier(enc, classes=(0, 1))
    train(free, data, cfg, stream(7, "t"), anchor=anchor, lam=0.0)
    train(pinned, data, cfg, stream(7, "t"), anchor=anchor, lam=1e4)
    assert np.linalg.norm(pinned.weights) < np.linalg.norm(free.weights)


def test_align_anchor_zero_pads_new_rows():
    # An anchor taken on a 2-class head with dim_e = 3 (8 values), laid
    # out again after the head grows to 4 classes.
    clf = Classifier(make_encoder(3, 3, 1), classes=(0, 1))
    anchor = AnchorState(theta=np.ones(8), fisher=np.full(8, 0.5))
    clf.expand_head([2, 3])
    grown = AnchorState(clf.grow(anchor.theta), clf.grow(anchor.fisher))
    theta, fisher = _params(clf, grown.theta), _params(clf, grown.fisher)
    assert np.array_equal(theta["weights"][:2], np.ones((2, 3)))
    assert np.all(theta["weights"][2:] == 0.0)
    assert np.array_equal(fisher["bias"][:2], [0.5, 0.5])
    assert np.all(fisher["bias"][2:] == 0.0)
    # New rows unconstrained: penalty ignores them entirely.
    params = np.concatenate([np.ones(6), np.full(6, 9.0),
                             [1.0, 1.0, 9.0, 9.0]])
    loss, _ = ewc_penalty_and_grads(params, grown, 1.0)
    assert loss == 0.0
    # A vector of today's layout is copied unchanged; no other is one.
    assert np.array_equal(clf.grow(grown.theta), grown.theta)
    for bad in (np.ones(9), np.ones(20), np.ones((2, 4))):
        with pytest.raises(ProtocolError, match="laid out"):
            clf.grow(bad)


def test_weights_and_bias_are_views_that_cannot_be_rebound():
    clf = Classifier(make_encoder(6, 3, 1), classes=(0, 1))
    flat = clf.flat
    for name in ("weights", "bias"):
        with pytest.raises(AttributeError):
            setattr(clf, name, np.ones_like(getattr(clf, name)))
    clf.weights[...] = 2.0
    clf.bias[...] = 3.0
    assert clf.flat is flat and flat.tolist() == [2.0] * 12 + [3.0] * 2


def test_expand_head_zero_classes_and_old_logit_stability():
    enc = make_encoder(6, 3, 1)
    clf = Classifier(enc, classes=(0, 1))
    clf.weights[...] = np.random.default_rng(3).normal(size=(2, 6))
    before = clf.weights.copy()
    clf.expand_head([])
    assert np.array_equal(clf.weights, before)
    xs = np.random.default_rng(4).normal(size=(5, 3))
    emb = enc.encode_batch(xs)
    old_logits = emb @ clf.weights.T + clf.bias
    clf.expand_head([2, 3])
    new_logits = emb @ clf.weights.T + clf.bias
    assert np.array_equal(new_logits[:, :2], old_logits)
    assert np.all(new_logits[:, 2:] == 0.0)


def test_expand_head_softmax_share_of_new_class():
    enc = make_encoder(6, 3, 1)
    clf = Classifier(enc, classes=(0, 1))
    clf.weights[...] = np.random.default_rng(5).normal(size=(2, 6))
    x = np.random.default_rng(6).normal(size=3)
    emb = enc.encode(x)
    old = clf.weights @ emb + clf.bias
    clf.expand_head([2])
    logits = clf.weights @ emb + clf.bias
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    expected_new = 1.0 / (np.exp(old).sum() + 1.0)
    assert probs[2] == pytest.approx(expected_new, abs=1e-12)


def test_expand_head_rejects_duplicates_and_grows_moments():
    enc = make_encoder(6, 3, 1)
    clf = Classifier(enc, classes=(0, 1))
    with pytest.raises(ProtocolError):
        clf.expand_head([1])
    cfg = ExperimentConfig(epochs_per_task=1, batch_size=8,
                           adam_reset_per_task=False)
    train(clf, _toy_data(5, n=8, dim=3), cfg, stream(0, "t"))
    assert clf.adam is not None
    clf.expand_head([2])
    _, m, v = _moments(clf)
    assert m["weights"].shape == (3, 6) and v["bias"].shape == (3,)
    assert np.all(m["weights"][2] == 0.0)
    assert np.all(v["bias"][2] == 0.0)


def test_train_local_epoch_override_and_penalty_pull():
    enc = make_encoder(6, 3, 1)
    data = _toy_data(5, n=16, dim=3)
    cfg = ExperimentConfig(epochs_per_task=20, batch_size=8)
    plain = Classifier(enc, classes=(0, 1))
    pulled = Classifier(enc, classes=(0, 1))
    train(plain, data, cfg, stream(1, "t"), epochs=1)
    train(pulled, data, cfg, stream(1, "t"), epochs=1,
          anchor=_prox_anchor(np.zeros(14)), lam=100.0)
    assert np.linalg.norm(pulled.weights) < np.linalg.norm(plain.weights)


@pytest.mark.parametrize("lam", [1e200, 1e300])
def test_an_overflowing_penalty_fails_instead_of_freezing_the_head(lam):
    # (1 - b2) * g * g overflows, so v is infinite and every Adam step is
    # 0: without the check the head keeps all 14 of its start values.
    enc = make_encoder(6, 3, 1)
    clf = Classifier(enc, classes=(0, 1))
    anchor = AnchorState(theta=np.ones(14), fisher=np.ones(14))
    cfg = ExperimentConfig(epochs_per_task=2, batch_size=8)
    with np.errstate(over="ignore"), pytest.raises(
            ProtocolError,
            match=re.escape(f"overflowed Adam's moments (lambda {lam},")):
        train(clf, _toy_data(5, n=16, dim=3), cfg, stream(0, "t"),
              anchor=anchor, lam=lam)


def test_train_local_rejects_a_misaligned_anchor_and_negative_lambda():
    enc = make_encoder(6, 3, 1)
    data = _toy_data(5, n=16, dim=3)
    cfg = ExperimentConfig(epochs_per_task=1, batch_size=8)
    clf = Classifier(enc, classes=(0, 1))
    # A one-class anchor (6 weights and 1 bias) against a 2-class head.
    short = _prox_anchor(np.zeros(7))
    with pytest.raises(ProtocolError, match=r"anchor theta \(7,\)"):
        train(clf, data, cfg, stream(1, "t"), epochs=1, anchor=short,
              lam=1.0)
    with pytest.raises(ProtocolError, match=r"fisher \(7,\) do not match"):
        train(clf, data, cfg, stream(1, "t"), epochs=1,
              anchor=AnchorState(np.zeros(14), np.zeros(7)), lam=1.0)
    with pytest.raises(ConfigError):
        train(clf, data, cfg, stream(1, "t"), epochs=1, lam=-1.0)
    # nan > 0 is false: a nan lambda must not train as "no penalty".
    anchor = _prox_anchor(clf.flat.copy())
    for lam in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="lambda"):
            train(clf, data, cfg, stream(1, "t"), epochs=1,
                  anchor=anchor, lam=lam)
        with pytest.raises(ConfigError, match="lambda"):
            train(clf, data, cfg, stream(1, "t"), anchor=None, lam=lam)
    # A negative epoch count is an error, not a pass that trains nothing.
    with pytest.raises(ConfigError, match="epochs"):
        train(clf, data, cfg, stream(1, "t"), epochs=-1,
              ledger=ComputeLedger())
    assert np.all(clf.weights == 0.0)


def test_training_ledger_matches_closed_forms():
    # Batches of 4, 4 and 2 rows for two epochs, billed per step by the
    # reference loop, and one encoding of the 10 rows.
    clf = Classifier(make_encoder(6, 3, 1), classes=(0, 1))
    data = _toy_data(5, n=10, dim=3)
    cfg = ExperimentConfig(epochs_per_task=2, batch_size=4)
    ledger, ref = ComputeLedger(), ComputeLedger()
    _ref_train(clf, [data], cfg, stream(0, "t"), _ref_zeros(_params(clf)),
               epochs=2, ledger=ref)
    train(clf, data, cfg, stream(0, "t"), ledger=ledger)
    assert ledger.madds_by_kind == ref.madds_by_kind
    assert ref.madds_by_kind["train_encoder"] == \
        encoder_forward_madds(10, 6, 3)
    assert head_forward_madds(7, 3, 5) == 7 * (3 * 5 + 3)


def test_zero_epochs_leave_ledger_and_params_unchanged():
    enc = make_encoder(6, 3, 1)
    data = _toy_data(5, n=10, dim=3)
    cfg = ExperimentConfig(epochs_per_task=0, batch_size=4)
    clf = Classifier(enc, classes=(0, 1))
    ledger = ComputeLedger()
    before = clf.flat.copy()
    train(clf, data, cfg, stream(0, "t"), ledger=ledger)
    assert np.array_equal(clf.flat, before)
    assert "train_head_forward" not in ledger.madds_by_kind


# Heads of one stack: each its own encoder, start values, data of the
# same group sizes, RNG stream and anchor.
_HEADS = 3


def _stack_heads(classes=range(5)):
    return [_random_head(Classifier(make_encoder(6, 3, 1 + h),
                                    classes=classes), 41 + h)
            for h in range(_HEADS)]


def _state_bytes(clf):
    """The head's classes, parameters and kept Adam state, as bytes."""
    adam = clf.adam
    return (tuple(clf.classes), clf.flat.tobytes(),
            None if adam is None else (adam.step, adam.m.tobytes(),
                                       adam.v.tobytes()))


def _data_for(h, n=10, task=3):
    return _toy_data(5 + h, n=n, classes=(3, 4), dim=3, task=task)


def _joint_groups(h):
    """Three groups of 10, 3 and 6 rows: coefficients 1/10, 1/3, 1/6."""
    return [_data_for(h), _toy_data(7 + h, n=3, classes=(0,), dim=3),
            _toy_data(8 + h, n=6, classes=(1, 2), dim=3)]


def _case_values(case, clf, h):
    """Head h's (groups, anchor) in a stacked-training case; a replay
    head's groups are its task's data, then each remembered task's."""
    anchor = _ewc_anchor(clf, 42 + h)
    if case == "fedprox":
        anchor = _prox_anchor(anchor.theta)
    groups = {"joint_unequal": _joint_groups(h), "replay": [
        _data_for(h), *_replay_memory(seed=40 + h).replay_sets(3)]}
    return groups.get(case, [_data_for(h)]), anchor


# Each case: (batch_size, epochs, the call on one head's values or on a
# Stack of them, penalty strength or None). 10 rows in batches of 4
# leave a last batch of 2.
_STACK_CASES = {
    "partial_last_batch": (4, 3, lambda c, g, cfg, r, a: train(
        c, g, cfg, r), None),
    "batch_above_n": (32, 2, lambda c, g, cfg, r, a: train(
        c, g, cfg, r), None),
    "replay": (4, 3, lambda c, g, cfg, r, a: train(c, g, cfg, r), None),
    "joint_unequal": (4, 3, lambda c, g, cfg, r, a: train(
        c, g, cfg, r), None),
    "ewc": (4, 3, lambda c, g, cfg, r, a: train(
        c, g, cfg, r, anchor=a, lam=0.7), 0.7),
    "fedprox": (4, 2, lambda c, g, cfg, r, a: train(
        c, g, cfg, r, epochs=2, anchor=a, lam=0.3), 0.3),
    "zero_epochs": (4, 0, lambda c, g, cfg, r, a: train(
        c, g, cfg, r), None),
}


@pytest.mark.parametrize("case", sorted(_STACK_CASES))
def test_training_matches_the_reference_loop_bit_for_bit(case):
    # Each head of a case, trained alone, against `_ref_train`.
    batch_size, epochs, call, lam = _STACK_CASES[case]
    cfg = ExperimentConfig(epochs_per_task=epochs, batch_size=batch_size,
                           weight_decay=1e-3, adam_reset_per_task=False)
    for h, clf in enumerate(_stack_heads()):
        groups, anchor = _case_values(case, clf, h)
        pull = None if lam is None else _anchor_pull(
            _params(clf, anchor.theta), _params(clf, anchor.fisher), lam)
        expect, state = _ref_train(clf, groups, cfg, stream(h, "t"),
                                   _ref_zeros(_params(clf)), epochs=epochs,
                                   pull=pull)
        assert call(clf, groups, cfg, stream(h, "t"), anchor) is clf
        assert state[0] == epochs * -(-sum(map(len, groups)) // batch_size)
        _assert_state_equal(clf, expect, state)


@pytest.mark.parametrize("case", sorted(_STACK_CASES))
def test_a_stack_of_heads_trains_like_each_head_alone(case):
    batch_size, epochs, call, lam = _STACK_CASES[case]
    cfg = ExperimentConfig(epochs_per_task=epochs, batch_size=batch_size,
                           weight_decay=1e-3, adam_reset_per_task=False)
    solo, stacked = _stack_heads(), _stack_heads()
    for h, clf in enumerate(solo):
        groups, anchor = _case_values(case, clf, h)
        assert call(clf, groups, cfg, stream(h, "t"), anchor) is clf
    values = [_case_values(case, clf, h) for h, clf in enumerate(stacked)]
    groups, anchors = (Stack(v) for v in zip(*values))
    out = call(Stack(stacked), groups, cfg,
               Stack(stream(h, "t") for h in range(_HEADS)), anchors)
    assert isinstance(out, Stack) and list(out) == stacked
    for a, b in zip(solo, stacked):
        assert _state_bytes(a) == _state_bytes(b)


def test_a_stack_trains_mismatched_and_failing_heads_apart():
    # Head 1 has 12 rows, so it trains alone; head 2's penalty overflows
    # and head 3's anchor does not fit its head: each fails alone, and
    # head 0 and head 1 train as they would alone. Each ledger is billed
    # as if its head had trained alone, and the Stack of them reads as
    # their sum.
    cfg = ExperimentConfig(epochs_per_task=2, batch_size=4)
    rows = [10, 12, 10, 10]
    lams = [0.5, 0.5, 1e300, 0.5]

    def anchor(clf, h):
        if h == 3:
            return _prox_anchor(np.zeros(7))
        return AnchorState(np.ones(clf.flat.size), np.ones(clf.flat.size))

    clfs = [_random_head(Classifier(make_encoder(6, 3, 1 + h),
                                    classes=(3, 4)), 41 + h)
            for h in range(4)]
    solo = [clf.copy() for clf in clfs]
    data = [_data_for(h, n=n) for h, n in enumerate(rows)]
    books = [ComputeLedger() for _ in clfs]
    with np.errstate(over="ignore", invalid="ignore"):
        out = train(
            Stack(clfs), Stack(data), cfg, Stack(stream(h, "t")
                                                for h in range(4)),
            epochs=2, anchor=Stack(anchor(c, h) for h, c in enumerate(clfs)),
            lam=Stack(lams), ledger=Stack(books))
    assert out[:2] == Stack(clfs[:2])
    assert isinstance(out[2], ProtocolError)
    assert "overflowed Adam's moments (lambda 1e+300," in str(out[2])
    assert isinstance(out[3], ProtocolError)
    assert "anchor theta (7,)" in str(out[3])
    for h in range(2):
        solo_book = ComputeLedger()
        train(solo[h], data[h], cfg, stream(h, "t"), epochs=2,
              anchor=anchor(solo[h], h), lam=lams[h], ledger=solo_book)
        assert _state_bytes(solo[h]) == _state_bytes(clfs[h])
        assert books[h].madds_by_kind == solo_book.madds_by_kind
    assert books[3].madds_by_kind == {}
    assert Stack(books[:2]).madds_by_kind == {
        k: v + books[1].madds_by_kind[k]
        for k, v in books[0].madds_by_kind.items()}


def test_an_overflow_fails_only_its_head_when_warnings_are_errors():
    # Warnings raise, as under pytest or `python -W error`, and no
    # errstate is set: head 2's penalty overflows Adam's moments in the
    # stacked call, which fails that head alone with the message of a
    # solo run; the other three train as they would alone.
    cfg = ExperimentConfig(epochs_per_task=2, batch_size=4)
    lams = [0.5, 0.5, 1e300, 0.5]
    clfs = [_random_head(Classifier(make_encoder(6, 3, 1 + h),
                                    classes=(3, 4)), 41 + h)
            for h in range(4)]
    solo = [clf.copy() for clf in clfs]
    data = [_data_for(h) for h in range(4)]
    anchors = [AnchorState(np.ones(clf.flat.size), np.ones(clf.flat.size))
               for clf in clfs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = train(Stack(clfs), Stack(data), cfg,
                    Stack(stream(h, "t") for h in range(4)), epochs=2,
                    anchor=Stack(anchors), lam=Stack(lams))
        with pytest.raises(ProtocolError) as alone:
            train(solo[2], data[2], cfg, stream(2, "t"), epochs=2,
                  anchor=anchors[2], lam=lams[2])
        for h in (0, 1, 3):
            train(solo[h], data[h], cfg, stream(h, "t"), epochs=2,
                  anchor=anchors[h], lam=lams[h])
    assert isinstance(out[2], ProtocolError)
    assert str(out[2]) == str(alone.value) == (
        "training overflowed Adam's moments (lambda 1e+300, learning_rate "
        "0.001)")
    for h in (0, 1, 3):
        assert out[h] is clfs[h]
        assert _state_bytes(solo[h]) == _state_bytes(clfs[h])


def test_a_stack_over_the_embedding_budget_trains_in_parts(monkeypatch):
    # Three heads of 1,300 rows of 64 features need 2.0 MB of embeddings,
    # over STACK_EMBEDDING_BYTES: two train stacked, the third alone, and
    # each ends as it would alone.
    from osifl import trainer
    widths, real_fit = [], trainer._fit
    monkeypatch.setattr(trainer, "_fit", lambda calls: widths.append(
        len(calls)) or real_fit(calls))
    cfg = ExperimentConfig(epochs_per_task=1)
    heads = {mode: [Classifier(make_encoder(64, 3, h), classes=(3, 4))
                    for h in range(3)] for mode in ("solo", "stacked")}
    data = [_data_for(h, n=1300) for h in range(3)]
    assert 3 * 1300 * 64 * 8 > trainer.STACK_EMBEDDING_BYTES
    for h, clf in enumerate(heads["solo"]):
        train(clf, data[h], cfg, stream(h, "t"))
    assert widths == [1, 1, 1]
    train(Stack(heads["stacked"]), Stack(data), cfg,
          Stack(stream(h, "t") for h in range(3)))
    assert widths[3:] == [2, 1]
    for a, b in zip(heads["solo"], heads["stacked"]):
        assert _state_bytes(a) == _state_bytes(b)


def test_a_part_that_fails_to_train_fails_only_its_heads(monkeypatch):
    # Four heads of 10 rows of 6 features train two to a part, and the
    # second part's `_fit` runs out of memory: its two heads fail with
    # that error alone. The first part's heads end as they would alone,
    # and the memo keeps only them: four fresh heads trained through it
    # restore the first two, and only the failed two train.
    from osifl import trainer
    monkeypatch.setattr(trainer, "STACK_EMBEDDING_BYTES", 2 * 10 * 6 * 8)
    cfg = ExperimentConfig(epochs_per_task=2, batch_size=4)
    data = [_data_for(h) for h in range(4)]

    def heads():
        return [_random_head(Classifier(make_encoder(6, 3, 1 + h),
                                        classes=(3, 4)), 41 + h)
                for h in range(4)]

    stacked, solo, again = heads(), heads(), heads()
    widths, real_fit = [], trainer._fit

    def fit(calls):
        widths.append(len(calls))
        if calls[0].classifier is stacked[2]:
            raise MemoryError("no room for this part")
        return real_fit(calls)

    monkeypatch.setattr(trainer, "_fit", fit)
    memo = ServerMemo()

    def stack(clfs):
        return train(Stack(clfs), Stack(data), cfg,
                     Stack(stream(h, "t") for h in range(4)), memo=memo)

    out = stack(stacked)
    assert widths == [2, 2]
    assert list(out[:2]) == stacked[:2]
    assert [str(err) for err in out[2:] if isinstance(err, MemoryError)] \
        == ["no room for this part"] * 2
    for h in range(2):
        train(solo[h], data[h], cfg, stream(h, "t"))
        assert _state_bytes(solo[h]) == _state_bytes(stacked[h])
    del widths[:]
    assert list(stack(again)) == again and widths == [2]
    for h in range(2):
        assert _state_bytes(again[h]) == _state_bytes(stacked[h])


def test_head_checkpoint_roundtrip(tmp_path):
    enc = make_encoder(6, 3, 1)
    clf = Classifier(enc, classes=(3, 0, 7))
    clf.weights[...] = np.random.default_rng(1).normal(size=(3, 6))
    clf.bias[...] = np.random.default_rng(2).normal(size=3)
    path = os.path.join(tmp_path, "head.bin")
    save_head(clf, path)
    back = load_head(path, enc)
    assert back.classes == [3, 0, 7]
    assert np.array_equal(back.weights, clf.weights)
    assert np.array_equal(back.bias, clf.bias)
    with pytest.raises(ProtocolError, match="dim_e"):
        load_head(path, make_encoder(7, 3, 1))
