import os

import numpy as np
import pytest

from osifl.datagen import CLASS_INCREMENTAL, Batch, build_world, \
    draw_client_shards, make_task_suite
from osifl.encoder import make_encoder
from osifl.errors import ConfigError, ProtocolError
from osifl.ledgers import ComputeLedger, encoder_forward_madds, \
    head_backward_madds, head_forward_madds, softmax_madds
from osifl.rng import stream
from osifl.ssr import ExemplarMemory, select_exemplars
from osifl.trainer import (AdamState, AnchorState, Classifier, TrainHP,
                           adam_step, align_anchor, ce_loss_and_grads,
                           estimate_fisher, ewc_penalty_and_grads,
                           full_objective, load_head,
                           proximal_penalty_and_grads, save_head,
                           train_joint, train_local, train_naive,
                           train_osifl, train_regularized)


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


def test_hp_defaults_match_experiment_defaults():
    hp = TrainHP()
    assert hp.learning_rate == 0.001
    assert hp.epochs_per_task == 20
    assert hp.lambda_ewc == 0.1
    assert hp.mu_prox == 0.01
    with pytest.raises(ConfigError):
        TrainHP(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainHP(lambda_ewc=-0.1)


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
    clf.weights = np.random.default_rng(2).normal(size=(2, 6))
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
    clf.weights = rng.normal(size=(3, 4))
    clf.bias = rng.normal(size=3)
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
    clf.bias = np.array([0.0, 1000.0])
    loss, grads = ce_loss_and_grads(clf, _row(np.zeros(3), 0))
    assert np.isfinite(loss) and loss == 1000.0
    assert np.array_equal(grads["bias"], [-1.0, 1.0])


def test_adam_zero_gradient_fixed_point():
    hp = TrainHP(weight_decay=0.0)
    params = {"w": np.array([1.0, -2.0])}
    state = AdamState.zeros_like(params)
    new_params, new_state = adam_step(state, params,
                                      {"w": np.zeros(2)}, hp)
    assert np.array_equal(new_params["w"], params["w"])
    assert new_state.step == 1


def test_adam_first_step_magnitude():
    # Bias corrections cancel at t = 1: the step is lr * g / (|g| + eps),
    # so a unit gradient moves the parameter by about -lr.
    hp = TrainHP(weight_decay=0.0)
    params = {"w": np.array([0.5])}
    new_params, _ = adam_step(AdamState.zeros_like(params), params,
                              {"w": np.array([1.0])}, hp)
    delta = float(new_params["w"][0] - 0.5)
    assert delta == pytest.approx(-0.001, abs=1e-10)


def test_adam_is_pure():
    hp = TrainHP()
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([2.0])}
    state = AdamState.zeros_like(params)
    adam_step(state, params, grads, hp)
    assert params["w"][0] == 1.0 and grads["w"][0] == 2.0
    assert state.step == 0 and state.m["w"][0] == 0.0
    a, _ = adam_step(state, params, grads, hp)
    b, _ = adam_step(state, params, grads, hp)
    assert np.array_equal(a["w"], b["w"])


def test_adam_validates_keys_and_shapes():
    hp = TrainHP()
    params = {"w": np.zeros(2)}
    state = AdamState.zeros_like(params)
    with pytest.raises(ValueError):
        adam_step(state, params, {"v": np.zeros(2)}, hp)
    with pytest.raises(ValueError):
        adam_step(state, params, {"w": np.zeros(3)}, hp)


def test_train_naive_single_full_batch_is_one_adam_step():
    enc = make_encoder(6, 3, 1)
    data = _toy_data(5, n=10, dim=3)
    hp = TrainHP(epochs_per_task=1, batch_size=10,
                 adam_reset_per_task=False)
    clf = Classifier(enc, classes=(0, 1))
    # A random starting head keeps the gradients well away from Adam's
    # epsilon; at a zero init the bias gradient cancels to rounding
    # noise and the one-step comparison is vacuous.
    head_rng = np.random.default_rng(11)
    clf.weights = head_rng.normal(size=(2, 6))
    clf.bias = head_rng.normal(size=2)
    manual_grads = ce_loss_and_grads(clf, data)[1]
    expect, _ = adam_step(AdamState.zeros_like(clf.head_params()),
                          clf.head_params(), manual_grads, hp)
    train_naive(clf, data, hp, stream(0, "t"))
    assert clf.adam_state.step == 1
    assert np.allclose(clf.weights, expect["weights"], atol=1e-12)
    assert np.allclose(clf.bias, expect["bias"], atol=1e-12)


def test_train_naive_reduces_loss_three_seeds():
    enc = make_encoder(8, 4, 2)
    hp = TrainHP(epochs_per_task=5, batch_size=8)
    drops = []
    for seed in (0, 1, 2):
        data = _toy_data(seed, n=32, dim=4, shift=1.0)
        clf = Classifier(enc, classes=(0, 1))
        before, _ = ce_loss_and_grads(clf, data)
        train_naive(clf, data, hp, stream(seed, "t"))
        after, _ = ce_loss_and_grads(clf, data)
        drops.append(before - after)
    assert np.mean(drops) > 0


def test_train_naive_deterministic_and_encoder_untouched():
    enc = make_encoder(6, 3, 1)
    checksum = enc.checksum()
    data = _toy_data(5, n=16, dim=3)
    hp = TrainHP(epochs_per_task=3, batch_size=4)
    runs = []
    for _ in range(2):
        clf = Classifier(enc, classes=(0, 1))
        train_naive(clf, data, hp, stream(7, "t"))
        runs.append((clf.weights.copy(), clf.bias.copy()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
    assert enc.checksum() == checksum


def test_train_rejects_empty_data():
    enc = make_encoder(6, 3, 1)
    clf = Classifier(enc, classes=(0, 1))
    hp = TrainHP()
    with pytest.raises(ProtocolError):
        train_naive(clf, _empty(), hp, stream(0, "t"))
    with pytest.raises(ProtocolError):
        train_joint(clf, [_empty(), _empty()], hp, stream(0, "t"))


def test_joint_single_dataset_equals_naive():
    enc = make_encoder(6, 3, 1)
    data = _toy_data(5, n=16, dim=3)
    hp = TrainHP(epochs_per_task=3, batch_size=4)
    a = Classifier(enc, classes=(0, 1))
    b = Classifier(enc, classes=(0, 1))
    train_naive(a, data, hp, stream(7, "t"))
    train_joint(b, [data], hp, stream(7, "t"))
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
    hp = TrainHP(epochs_per_task=1, batch_size=1010)
    clf = Classifier(enc, classes=(0, 1))
    head_rng = np.random.default_rng(12)
    clf.weights = head_rng.normal(size=(2, 6))
    clf.bias = head_rng.normal(size=2)
    g_small = ce_loss_and_grads(clf, small)[1]
    g_large = ce_loss_and_grads(clf, large)[1]
    summed = {k: g_small[k] + g_large[k] for k in g_small}
    expect, _ = adam_step(AdamState.zeros_like(clf.head_params()),
                          clf.head_params(), summed, hp)
    train_joint(clf, [small, large], hp, stream(3, "t"))
    assert np.allclose(clf.weights, expect["weights"], atol=1e-12)
    assert np.allclose(clf.bias, expect["bias"], atol=1e-12)


def test_replay_with_empty_memory_equals_naive():
    enc = make_encoder(6, 3, 1)
    data = _toy_data(5, n=16, dim=3)
    hp = TrainHP(epochs_per_task=3, batch_size=4)
    a = Classifier(enc, classes=(0, 1))
    b = Classifier(enc, classes=(0, 1))
    train_naive(a, data, hp, stream(7, "t"))
    train_osifl(b, data, ExemplarMemory(5), hp, stream(7, "t"))
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
    clf.weights = rng.normal(size=(3, 6))
    clf.bias = rng.normal(size=3)
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
        hp = TrainHP(epochs_per_task=10, batch_size=16)
        accs = {}
        for variant in ("naive", "replay"):
            clf = Classifier(enc, classes=suite.tasks[0].classes)
            train_naive(clf, shards[0].samples, hp, stream(seed, "t", 1))
            memory = ExemplarMemory(5)
            if variant == "replay":
                per_class = {}
                shard = shards[0].samples
                for k in suite.tasks[0].classes:
                    rows = shard.y == k
                    pool = Batch(shard.x[rows], shard.y[rows],
                                 shard.domain[rows], shard.task)
                    per_class[k] = select_exemplars(clf, pool, 5)
                memory.add_task(1, per_class)
            clf.expand_head(suite.tasks[1].classes)
            if variant == "replay":
                train_osifl(clf, shards[1].samples, memory, hp,
                            stream(seed, "t", 2))
            else:
                train_naive(clf, shards[1].samples, hp, stream(seed, "t", 2))
            test1 = test_sets[1]
            preds = clf.predict(test1.x)
            accs[variant] = float(np.mean(preds == test1.y))
        gaps.append(accs["replay"] - accs["naive"])
    assert float(np.mean(gaps)) >= 0.10


def test_fisher_zero_for_perfectly_confident_head():
    enc = make_encoder(4, 3, 5)
    clf = Classifier(enc, classes=(0,))
    anchor = estimate_fisher(clf, _row(np.zeros(3), 0))
    assert np.all(anchor.fisher["weights"] == 0.0)
    assert np.all(anchor.fisher["bias"] == 0.0)


def test_fisher_single_sample_is_squared_gradient():
    rng = np.random.default_rng(6)
    enc = make_encoder(4, 3, 5)
    clf = Classifier(enc, classes=(0, 1))
    clf.weights = rng.normal(size=(2, 4))
    sample = _row(rng.normal(size=3), 1)
    anchor = estimate_fisher(clf, sample)
    _, grads = ce_loss_and_grads(clf, sample)
    for key in ("weights", "bias"):
        rel = np.abs(anchor.fisher[key] - grads[key] ** 2) / np.maximum(
            np.abs(grads[key] ** 2), 1e-300)
        assert rel.max() < 1e-12


def test_fisher_matches_bruteforce_accumulation():
    rng = np.random.default_rng(8)
    enc = make_encoder(4, 3, 5)
    clf = Classifier(enc, classes=(0, 1, 2))
    clf.weights = rng.normal(size=(3, 4))
    clf.bias = rng.normal(size=3)
    data = _toy_data(3, n=12, classes=(0, 1, 2), dim=3)
    anchor = estimate_fisher(clf, data)
    brute = {"weights": np.zeros_like(clf.weights),
             "bias": np.zeros_like(clf.bias)}
    for x, y in zip(data.x, data.y.tolist()):
        _, g = ce_loss_and_grads(clf, _row(x, y))
        brute["weights"] += g["weights"] ** 2
        brute["bias"] += g["bias"] ** 2
    for key in brute:
        assert np.allclose(anchor.fisher[key], brute[key] / len(data),
                           atol=1e-10)
    with pytest.raises(ProtocolError):
        estimate_fisher(clf, _empty())


def test_ewc_penalty_hand_case_and_gradient():
    params = {"w": np.array([4.0])}
    anchor = AnchorState(theta={"w": np.array([1.0])},
                         fisher={"w": np.array([2.0])})
    loss, grads = ewc_penalty_and_grads(params, anchor, 0.5)
    assert loss == pytest.approx(9.0, abs=1e-12)
    assert grads["w"][0] == pytest.approx(6.0, abs=1e-12)


def test_proximal_penalty_hand_case():
    params = {"w": np.array([3.0, 4.0])}
    ref = {"w": np.zeros(2)}
    loss, grads = proximal_penalty_and_grads(params, ref, 2.0)
    assert loss == pytest.approx(25.0, abs=1e-12)
    assert np.allclose(grads["w"], [6.0, 8.0], atol=1e-12)


def test_regularized_lambda_zero_equals_naive():
    enc = make_encoder(6, 3, 1)
    data = _toy_data(5, n=16, dim=3)
    hp = TrainHP(epochs_per_task=3, batch_size=4)
    anchor = AnchorState(
        theta={"weights": np.ones((2, 6)), "bias": np.ones(2)},
        fisher={"weights": np.ones((2, 6)), "bias": np.ones(2)})
    a = Classifier(enc, classes=(0, 1))
    b = Classifier(enc, classes=(0, 1))
    train_naive(a, data, hp, stream(7, "t"))
    train_regularized(b, data, anchor, 0.0, hp, stream(7, "t"))
    assert np.array_equal(a.weights, b.weights)
    with pytest.raises(ConfigError):
        train_regularized(b, data, anchor, -1.0, hp, stream(7, "t"))


def test_regularized_large_lambda_stays_near_anchor():
    enc = make_encoder(6, 3, 1)
    data = _toy_data(5, n=16, dim=3)
    hp = TrainHP(epochs_per_task=5, batch_size=8)
    start = {"weights": np.zeros((2, 6)), "bias": np.zeros(2)}
    anchor = AnchorState(theta={k: v.copy() for k, v in start.items()},
                         fisher={k: np.ones_like(v)
                                 for k, v in start.items()})
    free = Classifier(enc, classes=(0, 1))
    pinned = Classifier(enc, classes=(0, 1))
    train_regularized(free, data, anchor, 0.0, hp, stream(7, "t"))
    train_regularized(pinned, data, anchor, 1e4, hp, stream(7, "t"))
    assert np.linalg.norm(pinned.weights) < np.linalg.norm(free.weights)


def test_align_anchor_zero_pads_new_rows():
    anchor = AnchorState(theta={"weights": np.ones((2, 3)),
                                "bias": np.ones(2)},
                         fisher={"weights": np.full((2, 3), 0.5),
                                 "bias": np.full(2, 0.5)})
    grown = align_anchor(anchor, {"weights": np.zeros((4, 3)),
                                  "bias": np.zeros(4)})
    assert np.array_equal(grown.theta["weights"][:2], np.ones((2, 3)))
    assert np.all(grown.theta["weights"][2:] == 0.0)
    assert np.all(grown.fisher["bias"][2:] == 0.0)
    # New rows unconstrained: penalty ignores them entirely.
    params = {"weights": np.vstack([np.ones((2, 3)), np.full((2, 3), 9.0)]),
              "bias": np.array([1.0, 1.0, 9.0, 9.0])}
    loss, _ = ewc_penalty_and_grads(params, grown, 1.0)
    assert loss == 0.0


def test_expand_head_zero_classes_and_old_logit_stability():
    enc = make_encoder(6, 3, 1)
    clf = Classifier(enc, classes=(0, 1))
    clf.weights = np.random.default_rng(3).normal(size=(2, 6))
    before = clf.weights.copy()
    clf.expand_head([])
    assert np.array_equal(clf.weights, before)
    xs = np.random.default_rng(4).normal(size=(5, 3))
    emb = enc.encode_batch(xs)
    old_logits = clf.logits_from_embedded(emb)
    clf.expand_head([2, 3])
    new_logits = clf.logits_from_embedded(emb)
    assert np.array_equal(new_logits[:, :2], old_logits)
    assert np.all(new_logits[:, 2:] == 0.0)


def test_expand_head_softmax_share_of_new_class():
    enc = make_encoder(6, 3, 1)
    clf = Classifier(enc, classes=(0, 1))
    clf.weights = np.random.default_rng(5).normal(size=(2, 6))
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
    hp = TrainHP(epochs_per_task=1, batch_size=8, adam_reset_per_task=False)
    train_naive(clf, _toy_data(5, n=8, dim=3), hp, stream(0, "t"))
    assert clf.adam_state is not None
    clf.expand_head([2])
    assert clf.adam_state.m["weights"].shape == (3, 6)
    assert np.all(clf.adam_state.m["weights"][2] == 0.0)


def test_train_local_epoch_override_and_penalty_pull():
    enc = make_encoder(6, 3, 1)
    data = _toy_data(5, n=16, dim=3)
    hp = TrainHP(epochs_per_task=20, batch_size=8)
    ref = {"weights": np.zeros((2, 6)), "bias": np.zeros(2)}
    plain = Classifier(enc, classes=(0, 1))
    pulled = Classifier(enc, classes=(0, 1))
    train_local(plain, data, hp, stream(1, "t"), epochs=1)
    train_local(pulled, data, hp, stream(1, "t"), epochs=1,
                penalty=lambda p: proximal_penalty_and_grads(p, ref, 100.0))
    assert np.linalg.norm(pulled.weights) < np.linalg.norm(plain.weights)


def test_training_ledger_matches_closed_forms():
    enc = make_encoder(6, 3, 1)
    data = _toy_data(5, n=10, dim=3)
    hp = TrainHP(epochs_per_task=2, batch_size=4)
    clf = Classifier(enc, classes=(0, 1))
    ledger = ComputeLedger()
    train_naive(clf, data, hp, stream(0, "t"), ledger=ledger)
    batches = [4, 4, 2]
    expect_fwd = sum(head_forward_madds(b, 2, 6) for b in batches) * 2
    expect_bwd = sum(head_backward_madds(b, 2, 6) for b in batches) * 2
    expect_soft = sum(softmax_madds(b, 2) for b in batches) * 2
    assert ledger.madds_by_kind["train_head_forward"] == expect_fwd
    assert ledger.madds_by_kind["train_head_backward"] == expect_bwd
    assert ledger.madds_by_kind["train_softmax"] == expect_soft
    assert ledger.madds_by_kind["train_encoder"] == \
        encoder_forward_madds(10, 6, 3)
    assert head_forward_madds(7, 3, 5) == 7 * (3 * 5 + 3)


def test_zero_epochs_leave_ledger_and_params_unchanged():
    enc = make_encoder(6, 3, 1)
    data = _toy_data(5, n=10, dim=3)
    hp = TrainHP(epochs_per_task=0, batch_size=4)
    clf = Classifier(enc, classes=(0, 1))
    ledger = ComputeLedger()
    before = clf.head_params()
    train_naive(clf, data, hp, stream(0, "t"), ledger=ledger)
    assert np.array_equal(clf.weights, before["weights"])
    assert "train_head_forward" not in ledger.madds_by_kind


def test_head_checkpoint_roundtrip(tmp_path):
    enc = make_encoder(6, 3, 1)
    clf = Classifier(enc, classes=(3, 0, 7))
    clf.weights = np.random.default_rng(1).normal(size=(3, 6))
    clf.bias = np.random.default_rng(2).normal(size=3)
    path = os.path.join(tmp_path, "head.bin")
    save_head(clf, path)
    back = load_head(path, enc)
    assert back.classes == [3, 0, 7]
    assert np.array_equal(back.weights, clf.weights)
    assert np.array_equal(back.bias, clf.bias)
    with pytest.raises(ProtocolError, match="dim_e"):
        load_head(path, make_encoder(7, 3, 1))
