import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osifl.datagen import build_world, draw_base_pool
from osifl.diffusion import (DiffusionHP, NoiseSchedule, ancestral_sample,
                             denoise_loss_and_grads, denoise_loss_fixed,
                             forward_noise, guided_epsilon, load_model,
                             make_denoiser, make_schedule, make_surrogate,
                             pretrain, save_model, synthesize_task_data)
from osifl.encoder import ClientMessage, make_encoder
from osifl.errors import ConfigError, ProtocolError
from osifl.ledgers import ComputeLedger
from osifl.rng import stream


def test_schedule_single_step_value():
    with pytest.raises(ConfigError):
        make_schedule(1, 0.0, 0.0)
    sched = make_schedule(1, 1e-4, 1e-4)
    assert sched.alpha_bar(1) == pytest.approx(0.9999, abs=1e-15)


def test_schedule_two_step_products():
    sched = make_schedule(2, 0.1, 0.2)
    assert sched.alpha_bar(1) == pytest.approx(0.9, abs=1e-12)
    assert sched.alpha_bar(2) == pytest.approx(0.72, abs=1e-12)
    assert sched.beta(1) == pytest.approx(0.1) and sched.beta(2) == \
        pytest.approx(0.2)


def test_schedule_alpha_bar_strictly_decreasing():
    sched = make_schedule(50, 1e-4, 0.05)
    assert np.all(np.diff(sched.alpha_bars) < 0)
    with pytest.raises(ConfigError):
        sched.alpha_bar(0)
    with pytest.raises(ConfigError):
        sched.alpha_bar(51)


def test_schedule_rejects_bad_betas():
    for args in ((0, 0.1, 0.2), (3, 0.2, 0.1), (3, 0.1, 1.0)):
        with pytest.raises(ConfigError):
            make_schedule(*args)


def test_forward_noise_beta_zero_limit():
    betas = np.array([0.0])
    sched = NoiseSchedule(betas=betas, alphas=1.0 - betas,
                          alpha_bars=np.cumprod(1.0 - betas))
    x0 = np.array([1.5, -2.0])
    out = forward_noise(sched, x0, 1, np.ones(2))
    assert np.array_equal(out, x0)


def test_forward_noise_hand_case():
    # alpha_bar = 0.64, x0 = 0, eps = 1 -> x_z = sqrt(0.36) = 0.6
    sched = make_schedule(1, 0.36, 0.36)
    out = forward_noise(sched, np.zeros(3), 1, np.ones(3))
    assert np.allclose(out, 0.6, atol=1e-12)


def test_forward_noise_batched_timesteps():
    sched = make_schedule(4, 0.1, 0.3)
    x0 = np.ones((3, 2))
    eps = np.zeros((3, 2))
    out = forward_noise(sched, x0, np.array([1, 2, 4]), eps)
    expect = np.sqrt(sched.alpha_bars[[0, 1, 3]])[:, None] * x0
    assert np.allclose(out, expect, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(-3, 3), seed=st.integers(0, 10_000))
def test_forward_noise_is_linear(scale, seed):
    sched = make_schedule(5, 0.01, 0.2)
    rng = np.random.default_rng(seed)
    x0, eps = rng.normal(size=4), rng.normal(size=4)
    a = forward_noise(sched, scale * x0, 3, scale * eps)
    b = scale * forward_noise(sched, x0, 3, eps)
    assert np.allclose(a, b, atol=1e-12)


def test_denoise_loss_zero_on_rigged_identity():
    den = make_denoiser(2, 3, 4, 4, 0)
    for key in den.params:
        den.params[key] = np.zeros_like(den.params[key])
    sched = make_schedule(4, 0.05, 0.1)
    x0 = np.zeros((3, 2))
    eps = np.zeros((3, 2))
    loss, grads = denoise_loss_fixed(den, sched, x0, np.array([1, 2, 3]),
                                     eps, np.zeros((3, 3)))
    assert loss == 0.0
    assert all(np.all(g == 0) for g in grads.values())


def test_denoise_gradients_match_finite_differences():
    den = make_denoiser(2, 2, 3, 3, 1)
    sched = make_schedule(3, 0.05, 0.2)
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(4, 2))
    z = np.array([1, 2, 3, 2])
    eps = rng.normal(size=(4, 2))
    cond = rng.normal(size=(4, 2))
    _, grads = denoise_loss_fixed(den, sched, x0, z, eps, cond)
    h = 1e-5
    for key, arr in den.params.items():
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = denoise_loss_fixed(den, sched, x0, z, eps, cond)
            flat[i] = orig - h
            down, _ = denoise_loss_fixed(den, sched, x0, z, eps, cond)
            flat[i] = orig
            numeric = (up - down) / (2 * h)
            analytic = grads[key].ravel()[i]
            denom = max(abs(numeric), abs(analytic), 1e-5)
            assert abs(numeric - analytic) / denom < 1e-4


def test_condition_dropped_everywhere_at_p1():
    den = make_denoiser(2, 3, 4, 4, 2)
    sched = make_schedule(4, 0.05, 0.1)
    rng = stream(3, "drop")
    x0 = np.random.default_rng(0).normal(size=(8, 2))
    cond = np.ones((8, 3))
    _, _, trace = denoise_loss_and_grads(den, sched, x0, cond, 1.0, rng,
                                         with_trace=True)
    assert np.all(trace.cond_used == 0.0)
    assert np.all((trace.z >= 1) & (trace.z <= 4))


def test_condition_kept_everywhere_at_p0():
    den = make_denoiser(2, 3, 4, 4, 2)
    sched = make_schedule(4, 0.05, 0.1)
    x0 = np.random.default_rng(0).normal(size=(8, 2))
    cond = np.ones((8, 3))
    _, _, trace = denoise_loss_and_grads(den, sched, x0, cond, 0.0,
                                         stream(3, "keep"), with_trace=True)
    assert np.array_equal(trace.cond_used, cond)


def _tiny_pool(seed=3, n=80):
    world = build_world(3, 2, 2, 0.5, seed)
    return world, draw_base_pool(world, n, seed + 1)


def test_pretrain_reduces_loss_over_three_seeds():
    world, pool = _tiny_pool()
    enc = make_encoder(6, 3, 4)
    hp = DiffusionHP(num_steps=10, hidden=16, train_steps=2000,
                     batch_size=16)
    first, last = [], []
    for seed in (0, 1, 2):
        model = pretrain(pool, enc, hp, seed)
        first.append(model.loss_history[0])
        last.append(model.loss_history[-1])
    assert np.mean(last) < np.mean(first)


def test_pretrain_zero_steps_keeps_init():
    world, pool = _tiny_pool()
    enc = make_encoder(6, 3, 4)
    hp = DiffusionHP(num_steps=10, hidden=16, train_steps=0, batch_size=16)
    model = pretrain(pool, enc, hp, 7)
    reference = make_denoiser(3, 6, 10, 16, 7)
    assert not model.trained
    for key in reference.params:
        assert np.array_equal(model.denoiser.params[key],
                              reference.params[key])
    with pytest.raises(ProtocolError):
        ancestral_sample(model, np.zeros(6), 1.0, 2, stream(0, "x"))


def test_pretrain_deterministic():
    world, pool = _tiny_pool()
    enc = make_encoder(6, 3, 4)
    hp = DiffusionHP(num_steps=10, hidden=16, train_steps=50, batch_size=16)
    a = pretrain(pool, enc, hp, 7)
    b = pretrain(pool, enc, hp, 7)
    for key in a.denoiser.params:
        assert np.array_equal(a.denoiser.params[key], b.denoiser.params[key])
    assert a.loss_history == b.loss_history


def test_guidance_weight_one_is_conditional_branch():
    den = make_denoiser(3, 4, 5, 6, 8)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3))
    cond = rng.normal(size=(4, 4))
    assert np.allclose(guided_epsilon(den, x, 2, cond, 1.0),
                       den.forward(x, 2, cond), atol=1e-12)


def test_guidance_hand_case_point_six():
    class Stub:
        dim_cond = 2

        def forward(self, x, z, cond):
            x = np.atleast_2d(np.asarray(x, dtype=float))
            cond = np.atleast_2d(np.asarray(cond, dtype=float))
            level = np.where(np.abs(cond).sum(axis=1) > 0, 0.4, 0.2)
            return np.ones_like(x) * level[:, None]

    out = guided_epsilon(Stub(), np.zeros((2, 3)), 1, np.ones((2, 2)), 2.0)
    assert np.allclose(out, 0.6, atol=1e-15)


def test_guidance_null_condition_collapses():
    den = make_denoiser(3, 4, 5, 6, 8)
    x = np.random.default_rng(2).normal(size=(3, 3))
    null = np.zeros((3, 4))
    base = den.forward(x, 1, null)
    for w in (1.0, 2.0, 5.0):
        assert np.allclose(guided_epsilon(den, x, 1, null, w), base,
                           atol=1e-12)


def test_guidance_rejects_small_w():
    den = make_denoiser(2, 2, 2, 2, 0)
    with pytest.raises(ConfigError):
        guided_epsilon(den, np.zeros((1, 2)), 1, np.zeros((1, 2)), 0.99)


def test_sampling_finite_and_deterministic():
    world, pool = _tiny_pool()
    enc = make_encoder(6, 3, 4)
    hp = DiffusionHP(num_steps=10, hidden=16, train_steps=100, batch_size=16)
    model = pretrain(pool, enc, hp, 7)
    cond = model.denoiser.null_condition()
    a = model.sample(cond, 5, 1.0, stream(9, "s"))
    b = model.sample(cond, 5, 1.0, stream(9, "s"))
    assert a.shape == (5, 3)
    assert np.all(np.isfinite(a))
    assert np.array_equal(a, b)


def test_sampling_ledger_counts_forward_passes():
    world, pool = _tiny_pool()
    enc = make_encoder(6, 3, 4)
    hp = DiffusionHP(num_steps=10, hidden=16, train_steps=20, batch_size=16)
    model = pretrain(pool, enc, hp, 7)
    ledger = ComputeLedger()
    model.sample(np.zeros(6), 4, 2.0, stream(1, "s"), ledger=ledger)
    per_step = 2 * model.denoiser.forward_madds(4)
    assert ledger.madds_by_kind["diffusion_sampling"] == 10 * per_step


def _message(client_id, task_id, classes, dim, seed):
    rng = np.random.default_rng(seed)
    return ClientMessage(client_id=client_id, task_id=task_id,
                         class_means={k: rng.normal(size=dim)
                                      for k in classes},
                         class_counts={k: 50 for k in classes})


class _CountingGenerator:
    def __init__(self, dim_x):
        self.dim_x = dim_x
        self.conds = []

    def sample(self, cond, n, w, rng, ledger=None):
        self.conds.append((np.asarray(cond).copy(), n))
        return np.tile(np.asarray(cond)[: self.dim_x], (n, 1))


def test_synthesis_counts_per_class():
    gen = _CountingGenerator(2)
    msg = _message(0, 1, (3, 8), 4, 0)
    synth = synthesize_task_data(gen, [msg], 50, 2.0, stream(0, "z"))
    assert sorted(synth.per_class) == [3, 8]
    assert all(len(v) == 50 for v in synth.per_class.values())
    assert all(v.shape == (50, 2) and not v.flags.writeable
               for v in synth.per_class.values())
    assert synth.task_id == 1


def test_synthesis_zero_budget():
    gen = _CountingGenerator(2)
    msg = _message(0, 1, (3,), 4, 0)
    synth = synthesize_task_data(gen, [msg], 0, 2.0, stream(0, "z"))
    assert list(synth.per_class) == [3]
    assert synth.per_class[3].shape == (0, 2)


def test_synthesis_alternates_providers():
    gen = _CountingGenerator(2)
    a = _message(0, 1, (3,), 4, 1)
    b = _message(1, 1, (3,), 4, 2)
    synth = synthesize_task_data(gen, [a, b], 5, 2.0, stream(0, "z"))
    assert synth.source_clients[3] == [0, 1, 0, 1, 0]
    xs = synth.per_class[3]
    assert np.array_equal(xs[0], a.class_means[3][:2])
    assert np.array_equal(xs[1], b.class_means[3][:2])
    assert np.array_equal(xs[2], a.class_means[3][:2])


class _RecordingGenerator:
    """Distinct random rows per call, kept so a test can rebuild the
    interleaving from the raw per-provider batches."""

    def __init__(self):
        self.batches = []

    def sample(self, cond, n, w, rng, ledger=None):
        self.batches.append(rng.standard_normal((n, 3)))
        return self.batches[-1]


@pytest.mark.parametrize("n_providers, z", [(1, 4), (2, 5), (3, 7), (4, 2)])
def test_synthesis_interleaving_equals_the_per_row_loop(n_providers, z):
    gen = _RecordingGenerator()
    msgs = [_message(c, 1, (2, 6), 4, c) for c in range(n_providers)]
    synth = synthesize_task_data(gen, msgs, z, 2.0, stream(0, "z"))
    for i, k in enumerate((2, 6)):
        batches = gen.batches[i * n_providers:(i + 1) * n_providers]
        # Sample i of a class comes from provider i mod n_providers.
        expect = [batches[j % n_providers][j // n_providers]
                  for j in range(z)]
        assert np.array_equal(synth.per_class[k], np.stack(expect))
        assert synth.source_clients[k] == [j % n_providers
                                           for j in range(z)]


def test_synthesis_rejects_mixed_tasks_and_empty():
    gen = _CountingGenerator(2)
    with pytest.raises(ProtocolError):
        synthesize_task_data(gen, [], 5, 2.0, stream(0, "z"))
    a = _message(0, 1, (3,), 4, 1)
    b = _message(1, 2, (3,), 4, 2)
    with pytest.raises(ProtocolError):
        synthesize_task_data(gen, [a, b], 5, 2.0, stream(0, "z"))


def test_surrogate_samples_true_cluster():
    world, pool = _tiny_pool(seed=11, n=400)
    enc = make_encoder(6, 3, 4)
    surro = make_surrogate(world, enc, pool)
    idx = surro.pairs.index((1, 0))
    cond = surro.cond_matrix[idx]
    xs = surro.sample(cond, 4000, 2.0, stream(2, "draw"))
    center = world.cluster_mean(1, 0)
    assert np.abs(xs.mean(axis=0) - center).max() < \
        4 * world.within_std / np.sqrt(4000)


def test_model_checkpoint_roundtrip(tmp_path):
    world, pool = _tiny_pool()
    enc = make_encoder(6, 3, 4)
    hp = DiffusionHP(num_steps=10, hidden=16, train_steps=30, batch_size=16)
    model = pretrain(pool, enc, hp, 7)
    path = os.path.join(tmp_path, "model.bin")
    save_model(model, path)
    back = load_model(path)
    assert back.trained
    assert np.array_equal(back.schedule.betas, model.schedule.betas)
    assert np.array_equal(back.schedule.alpha_bars,
                          model.schedule.alpha_bars)
    for key in model.denoiser.params:
        assert np.array_equal(back.denoiser.params[key],
                              model.denoiser.params[key])
    a = model.sample(np.zeros(6), 3, 1.5, stream(4, "cmp"))
    b = back.sample(np.zeros(6), 3, 1.5, stream(4, "cmp"))
    assert np.array_equal(a, b)


def test_load_model_rejects_foreign_file(tmp_path):
    path = os.path.join(tmp_path, "junk.bin")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ProtocolError):
        load_model(path)
