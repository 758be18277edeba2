import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osifl.config import ExperimentConfig
from osifl.datagen import build_world, draw_base_pool
from osifl.diffusion import (NoiseSchedule, denoise_loss_fixed,
                             forward_madds_per_row, forward_noise,
                             guided_epsilon, load_model, make_denoiser,
                             make_schedule, make_surrogate, pretrain,
                             save_model, synthesize_task_data)
from osifl.encoder import ClientMessage, make_encoder
from osifl.errors import ConfigError, ProtocolError
from osifl.ledgers import ComputeLedger
from osifl.rng import stream
from reference_run import _surrogate_per_chain, _synthesize, \
    denoise_loss_and_grads, denoiser_forward_madds, pretrain_reference


def test_schedule_single_step_value():
    with pytest.raises(ConfigError):
        make_schedule(1, 0.0, 0.0)
    sched = make_schedule(1, 1e-4, 1e-4)
    assert sched.alpha_bar(1) == pytest.approx(0.9999, abs=1e-15)


def test_schedule_two_step_products():
    sched = make_schedule(2, 0.1, 0.2)
    assert sched.alpha_bar(1) == pytest.approx(0.9, abs=1e-12)
    assert sched.alpha_bar(2) == pytest.approx(0.72, abs=1e-12)
    assert sched.betas[0] == pytest.approx(0.1) and sched.betas[1] == \
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
    # 1 - 1e-17 rounds to 1: the first alpha_bar would be exactly 1.
    with pytest.raises(ConfigError, match="beta_min"):
        make_schedule(3, 1e-17, 0.1)


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
        den.params[key][...] = 0.0
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


def test_denoise_gradients_equal_fresh_array_expressions_bit_for_bit():
    # The backward writes into views of one flat vector; each gradient
    # must round exactly as the textbook expression on fresh arrays.
    den = make_denoiser(3, 4, 5, 6, 9)
    sched = make_schedule(5, 0.05, 0.2)
    rng = np.random.default_rng(10)
    x0, eps = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
    z, cond = rng.integers(1, 6, size=7), rng.normal(size=(7, 4))
    out = np.full(den.param_count, np.nan)
    _, grads = denoise_loss_fixed(den, sched, x0, z, eps, cond, out)
    p = den.params
    a = den._assemble(forward_noise(sched, x0, z, eps), z, cond)
    h1 = np.tanh(a @ p["w1"].T + p["b1"])
    h2 = np.tanh(h1 @ p["w2"].T + p["b2"])
    d_out = 2.0 * (h2 @ p["w3"].T + p["b3"] - eps) / 7
    d_h2 = (d_out @ p["w3"]) * (1.0 - h2 * h2)
    d_h1 = (d_h2 @ p["w2"]) * (1.0 - h1 * h1)
    expect = {"w3": d_out.T @ h2, "b3": d_out.sum(axis=0),
              "w2": d_h2.T @ h1, "b2": d_h2.sum(axis=0),
              "w1": d_h1.T @ a, "b1": d_h1.sum(axis=0)}
    assert list(grads) == list(p) == ["w1", "b1", "w2", "b2", "w3", "b3"]
    for k, v in expect.items():
        assert np.array_equal(grads[k], v)
        assert np.shares_memory(grads[k], out)
    assert np.array_equal(out, np.concatenate([expect[k].ravel()
                                               for k in grads]))


def _replayed_step(den, sched, x0, cond, p_drop, seed, label):
    """One training step's loss and gradients, and the draws it used
    (timesteps, noise, conditions after the drop), rebuilt by replaying
    the same stream in the documented order. The replay is checked by
    recomputing the step with those draws held fixed."""
    loss, grads = denoise_loss_and_grads(den, sched, x0, cond, p_drop,
                                         stream(seed, label))
    rng = stream(seed, label)
    z = rng.integers(1, sched.num_steps + 1, size=len(x0))
    eps = rng.standard_normal(x0.shape)
    cond_used = np.where((rng.random(len(x0)) < p_drop)[:, None], 0.0, cond)
    fixed_loss, fixed_grads = denoise_loss_fixed(den, sched, x0, z, eps,
                                                 cond_used)
    assert loss == fixed_loss
    assert all(np.array_equal(grads[k], fixed_grads[k]) for k in grads)
    return z, cond_used


def test_condition_dropped_everywhere_at_p1():
    den = make_denoiser(2, 3, 4, 4, 2)
    sched = make_schedule(4, 0.05, 0.1)
    x0 = np.random.default_rng(0).normal(size=(8, 2))
    cond = np.ones((8, 3))
    z, cond_used = _replayed_step(den, sched, x0, cond, 1.0, 3, "drop")
    assert np.all(cond_used == 0.0)
    assert np.all((z >= 1) & (z <= 4))


def test_condition_kept_everywhere_at_p0():
    den = make_denoiser(2, 3, 4, 4, 2)
    sched = make_schedule(4, 0.05, 0.1)
    x0 = np.random.default_rng(0).normal(size=(8, 2))
    cond = np.ones((8, 3))
    _, cond_used = _replayed_step(den, sched, x0, cond, 0.0, 3, "keep")
    assert np.array_equal(cond_used, cond)


def _tiny_pool(seed=3, n=80):
    world = build_world(3, 2, 2, 0.5, seed)
    return world, draw_base_pool(world, n, seed + 1)


def _tiny_cfg(pretrain_steps):
    """Pretraining of a 10-step, 16-unit denoiser on batches of 16."""
    return ExperimentConfig(diffusion_steps=10, denoiser_hidden=16,
                            pretrain_steps=pretrain_steps, pretrain_batch=16)


def test_pretrain_reduces_loss_over_three_seeds():
    world, pool = _tiny_pool()
    enc = make_encoder(6, 3, 4)
    cfg = _tiny_cfg(2000)
    first, last = [], []
    for seed in (0, 1, 2):
        model = pretrain(pool, enc, cfg, seed)
        first.append(model.loss_history[0])
        last.append(model.loss_history[-1])
    assert np.mean(last) < np.mean(first)


def test_pretrain_zero_steps_keeps_init():
    world, pool = _tiny_pool()
    enc = make_encoder(6, 3, 4)
    cfg = _tiny_cfg(0)
    model = pretrain(pool, enc, cfg, 7)
    reference = make_denoiser(3, 6, 10, 16, 7)
    assert not model.trained
    for key in reference.params:
        assert np.array_equal(model.denoiser.params[key],
                              reference.params[key])
    with pytest.raises(ProtocolError):
        model.sample_chains(np.zeros((1, 6)), [2], 1.0, stream(0, "x"))


def test_pretrain_deterministic():
    world, pool = _tiny_pool()
    enc = make_encoder(6, 3, 4)
    cfg = _tiny_cfg(50)
    a = pretrain(pool, enc, cfg, 7)
    b = pretrain(pool, enc, cfg, 7)
    for key in a.denoiser.params:
        assert np.array_equal(a.denoiser.params[key], b.denoiser.params[key])
    assert a.loss_history == b.loss_history


def test_pretrain_matches_a_per_array_reference_loop(tmp_path):
    # 50 steps of the per-array loss and gradients, stepped by the pure
    # reference Adam: bit for bit the parameters, losses and bill of
    # pretrain.
    world, pool = _tiny_pool()
    enc = make_encoder(6, 3, 4)
    cfg = _tiny_cfg(50)
    book, ref_book = ComputeLedger(), ComputeLedger()
    model = pretrain(pool, enc, cfg, 7, ledger=book)
    ref = pretrain_reference(pool, enc, cfg, 7, ledger=ref_book)
    assert model.loss_history == ref.loss_history
    assert model.denoiser.flat.tobytes() == ref.denoiser.flat.tobytes()
    assert book.madds_by_kind == ref_book.madds_by_kind
    # The checkpoint of that model samples exactly as the model does.
    path = os.path.join(tmp_path, "model.bin")
    save_model(model, path)
    back = load_model(path)
    assert back.denoiser.flat.tobytes() == ref.denoiser.flat.tobytes()
    a = model.sample_chains(np.ones((1, 6)), [5], 2.0, stream(5, "cmp"))
    b = back.sample_chains(np.ones((1, 6)), [5], 2.0, stream(5, "cmp"))
    assert np.array_equal(a, b)


def test_pretrain_gathers_conditions_like_a_per_row_stack():
    # Twelve (class, domain) pairs and half the conditions dropped: the
    # pair-index gather gives the conditions, so the parameters and
    # losses, of the reference loop over one condition row per pool row.
    world = build_world(3, 4, 3, 0.5, 5)
    pool = draw_base_pool(world, 90, 6)
    enc = make_encoder(6, 3, 4)
    cfg = ExperimentConfig(diffusion_steps=8, denoiser_hidden=12, p_drop=0.5,
                           pretrain_steps=40, pretrain_batch=8)
    assert len(make_surrogate(world, enc, pool).pairs) == 12
    model, ref = pretrain(pool, enc, cfg, 9), pretrain_reference(pool, enc,
                                                                 cfg, 9)
    assert model.loss_history == ref.loss_history
    assert model.denoiser.flat.tobytes() == ref.denoiser.flat.tobytes()


def test_guidance_weight_one_is_conditional_branch():
    den = make_denoiser(3, 4, 5, 6, 8)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3))
    cond = rng.normal(size=(4, 4))
    assert np.allclose(guided_epsilon(den, x, 2, cond, 1.0),
                       den.forward(x, 2, cond), atol=1e-12)


def test_guidance_hand_case_point_six():
    class Stub:
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
    cfg = _tiny_cfg(100)
    model = pretrain(pool, enc, cfg, 7)
    cond = np.zeros(model.denoiser.dim_cond)  # the null condition
    a = model.sample_chains(cond[None], [5], 1.0, stream(9, "s"))
    b = model.sample_chains(cond[None], [5], 1.0, stream(9, "s"))
    assert a.shape == (5, 3)
    assert np.all(np.isfinite(a))
    assert np.array_equal(a, b)


@settings(max_examples=50, deadline=None)
@given(sizes=st.tuples(*[st.integers(1, 40)] * 4))
def test_the_forward_count_read_off_the_layers_is_the_layer_formula(sizes):
    den = make_denoiser(*sizes, seed=0)
    assert den.sizes == sizes
    assert forward_madds_per_row(*sizes) == denoiser_forward_madds(den, 1)


def test_sampling_ledger_counts_forward_passes():
    world, pool = _tiny_pool()
    enc = make_encoder(6, 3, 4)
    cfg = _tiny_cfg(20)
    model = pretrain(pool, enc, cfg, 7)
    ledger = ComputeLedger()
    model.sample_chains(np.zeros((1, 6)), [4], 2.0, stream(1, "s"),
                        ledger=ledger)
    per_step = 2 * denoiser_forward_madds(model.denoiser, 4)
    assert ledger.madds_by_kind["diffusion_sampling"] == 10 * per_step


def _tiny_model(train_steps=20):
    world, pool = _tiny_pool()
    return pretrain(pool, make_encoder(6, 3, 4), _tiny_cfg(train_steps), 7)


def _per_chain_reference(model, conds, counts, w, rng, ledger):
    """The chains one after another, each the DDPM update of
    `guided_epsilon` on fresh arrays, billing two forward passes per
    chain and step."""
    sched, den, out = model.schedule, model.denoiser, []
    for cond, n in zip(conds, counts):
        if n == 0:
            continue
        x = rng.standard_normal((n, den.dim_x))
        for z in range(sched.num_steps, 0, -1):
            eps_hat = guided_epsilon(den, x, z, np.tile(cond, (n, 1)), w)
            beta = sched.betas[z - 1]
            x = (x - beta / np.sqrt(1.0 - sched.alpha_bar(z))
                 * eps_hat) / np.sqrt(sched.alphas[z - 1])
            if z > 1:
                x = x + np.sqrt(beta) * rng.standard_normal(x.shape)
            ledger.add("diffusion_sampling",
                       2 * denoiser_forward_madds(den, n))
        out.append(x)
    return np.concatenate(out) if out else np.zeros((0, den.dim_x))


@pytest.mark.parametrize("counts, w", [
    ([17, 17, 16], 2.0), ([4, 0, 3], 2.0), ([0, 5], 3.5), ([0, 0], 2.0),
    ([6], 1.0), ([3, 1, 2, 5], 1.0)])
def test_sample_chains_matches_the_per_chain_loop(counts, w):
    # Unequal and zero-length chains, z_per_class = 0 and w = 1: the
    # batched sampler's rows agree with the per-chain loop to rtol 1e-12
    # (only the order of summation differs), both leave the stream in one
    # state, and both bill the same multiply-adds.
    model = _tiny_model()
    conds = np.random.default_rng(len(counts)).normal(size=(len(counts), 6))
    conds[0] = 0.0  # the null condition
    book, ref_book = ComputeLedger(), ComputeLedger()
    rng, ref_rng = stream(3, "chains"), stream(3, "chains")
    got = model.sample_chains(conds, counts, w, rng, ledger=book)
    expect = _per_chain_reference(model, conds, counts, w, ref_rng, ref_book)
    assert got.shape == (sum(counts), 3)
    np.testing.assert_allclose(got, expect, rtol=1e-12,
                               atol=1e-12 * np.abs(expect).max(initial=0))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert book.madds_by_kind == ref_book.madds_by_kind
    # A lone chain is the one-chain case of the same sampler.
    lead = next((i for i, n in enumerate(counts) if n), None)
    if lead is not None:
        alone = model.sample_chains(conds[lead][None], [counts[lead]], w,
                                    stream(3, "chains"))
        np.testing.assert_allclose(alone, expect[:counts[lead]], rtol=1e-12,
                                   atol=1e-12 * np.abs(expect).max())


def test_synthesis_with_a_denoiser_interleaves_its_chains():
    # Three providers over 50 rows run chains of 17, 17 and 16 rows;
    # row i of a class is row i // 3 of provider i mod 3's chain.
    model = _tiny_model()
    msgs = [_message(c, 1, (2, 6), 6, c) for c in range(3)]
    synth = synthesize_task_data(model, msgs, 50, 2.0, stream(0, "z"))
    expect = _synthesize(lambda c, n, w, rng: _per_chain_reference(
        model, c, n, w, rng, ComputeLedger()), msgs, 50, 2.0, stream(0, "z"),
        1)
    np.testing.assert_allclose(synth.data.x, expect.x, rtol=1e-12,
                               atol=1e-12)


def test_sample_chains_rejects_untrained_models_and_small_w():
    conds = np.zeros((2, 6))
    with pytest.raises(ProtocolError):
        _tiny_model(train_steps=0).sample_chains(conds, [2, 1], 2.0,
                                                 stream(0, "x"))
    model = _tiny_model()
    for w in (0.99, 0.0):
        with pytest.raises(ConfigError, match="guidance weight"):
            model.sample_chains(conds, [2, 1], w, stream(0, "x"))
    with pytest.raises(ConfigError, match="sample count"):
        model.sample_chains(conds, [2, -1], 2.0, stream(0, "x"))


def _message(client_id, task_id, classes, dim, seed):
    rng = np.random.default_rng(seed)
    return ClientMessage(client_id=client_id, task_id=task_id,
                         classes=np.array(classes),
                         counts=np.full(len(classes), 50),
                         means=rng.normal(size=(len(classes), dim)))


class _CountingGenerator:
    """Chain j's rows are the first dim_x entries of its condition."""

    def __init__(self, dim_x):
        self.dim_x = dim_x

    def sample_chains(self, conds, counts, w, rng, ledger=None):
        return np.repeat(conds[:, :self.dim_x], counts, axis=0)


def test_synthesis_counts_per_class():
    gen = _CountingGenerator(2)
    msg = _message(0, 1, (3, 8), 4, 0)
    synth = synthesize_task_data(gen, [msg], 50, 2.0, stream(0, "z"))
    assert sorted(synth.per_class) == [3, 8]
    assert all(len(v) == 50 for v in synth.per_class.values())
    assert all(v.x.shape == (50, 2) and not v.x.flags.writeable
               for v in synth.per_class.values())
    assert synth.data.task == 1
    # One read-only batch, rows grouped by ascending class, and a view of
    # it per class.
    data = synth.data
    assert data.x.shape == (100, 2) and not data.x.flags.writeable
    assert data.y.tolist() == [3] * 50 + [8] * 50
    assert data.domain.tolist() == [-1] * 100
    for i, k in enumerate((3, 8)):
        part = synth.per_class[k]
        assert part.task == 1 and part.y.tolist() == [k] * 50
        assert np.shares_memory(part.x, data.x)
        assert np.array_equal(part.x, data.x[50 * i:50 * (i + 1)])


def test_synthesis_zero_budget():
    gen = _CountingGenerator(2)
    msg = _message(0, 1, (3,), 4, 0)
    synth = synthesize_task_data(gen, [msg], 0, 2.0, stream(0, "z"))
    assert list(synth.per_class) == [3]
    assert synth.per_class[3].x.shape == (0, 2)
    assert synth.data.x.shape == (0, 2)


def test_synthesis_alternates_providers():
    gen = _CountingGenerator(2)
    a = _message(0, 1, (3,), 4, 1)
    b = _message(1, 1, (3,), 4, 2)
    synth = synthesize_task_data(gen, [a, b], 5, 2.0, stream(0, "z"))
    xs = synth.per_class[3].x
    # Each row is its provider's mean, so the row names its source client.
    assert [next(m.client_id for m in (a, b)
                 if np.array_equal(row, m.means[0, :2]))
            for row in xs] == [0, 1, 0, 1, 0]
    assert np.array_equal(xs[0], a.means[0, :2])
    assert np.array_equal(xs[1], b.means[0, :2])
    assert np.array_equal(xs[2], a.means[0, :2])


class _RecordingGenerator:
    """Distinct random rows per chain, kept with their condition so a test
    can rebuild the interleaving from the raw per-provider batches."""

    def __init__(self):
        self.batches = []
        self.conds = []

    def sample_chains(self, conds, counts, w, rng, ledger=None):
        for cond, n in zip(conds, counts):
            self.conds.append(cond)
            self.batches.append(rng.standard_normal((n, 3)))
        return np.concatenate(self.batches[-len(counts):])

    def source_clients(self, msgs, k, xs):
        """Per row of class k: the client whose uploaded mean conditioned
        the chain that drew the row."""
        def call_of(row):
            return next(i for i, batch in enumerate(self.batches)
                        if any(np.array_equal(row, drawn) for drawn in batch))
        return [next(m.client_id for m in msgs
                     if np.array_equal(m.means[m.classes == k][0],
                                       self.conds[call_of(row)]))
                for row in xs]


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
        assert np.array_equal(synth.per_class[k].x, np.stack(expect))
        assert gen.source_clients(msgs, k, synth.per_class[k].x) == \
            [j % n_providers for j in range(z)]


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
    [idx] = np.flatnonzero((surro.pairs == (1, 0)).all(axis=1))
    cond = surro.cond_matrix[idx]
    xs = surro.sample_chains(cond[None], [4000], 2.0, stream(2, "draw"))
    center = world.cluster_mean(1, 0)
    assert np.abs(xs.mean(axis=0) - center).max() < \
        4 * world.within_std / np.sqrt(4000)


def _surrogate():
    world, pool = _tiny_pool(seed=11, n=400)
    return make_surrogate(world, make_encoder(6, 3, 4), pool)


@pytest.mark.parametrize("counts", [[4, 0, 3], [0, 5], [0, 0], [17, 17, 16],
                                    [6]])
def test_surrogate_sample_chains_equals_the_per_chain_loop(counts):
    # One draw for every chain's rows gives the per-chain loop's rows and
    # leaves the stream where the loop does, bit for bit.
    surro = _surrogate()
    noise = np.random.default_rng(len(counts)).normal(
        scale=0.1, size=(len(counts), surro.cond_matrix.shape[1]))
    conds = surro.cond_matrix[np.arange(len(counts)) % len(surro.pairs)] \
        + noise
    rng, ref_rng = stream(3, "chains"), stream(3, "chains")
    got = surro.sample_chains(conds, counts, 2.0, rng)
    expect = _surrogate_per_chain(surro, conds, counts, ref_rng)
    assert got.shape == (sum(counts), 3)
    assert np.array_equal(got, expect)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    with pytest.raises(ConfigError, match="sample count"):
        surro.sample_chains(conds[:2], [2, -1], 2.0, stream(0, "x"))


def test_surrogate_refuses_a_condition_of_no_finite_nearest_distance():
    # A finite but huge uploaded mean overflows every distance to the
    # pretraining conditions; no nearest pair exists, so no chain runs.
    surro = _surrogate()
    conds = surro.cond_matrix[:2].copy()
    conds[1, 0] = 1e300
    with pytest.raises(ProtocolError, match="no finite nearest distance"):
        surro.sample_chains(conds, [2, 2], 2.0, stream(0, "x"))


def test_surrogate_synthesis_interleaves_three_providers_bit_for_bit():
    # Three providers over 50 rows run chains of 17, 17 and 16 rows;
    # row i of a class is row i // 3 of provider i mod 3's chain.
    surro = _surrogate()
    msgs = [_message(c, 1, (2, 6), 6, c) for c in range(3)]
    rng, ref_rng = stream(0, "z"), stream(0, "z")
    synth = synthesize_task_data(surro, msgs, 50, 2.0, rng)
    expect = _synthesize(lambda c, n, w, r: _surrogate_per_chain(
        surro, c, n, r), msgs, 50, 2.0, ref_rng, 1)
    assert synth.data.x.tobytes() == expect.x.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_model_checkpoint_roundtrip(tmp_path):
    world, pool = _tiny_pool()
    enc = make_encoder(6, 3, 4)
    cfg = _tiny_cfg(30)
    model = pretrain(pool, enc, cfg, 7)
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
    a = model.sample_chains(np.zeros((1, 6)), [3], 1.5, stream(4, "cmp"))
    b = back.sample_chains(np.zeros((1, 6)), [3], 1.5, stream(4, "cmp"))
    assert np.array_equal(a, b)


def test_load_model_rejects_foreign_file(tmp_path):
    path = os.path.join(tmp_path, "junk.bin")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ProtocolError):
        load_model(path)
