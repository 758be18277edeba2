"""Conditional denoising diffusion on raw sample vectors.

Forward process: x_z = sqrt(1 - beta_z) x_{z-1} + sqrt(beta_z) eps, which
collapses to x_z = sqrt(abar_z) x_0 + sqrt(1 - abar_z) eps with
abar_z = prod_{s<=z} (1 - beta_s). A small MLP predicts the injected
noise from (x_z, timestep, condition); conditions are the class-mean
embeddings clients upload. Dropping the condition during training with
probability p_drop gives the unconditional branch used for
classifier-free guidance at sampling time.

A Gaussian surrogate generator with the same sampling interface is
provided as an oracle: it maps a condition to the nearest pretraining
condition and draws from that true cluster, which isolates retention
and training behaviour from generator quality.
"""
from __future__ import annotations

import copy
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .datagen import Batch, World
from .encoder import BlobReader, ClientMessage, FrozenEncoder, \
    pair_mean_embeddings
from .errors import ConfigError, ProtocolError
from .rng import stream
from .trainer import Adam

# The denoiser's Adam step size; its weight decay is zero.
DENOISER_LEARNING_RATE = 1e-3


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    betas: np.ndarray
    alphas: np.ndarray
    alpha_bars: np.ndarray

    @property
    def num_steps(self) -> int:
        return len(self.betas)

    @cached_property
    def roots(self) -> tuple[np.ndarray, np.ndarray]:
        """sqrt(abar_z) and sqrt(1 - abar_z) for z = 1..num_steps."""
        return np.sqrt(self.alpha_bars), np.sqrt(1.0 - self.alpha_bars)

    def alpha_bar(self, z) -> np.ndarray | float:
        z = np.asarray(z)
        if np.any(z < 1) or np.any(z > self.num_steps):
            raise ConfigError(
                f"timestep out of range 1..{self.num_steps}: {z}")
        out = self.alpha_bars[z - 1]
        return float(out) if out.ndim == 0 else out


def make_schedule(num_steps: int, beta_min: float, beta_max: float
                  ) -> NoiseSchedule:
    """Linear beta schedule over num_steps steps."""
    if num_steps < 1:
        raise ConfigError(f"num_steps must be >= 1, got {num_steps}")
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise ConfigError(
            f"need 0 < beta_min <= beta_max < 1, got ({beta_min}, {beta_max})")
    if not 1.0 - beta_min < 1.0:
        raise ConfigError(f"beta_min {beta_min!r} is so small that "
                          f"1 - beta_min rounds to 1")
    return _schedule_from_betas(np.linspace(beta_min, beta_max, num_steps))


def _schedule_from_betas(betas: np.ndarray) -> NoiseSchedule:
    """The read-only schedule of `betas`. Each beta must lie in (0, 1),
    so that no alpha or alpha_bar is negative, with 1 - beta below 1,
    so that no 1 - alpha_bar the sampler divides by is zero."""
    if not ((betas > 0.0) & (betas < 1.0) & (1.0 - betas < 1.0)).all():
        raise ProtocolError("every noise schedule beta must lie in (0, 1), "
                            "with 1 - beta < 1")
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
    for arr in (betas, alphas, alpha_bars):
        arr.flags.writeable = False
    return NoiseSchedule(betas=betas, alphas=alphas, alpha_bars=alpha_bars)


def forward_noise(schedule: NoiseSchedule, x0: np.ndarray, z,
                  eps: np.ndarray) -> np.ndarray:
    """Jump straight to noise level z via the closed form."""
    x0 = np.asarray(x0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if x0.shape != eps.shape:
        raise ValueError(f"x0 shape {x0.shape} != eps shape {eps.shape}")
    abar = schedule.alpha_bar(z)
    if x0.ndim == 2 and np.ndim(abar) == 1:
        abar = np.asarray(abar)[:, None]
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps


def _param_shapes(dim_x: int, dim_cond: int, num_steps: int, hidden: int
                  ) -> dict[str, tuple[int, ...]]:
    d_in = dim_x + num_steps + dim_cond
    return {"w1": (hidden, d_in), "b1": (hidden,),
            "w2": (hidden, hidden), "b2": (hidden,),
            "w3": (dim_x, hidden), "b3": (dim_x,)}


def _flat_size(shapes: dict[str, tuple[int, ...]]) -> int:
    return sum(map(math.prod, shapes.values()))


@dataclass(eq=False)
class Denoiser:
    """Two-hidden-layer tanh MLP noise predictor.

    Input is concat(x_z, one_hot(z), condition); output has dim_x
    components. The all-zeros condition is the unconditional branch.
    `flat` holds every parameter, in the order w1, b1, w2, b2, w3, b3,
    and `params` maps each name to its view into `flat`, which the
    optimizer steps in place.
    """

    dim_x: int
    dim_cond: int
    num_steps: int
    hidden: int
    flat: np.ndarray

    def __post_init__(self):
        if self.flat.shape != (self.param_count,):
            raise ValueError(f"denoiser needs {self.param_count} parameters, "
                             f"got shape {self.flat.shape}")
        self.params = MappingProxyType(self.split(self.flat))

    def split(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """The views of a flat vector laid out like the parameters, such
        as a gradient, keyed by parameter name."""
        views, start = {}, 0
        for name, shape in self._shapes.items():
            size = math.prod(shape)
            views[name] = flat[start:start + size].reshape(shape)
            start += size
        return views

    @property
    def _shapes(self) -> dict[str, tuple[int, ...]]:
        return _param_shapes(self.dim_x, self.dim_cond, self.num_steps,
                             self.hidden)

    @property
    def input_dim(self) -> int:
        return self.dim_x + self.num_steps + self.dim_cond

    @property
    def param_count(self) -> int:
        return _flat_size(self._shapes)

    def _assemble(self, x: np.ndarray, z, cond: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        cond = np.atleast_2d(np.asarray(cond, dtype=float))
        n = x.shape[0]
        if cond.shape == (1, self.dim_cond) and n > 1:
            cond = np.repeat(cond, n, axis=0)
        if x.shape != (n, self.dim_x) or cond.shape != (n, self.dim_cond):
            raise ValueError(
                f"bad shapes x={x.shape} cond={cond.shape} for denoiser "
                f"(dim_x={self.dim_x}, dim_cond={self.dim_cond})")
        z = np.broadcast_to(np.asarray(z, dtype=int), (n,))
        if np.any(z < 1) or np.any(z > self.num_steps):
            raise ConfigError(
                f"timestep out of range 1..{self.num_steps}: {z}")
        one_hot = np.zeros((n, self.num_steps))
        one_hot[np.arange(n), z - 1] = 1.0
        return np.concatenate([x, one_hot, cond], axis=1)

    def forward(self, x: np.ndarray, z, cond: np.ndarray) -> np.ndarray:
        out = _Passes(self, self._assemble(x, z, cond)).forward()
        return out[0] if np.asarray(x).ndim == 1 else out

    def forward_madds(self, batch: int) -> int:
        """Multiply-add count for one forward pass on `batch` inputs.
        Affine layers count out*in + out each, tanh counts one per unit."""
        d_in, h, d_out = self.input_dim, self.hidden, self.dim_x
        per_sample = (h * d_in + 2 * h) + (h * h + 2 * h) + (d_out * h + d_out)
        return batch * per_sample

    def backward_madds(self, batch: int) -> int:
        return 2 * self.forward_madds(batch)


def make_denoiser(dim_x: int, dim_cond: int, num_steps: int, hidden: int,
                  seed: int) -> Denoiser:
    if min(dim_x, dim_cond, num_steps, hidden) < 1:
        raise ConfigError("denoiser dims must all be >= 1")
    rng = stream(seed, "denoiser", "init")
    shapes = _param_shapes(dim_x, dim_cond, num_steps, hidden)
    den = Denoiser(dim_x=dim_x, dim_cond=dim_cond, num_steps=num_steps,
                   hidden=hidden,
                   flat=np.zeros(_flat_size(shapes)))
    # The weights are drawn in this order; the biases start at zero.
    for name in ("w1", "w2", "w3"):
        shape = shapes[name]
        den.params[name][...] = rng.standard_normal(shape) / np.sqrt(shape[1])
    return den


class _Passes:
    """The denoiser's passes over the input rows `a` into buffers made
    once, rounding like fresh arrays. `backward` overwrites h1 and h2."""

    def __init__(self, den: Denoiser, a: np.ndarray):
        self.den, self.a, self.rows = den, a, np.arange(len(a))
        self.h1, self.h2, self.d_h1, self.d_h2 = \
            np.empty((4, len(a), den.hidden))
        self.out, self.sq = np.empty((2, len(a), den.dim_x))

    def forward(self) -> np.ndarray:
        p, h = self.den.params, self.a
        for k, out in (("1", self.h1), ("2", self.h2), ("3", self.out)):
            np.matmul(h, p["w" + k].T, out=out)
            out += p["b" + k]
            h = out if k == "3" else np.tanh(out, out=out)
        return h

    def backward(self, d_out: np.ndarray, grads: dict[str, np.ndarray]):
        """Write the gradients for d loss / d out = d_out into `grads`,
        views keyed by parameter name."""
        for k, h, d_h in (("3", self.h2, self.d_h2), ("2", self.h1, self.d_h1),
                          ("1", self.a, None)):
            np.matmul(d_out.T, h, out=grads["w" + k])
            np.add.reduce(d_out, axis=0, out=grads["b" + k])
            if d_h is not None:  # d_h = (d_out @ w) * (1 - h * h)
                np.matmul(d_out, self.den.params["w" + k], out=d_h)
                np.multiply(h, h, out=h)
                np.subtract(1.0, h, out=h)
                d_out = np.multiply(d_h, h, out=d_h)

    def denoise_step(self, schedule: NoiseSchedule, x0: np.ndarray,
                     z: np.ndarray, eps: np.ndarray, cond: np.ndarray,
                     grads: dict[str, np.ndarray]) -> float:
        """Load (x_z, one_hot(z), cond) into `a`, with x_z the closed form
        of `forward_noise`, and return the loss of `denoise_loss_fixed`,
        its gradients written into `grads`."""
        den, resid = self.den, self.out
        xz = self.a[:, :den.dim_x]
        hot = self.a[:, den.dim_x:den.dim_x + den.num_steps]
        hot[...] = 0.0
        hot[self.rows, z - 1] = 1.0
        self.a[:, den.dim_x + den.num_steps:] = cond
        root_abar, root_rest = schedule.roots
        np.multiply(root_abar[z - 1, None], x0, out=xz)
        np.multiply(root_rest[z - 1, None], eps, out=self.sq)
        xz += self.sq
        self.forward()
        resid -= eps
        np.multiply(resid, resid, out=self.sq)
        loss = float(self.sq.sum() / len(z))
        resid *= 2.0
        resid /= len(z)
        self.backward(resid, grads)
        return loss


def denoise_loss_fixed(denoiser: Denoiser, schedule: NoiseSchedule,
                       x0: np.ndarray, z: np.ndarray, eps: np.ndarray,
                       cond: np.ndarray, out: np.ndarray | None = None
                       ) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and exact gradients with the stochastic draws held fixed.

    Loss is the batch mean of the per-sample squared error
    ||eps - eps_hat||^2, so d loss / d eps_hat = 2 (eps_hat - eps) / n.
    The gradients are views into `out`, a flat vector laid out like
    `denoiser.flat`, or into a new one.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    # Checks the shapes and timesteps; the step loads the rows anew.
    passes = _Passes(denoiser, denoiser._assemble(x0, z, cond))
    grads = denoiser.split(np.empty_like(denoiser.flat) if out is None
                           else out)
    z = np.broadcast_to(np.asarray(z, dtype=int), (len(x0),))
    return passes.denoise_step(schedule, x0, z, eps, cond, grads), grads


@dataclass
class DiffusionHP:
    """Denoiser pretraining knobs."""

    num_steps: int = 100
    beta_min: float = 1e-4
    beta_max: float = 0.05
    hidden: int = 128
    p_drop: float = 0.1
    train_steps: int = 2000
    batch_size: int = 64

    def __post_init__(self):
        if self.train_steps < 0:
            raise ConfigError(
                f"train_steps must be >= 0, got {self.train_steps}")
        if self.batch_size < 1:
            raise ConfigError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.p_drop <= 1.0:
            raise ConfigError(f"p_drop must be in [0, 1], got {self.p_drop}")


@dataclass(eq=False)
class DiffusionModel:
    schedule: NoiseSchedule
    denoiser: Denoiser
    trained: bool
    loss_history: list[float] = field(default_factory=list)

    @property
    def dim_cond(self) -> int:
        return self.denoiser.dim_cond

    @np.errstate(over="ignore", invalid="ignore")
    def sample_chains(self, conds: np.ndarray, counts, w: float,
                      rng: np.random.Generator, ledger=None) -> np.ndarray:
        """Run a task's reverse chains in one loop: chain j draws counts[j]
        rows on condition conds[j], returned in chain order. Each chain
        draws and bills what it would run alone after the ones before it.

        Per step the mean is (x_z - beta_z / sqrt(1 - abar_z) * eps_hat)
        / sqrt(alpha_z) and the variance is beta_z * I; the final step adds
        no noise. eps_hat is `guided_epsilon` over all chains' rows, with
        the first layer summed by input block: x's product once for both
        branches, the condition's once per chain, the timestep's column
        once per step. Only the order of summation differs from the
        per-chain loop. Overflow is left to the caller's check."""
        if not self.trained:
            raise ProtocolError("refusing to sample from an untrained model")
        if w < 1.0:
            raise ConfigError(f"guidance weight must be >= 1, got {w}")
        if min(counts, default=0) < 0:
            raise ConfigError(f"sample count must be >= 0, got {min(counts)}")
        sched, den, p = self.schedule, self.denoiser, self.denoiser.params
        total, dim_x, cut = sum(counts), den.dim_x, den.dim_x + den.num_steps
        chains = [slice(end - n, end)
                  for n, end in zip(counts, np.cumsum(counts).tolist()) if n]
        x = np.empty((total, dim_x))
        # Chain j's generator starts where rng stands after the chains
        # before it, found by drawing theirs; rng itself runs the last.
        gens = []
        for rows in chains[:-1]:
            gens.append(copy.deepcopy(rng))
            for _ in range(sched.num_steps):
                rng.standard_normal(out=x[rows])
        gens.append(rng)
        for rows, gen in zip(chains, gens):
            gen.standard_normal(out=x[rows])
        w_x = p["w1"][:, :dim_x].T.copy()
        w_z = (p["w1"][:, dim_x:cut] + p["b1"][:, None]).T.copy()
        by_cond = np.repeat(conds @ p["w1"][:, cut:].T, counts, axis=0)
        h1, h2 = np.empty((2, 2 * total, den.hidden))
        eps = np.empty((2 * total, dim_x))
        eps_cond, eps_uncond = eps[:total], eps[total:]
        shrink = sched.betas / np.sqrt(1.0 - sched.alpha_bars)
        root_alpha, root_beta = np.sqrt(sched.alphas), np.sqrt(sched.betas)
        for z in range(sched.num_steps, 0, -1):
            np.matmul(x, w_x, out=h1[total:])
            h1[total:] += w_z[z - 1]
            np.add(h1[total:], by_cond, out=h1[:total])
            np.tanh(h1, out=h1)
            np.matmul(h1, p["w2"].T, out=h2)
            h2 += p["b2"]
            np.tanh(h2, out=h2)
            np.matmul(h2, p["w3"].T, out=eps)
            eps += p["b3"]
            eps_cond -= eps_uncond
            eps_cond *= w
            eps_cond += eps_uncond
            eps_cond *= shrink[z - 1]
            x -= eps_cond
            x /= root_alpha[z - 1]
            if z > 1:  # the spent eps_cond takes the step's noise
                for rows, gen in zip(chains, gens):
                    gen.standard_normal(out=eps_cond[rows])
                eps_cond *= root_beta[z - 1]
                x += eps_cond
        if ledger is not None:
            ledger.add("diffusion_sampling", sched.num_steps * sum(
                2 * den.forward_madds(n) for n in counts))
        return x


@np.errstate(over="ignore", invalid="ignore")
def pretrain(pool: Batch, encoder: FrozenEncoder, hp: DiffusionHP,
             seed: int, ledger=None) -> DiffusionModel:
    """Fit the denoiser on the server pool, conditioning each sample on
    the mean embedding of its (class, domain) pair. The model is frozen
    afterwards; train_steps = 0 leaves the initialization untouched.
    Per sample, a step draws a uniform timestep, the target noise and the
    condition-drop coin, in that order, and rounds like
    `denoise_loss_fixed` on those draws, in place.
    Overflow is left to the caller's check of the parameters."""
    table = pair_mean_embeddings(encoder, pool)
    # `cond` holds each pair's mean, then the zero row that a dropped
    # condition gathers; `pair_index` gives each pool row's pair.
    row_of = {pair: i for i, pair in enumerate(table)}
    pair_index = np.array([row_of[pair] for pair in zip(
        pool.y.tolist(), pool.domain.tolist())])
    cond = np.stack([*table.values(), np.zeros(encoder.dim_e)])
    schedule = make_schedule(hp.num_steps, hp.beta_min, hp.beta_max)
    denoiser = make_denoiser(pool.x.shape[1], encoder.dim_e, hp.num_steps,
                             hp.hidden, seed)
    rng = stream(seed, "pretrain")
    batch, n_pool = hp.batch_size, len(pool)
    passes = _Passes(denoiser, np.zeros((batch, denoiser.input_dim)))
    grad = np.empty_like(denoiser.flat)
    grads, adam = denoiser.split(grad), Adam(grad.size)
    eps, coin = np.empty((batch, denoiser.dim_x)), np.empty(batch)
    history: list[float] = []
    for _ in range(hp.train_steps):
        idx = rng.integers(0, n_pool, size=batch)
        z = rng.integers(1, hp.num_steps + 1, size=batch)
        rng.standard_normal(out=eps)
        rng.random(out=coin)
        history.append(passes.denoise_step(
            schedule, pool.x[idx], z, eps,
            cond[np.where(coin < hp.p_drop, len(table), pair_index[idx])],
            grads))
        adam.update(denoiser.flat, grad, DENOISER_LEARNING_RATE, 0.0)
    if ledger is not None:
        ledger.add("diffusion_pretrain", hp.train_steps * (
            denoiser.forward_madds(batch) + denoiser.backward_madds(batch)))
    return DiffusionModel(schedule=schedule, denoiser=denoiser,
                          trained=hp.train_steps > 0, loss_history=history)


def guided_epsilon(denoiser: Denoiser, x: np.ndarray, z, cond: np.ndarray,
                   w: float) -> np.ndarray:
    """Classifier-free guided noise estimate:
    eps_uncond + w * (eps_cond - eps_uncond), w >= 1."""
    if w < 1.0:
        raise ConfigError(f"guidance weight must be >= 1, got {w}")
    eps_cond = denoiser.forward(x, z, cond)
    eps_uncond = denoiser.forward(x, z, np.zeros_like(cond))
    return eps_uncond + w * (eps_cond - eps_uncond)


@dataclass(eq=False)
class GaussianSurrogate:
    """Oracle generator: nearest pretraining condition, true cluster draw."""

    world: World
    pairs: list[tuple[int, int]]
    cond_matrix: np.ndarray  # (len(pairs), dim_e)

    def sample_chains(self, conds: np.ndarray, counts, w: float,
                      rng: np.random.Generator, ledger=None) -> np.ndarray:
        """Chain j draws counts[j] rows around the cluster mean of the
        pair whose condition is nearest conds[j], in chain order, from
        one draw of normals; `w` is ignored."""
        if min(counts, default=0) < 0:
            raise ConfigError(f"sample count must be >= 0, got {min(counts)}")
        means = np.zeros((len(counts), self.world.dim_x))
        for j, cond in enumerate(np.asarray(conds, dtype=float)):
            dists = np.linalg.norm(self.cond_matrix - cond, axis=1)
            k, d = self.pairs[int(np.argmin(dists))]
            means[j] = self.world.cluster_mean(k, d)
        return np.repeat(means, counts, axis=0) + self.world.within_std * \
            rng.standard_normal((sum(counts), self.world.dim_x))


def make_surrogate(world: World, encoder: FrozenEncoder,
                   pool: Batch) -> GaussianSurrogate:
    table = pair_mean_embeddings(encoder, pool)
    pairs = sorted(table)
    return GaussianSurrogate(world=world, pairs=pairs,
                             cond_matrix=np.stack([table[p] for p in pairs]))


class SynthSet(NamedTuple):
    """Server-side stand-in data for one task: one read-only batch, rows
    grouped by ascending class, and a view of it per class."""

    data: Batch
    per_class: dict[int, Batch]


def synthesize_task_data(generator, messages: list[ClientMessage],
                         z_per_class: int, w: float,
                         rng: np.random.Generator, ledger=None) -> SynthSet:
    """Generate z_per_class samples per class named in the messages, all
    in one `generator.sample_chains` call.

    When several clients hold the same class, their uploaded means take
    turns conditioning the generator: sample i of a class uses provider
    i mod n_providers, so the source client alternates. Each (class,
    provider) pair is one chain, in ascending class order.
    """
    if not any(m.class_means for m in messages):
        raise ProtocolError("synthesis needs a client message with a class")
    if z_per_class < 0:
        raise ConfigError(f"z_per_class must be >= 0, got {z_per_class}")
    task_id = messages[0].task_id
    if any(m.task_id != task_id for m in messages):
        raise ProtocolError("messages from different tasks in one synthesis")
    providers: dict[int, list[np.ndarray]] = {}
    for m in messages:
        for k in sorted(m.class_means):
            providers.setdefault(k, []).append(m.class_means[k])
    classes = sorted(providers)
    # The rows of each chain in the task's batch.
    rows = [i * z_per_class + np.arange(j, z_per_class, len(providers[k]))
            for i, k in enumerate(classes) for j in range(len(providers[k]))]
    drawn = generator.sample_chains(
        np.array([mean for k in classes for mean in providers[k]]),
        [len(r) for r in rows], w, rng, ledger=ledger)
    xs = np.empty_like(drawn)
    xs[np.concatenate(rows)] = drawn
    xs.flags.writeable = False
    data = Batch(xs, np.repeat(classes, z_per_class), np.full(len(xs), -1),
                 task_id)
    blocks = (slice(i * z_per_class, (i + 1) * z_per_class)
              for i in range(len(classes)))
    return SynthSet(data, {k: Batch(data.x[b], data.y[b], data.domain[b],
                                    task_id)
                           for k, b in zip(classes, blocks)})


_CKPT_MAGIC = b"OSDM"
_CKPT_HEAD = struct.Struct("<4sIIIIII")


def save_model(model: DiffusionModel, path: str) -> None:
    """Write the model as a flat little-endian binary checkpoint."""
    den = model.denoiser
    blob = [_CKPT_HEAD.pack(_CKPT_MAGIC, 1, den.dim_x, den.dim_cond,
                            den.num_steps, den.hidden, int(model.trained))]
    blob.append(np.ascontiguousarray(model.schedule.betas,
                                     dtype="<f8").tobytes())
    blob.append(np.ascontiguousarray(den.flat, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(blob))


def load_model(path: str) -> DiffusionModel:
    with open(path, "rb") as fh:
        reader = BlobReader(fh.read(), f"model checkpoint {path}")
    magic, version, dim_x, dim_cond, num_steps, hidden, trained = \
        _CKPT_HEAD.unpack(reader.take(_CKPT_HEAD.size))
    if magic != _CKPT_MAGIC or version != 1 or trained not in (0, 1):
        raise ProtocolError(f"not a model checkpoint: {path}")
    if 0 in (dim_x, dim_cond, num_steps, hidden):
        raise ProtocolError(
            f"model checkpoint {path} has a zero size: dim_x {dim_x}, "
            f"dim_cond {dim_cond}, num_steps {num_steps}, hidden {hidden}")
    schedule = _schedule_from_betas(reader.floats(num_steps))
    shapes = _param_shapes(dim_x, dim_cond, num_steps, hidden)
    flat = reader.floats(_flat_size(shapes))
    reader.finish()
    denoiser = Denoiser(dim_x=dim_x, dim_cond=dim_cond, num_steps=num_steps,
                        hidden=hidden, flat=flat)
    return DiffusionModel(schedule=schedule, denoiser=denoiser,
                          trained=bool(trained), loss_history=[])
