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

import math
import struct
from dataclasses import dataclass, field
from types import MappingProxyType

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

    def beta(self, z: int) -> float:
        return float(self.betas[z - 1])

    def alpha(self, z: int) -> float:
        return float(self.alphas[z - 1])

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
        out, _ = self._forward_cached(self._assemble(x, z, cond))
        return out[0] if np.asarray(x).ndim == 1 else out

    def _forward_cached(self, a: np.ndarray):
        p = self.params
        h1 = np.tanh(a @ p["w1"].T + p["b1"])
        h2 = np.tanh(h1 @ p["w2"].T + p["b2"])
        out = h2 @ p["w3"].T + p["b3"]
        return out, (a, h1, h2)

    def _backward(self, cache, d_out: np.ndarray,
                  out: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """The parameter gradients, written into views of the flat
        vector `out` (a new one by default) and keyed by name."""
        a, h1, h2 = cache
        p = self.params
        grads = self.split(np.empty_like(self.flat) if out is None else out)
        np.matmul(d_out.T, h2, out=grads["w3"])
        np.add.reduce(d_out, axis=0, out=grads["b3"])
        d_h2 = (d_out @ p["w3"]) * (1.0 - h2 * h2)
        np.matmul(d_h2.T, h1, out=grads["w2"])
        np.add.reduce(d_h2, axis=0, out=grads["b2"])
        d_h1 = (d_h2 @ p["w2"]) * (1.0 - h1 * h1)
        np.matmul(d_h1.T, a, out=grads["w1"])
        np.add.reduce(d_h1, axis=0, out=grads["b1"])
        return grads

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
    eps = np.atleast_2d(np.asarray(eps, dtype=float))
    xz = forward_noise(schedule, x0, np.asarray(z), eps)
    pred, cache = denoiser._forward_cached(denoiser._assemble(xz, z, cond))
    resid = pred - eps
    n = x0.shape[0]
    loss = float((resid * resid).sum() / n)
    grads = denoiser._backward(cache, 2.0 * resid / n, out)
    return loss, grads


def denoise_loss_and_grads(denoiser: Denoiser, schedule: NoiseSchedule,
                           x0: np.ndarray, cond: np.ndarray, p_drop: float,
                           rng: np.random.Generator, *,
                           out: np.ndarray | None = None):
    """One noise-prediction training step's loss and gradients, the
    latter written into `out` as in `denoise_loss_fixed`.

    Draws, per sample and in this order: a uniform timestep, the target
    noise, and the condition-drop coin (dropped conditions are zeroed).
    """
    if not 0.0 <= p_drop <= 1.0:
        raise ConfigError(f"p_drop must be in [0, 1], got {p_drop}")
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    cond = np.atleast_2d(np.asarray(cond, dtype=float))
    n = x0.shape[0]
    if cond.shape[0] != n:
        raise ValueError(f"{n} samples but {cond.shape[0]} conditions")
    z = rng.integers(1, schedule.num_steps + 1, size=n)
    eps = rng.standard_normal(x0.shape)
    drop = rng.random(n) < p_drop
    cond_used = np.where(drop[:, None], 0.0, cond)
    return denoise_loss_fixed(denoiser, schedule, x0, z, eps, cond_used,
                              out)


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

    def sample(self, cond: np.ndarray, n: int, w: float,
               rng: np.random.Generator, ledger=None) -> np.ndarray:
        return ancestral_sample(self, cond, w, n, rng, ledger=ledger)


def pretrain(pool: Batch, encoder: FrozenEncoder, hp: DiffusionHP,
             seed: int, ledger=None) -> DiffusionModel:
    """Fit the denoiser on the server pool, conditioning each sample on
    the mean embedding of its (class, domain) pair. The model is frozen
    afterwards; train_steps = 0 leaves the initialization untouched."""
    table = pair_mean_embeddings(encoder, pool)
    cond = np.stack([table[pair] for pair in zip(pool.y.tolist(),
                                                 pool.domain.tolist())])
    schedule = make_schedule(hp.num_steps, hp.beta_min, hp.beta_max)
    denoiser = make_denoiser(pool.x.shape[1], encoder.dim_e, hp.num_steps,
                             hp.hidden, seed)
    rng = stream(seed, "pretrain")
    grad = np.empty_like(denoiser.flat)
    adam = Adam(grad.size)
    history: list[float] = []
    for _ in range(hp.train_steps):
        idx = rng.integers(0, len(pool), size=hp.batch_size)
        loss, _ = denoise_loss_and_grads(denoiser, schedule, pool.x[idx],
                                         cond[idx], hp.p_drop, rng, out=grad)
        adam.update(denoiser.flat, grad, DENOISER_LEARNING_RATE, 0.0)
        history.append(loss)
        if ledger is not None:
            ledger.add("diffusion_pretrain",
                       denoiser.forward_madds(hp.batch_size)
                       + denoiser.backward_madds(hp.batch_size))
    return DiffusionModel(schedule=schedule, denoiser=denoiser,
                          trained=hp.train_steps > 0, loss_history=history)


def guided_epsilon(denoiser: Denoiser, x: np.ndarray, z, cond: np.ndarray,
                   w: float) -> np.ndarray:
    """Classifier-free guided noise estimate:
    eps_uncond + w * (eps_cond - eps_uncond), w >= 1."""
    if w < 1.0:
        raise ConfigError(f"guidance weight must be >= 1, got {w}")
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    cond2 = np.atleast_2d(np.asarray(cond, dtype=float))
    if cond2.shape == (1, denoiser.dim_cond) and x2.shape[0] > 1:
        cond2 = np.repeat(cond2, x2.shape[0], axis=0)
    eps_cond = denoiser.forward(x2, z, cond2)
    eps_uncond = denoiser.forward(x2, z, np.zeros_like(cond2))
    out = eps_uncond + w * (eps_cond - eps_uncond)
    return out[0] if np.asarray(x).ndim == 1 else out


def ancestral_sample(model: DiffusionModel, cond: np.ndarray, w: float,
                     n: int, rng: np.random.Generator, ledger=None
                     ) -> np.ndarray:
    """Draw n vectors by running the reverse chain from pure noise.

    Per step the mean is (x_z - beta_z / sqrt(1 - abar_z) * eps_hat)
    / sqrt(alpha_z) and the variance is beta_z * I; the final step adds
    no noise.
    """
    if not model.trained:
        raise ProtocolError("refusing to sample from an untrained model")
    if n < 0:
        raise ConfigError(f"sample count must be >= 0, got {n}")
    sched = model.schedule
    den = model.denoiser
    if n == 0:
        return np.zeros((0, den.dim_x))
    x = rng.standard_normal((n, den.dim_x))
    conds = np.repeat(np.atleast_2d(np.asarray(cond, dtype=float)), n, axis=0)
    for z in range(sched.num_steps, 0, -1):
        eps_hat = guided_epsilon(den, x, z, conds, w)
        mean = (x - sched.beta(z) / np.sqrt(1.0 - sched.alpha_bar(z))
                * eps_hat) / np.sqrt(sched.alpha(z))
        if z > 1:
            x = mean + np.sqrt(sched.beta(z)) * rng.standard_normal(x.shape)
        else:
            x = mean
        if ledger is not None:
            ledger.add("diffusion_sampling", 2 * den.forward_madds(n))
    return x


@dataclass(eq=False)
class GaussianSurrogate:
    """Oracle generator: nearest pretraining condition, true cluster draw."""

    world: World
    pairs: list[tuple[int, int]]
    cond_matrix: np.ndarray  # (len(pairs), dim_e)

    def sample(self, cond: np.ndarray, n: int, w: float,
               rng: np.random.Generator, ledger=None) -> np.ndarray:
        if n < 0:
            raise ConfigError(f"sample count must be >= 0, got {n}")
        if n == 0:
            return np.zeros((0, self.world.dim_x))
        cond = np.asarray(cond, dtype=float)
        dists = np.linalg.norm(self.cond_matrix - cond, axis=1)
        k, d = self.pairs[int(np.argmin(dists))]
        mean = self.world.cluster_mean(k, d)
        return mean + self.world.within_std * rng.standard_normal(
            (n, self.world.dim_x))


def make_surrogate(world: World, encoder: FrozenEncoder,
                   pool: Batch) -> GaussianSurrogate:
    table = pair_mean_embeddings(encoder, pool)
    pairs = sorted(table)
    return GaussianSurrogate(world=world, pairs=pairs,
                             cond_matrix=np.stack([table[p] for p in pairs]))


@dataclass(eq=False)
class SynthSet:
    """Server-side stand-in data for one task: a read-only array per
    class."""

    task_id: int
    per_class: dict[int, np.ndarray]


def synthesize_task_data(generator, messages: list[ClientMessage],
                         z_per_class: int, w: float,
                         rng: np.random.Generator, ledger=None) -> SynthSet:
    """Generate z_per_class samples per class named in the messages.

    When several clients hold the same class, their uploaded means take
    turns conditioning the generator: sample i of a class uses provider
    i mod n_providers, so the source client alternates.
    """
    if not messages:
        raise ProtocolError("synthesis needs at least one client message")
    if z_per_class < 0:
        raise ConfigError(f"z_per_class must be >= 0, got {z_per_class}")
    task_id = messages[0].task_id
    if any(m.task_id != task_id for m in messages):
        raise ProtocolError("messages from different tasks in one synthesis")
    providers: dict[int, list[np.ndarray]] = {}
    for m in messages:
        for k in sorted(m.class_means):
            providers.setdefault(k, []).append(m.class_means[k])
    per_class: dict[int, np.ndarray] = {}
    for k in sorted(providers):
        n = len(providers[k])
        batches = [generator.sample(mean, len(range(j, z_per_class, n)), w,
                                    rng, ledger=ledger)
                   for j, mean in enumerate(providers[k])]
        xs = np.empty((z_per_class, batches[0].shape[1]))
        for j, batch in enumerate(batches):
            xs[j::n] = batch
        xs.flags.writeable = False
        per_class[k] = xs
    return SynthSet(task_id=task_id, per_class=per_class)


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
    schedule = _schedule_from_betas(reader.floats(num_steps))
    shapes = _param_shapes(dim_x, dim_cond, num_steps, hidden)
    flat = reader.floats(_flat_size(shapes))
    reader.finish()
    denoiser = Denoiser(dim_x=dim_x, dim_cond=dim_cond, num_steps=num_steps,
                        hidden=hidden, flat=flat)
    return DiffusionModel(schedule=schedule, denoiser=denoiser,
                          trained=bool(trained), loss_history=[])
