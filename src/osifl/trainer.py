"""Incremental classifier training on top of the frozen encoder.

The trainable model is a linear head over encoder features, grown by
zero-initialized rows as new classes arrive. All gradients are exact
and hand-derived; the optimizer is Adam with bias correction and weight
decay applied as a gradient addition.

Every training entry point funnels into one weighted minibatch loop.
The objective is always a weighted sum of per-sample losses where each
sample carries 1/|its group|, and each batch is scaled by N/|batch| so
the minibatch objective is an unbiased estimate of the sum of per-group
mean losses. With a single group that reduces exactly to plain mean
cross-entropy, which is what makes the naive / joint / replay /
regularized reductions trajectory-identical under a shared RNG.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .datagen import Batch
from .encoder import BlobReader, FrozenEncoder
from .errors import ConfigError, ProtocolError
from . import ledgers

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainHP:
    learning_rate: float = 0.001
    batch_size: int = 32
    epochs_per_task: int = 20
    weight_decay: float = 1e-4
    lambda_ewc: float = 0.1
    mu_prox: float = 0.01
    adam_reset_per_task: bool = True

    def __post_init__(self):
        for name in ("learning_rate", "weight_decay", "lambda_ewc",
                     "mu_prox"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if not self.learning_rate > 0:
            raise ConfigError(
                f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs_per_task < 0:
            raise ConfigError(
                f"epochs_per_task must be >= 0, got {self.epochs_per_task}")
        for name in ("weight_decay", "lambda_ewc", "mu_prox"):
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"{name} must be >= 0, got {getattr(self, name)}")


class Adam:
    """Bias-corrected Adam over one flat float64 vector, which `update`
    changes in place together with the moments `m` and `v`. Weight
    decay * param is added to the gradient before the moments.

    A step is 16 ufunc calls into preallocated scratch, each rounding
    like the textbook expressions g + wd * p, (1 - b2) * g * g and
    lr * (m / c1) / (sqrt(v / c2) + eps) do on fresh arrays."""

    def __init__(self, size: int):
        self.step = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._g = np.empty(size)
        self._t = np.empty(size)

    def relayout(self, move) -> None:
        """Carry the moments over to a new parameter layout; `move` maps
        a flat vector in the old layout to a new one in the new."""
        self.m, self.v = move(self.m), move(self.v)
        self._g, self._t = np.empty_like(self.m), np.empty_like(self.m)

    def update(self, params: np.ndarray, grads: np.ndarray,
               learning_rate: float, weight_decay: float) -> None:
        if params.shape != self.m.shape or grads.shape != self.m.shape:
            raise ValueError(f"param {params.shape} and gradient "
                             f"{grads.shape} do not match the moments' "
                             f"{self.m.shape}")
        self.step += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1, c2 = 1.0 - b1 ** self.step, 1.0 - b2 ** self.step
        g, t, m, v = self._g, self._t, self.m, self.v
        np.multiply(params, weight_decay, out=g)
        g += grads
        m *= b1
        np.multiply(g, 1.0 - b1, out=t)
        m += t
        v *= b2
        np.multiply(g, 1.0 - b2, out=t)
        t *= g
        v += t
        np.divide(v, c2, out=t)
        np.sqrt(t, out=t)
        t += ADAM_EPS
        np.divide(m, c1, out=g)
        g *= learning_rate
        g /= t
        params -= g


def _head_views(flat: np.ndarray, n: int, dim_e: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """The (weights, bias) views of a flat head vector of n rows: the
    weights row by row, then the bias."""
    return flat[:n * dim_e].reshape(n, dim_e), flat[n * dim_e:]


class Classifier:
    """Frozen encoder plus an expandable linear head.

    Rows of `weights` follow registration order; `classes[i]` is the
    class id decoded from row i. `weights` and `bias` are views into one
    flat parameter vector, `flat`, which the optimizer steps in place;
    assigning either one copies the values into a new vector. Anchors
    and federated updates are flat vectors in the same layout.
    """

    def __init__(self, encoder: FrozenEncoder, classes=()):
        self.encoder = encoder
        self.classes: list[int] = []
        self.class_index: dict[int, int] = {}
        self.adam: Adam | None = None
        self._lay_out(np.zeros(0))
        if classes:
            self.expand_head(classes)

    def _lay_out(self, flat: np.ndarray) -> None:
        self.flat = flat
        self._weights, self._bias = self.split(flat)

    def split(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (weights, bias) views of a flat vector laid out like the
        head's parameters, such as its gradient or Adam moments."""
        return _head_views(flat, self.num_classes, self.encoder.dim_e)

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @weights.setter
    def weights(self, value) -> None:
        self._assign(0, value)

    @property
    def bias(self) -> np.ndarray:
        return self._bias

    @bias.setter
    def bias(self, value) -> None:
        self._assign(1, value)

    def _assign(self, part: int, value) -> None:
        """Copy `value` into part 0 (weights) or 1 (bias) of a new flat
        vector holding the head's other values."""
        flat = self.flat.copy()
        view = self.split(flat)[part]
        if np.shape(value) != view.shape:
            raise ValueError("head parameter shapes do not match")
        view[...] = value
        self._lay_out(flat)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def param_count(self) -> int:
        return self.flat.size

    def expand_head(self, new_classes) -> None:
        """Append zero-initialized rows for new class ids. Existing rows,
        and their optimizer moments if any, are untouched."""
        new_classes = list(new_classes)
        if len(set(new_classes)) != len(new_classes):
            raise ProtocolError(f"duplicate class ids in {new_classes}")
        clash = [c for c in new_classes if c in self.class_index]
        if clash:
            raise ProtocolError(f"classes already registered: {clash}")
        if not new_classes:
            return
        for c in new_classes:
            self.class_index[c] = len(self.classes)
            self.classes.append(int(c))
        self._lay_out(self.grow(self.flat))
        if self.adam is not None:
            self.adam.relayout(self.grow)

    def grow(self, flat: np.ndarray) -> np.ndarray:
        """A flat vector laid out like this head or an earlier, smaller
        one (its parameters, Adam moments or an anchor), laid out anew
        like this head, with zero rows for the classes added since."""
        dim_e = self.encoder.dim_e
        old_n, extra = divmod(flat.size, dim_e + 1)
        if flat.ndim != 1 or extra or old_n > self.num_classes:
            raise ProtocolError(
                f"a flat vector of shape {flat.shape} is not laid out like "
                f"a head of at most {self.num_classes} classes")
        grown = np.zeros(self.num_classes * (dim_e + 1))
        for new, old in zip(self.split(grown),
                            _head_views(flat, old_n, dim_e)):
            new[:old_n] = old
        return grown

    def copy(self) -> "Classifier":
        dup = Classifier(self.encoder)
        dup.classes = list(self.classes)
        dup.class_index = dict(self.class_index)
        dup._lay_out(self.flat.copy())
        return dup

    def logits_from_embedded(self, emb: np.ndarray) -> np.ndarray:
        return emb @ self.weights.T + self.bias

    def predict(self, xs: np.ndarray) -> np.ndarray:
        if self.num_classes == 0:
            raise ProtocolError("classifier has no registered classes")
        emb = self.encoder.encode_batch(xs)
        rows = np.argmax(self.logits_from_embedded(emb), axis=1)
        return np.asarray(self.classes)[rows]


def rows_for(classifier: Classifier, ys: np.ndarray) -> np.ndarray:
    try:
        return np.array([classifier.class_index[y] for y in ys.tolist()],
                        dtype=np.intp)
    except KeyError as err:
        raise ProtocolError(
            f"class {err.args[0]} is not registered in the head") from None


def head_pass(weights: np.ndarray, bias: np.ndarray, emb: np.ndarray,
              rows: np.ndarray, out: np.ndarray | None = None
              ) -> tuple[np.ndarray | None, np.ndarray]:
    """Per-row cross-entropy of the linear head, as a log-softmax NLL
    (finite where the true class's p underflows), and softmax - onehot,
    the gradient of each row's NLL with respect to its logits.

    `rows` holds each row's true class as its row in the head. A caller
    that reuses a buffer passes it as `out`, C-contiguous and of shape
    (len(emb), C), and `rows` as flat indices into it (i * C + class
    row); softmax - onehot is then formed in `out` and the NLL is
    skipped (None)."""
    with_nll = out is None
    if with_nll:
        out = np.empty((len(emb), len(bias)))
        rows = np.arange(len(rows)) * len(bias) + rows
    np.matmul(emb, weights.T, out=out)
    out += bias
    out -= np.maximum.reduce(out, axis=1, keepdims=True)
    flat = out.reshape(-1)
    shifted_true = flat[rows] if with_nll else None
    np.exp(out, out=out)
    total = np.add.reduce(out, axis=1, keepdims=True)
    out /= total
    flat[rows] -= 1.0
    if with_nll:
        return np.log(total[:, 0]) - shifted_true, out
    return None, out


def ce_loss_and_grads(classifier: Classifier, batch: Batch,
                      weight_decay: float = 0.0
                      ) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch, optionally with an L2 term
    0.5 * weight_decay * ||head||^2 folded into loss and gradients."""
    if not batch:
        raise ProtocolError("cross-entropy needs a non-empty batch")
    emb = classifier.encoder.encode_batch(batch.x)
    rows = rows_for(classifier, batch.y)
    sample_w = np.full(len(batch), 1.0 / len(batch))
    nll, delta = head_pass(classifier.weights, classifier.bias, emb, rows)
    delta *= sample_w[:, None]
    grads = {"weights": delta.T @ emb, "bias": delta.sum(axis=0)}
    loss = float(sample_w @ nll)
    if weight_decay:
        loss += 0.5 * weight_decay * (
            float((classifier.weights ** 2).sum())
            + float((classifier.bias ** 2).sum()))
        grads["weights"] = grads["weights"] + weight_decay * classifier.weights
        grads["bias"] = grads["bias"] + weight_decay * classifier.bias
    return loss, grads


@dataclass(eq=False)
class AnchorState:
    """Reference parameters and a diagonal curvature estimate, as flat
    vectors laid out like the head's parameters (`Classifier.flat`)."""

    theta: np.ndarray
    fisher: np.ndarray


def estimate_fisher(classifier: Classifier, data: Batch) -> AnchorState:
    """Diagonal Fisher proxy: mean of squared per-sample CE gradients.

    The per-sample head gradient factorizes as outer(p - onehot, e), so
    the squared gradients can be accumulated without forming each outer
    product.
    """
    if not data:
        raise ProtocolError("fisher estimate needs a non-empty dataset")
    emb = classifier.encoder.encode_batch(data.x)
    _, delta = head_pass(classifier.weights, classifier.bias, emb,
                         rows_for(classifier, data.y))
    fisher = np.empty_like(classifier.flat)
    fisher_w, fisher_b = classifier.split(fisher)
    fisher_w[...] = (delta ** 2).T @ (emb ** 2) / len(data)
    fisher_b[...] = (delta ** 2).mean(axis=0)
    return AnchorState(theta=classifier.flat.copy(), fisher=fisher)


def ewc_penalty_and_grads(params: np.ndarray, anchor: AnchorState,
                          lam: float) -> tuple[float, np.ndarray]:
    """lam * sum_j F_j (theta_j - theta*_j)^2 with gradient
    2 lam F (theta - theta*), over flat vectors. With F = 1/2 and
    lam = mu this is the FedProx term (mu / 2) ||theta - theta*||^2,
    gradient mu (theta - theta*). Training adds the same gradient in
    `_train_on_groups`."""
    diff = params - anchor.theta
    return (lam * float((anchor.fisher * diff * diff).sum()),
            2.0 * lam * anchor.fisher * diff)


def _train_on_groups(classifier: Classifier, groups: list[Batch],
                     hp: TrainHP, rng: np.random.Generator, *,
                     epochs: int | None = None,
                     anchor: AnchorState | None = None, lam: float = 0.0,
                     ledger=None) -> Classifier:
    if not (math.isfinite(lam) and lam >= 0):
        raise ConfigError(f"lambda must be finite and >= 0, got {lam}")
    n_epochs = hp.epochs_per_task if epochs is None else epochs
    if n_epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {n_epochs}")
    groups = [g for g in groups if len(g) > 0]
    if not groups:
        raise ProtocolError("training needs at least one non-empty set")
    sample_w = np.concatenate([np.full(len(g), 1.0 / len(g)) for g in groups])
    emb = classifier.encoder.encode_batch(
        np.concatenate([g.x for g in groups]))
    rows = rows_for(classifier, np.concatenate([g.y for g in groups]))
    n_total = len(rows)
    n_out, dim_e = classifier.num_classes, classifier.encoder.dim_e
    if ledger is not None:
        ledger.add("train_encoder", ledgers.encoder_forward_madds(
            n_total, dim_e, classifier.encoder.dim_x))
    params, weights, bias = classifier.flat, classifier.weights, \
        classifier.bias
    adam = classifier.adam
    if hp.adam_reset_per_task or adam is None or \
            adam.m.shape != params.shape:
        adam = Adam(params.size)
    # The anchor penalty's gradient is coef * (theta - theta*), with
    # coef = 2 lam F formed once per call. Doubling is exact, so
    # lam * (2 F) rounds like (2 lam) F, and is mu itself at F = 1/2.
    pull = None
    if anchor is not None and lam > 0:
        if anchor.theta.shape != params.shape or \
                anchor.fisher.shape != params.shape:
            raise ProtocolError(
                f"anchor theta {anchor.theta.shape} and fisher "
                f"{anchor.fisher.shape} do not match the head's "
                f"{params.shape}")
        pull = (lam * (2.0 * anchor.fisher), anchor.theta,
                np.empty_like(params))
    grad = np.empty_like(params)
    grad_w, grad_b = classifier.split(grad)
    # Each epoch gathers, in permuted order, the embeddings, each row's
    # flat index into its batch's logits at its true class, and its
    # coefficient n_total / |its batch| * sample_w; a step slices views.
    batch = min(hp.batch_size, n_total)
    at_true = np.arange(n_total) % batch * n_out
    batch_scale = np.full(n_total, n_total / batch)
    if n_total % batch:
        batch_scale[-(n_total % batch):] = n_total / (n_total % batch)
    emb_p, rows_p, coef_p = (np.empty_like(a) for a in (emb, rows, sample_w))
    logits = np.empty((batch, n_out))
    for _ in range(n_epochs):
        # `order` is a permutation, so mode="clip" never clips; unlike
        # the default, it writes straight into `out` with no temporary.
        order = rng.permutation(n_total)
        np.take(emb, order, axis=0, out=emb_p, mode="clip")
        np.take(rows, order, out=rows_p, mode="clip")
        rows_p += at_true
        np.take(sample_w, order, out=coef_p, mode="clip")
        coef_p *= batch_scale
        for start in range(0, n_total, batch):
            stop = start + batch
            e = emb_p[start:stop]
            _, delta = head_pass(weights, bias, e, rows_p[start:stop],
                                 out=logits[:len(e)])
            delta *= coef_p[start:stop, None]
            np.matmul(delta.T, e, out=grad_w)
            np.add.reduce(delta, axis=0, out=grad_b)
            if pull is not None:
                coef, theta, gap = pull
                np.subtract(params, theta, out=gap)
                gap *= coef
                grad += gap
            adam.update(params, grad, hp.learning_rate, hp.weight_decay)
    # An overflowing gradient makes v infinite and every later step 0,
    # which would freeze a finite head without a trace. A head that is
    # itself non-finite is reported at the end of its task phase.
    if np.isfinite(params).all() and not (
            np.isfinite(adam.m).all() and np.isfinite(adam.v).all()):
        raise ProtocolError(
            f"training overflowed Adam's moments (lambda {lam}, "
            f"learning_rate {hp.learning_rate})")
    if ledger is not None:
        # The madds formulas are linear in the batch size, so one charge
        # for every row of every epoch equals the per-step sum.
        seen = n_epochs * n_total
        ledger.add("train_head_forward",
                   ledgers.head_forward_madds(seen, n_out, dim_e))
        ledger.add("train_softmax", ledgers.softmax_madds(seen, n_out))
        ledger.add("train_head_backward",
                   ledgers.head_backward_madds(seen, n_out, dim_e))
    classifier.adam = None if hp.adam_reset_per_task else adam
    return classifier


def train_naive(classifier: Classifier, data: Batch, hp: TrainHP,
                rng: np.random.Generator, ledger=None) -> Classifier:
    """Plain incremental fine-tuning on the current task's data."""
    return _train_on_groups(classifier, [data], hp, rng, ledger=ledger)


def train_joint(classifier: Classifier, datasets: list[Batch],
                hp: TrainHP, rng: np.random.Generator,
                ledger=None) -> Classifier:
    """Minimize the sum of per-task mean losses over every dataset."""
    return _train_on_groups(classifier, datasets, hp, rng, ledger=ledger)


def train_osifl(classifier: Classifier, data: Batch, memory,
                hp: TrainHP, rng: np.random.Generator,
                ledger=None) -> Classifier:
    """Current-task mean loss plus one mean-loss term per remembered
    task. `memory` provides replay_sets(current_task)."""
    if not data:
        raise ProtocolError("training needs at least one non-empty set")
    groups = [data]
    if memory is not None:
        groups.extend(memory.replay_sets(data.task))
    return _train_on_groups(classifier, groups, hp, rng, ledger=ledger)


def train_regularized(classifier: Classifier, data: Batch,
                      anchor: AnchorState | None, lam: float, hp: TrainHP,
                      rng: np.random.Generator, ledger=None) -> Classifier:
    """Naive objective plus the quadratic anchor penalty. lam = 0 (or no
    anchor) follows exactly the train_naive trajectory."""
    return _train_on_groups(classifier, [data], hp, rng, anchor=anchor,
                            lam=lam, ledger=ledger)


def train_local(classifier: Classifier, data: Batch, hp: TrainHP,
                rng: np.random.Generator, *, epochs: int,
                anchor: AnchorState | None = None, lam: float = 0.0,
                ledger=None) -> Classifier:
    """A federated client's local pass: a short naive run, optionally
    with the anchor penalty (FedEWC's Fisher anchor, or FedProx's
    broadcast model at F = 1/2)."""
    return _train_on_groups(classifier, [data], hp, rng, epochs=epochs,
                            anchor=anchor, lam=lam, ledger=ledger)


_HEAD_MAGIC = b"OSFH"
_HEAD_STRUCT = struct.Struct("<4sIII")


def save_head(classifier: Classifier, path: str) -> None:
    """Flat little-endian head checkpoint: class ids, weights, bias."""
    blob = [_HEAD_STRUCT.pack(_HEAD_MAGIC, 1, classifier.num_classes,
                              classifier.encoder.dim_e)]
    blob.append(np.asarray(classifier.classes, dtype="<u4").tobytes())
    blob.append(np.ascontiguousarray(classifier.flat, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(blob))


def load_head(path: str, encoder: FrozenEncoder) -> Classifier:
    with open(path, "rb") as fh:
        reader = BlobReader(fh.read(), f"head checkpoint {path}")
    magic, version, n_classes, dim_e = \
        _HEAD_STRUCT.unpack(reader.take(_HEAD_STRUCT.size))
    if magic != _HEAD_MAGIC or version != 1:
        raise ProtocolError(f"not a head checkpoint: {path}")
    if dim_e != encoder.dim_e:
        raise ProtocolError(
            f"checkpoint dim_e {dim_e} != encoder {encoder.dim_e}")
    classes = np.frombuffer(reader.take(4 * n_classes), dtype="<u4")
    clf = Classifier(encoder, classes=[int(c) for c in classes])
    clf._lay_out(reader.floats(n_classes * (dim_e + 1)))
    reader.finish()
    return clf
