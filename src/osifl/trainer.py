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

import struct
from dataclasses import dataclass, field

import numpy as np

from .datagen import Batch
from .encoder import BlobReader, FrozenEncoder
from .errors import ConfigError, ProtocolError
from . import ledgers


@dataclass
class TrainHP:
    learning_rate: float = 0.001
    batch_size: int = 32
    epochs_per_task: int = 20
    weight_decay: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    lambda_ewc: float = 0.1
    mu_prox: float = 0.01
    adam_reset_per_task: bool = True

    def __post_init__(self):
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
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ConfigError("adam betas must lie in [0, 1)")


@dataclass(eq=False)
class AdamState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def zeros_like(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(step=0,
                   m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(state: AdamState, params: dict[str, np.ndarray],
              grads: dict[str, np.ndarray], hp
              ) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update. Pure: inputs are not mutated.
    hp.weight_decay is added to the gradient before the moments."""
    if set(params) != set(grads):
        raise ValueError(f"param keys {sorted(params)} != grad keys "
                         f"{sorted(grads)}")
    t = state.step + 1
    b1, b2 = hp.adam_beta1, hp.adam_beta2
    new_params, new_m, new_v = {}, {}, {}
    for k, p in params.items():
        if grads[k].shape != p.shape:
            raise ValueError(f"gradient shape {grads[k].shape} != param "
                             f"shape {p.shape} for {k!r}")
        g = grads[k] + hp.weight_decay * p
        m = b1 * state.m[k] + (1.0 - b1) * g
        v = b2 * state.v[k] + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        new_params[k] = p - hp.learning_rate * m_hat / (np.sqrt(v_hat)
                                                        + hp.adam_eps)
        new_m[k], new_v[k] = m, v
    return new_params, AdamState(step=t, m=new_m, v=new_v)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class Classifier:
    """Frozen encoder plus an expandable linear head.

    Rows of `weights` follow registration order; `classes[i]` is the
    class id decoded from row i.
    """

    def __init__(self, encoder: FrozenEncoder, classes=()):
        self.encoder = encoder
        self.classes: list[int] = []
        self.class_index: dict[int, int] = {}
        self.weights = np.zeros((0, encoder.dim_e))
        self.bias = np.zeros(0)
        self.adam_state: AdamState | None = None
        if classes:
            self.expand_head(classes)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def param_count(self) -> int:
        return self.weights.size + self.bias.size

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
        n_new = len(new_classes)
        for c in new_classes:
            self.class_index[c] = len(self.classes)
            self.classes.append(int(c))
        self.weights = np.vstack(
            [self.weights, np.zeros((n_new, self.encoder.dim_e))])
        self.bias = np.concatenate([self.bias, np.zeros(n_new)])
        if self.adam_state is not None:
            st = self.adam_state
            for d in (st.m, st.v):
                d["weights"] = np.vstack(
                    [d["weights"], np.zeros((n_new, self.encoder.dim_e))])
                d["bias"] = np.concatenate([d["bias"], np.zeros(n_new)])

    def head_params(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights.copy(), "bias": self.bias.copy()}

    def load_params(self, params: dict[str, np.ndarray]) -> None:
        if params["weights"].shape != self.weights.shape or \
                params["bias"].shape != self.bias.shape:
            raise ValueError("head parameter shapes do not match")
        self.weights = params["weights"].copy()
        self.bias = params["bias"].copy()

    def copy(self) -> "Classifier":
        dup = Classifier(self.encoder)
        dup.classes = list(self.classes)
        dup.class_index = dict(self.class_index)
        dup.weights = self.weights.copy()
        dup.bias = self.bias.copy()
        return dup

    def logits_from_embedded(self, emb: np.ndarray) -> np.ndarray:
        return emb @ self.weights.T + self.bias

    def predict(self, xs: np.ndarray) -> np.ndarray:
        if self.num_classes == 0:
            raise ProtocolError("classifier has no registered classes")
        emb = self.encoder.encode_batch(xs)
        rows = np.argmax(self.logits_from_embedded(emb), axis=1)
        return np.asarray(self.classes)[rows]


def _rows_for(classifier: Classifier, ys: np.ndarray) -> np.ndarray:
    try:
        return np.array([classifier.class_index[y] for y in ys.tolist()])
    except KeyError as err:
        raise ProtocolError(
            f"class {err.args[0]} is not registered in the head") from None


def _weighted_ce(weights: np.ndarray, bias: np.ndarray, emb: np.ndarray,
                 rows: np.ndarray, sample_w: np.ndarray, scale: float
                 ) -> tuple[float, dict[str, np.ndarray]]:
    """scale * sum_i sample_w[i] * nll_i and its exact head gradients.
    nll is a log-softmax, finite where the true class's p underflows."""
    logits = emb @ weights.T + bias
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    probs = e / total
    n = emb.shape[0]
    nll = np.log(total[:, 0]) - shifted[np.arange(n), rows]
    loss = float(scale * (sample_w @ nll))
    d_logits = probs.copy()
    d_logits[np.arange(n), rows] -= 1.0
    d_logits *= (scale * sample_w)[:, None]
    return loss, {"weights": d_logits.T @ emb, "bias": d_logits.sum(axis=0)}


def ce_loss_and_grads(classifier: Classifier, batch: Batch,
                      weight_decay: float = 0.0
                      ) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch, optionally with an L2 term
    0.5 * weight_decay * ||head||^2 folded into loss and gradients."""
    if not batch:
        raise ProtocolError("cross-entropy needs a non-empty batch")
    emb = classifier.encoder.encode_batch(batch.x)
    rows = _rows_for(classifier, batch.y)
    n = len(batch)
    loss, grads = _weighted_ce(classifier.weights, classifier.bias, emb,
                               rows, np.full(n, 1.0 / n), 1.0)
    if weight_decay:
        loss += 0.5 * weight_decay * (
            float((classifier.weights ** 2).sum())
            + float((classifier.bias ** 2).sum()))
        grads["weights"] = grads["weights"] + weight_decay * classifier.weights
        grads["bias"] = grads["bias"] + weight_decay * classifier.bias
    return loss, grads


def full_objective(classifier: Classifier, groups: list[Batch]) -> float:
    """Sum over groups of the group's mean cross-entropy (audit helper)."""
    total = 0.0
    for group in groups:
        if group:
            loss, _ = ce_loss_and_grads(classifier, group)
            total += loss
    return total


@dataclass(eq=False)
class AnchorState:
    """Reference parameters and a diagonal curvature estimate."""

    theta: dict[str, np.ndarray]
    fisher: dict[str, np.ndarray]


def estimate_fisher(classifier: Classifier, data: Batch) -> AnchorState:
    """Diagonal Fisher proxy: mean of squared per-sample CE gradients.

    The per-sample head gradient factorizes as outer(p - onehot, e), so
    the squared gradients can be accumulated without forming each outer
    product.
    """
    if not data:
        raise ProtocolError("fisher estimate needs a non-empty dataset")
    emb = classifier.encoder.encode_batch(data.x)
    rows = _rows_for(classifier, data.y)
    probs = softmax(classifier.logits_from_embedded(emb))
    delta = probs.copy()
    delta[np.arange(len(data)), rows] -= 1.0
    n = len(data)
    fisher_w = (delta ** 2).T @ (emb ** 2) / n
    fisher_b = (delta ** 2).mean(axis=0)
    return AnchorState(theta=classifier.head_params(),
                       fisher={"weights": fisher_w, "bias": fisher_b})


def align_anchor(anchor: AnchorState, params: dict[str, np.ndarray]
                 ) -> AnchorState:
    """Pad an anchor recorded before a head expansion with zero rows, so
    new classes stay unconstrained."""
    theta, fisher = {}, {}
    for k, p in params.items():
        for src, dst in ((anchor.theta, theta), (anchor.fisher, fisher)):
            old = src[k]
            if old.shape == p.shape:
                dst[k] = old.copy()
            else:
                grown = np.zeros_like(p)
                grown[tuple(slice(0, s) for s in old.shape)] = old
                dst[k] = grown
    return AnchorState(theta=theta, fisher=fisher)


def ewc_penalty_and_grads(params: dict[str, np.ndarray],
                          anchor: AnchorState, lam: float
                          ) -> tuple[float, dict[str, np.ndarray]]:
    """lam * sum_j F_j (theta_j - theta*_j)^2 with gradient
    2 lam F (theta - theta*)."""
    loss = 0.0
    grads = {}
    for k, p in params.items():
        diff = p - anchor.theta[k]
        loss += lam * float((anchor.fisher[k] * diff * diff).sum())
        grads[k] = 2.0 * lam * anchor.fisher[k] * diff
    return loss, grads


def proximal_penalty_and_grads(params: dict[str, np.ndarray],
                               reference: dict[str, np.ndarray], mu: float
                               ) -> tuple[float, dict[str, np.ndarray]]:
    """(mu / 2) ||theta - reference||^2 with gradient mu (theta - ref)."""
    loss = 0.0
    grads = {}
    for k, p in params.items():
        diff = p - reference[k]
        loss += 0.5 * mu * float((diff * diff).sum())
        grads[k] = mu * diff
    return loss, grads


def _train_on_groups(classifier: Classifier, groups: list[Batch],
                     hp: TrainHP, rng: np.random.Generator, *,
                     epochs: int | None = None, penalty=None,
                     ledger=None) -> Classifier:
    groups = [g for g in groups if len(g) > 0]
    if not groups:
        raise ProtocolError("training needs at least one non-empty set")
    sample_w = np.concatenate([np.full(len(g), 1.0 / len(g)) for g in groups])
    emb = classifier.encoder.encode_batch(
        np.concatenate([g.x for g in groups]))
    rows = _rows_for(classifier, np.concatenate([g.y for g in groups]))
    n_total = len(rows)
    n_out, dim_e = classifier.num_classes, classifier.encoder.dim_e
    if ledger is not None:
        ledger.add("train_encoder", ledgers.encoder_forward_madds(
            n_total, dim_e, classifier.encoder.dim_x))
    params = {"weights": classifier.weights, "bias": classifier.bias}
    state = classifier.adam_state
    if hp.adam_reset_per_task or state is None or \
            state.m["weights"].shape != params["weights"].shape:
        state = AdamState.zeros_like(params)
    n_epochs = hp.epochs_per_task if epochs is None else epochs
    for _ in range(n_epochs):
        order = rng.permutation(n_total)
        for start in range(0, n_total, hp.batch_size):
            idx = order[start:start + hp.batch_size]
            b = len(idx)
            _, grads = _weighted_ce(params["weights"], params["bias"],
                                    emb[idx], rows[idx], sample_w[idx],
                                    n_total / b)
            if penalty is not None:
                _, pgrads = penalty(params)
                grads = {k: grads[k] + pgrads[k] for k in grads}
            params, state = adam_step(state, params, grads, hp)
            if ledger is not None:
                ledger.add("train_head_forward",
                           ledgers.head_forward_madds(b, n_out, dim_e))
                ledger.add("train_softmax",
                           ledgers.softmax_madds(b, n_out))
                ledger.add("train_head_backward",
                           ledgers.head_backward_madds(b, n_out, dim_e))
    classifier.weights = params["weights"]
    classifier.bias = params["bias"]
    classifier.adam_state = None if hp.adam_reset_per_task else state
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
    if lam < 0:
        raise ConfigError(f"lambda must be >= 0, got {lam}")
    penalty = None
    if anchor is not None and lam > 0:
        penalty = lambda params: ewc_penalty_and_grads(params, anchor, lam)
    return _train_on_groups(classifier, [data], hp, rng, penalty=penalty,
                            ledger=ledger)


def train_local(classifier: Classifier, data: Batch, hp: TrainHP,
                rng: np.random.Generator, *, epochs: int, penalty=None,
                ledger=None) -> Classifier:
    """A federated client's local pass: a short naive run, optionally
    with a proximal or anchor penalty supplied by the caller."""
    return _train_on_groups(classifier, [data], hp, rng, epochs=epochs,
                            penalty=penalty, ledger=ledger)


_HEAD_MAGIC = b"OSFH"
_HEAD_STRUCT = struct.Struct("<4sIII")


def save_head(classifier: Classifier, path: str) -> None:
    """Flat little-endian head checkpoint: class ids, weights, bias."""
    blob = [_HEAD_STRUCT.pack(_HEAD_MAGIC, 1, classifier.num_classes,
                              classifier.encoder.dim_e)]
    blob.append(np.asarray(classifier.classes, dtype="<u4").tobytes())
    blob.append(np.ascontiguousarray(classifier.weights,
                                     dtype="<f8").tobytes())
    blob.append(np.ascontiguousarray(classifier.bias, dtype="<f8").tobytes())
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
    clf.weights = reader.floats(n_classes * dim_e).reshape((n_classes, dim_e))
    clf.bias = reader.floats(n_classes)
    reader.finish()
    return clf
