"""Incremental classifier training on top of the frozen encoder.

The trainable model is a linear head over encoder features, grown by
zero-initialized rows as new classes arrive. All gradients are exact
and hand-derived; the optimizer is Adam with bias correction and weight
decay applied as a gradient addition.

Every method trains its head through `train`, one weighted minibatch
loop, with groups and an anchor of its own. The objective is always a
weighted sum of per-sample losses where each sample carries 1/|its
group|, and each batch is scaled by N/|batch| so the minibatch objective
estimates the sum of per-group mean losses without bias. One group
reduces it exactly to plain mean cross-entropy, which makes the naive /
joint / replay / regularized reductions trajectory-identical under a
shared RNG. The loop trains a stack of heads at once (`Stack`), one head
being a stack of one, with the same bits for each head as it alone.
`train` also restores, from a memo, a head whose `head_key` it holds,
and stores each head that trains; a head's carried `AdamState` is
read-only, so the memo and a restored head share it without a copy.
"""
from __future__ import annotations

import collections
import hashlib
import math
import struct
from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np

from .datagen import Batch
from .encoder import BlobReader, FrozenEncoder
from .errors import ConfigError, ProtocolError
from . import ledgers

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# A stack of heads holds one embedding copy per head, and at most this
# many bytes of them; further heads train in a stack of their own. It
# bounds what stacking adds to peak memory: three heads of 1,000 rows of
# 64 features fit, three of 1,250 do not.
STACK_EMBEDDING_BYTES = 3 * 2**19


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

    A step is 16 ufunc calls into preallocated scratch, 14 without
    decay, each rounding like the textbook expressions g + wd * p,
    (1 - b2) * g * g and lr * (m / c1) / (sqrt(v / c2) + eps) do on
    fresh arrays. `grads` is only read."""

    def __init__(self, size: int):
        self.step = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._g = np.empty(size)
        self._t = np.empty(size)

    def update(self, params: np.ndarray, grads: np.ndarray,
               learning_rate: float, weight_decay: float) -> None:
        if params.shape != self.m.shape or grads.shape != self.m.shape:
            raise ValueError(f"param {params.shape} and gradient "
                             f"{grads.shape} do not match the moments' "
                             f"{self.m.shape}")
        self.step += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1, c2 = 1.0 - b1 ** self.step, 1.0 - b2 ** self.step
        g, t, m, v = grads, self._t, self.m, self.v
        # Without decay, g + 0 * p could differ from g only in the sign of
        # a zero (for finite p), so the gradient is read as it is.
        if weight_decay != 0:
            g = self._g
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
        delta = self._g
        np.divide(m, c1, out=delta)
        delta *= learning_rate
        delta /= t
        params -= delta


class AdamState(NamedTuple):
    """The Adam step count and moments that a head carries into its next
    call: read-only flat vectors laid out like the head."""

    step: int
    m: np.ndarray
    v: np.ndarray


def _head_views(flat: np.ndarray, n: int, dim_e: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """The (weights, bias) views of a flat head vector of n rows: the
    weights row by row, then the bias."""
    return flat[:n * dim_e].reshape(n, dim_e), flat[n * dim_e:]


class Classifier:
    """Frozen encoder plus an expandable linear head.

    Rows of `weights` follow registration order; `classes[i]` is the
    class id decoded from row i. `weights` and `bias` are read-only
    attributes holding views into one flat parameter vector, `flat`,
    which the optimizer steps in place; write into them with
    `clf.weights[...] = ...`. Anchors and federated updates are flat
    vectors in the same layout.
    """

    def __init__(self, encoder: FrozenEncoder, classes=()):
        self.encoder = encoder
        self.classes: list[int] = []
        self.class_index: dict[int, int] = {}
        self.adam: AdamState | None = None
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

    @property
    def bias(self) -> np.ndarray:
        return self._bias

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
            self.adam = AdamState(self.adam.step,
                                  *map(self.grow, self.adam[1:]))

    def grow(self, flat: np.ndarray) -> np.ndarray:
        """`flat`, laid out like this head or an earlier, smaller one (its
        parameters, Adam moments or an anchor), laid out anew like this head
        with zero rows for the classes added since, read-only if `flat` is."""
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
        grown.flags.writeable = flat.flags.writeable
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
              rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row cross-entropy of the linear head, as a log-softmax NLL
    (finite where the true class's p underflows), and softmax - onehot,
    the gradient of each row's NLL with respect to its logits. `rows`
    holds each row's true class as its row in the head."""
    out = np.empty((len(emb), len(bias)))
    rows = np.arange(len(rows)) * len(bias) + rows
    np.matmul(emb, weights.T, out=out)
    out += bias
    out -= np.maximum.reduce(out, axis=1, keepdims=True)
    flat = out.reshape(-1)
    shifted_true = flat[rows]
    np.exp(out, out=out)
    total = np.add.reduce(out, axis=1, keepdims=True)
    out /= total
    flat[rows] -= 1.0
    return np.log(total[:, 0]) - shifted_true, out


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
    `_fit`."""
    diff = params - anchor.theta
    return (lam * float((anchor.fisher * diff * diff).sum()),
            2.0 * lam * anchor.fisher * diff)


class Stack(tuple):
    """One value per head of a stacked training call. A Stack of
    ledgers reads as one ledger holding the sum of theirs."""

    @property
    def madds_by_kind(self) -> dict[str, int]:
        """How the traced benchmark reads a stacked call's `ledger`."""
        return dict(sum(map(collections.Counter,
                            (ledger.madds_by_kind for ledger in self)),
                        collections.Counter()))


def _per_head(n: int, value):
    """A Stack's per-head values, or one shared value for each of n."""
    return value if isinstance(value, Stack) else [value] * n


class HeadCall(NamedTuple):
    """One head's training call as `_prepare` normalises it: what `_fit`
    reads for that head. `pull` is the anchor's (2 lam F, theta), or None
    when no penalty applies; `adam` the optimizer state carried over, or
    None when training starts from fresh moments."""

    classifier: Classifier
    groups: list[Batch]
    rows: np.ndarray
    rng: np.random.Generator
    lam: float
    pull: tuple[np.ndarray, np.ndarray] | None
    adam: AdamState | None
    ledger: object
    hp: TrainHP
    epochs: int


def _prepare(classifier: Classifier, groups, hp: TrainHP, rng, epochs,
             anchor: AnchorState | None, lam: float, ledger):
    """Check one head's call (`groups` a batch or a list of them). Return
    what the heads of one stack share, and the call as a `HeadCall`."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ConfigError(f"lambda must be finite and >= 0, got {lam}")
    epochs = hp.epochs_per_task if epochs is None else epochs
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    groups = [g for g in ([groups] if isinstance(groups, Batch) else groups)
              if len(g) > 0]
    if not groups:
        raise ProtocolError("training needs at least one non-empty set")
    rows = rows_for(classifier, np.concatenate([g.y for g in groups]))
    params, adam = classifier.flat, classifier.adam
    if hp.adam_reset_per_task or adam is None or adam.m.shape != params.shape:
        adam = None
    pull = None
    if anchor is not None and lam > 0:
        if anchor.theta.shape != params.shape or \
                anchor.fisher.shape != params.shape:
            raise ProtocolError(
                f"anchor theta {anchor.theta.shape} and fisher "
                f"{anchor.fisher.shape} do not match the head's "
                f"{params.shape}")
        # The penalty's gradient is coef * (theta - theta*) with coef =
        # 2 lam F. Doubling is exact, so lam * (2 F) rounds like
        # (2 lam) F, and is mu itself at F = 1/2.
        pull = (lam * (2.0 * anchor.fisher), anchor.theta)
    key = (tuple(map(len, groups)), classifier.weights.shape,
           tuple(vars(hp).values()), epochs, pull is None,
           None if adam is None else adam.step)
    return key, HeadCall(classifier, groups, rows, rng, lam, pull, adam,
                         ledger, hp, epochs)


def charge_training(call: HeadCall) -> None:
    """Bill one head's training call to its ledger, if any. The madds
    formulas are linear in the batch size, so one charge for every row
    of every epoch equals the per-step sum."""
    if call.ledger is None:
        return
    n, (n_out, dim_e) = len(call.rows), call.classifier.weights.shape
    seen = call.epochs * n
    call.ledger.add("train_encoder", ledgers.encoder_forward_madds(
        n, dim_e, call.classifier.encoder.dim_x))
    call.ledger.add("train_head_forward",
                    ledgers.head_forward_madds(seen, n_out, dim_e))
    call.ledger.add("train_softmax", ledgers.softmax_madds(seen, n_out))
    call.ledger.add("train_head_backward",
                    ledgers.head_backward_madds(seen, n_out, dim_e))


@np.errstate(over="ignore", invalid="ignore")
def _fit(calls: list[tuple]) -> list[Exception | None]:
    """The minibatch loop over the S heads of calls that share
    `_prepare`'s key: (S, b, E) @ (S, E, C) matmuls, per-head reductions
    and one Adam over the stacked parameters, each head with its own
    permutations, rows and pull. Returns each head's error or None.
    Overflow warnings are off, so that they fail no head: the checks of
    each head's moments and, after its phase, parameters find it."""
    clfs, groups, rows, rngs, _, pulls, adams, _, hps, epochs = zip(*calls)
    hp, heads, (n_out, dim_e) = hps[0], len(calls), clfs[0].weights.shape
    sizes = [len(g) for g in groups[0]]
    n, split = sum(sizes), n_out * dim_e
    # One embedding copy per head, encoded straight into the stack.
    emb = np.empty((heads, n, dim_e))
    for clf, grp, out in zip(clfs, groups, emb):
        clf.encoder.encode_batch(np.concatenate([g.x for g in grp]), out=out)
    emb = emb.reshape(-1, dim_e)
    params = np.array([clf.flat for clf in clfs])
    adam = Adam(params.shape)
    if adams[0] is not None:
        adam.step = adams[0].step
        adam.m[...], adam.v[...] = [a.m for a in adams], [a.v for a in adams]
    grad = np.empty_like(params)
    w_t = params[:, :split].reshape(-1, n_out, dim_e).transpose(0, 2, 1)
    bias, grad_b = params[:, None, split:], grad[:, split:]
    grad_w = grad[:, :split].reshape(-1, n_out, dim_e)
    if pulls[0] is not None:
        coef, theta = (np.array(p) for p in zip(*pulls))
        gap = np.empty_like(params)
    # A batch of b rows computes in the first heads * b rows of one buffer,
    # so that every batch size is laid out contiguously: a slice [:, :b]
    # of a larger batch's buffer is not, and the flat true-class update
    # would write into a copy.
    batch, lanes = min(hp.batch_size, n), {}
    e_buf, l_buf = np.empty(heads * batch * dim_e), \
        np.empty(heads * batch * n_out)
    for b in {batch, n % batch} - {0}:
        logits = l_buf[:heads * b * n_out].reshape(heads, b, n_out)
        lanes[b] = (e_buf[:heads * b * dim_e].reshape(heads, b, dim_e),
                    logits, logits.transpose(0, 2, 1), logits.reshape(-1))
    # For each head and position in an epoch: the flat index of that row's
    # class-0 logit in its batch's buffer, to which the true class's head
    # row is added; and n / |its batch|, which scales 1 / |its group|.
    within = np.arange(n) % batch
    size = np.minimum(batch, n - np.arange(n) + within)
    at_true = (np.arange(heads)[:, None] * size + within) * n_out
    batch_scale = n / size
    sample_w = np.concatenate([np.full(k, 1.0 / k) for k in sizes])
    order, rows_p = np.empty((2, heads, n), dtype=np.intp)
    coef_p = np.empty((heads, n))
    for _ in range(epochs[0]):
        # Each permutation indexes its head's rows, then the stack's rows.
        # As a permutation, mode="clip" never clips; unlike the default,
        # it writes straight into `out`.
        for s, (rng, head_rows) in enumerate(zip(rngs, rows)):
            order[s] = rng.permutation(n)
            head_rows.take(order[s], out=rows_p[s], mode="clip")
            sample_w.take(order[s], out=coef_p[s], mode="clip")
            order[s] += s * n
        rows_p += at_true
        coef_p *= batch_scale
        for start in range(0, n, batch):
            stop = start + batch
            e, logits, logits_t, flat = lanes[min(batch, n - start)]
            emb.take(order[:, start:stop], axis=0, out=e, mode="clip")
            np.matmul(e, w_t, out=logits)
            logits += bias
            logits -= np.maximum.reduce(logits, axis=2, keepdims=True)
            np.exp(logits, out=logits)
            logits /= np.add.reduce(logits, axis=2, keepdims=True)
            flat[rows_p[:, start:stop]] -= 1.0
            logits *= coef_p[:, start:stop, None]
            np.matmul(logits_t, e, out=grad_w)
            np.add.reduce(logits, axis=1, out=grad_b)
            if pulls[0] is not None:
                np.subtract(params, theta, out=gap)
                gap *= coef
                grad += gap
            adam.update(params, grad, hp.learning_rate, hp.weight_decay)
    # Each kept AdamState is a view of its head's rows.
    adam.m.flags.writeable = adam.v.flags.writeable = False
    errors = [None] * heads
    for s, (clf, call) in enumerate(zip(clfs, calls)):
        clf.flat[...] = params[s]
        # An overflowing gradient makes v infinite and every later step
        # 0, which would freeze a finite head without a trace. A head
        # that is itself non-finite is reported at the end of its phase.
        if np.isfinite(params[s]).all() and not (
                np.isfinite(adam.m[s]).all() and np.isfinite(adam.v[s]).all()):
            errors[s] = ProtocolError(
                f"training overflowed Adam's moments (lambda {call.lam}, "
                f"learning_rate {hp.learning_rate})")
            continue
        charge_training(call)
        clf.adam = None if hp.adam_reset_per_task else \
            AdamState(adam.step, adam.m[s], adam.v[s])
    return errors


def head_key(call: HeadCall) -> str:
    """A sha256 of all that `_fit` reads for one head's call: the encoder,
    the head's classes and parameters, each group's rows in order, the
    generator's state, every `TrainHP` field, the epochs, and the
    anchor's pull with its lambda and Adam's state only when read."""
    clf = call.classifier
    arrays = [clf.flat, *(a for g in call.groups for a in (g.x, g.y)),
              *(call.pull or ()),
              *(() if call.adam is None else (call.adam.m, call.adam.v))]
    digest = hashlib.sha256(repr((
        clf.encoder.checksum(), clf.classes, call.rng.bit_generator.state,
        astuple(call.hp), call.epochs,
        None if call.pull is None else call.lam,
        None if call.adam is None else call.adam.step,
        [(a.dtype.str, a.shape) for a in arrays])).encode())
    for a in arrays:
        digest.update(np.ascontiguousarray(a))
    return digest.hexdigest()


def _restore_head(call: HeadCall, memo, key: str) -> bool:
    """Whether `memo` holds `key`; if so, leave the head, its Adam state,
    the generator and the call's ledger as training would have."""
    if key not in memo:
        return False
    flat, call.classifier.adam, call.rng.bit_generator.state = \
        memo.recall(key, None, None)
    call.classifier.flat[...] = flat
    charge_training(call)
    return True


def train(classifier, groups, hp, rng, *, epochs=None, anchor=None,
          lam=0.0, ledger=None, memo=None):
    """Train a head for `epochs` (default `hp.epochs_per_task`) on the
    sum of each group's mean loss (`groups` a batch or a list of them),
    plus, with an `anchor`, the anchor penalty at `lam`. Per method:

    - OSCAR_IL: the task's data;
    - OSCAR_CEILING: every task's data so far;
    - OSIFL: the task's data, then each remembered task's exemplars;
    - OSCAR_R: the task's data, with the Fisher anchor at lambda_ewc;
    - a federated client: its shard for a few epochs, with FedEWC's
      Fisher anchor, or FedProx's broadcast model at F = 1/2 and mu.

    One group, an empty replay or lam = 0 train as the data alone.
    `classifier` is one head, or a Stack of heads with every other
    argument shared or a Stack of per-head values. The heads whose calls
    share `_prepare`'s key train as one stack, any other alone, to the
    same bits. One head is returned, or its call's error raised; a Stack
    returns a Stack of each head or its call's error. A `memo` (a
    `ServerMemo`) restores a head whose `head_key` it holds, and stores
    one that trains without error to finite parameters."""
    heads = _per_head(1, classifier)
    out, stacks, offered = list(heads), {}, {}
    for s, (*args, head_memo) in enumerate(zip(heads, *(
            _per_head(len(heads), a)
            for a in (groups, hp, rng, epochs, anchor, lam, ledger, memo)))):
        try:
            key, call = _prepare(*args)
        except Exception as err:
            out[s] = err
            continue
        if head_memo is not None:
            offered[s] = head_memo, head_key(call)
            if _restore_head(call, *offered[s]):
                continue
        stacks.setdefault(key, []).append((s, call))
    for members in stacks.values():
        clf, groups = members[0][1][:2]
        width = max(1, STACK_EMBEDDING_BYTES // (
            8 * clf.encoder.dim_e * sum(map(len, groups))))
        for chunk in (members[i:i + width]
                      for i in range(0, len(members), width)):
            try:
                errors = _fit([call for _, call in chunk])
            except Exception as err:
                errors = [err] * len(chunk)
            for (s, call), err in zip(chunk, errors):
                out[s] = err or out[s]
                flat = call.classifier.flat
                if s in offered and err is None and np.isfinite(flat).all():
                    offered[s][0].recall(offered[s][1], lambda _: (
                        flat.copy(), call.classifier.adam,
                        call.rng.bit_generator.state), None)
    if isinstance(classifier, Stack):
        return Stack(out)
    if isinstance(out[0], Exception):
        raise out[0]
    return classifier


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
