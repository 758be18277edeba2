"""Selective sample retention: score, select, remember.

A sample's importance is the Euclidean norm of the cross-entropy
gradient over all head parameters, measured at a caller-chosen
parameter snapshot. The top-p per (task, class) survive into an
append-only exemplar memory and are never re-scored or re-selected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import Batch
from .errors import ConfigError, ProtocolError
from .trainer import Classifier, ce_loss_and_grads, softmax


@dataclass(frozen=True, eq=False)
class Exemplars:
    """One class's kept rows, in candidate order, and their scores."""

    x: np.ndarray  # (n, dim_x)
    score: np.ndarray  # (n,)

    def __len__(self) -> int:
        return len(self.score)


def importance_score(classifier: Classifier, x: np.ndarray, y: int) -> float:
    """Gradient norm of the single-sample CE loss at the current head.

    The head gradient is outer(p - onehot, e) for the weights and
    (p - onehot) for the bias, so its norm factorizes as
    ||p - onehot|| * sqrt(||e||^2 + 1).
    """
    if y not in classifier.class_index:
        raise ProtocolError(f"class {y} is not registered in the head")
    emb = classifier.encoder.encode(x)
    probs = softmax((classifier.weights @ emb
                     + classifier.bias)[None, :])[0]
    delta = probs.copy()
    delta[classifier.class_index[y]] -= 1.0
    return float(np.linalg.norm(delta) * np.sqrt(1.0 + emb @ emb))


def sample_loss(classifier: Classifier, x: np.ndarray, y: int) -> float:
    """Per-sample CE loss, the ablation alternative to the gradient norm."""
    loss, _ = ce_loss_and_grads(classifier, Batch(x[None, :], [y], [-1]))
    return loss


def top_p_indices(scores, p: int) -> list[int]:
    """Indices of the p largest scores; ties keep the lower index.

    Equivalent to the exhaustive argmax over all size-p subsets of the
    summed score, with ties resolved toward the lexicographically
    smallest index tuple.
    """
    if p < 0:
        raise ConfigError(f"p must be >= 0, got {p}")
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(order[:min(p, len(scores))])


def select_exemplars(classifier: Classifier, candidates: Batch, p: int,
                     score_by: str = "grad_norm") -> Exemplars:
    """Score one class's candidates row by row and keep the top p."""
    if score_by == "grad_norm":
        scorer = importance_score
    elif score_by == "loss":
        scorer = sample_loss
    else:
        raise ConfigError(f"unknown score_by {score_by!r}")
    scores = [scorer(classifier, x, y)
              for x, y in zip(candidates.x, candidates.y.tolist())]
    keep = top_p_indices(scores, p)
    return Exemplars(x=candidates.x[keep], score=np.array(scores)[keep])


class ExemplarMemory:
    """Append-only store of retained samples, keyed task -> class.

    Stored rows and scores are defensive read-only copies; a task can be
    written once and its sets are replayed in arrival order forever.
    """

    def __init__(self, p: int):
        if p < 0:
            raise ConfigError(f"p must be >= 0, got {p}")
        self.p = p
        self._store: dict[int, dict[int, Exemplars]] = {}

    @property
    def task_ids(self) -> list[int]:
        return list(self._store)

    @property
    def size(self) -> int:
        return sum(len(lst) for per_class in self._store.values()
                   for lst in per_class.values())

    def add_task(self, task_id: int, per_class: dict[int, Exemplars]) -> None:
        if task_id in self._store:
            raise ProtocolError(f"task {task_id} is already remembered")
        frozen: dict[int, Exemplars] = {}
        for k in sorted(per_class):
            chosen = per_class[k]
            if len(chosen) > self.p:
                raise ProtocolError(
                    f"{len(chosen)} exemplars for class {k} exceed p={self.p}")
            frozen[k] = Exemplars(x=chosen.x.copy(), score=chosen.score.copy())
            for column in (frozen[k].x, frozen[k].score):
                column.flags.writeable = False
        self._store[task_id] = frozen

    def replay_sets(self, current_task: int | None = None) -> list[Batch]:
        """One batch per remembered task, oldest first, classes ascending;
        none for the task being learned or a task that kept nothing."""
        sets = []
        for task_id, per_class in self._store.items():
            classes = sorted(per_class)
            counts = [len(per_class[k]) for k in classes]
            if task_id == current_task or not sum(counts):
                continue
            sets.append(Batch(
                np.concatenate([per_class[k].x for k in classes]),
                np.repeat(classes, counts), np.full(sum(counts), -1),
                task_id))
        return sets

    def dump_text(self) -> str:
        """Human-readable table: task, class, slot, score, vector."""
        lines = ["task\tclass\tslot\tscore\tvector"]
        for task_id, per_class in self._store.items():
            for k in sorted(per_class):
                rows = zip(per_class[k].x, per_class[k].score.tolist())
                for slot, (x, score) in enumerate(rows):
                    vec = " ".join(repr(float(v)) for v in x)
                    lines.append(f"{task_id}\t{k}\t{slot}\t{score!r}\t{vec}")
        return "\n".join(lines) + "\n"
