"""Selective sample retention: score, select, remember.

A sample's importance is the Euclidean norm of the cross-entropy
gradient over all head parameters (or, as an ablation, the loss
itself), measured at a caller-chosen parameter snapshot. The top-p per
(task, class) survive into an append-only exemplar memory and are never
re-scored or re-selected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import Batch
from .errors import ConfigError, ProtocolError
from .trainer import Classifier, head_pass, rows_for


@dataclass(frozen=True, eq=False)
class Exemplars:
    """One class's kept rows, in candidate order, and their scores."""

    x: np.ndarray  # (n, dim_x)
    score: np.ndarray  # (n,)

    def __len__(self) -> int:
        return len(self.score)


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
    """Score one class's candidates in one head pass and keep the top p.

    "loss" scores a row by its cross-entropy. "grad_norm" scores it by
    the norm of that loss's gradient over all head parameters: the
    gradient is outer(p - onehot, e) for the weights and p - onehot for
    the bias, so its norm factorizes as ||p - onehot|| * sqrt(||e||^2 + 1).
    """
    if score_by not in ("grad_norm", "loss"):
        raise ConfigError(f"unknown score_by {score_by!r}")
    emb = classifier.encoder.encode_batch(candidates.x)
    nll, delta = head_pass(classifier.weights, classifier.bias, emb,
                           rows_for(classifier, candidates.y))
    if score_by == "loss":
        scores = nll
    else:
        scores = np.linalg.norm(delta, axis=1) \
            * np.sqrt(1.0 + (emb * emb).sum(axis=1))
    keep = top_p_indices(scores.tolist(), p)
    return Exemplars(x=candidates.x[keep], score=scores[keep])


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
