"""Selective sample retention: score, select, remember.

A sample's importance is the Euclidean norm of the cross-entropy
gradient over all head parameters (or, as an ablation, the loss
itself), measured at a caller-chosen parameter snapshot. The top-p per
(task, class) survive into an append-only exemplar memory and are never
re-scored or re-selected.
"""
from __future__ import annotations

import numpy as np

from .datagen import Batch
from .errors import ConfigError, ProtocolError
from .ledgers import training_madds
from .trainer import Classifier, head_pass, rows_for


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


def exemplar_scores(classifier: Classifier, batch: Batch,
                    score_by: str = "grad_norm") -> np.ndarray:
    """Each row's importance, from one encode and one head pass.

    "loss" scores a row by its cross-entropy. "grad_norm" scores it by
    the norm of that loss's gradient over all head parameters: the
    gradient is outer(p - onehot, e) for the weights and p - onehot for
    the bias, so its norm factorizes as ||p - onehot|| * sqrt(||e||^2 + 1).
    """
    if score_by not in ("grad_norm", "loss"):
        raise ConfigError(f"unknown score_by {score_by!r}")
    emb = classifier.encoder.encode_batch(batch.x)
    nll, delta = head_pass(classifier.weights, classifier.bias, emb,
                           rows_for(classifier, batch.y))
    if score_by == "loss":
        return nll
    return np.linalg.norm(delta, axis=1) \
        * np.sqrt(1.0 + (emb * emb).sum(axis=1))


def select_exemplars(classifier: Classifier, candidates: Batch, p: int,
                     score_by: str = "grad_norm", ledger=None) -> Batch:
    """The top p candidates of each class, as one read-only batch with
    classes ascending and candidate order kept within a class. Each
    class's rows are scored together by `exemplar_scores`, and billed
    to `ledger`, if any, as one epoch of training on them costs."""
    if p < 0:
        raise ConfigError(f"p must be >= 0, got {p}")
    keep = []
    for k in sorted(set(candidates.y.tolist())):
        rows = np.flatnonzero(candidates.y == k)
        scores = exemplar_scores(classifier, Batch(
            candidates.x[rows], candidates.y[rows], candidates.domain[rows]),
            score_by)
        keep += rows[top_p_indices(scores.tolist(), p)].tolist()
    if ledger is not None:
        ledger.add("exemplar_scoring", sum(training_madds(
            len(candidates), 1, classifier.num_classes,
            *classifier.encoder.weight.shape).values()))
    return Batch(candidates.x[keep], candidates.y[keep],
                 candidates.domain[keep], candidates.task)


class ExemplarMemory:
    """Append-only store of retained samples: one batch per task.

    A task's batch is a defensive read-only copy; it can be written once
    and is replayed in arrival order forever.
    """

    def __init__(self, p: int):
        if p < 0:
            raise ConfigError(f"p must be >= 0, got {p}")
        self.p = p
        self._store: dict[int, Batch] = {}

    @property
    def size(self) -> int:
        return sum(map(len, self._store.values()))

    def add_task(self, task_id: int, kept: Batch) -> None:
        if task_id in self._store:
            raise ProtocolError(f"task {task_id} is already remembered")
        labels = kept.y.tolist()
        for k in sorted(set(labels)):
            if labels.count(k) > self.p:
                raise ProtocolError(f"{labels.count(k)} exemplars for "
                                    f"class {k} exceed p={self.p}")
        self._store[task_id] = Batch(kept.x.copy(), kept.y.copy(),
                                     kept.domain.copy(), task_id)

    def replay_sets(self, current_task: int | None = None) -> list[Batch]:
        """The stored batch of each remembered task, oldest first; none
        for the task being learned or a task that kept nothing."""
        return [kept for task_id, kept in self._store.items()
                if task_id != current_task and kept]
