"""Communication and compute accounting.

Uploads are counted in floats, compute in multiply-adds. The closed
forms below, and the denoiser's in `diffusion`, state each bill once:
the runs charge them, and the grid's plan prices its units with them.
"""
from __future__ import annotations

from dataclasses import dataclass, field


def head_forward_madds(batch: int, n_classes: int, dim_e: int) -> int:
    """Logits for a batch: batch * (C * E multiplies + C bias adds)."""
    return batch * (n_classes * dim_e + n_classes)


def head_backward_madds(batch: int, n_classes: int, dim_e: int) -> int:
    """Head gradient accumulation mirrors the forward contraction."""
    return batch * (n_classes * dim_e + n_classes)


def softmax_madds(batch: int, n_classes: int) -> int:
    """One exponential and one normalizing multiply per logit."""
    return 2 * batch * n_classes


def encoder_forward_madds(batch: int, dim_e: int, dim_x: int) -> int:
    """Affine map plus bias add plus one tanh per output unit."""
    return batch * (dim_e * dim_x + 2 * dim_e)


def training_madds(rows: int, epochs: int, n_classes: int, dim_e: int,
                   dim_x: int) -> dict[str, int]:
    """A head's training call on `rows` rows for `epochs` epochs, by kind:
    an encode per row, and a head forward, softmax and backward per row
    and epoch, which equals the sum over the minibatch steps."""
    seen = epochs * rows
    return {"train_encoder": encoder_forward_madds(rows, dim_e, dim_x),
            "train_head_forward": head_forward_madds(seen, n_classes, dim_e),
            "train_softmax": softmax_madds(seen, n_classes),
            "train_head_backward": head_backward_madds(seen, n_classes, dim_e)}


@dataclass
class CommsLedger:
    """Floats uploaded per client. One record call is one message."""

    floats_by_client: dict[int, int] = field(default_factory=dict)
    messages_by_client: dict[int, int] = field(default_factory=dict)

    def record_upload(self, client_id: int, floats: int) -> None:
        if floats < 0:
            raise ValueError(f"upload size must be >= 0, got {floats}")
        self.floats_by_client[client_id] = \
            self.floats_by_client.get(client_id, 0) + int(floats)
        self.messages_by_client[client_id] = \
            self.messages_by_client.get(client_id, 0) + 1

    @property
    def total_floats(self) -> int:
        return sum(self.floats_by_client.values())


@dataclass
class ComputeLedger:
    """Exact multiply-add counts keyed by operation kind."""

    madds_by_kind: dict[str, int] = field(default_factory=dict)

    def add(self, kind: str, madds: int) -> None:
        if madds < 0:
            raise ValueError(f"multiply-add count must be >= 0, got {madds}")
        if madds == 0:
            return
        self.madds_by_kind[kind] = self.madds_by_kind.get(kind, 0) \
            + int(madds)

    @property
    def total(self) -> int:
        return sum(self.madds_by_kind.values())
