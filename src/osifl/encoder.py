"""Frozen random-feature encoder and the one-shot client upload.

The encoder is tanh(W x + b) with fixed W, b. Clients never send raw
samples; each one uploads a single message holding the mean embedding
per class of its shard, so the upload costs |classes| * dim_e floats.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .datagen import Batch
from .errors import ProtocolError
from .rng import stream


@dataclass(frozen=True, eq=False)
class FrozenEncoder:
    dim_e: int
    dim_x: int
    weight: np.ndarray  # (dim_e, dim_x)
    bias: np.ndarray  # (dim_e,)

    def encode(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim_x,):
            raise ValueError(
                f"expected input of shape ({self.dim_x},), got {x.shape}")
        return np.tanh(self.weight @ x + self.bias)

    def encode_batch(self, xs: np.ndarray, out: np.ndarray | None = None
                     ) -> np.ndarray:
        """The embeddings of a batch, written into `out` if one is given."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim_x:
            raise ValueError(
                f"expected batch of shape (n, {self.dim_x}), got {xs.shape}")
        out = np.matmul(xs, self.weight.T, out=out)
        out += self.bias
        return np.tanh(out, out=out)

    def checksum(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.weight).tobytes())
        h.update(np.ascontiguousarray(self.bias).tobytes())
        return h.hexdigest()


def make_encoder(dim_e: int, dim_x: int, seed: int) -> FrozenEncoder:
    """Build the shared frozen encoder for a run. Same seed, same encoder."""
    if dim_e < 1 or dim_x < 1:
        raise ValueError(f"bad encoder dims dim_e={dim_e} dim_x={dim_x}")
    w = stream(seed, "encoder", "weight").standard_normal(
        (dim_e, dim_x)) / np.sqrt(dim_x)
    b = 0.1 * stream(seed, "encoder", "bias").standard_normal(dim_e)
    w.flags.writeable = False
    b.flags.writeable = False
    return FrozenEncoder(dim_e=dim_e, dim_x=dim_x, weight=w, bias=b)


@dataclass(eq=False)
class ClientMessage:
    """The single upload a client ever makes for its task."""

    client_id: int
    task_id: int
    class_means: dict[int, np.ndarray]
    class_counts: dict[int, int]

    @property
    def dim_e(self) -> int:
        if not self.class_means:
            raise ProtocolError("message covers no class")
        return int(next(iter(self.class_means.values())).shape[0])

    @property
    def upload_floats(self) -> int:
        return len(self.class_means) * self.dim_e


def class_mean_embeddings(encoder: FrozenEncoder, batch: Batch
                          ) -> tuple[dict[int, np.ndarray], dict[int, int]]:
    """Per-class mean of the encoded samples, keyed by ascending class id."""
    if not batch:
        raise ProtocolError("cannot build class means from an empty shard")
    classes, counts = np.unique(batch.y, return_counts=True)
    means = {k: encoder.encode_batch(batch.x[batch.y == k]).mean(axis=0)
             for k in classes.tolist()}
    return means, dict(zip(classes.tolist(), counts.tolist()))


def pair_mean_embeddings(encoder: FrozenEncoder, batch: Batch
                         ) -> dict[tuple[int, int], np.ndarray]:
    """Mean embedding per (class, domain) pair, used as the conditioning
    vocabulary during generator pretraining."""
    if not batch:
        raise ProtocolError("cannot build pair means from an empty pool")
    means = {}
    for k, d in sorted(set(zip(batch.y.tolist(), batch.domain.tolist()))):
        rows = (batch.y == k) & (batch.domain == d)
        means[(k, d)] = encoder.encode_batch(batch.x[rows]).mean(axis=0)
    return means


def build_client_message(encoder: FrozenEncoder, shard) -> ClientMessage:
    """Summarize a shard into its one-shot upload. A shard with no row
    raises ProtocolError, so every message covers at least one class."""
    means, counts = class_mean_embeddings(encoder, shard.samples)
    return ClientMessage(client_id=shard.client_id, task_id=shard.task_id,
                         class_means=means, class_counts=counts)


class BlobReader:
    """Exact-length reads of a blob: any misfit raises ProtocolError."""

    def __init__(self, blob: bytes, what: str):
        self.blob, self.what, self.offset = blob, what, 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.blob):
            raise ProtocolError(f"{self.what} is truncated")
        self.offset += n
        return self.blob[self.offset - n:self.offset]

    def floats(self, count: int) -> np.ndarray:
        """The next `count` little-endian float64s, as a writable copy;
        a NaN or infinity among them raises ProtocolError."""
        values = np.frombuffer(self.take(8 * count), dtype="<f8").astype(float)
        if not np.isfinite(values).all():
            raise ProtocolError(f"{self.what} holds a non-finite value")
        return values

    def finish(self) -> None:
        if self.offset != len(self.blob):
            raise ProtocolError(
                f"{self.what} has {len(self.blob) - self.offset} stray bytes")


# Wire format, all little-endian:
#   header: client_id u32, task_id u32, dim_e u32, class_count u32
#   per class (ascending class id): class_id u32, count u32, dim_e f64
_HEADER = struct.Struct("<IIII")
_CLASS_HEAD = struct.Struct("<II")


def serialize_message(msg: ClientMessage) -> bytes:
    """The blob; ProtocolError if `parse_message` could not read it back."""
    dim_e, out = msg.dim_e, []
    try:
        for k in sorted(msg.class_means):
            vec = np.ascontiguousarray(msg.class_means[k], dtype="<f8")
            count = msg.class_counts.get(k, 0)
            if not (dim_e and vec.shape == (dim_e,)
                    and np.isfinite(vec).all() and count >= 1):
                raise ProtocolError(
                    f"refusing to serialize class {k}: its mean must be "
                    f"{dim_e} >= 1 finite floats and its count >= 1")
            out += [_CLASS_HEAD.pack(k, count), vec.tobytes()]
        head = _HEADER.pack(msg.client_id, msg.task_id, dim_e, len(out) // 2)
    except struct.error as err:
        raise ProtocolError(f"message field out of range: {err}") from None
    return head + b"".join(out)


def parse_message(blob: bytes) -> ClientMessage:
    reader = BlobReader(blob, "message blob")
    client_id, task_id, dim_e, n_classes = \
        _HEADER.unpack(reader.take(_HEADER.size))
    if n_classes == 0:
        raise ProtocolError("message blob covers no class")
    if dim_e == 0:
        raise ProtocolError("message blob has class means of dim_e 0")
    means: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for _ in range(n_classes):
        k, count = _CLASS_HEAD.unpack(reader.take(_CLASS_HEAD.size))
        if means and k <= next(reversed(means)):
            raise ProtocolError(f"message blob lists class {k} out of order")
        if count == 0:
            raise ProtocolError(f"message blob gives class {k} no samples")
        means[k] = reader.floats(dim_e)
        counts[k] = count
    reader.finish()
    return ClientMessage(client_id=client_id, task_id=task_id,
                         class_means=means, class_counts=counts)
