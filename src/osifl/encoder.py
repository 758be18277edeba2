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
    """The single upload a client ever makes for its task: per class, in
    ascending order, its id, its sample count and its mean embedding."""

    client_id: int
    task_id: int
    classes: np.ndarray  # (k,)
    counts: np.ndarray  # (k,)
    means: np.ndarray  # (k, dim_e)

    @property
    def dim_e(self) -> int:
        if not np.size(self.classes):
            raise ProtocolError("message covers no class")
        return int(np.shape(self.means)[-1])

    @property
    def upload_floats(self) -> int:
        return np.size(self.classes) * self.dim_e


def grouped_means(encoder: FrozenEncoder, batch: Batch, keys: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group the rows of `batch` by their rows of `keys`, (n,) or (n, m):
    the distinct keys in ascending order, each row's group, the rows per
    group and the mean embedding per group. A group's rows are encoded
    together, in row order."""
    if not batch:
        raise ProtocolError("cannot build mean embeddings from no rows")
    groups, inverse, counts = np.unique(keys, axis=0, return_inverse=True,
                                        return_counts=True)
    inverse = inverse.reshape(-1)  # 1-D, whatever shape NumPy returns
    means = np.stack([encoder.encode_batch(batch.x[inverse == g]).mean(axis=0)
                      for g in range(len(groups))])
    return groups, inverse, counts, means


def build_client_message(encoder: FrozenEncoder, shard) -> ClientMessage:
    """Summarize a shard into its one-shot upload. A shard with no row
    raises ProtocolError, so every message covers at least one class."""
    classes, _, counts, means = grouped_means(encoder, shard.samples,
                                              shard.samples.y)
    return ClientMessage(shard.client_id, shard.task_id, classes, counts,
                         means)


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


# Wire format, all little-endian: a header of client_id, task_id, dim_e
# and the class count, u32 each, then one `_row_dtype` row per class, in
# ascending class order.
_HEADER = struct.Struct("<IIII")


def _row_dtype(dim_e: int) -> np.dtype:
    return np.dtype([("class", "<u4"), ("count", "<u4"),
                     ("mean", "<f8", (dim_e,))])


def serialize_message(msg: ClientMessage) -> bytes:
    """The blob, which `parse_message` must read back field by field as
    sent, else ProtocolError: what the reader refuses, or a wrapped u32."""
    rows = np.empty(np.size(msg.classes), _row_dtype(msg.dim_e))
    try:
        with np.errstate(invalid="raise"):
            rows["class"], rows["count"], rows["mean"] = \
                msg.classes, msg.counts, msg.means
        blob = _HEADER.pack(msg.client_id, msg.task_id, msg.dim_e,
                            len(rows)) + rows.tobytes()
    except (ArithmeticError, TypeError, ValueError, struct.error) as err:
        raise ProtocolError(f"message does not fit the wire: {err}") from None
    if not all(map(np.array_equal, vars(parse_message(blob)).values(),
                   vars(msg).values())):
        raise ProtocolError("message blob does not read back as sent: a "
                            "field is not a u32 or not an exact float64")
    return blob


def parse_message(blob: bytes) -> ClientMessage:
    reader = BlobReader(blob, "message blob")
    client_id, task_id, dim_e, n_classes = \
        _HEADER.unpack(reader.take(_HEADER.size))
    if n_classes == 0:
        raise ProtocolError("message blob covers no class")
    if dim_e == 0:
        raise ProtocolError("message blob has class means of dim_e 0")
    # The length is checked before the row type is built for it.
    rows = np.frombuffer(reader.take(n_classes * (8 + 8 * dim_e)),
                         _row_dtype(dim_e))
    classes, counts = (rows[f].astype(np.int64) for f in ("class", "count"))
    late = np.flatnonzero(classes[1:] <= classes[:-1])
    if late.size:
        raise ProtocolError(
            f"message blob lists class {classes[late[0] + 1]} out of order")
    if not counts.all():
        raise ProtocolError(f"message blob gives class "
                            f"{classes[counts.argmin()]} no samples")
    means = rows["mean"].astype(float)
    if not np.isfinite(means).all():
        raise ProtocolError("message blob holds a non-finite value")
    reader.finish()
    return ClientMessage(client_id, task_id, classes, counts, means)
