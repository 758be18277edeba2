"""Frozen random-feature encoder and the one-shot client upload.

The encoder is tanh(W x + b) with fixed W, b. Clients never send raw
samples: each uploads one `ClientMessage`, its mean embedding per class
(|classes| * dim_e floats). The message type holds every wire rule; the
writer only packs it, and the reader decodes the bytes, then builds it."""
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


@dataclass(frozen=True, eq=False)
class ClientMessage:
    """The single upload a client ever makes for its task: per class, in
    ascending order, its id, its sample count and its mean embedding.
    A message that exists is valid, or construction raises ProtocolError."""

    client_id: int
    task_id: int
    classes: np.ndarray  # (k,)
    counts: np.ndarray  # (k,)
    means: np.ndarray  # (k, dim_e)

    def __post_init__(self):
        classes, counts, means = self.classes, self.counts, self.means
        for name in ("client_id", "task_id"):
            value = vars(self)[name]
            if isinstance(value, bool) or not isinstance(
                    value, (int, np.integer)) or not 0 <= value < 2**32:
                raise ProtocolError(f"message {name} {value!r} is not a u32")
        for name, ids in (("classes", classes), ("counts", counts)):
            if not (isinstance(ids, np.ndarray) and ids.dtype.kind in "iu"
                    and ids.ndim == 1 and len(ids) == len(classes)
                    and ((0 <= ids) & (ids < 2**32)).all()):
                raise ProtocolError(f"message {name} is not a u32 per class")
        if not (isinstance(means, np.ndarray) and means.dtype.kind == "f"
                and np.can_cast(means.dtype, float) and means.ndim == 2
                and len(means) == len(classes)):
            raise ProtocolError("message means are not (k, dim_e) floats")
        if not len(classes):  # from here, rules a blob can break name it
            raise ProtocolError("message blob covers no class")
        if not means.shape[1]:
            raise ProtocolError("message blob has class means of dim_e 0")
        if (late := classes[1:][classes[1:] <= classes[:-1]]).size:
            raise ProtocolError(
                f"message blob lists class {late[0]} out of order")
        if not counts.all():
            raise ProtocolError(f"message blob gives class "
                                f"{classes[counts.argmin()]} no samples")
        if not np.isfinite(means).all():
            raise ProtocolError("message blob holds a non-finite value")
        for name in ("classes", "counts", "means"):
            array = vars(self)[name].astype("f8" if name == "means" else "i8")
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def dim_e(self) -> int:
        return self.means.shape[1]

    @property
    def upload_floats(self) -> int:
        return self.means.size


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
    """Summarize a shard into its one-shot upload."""
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
    """The blob; a message is valid, so every field fits the wire."""
    rows = np.rec.fromarrays([msg.classes, msg.counts, msg.means],
                             dtype=_row_dtype(msg.dim_e))
    return _HEADER.pack(msg.client_id, msg.task_id, msg.dim_e,
                        len(rows)) + rows.tobytes()


def parse_message(blob: bytes) -> ClientMessage:
    reader = BlobReader(blob, "message blob")
    client_id, task_id, dim_e, n_classes = \
        _HEADER.unpack(reader.take(_HEADER.size))
    # Lengths are checked before a row type is built, of width 0 if no row.
    rows = np.frombuffer(reader.take(n_classes * (8 + 8 * dim_e)),
                         _row_dtype(dim_e if n_classes else 0))
    reader.finish()
    return ClientMessage(client_id, task_id, rows["class"], rows["count"],
                         rows["mean"])
