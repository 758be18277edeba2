"""Every binary format either reads back a blob exactly or rejects it.

A truncated, extended or byte-flipped blob must raise ProtocolError, or
load into an object that writes the very same bytes again. A well-formed
blob carrying a NaN or an infinity, or a noise schedule beta outside
(0, 1), raises ProtocolError too. The message writer refuses, with
ProtocolError alone, every message whose blob the reader would refuse.
"""
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osifl.diffusion import DiffusionModel, _flat_size, _param_shapes, \
    load_model, make_denoiser, make_schedule, save_model
from osifl.encoder import ClientMessage, make_encoder, parse_message, \
    serialize_message
from osifl.errors import ProtocolError
from osifl.trainer import Classifier, load_head, save_head


def _mutations(blob: bytes, header_size: int):
    """Truncated, extended and byte-flipped copies of `blob`; half the
    flips land in the header, where the sizes and tags live."""
    def flip(at_and_mask):
        at, mask = at_and_mask
        return blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:]

    at = st.one_of(st.integers(0, header_size - 1),
                   st.integers(0, len(blob) - 1))
    return st.one_of(
        st.integers(0, len(blob) - 1).map(lambda n: blob[:n]),
        st.binary(min_size=1, max_size=24).map(lambda tail: blob + tail),
        st.tuples(at, st.integers(1, 255)).map(flip))


def _reads_back_or_rejects(load, save, blob: bytes) -> None:
    try:
        obj = load(blob)
    except ProtocolError:
        return
    assert save(obj) == blob


def _file_codec(path, load_path, save_path):
    """Blob-level load and save around functions that take a path."""
    def load(blob):
        with open(path, "wb") as fh:
            fh.write(blob)
        return load_path(path)

    def save(obj):
        save_path(obj, path)
        with open(path, "rb") as fh:
            return fh.read()
    return load, save


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


_RNG = np.random.default_rng(5)
_MESSAGE = serialize_message(ClientMessage(
    client_id=3, task_id=2,
    class_means={4: _RNG.normal(size=3), 9: _RNG.normal(size=3)},
    class_counts={4: 10, 9: 12}))

_ENCODER = make_encoder(3, 2, 1)
_HEAD = Classifier(_ENCODER, classes=(5, 1))
_HEAD.weights[...] = _RNG.normal(size=(2, 3))
_HEAD.bias[...] = _RNG.normal(size=2)

_MODEL = DiffusionModel(schedule=make_schedule(3, 0.01, 0.2),
                        denoiser=make_denoiser(2, 2, 3, 2, 7), trained=True)


@settings(max_examples=300, deadline=None)
@given(blob=_mutations(_MESSAGE, 16))
def test_message_blob_fuzz(blob):
    _reads_back_or_rejects(parse_message, serialize_message, blob)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_head_checkpoint_fuzz(scratch, data):
    load, save = _file_codec(os.path.join(scratch, "head.bin"),
                             lambda p: load_head(p, _ENCODER), save_head)
    _reads_back_or_rejects(load, save, data.draw(_mutations(save(_HEAD), 16)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_model_checkpoint_fuzz(scratch, data):
    load, save = _file_codec(os.path.join(scratch, "model.bin"),
                             load_model, save_model)
    _reads_back_or_rejects(load, save,
                           data.draw(_mutations(save(_MODEL), 28)))


def _with_float(blob: bytes, at: int, value: float) -> bytes:
    """`blob` with the float64 at byte offset `at` replaced by `value`."""
    return blob[:at] + struct.pack("<d", value) + blob[at + 8:]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_message_blob_rejects_non_finite_means(value):
    # Header 16 bytes, class 4's id and count, then its 3 mean entries:
    # this replaces the second.
    blob = _with_float(_MESSAGE, 16 + 8 + 8, value)
    with pytest.raises(ProtocolError, match="non-finite"):
        parse_message(blob)


@pytest.mark.parametrize("dim_e, count, match", [
    (0, 7, "dim_e 0"), (1, 0, "class 3 no samples")])
def test_message_blob_rejects_an_empty_mean_or_class(dim_e, count, match):
    # Header (client 0, task 1, dim_e, 1 class), then class 3 of `count`
    # samples with its dim_e mean entries.
    blob = struct.pack("<IIII", 0, 1, dim_e, 1) \
        + struct.pack(f"<II{dim_e}d", 3, count, *[0.5] * dim_e)
    with pytest.raises(ProtocolError, match=match):
        parse_message(blob)


_ID = st.integers(-1, 2**32)


@settings(max_examples=300, deadline=None)
@given(client_id=_ID, task_id=_ID, classes=st.dictionaries(
    _ID, st.tuples(st.none() | _ID, st.lists(st.floats(), max_size=3)),
    max_size=3))
def test_message_writer_refuses_what_the_reader_refuses(client_id, task_id,
                                                        classes):
    # Each class: a count (None for no count) and a mean of 0-3 floats,
    # NaN and infinities among them.
    msg = ClientMessage(
        client_id, task_id,
        {k: np.array(mean, dtype=float) for k, (_, mean) in classes.items()},
        {k: n for k, (n, _) in classes.items() if n is not None})
    try:
        blob = serialize_message(msg)
    except ProtocolError:
        return
    back = parse_message(blob)
    assert (back.client_id, back.task_id, back.class_counts) == \
        (client_id, task_id, msg.class_counts)
    assert back.class_means.keys() == msg.class_means.keys()
    for k, mean in msg.class_means.items():
        assert back.class_means[k].tobytes() == mean.tobytes()


_HALVES = np.array([0.5, 0.25])


@pytest.mark.parametrize("means, counts, client_id", [
    ({3: np.zeros(0)}, {3: 1}, 0),
    ({3: _HALVES}, {3: 0}, 0),
    ({3: np.array([np.nan, 0.5])}, {3: 1}, 0),
    ({3: _HALVES}, {3: -1}, 0),
    ({-3: _HALVES}, {-3: 1}, 0),
    ({3: _HALVES}, {3: 1}, 2**32),
    ({3: _HALVES, 4: np.zeros(3)}, {3: 1, 4: 1}, 0),
    ({3: _HALVES}, {}, 0),
], ids=["empty_mean", "zero_count", "nan_mean", "negative_count",
        "negative_class", "client_beyond_u32", "mixed_lengths", "no_count"])
def test_message_writer_refuses_a_message_the_reader_would(means, counts,
                                                           client_id):
    with pytest.raises(ProtocolError):
        serialize_message(ClientMessage(client_id, 1, means, counts))


def test_a_message_with_no_class_has_no_width_or_upload_size():
    msg = ClientMessage(0, 1, {}, {})
    for read in (lambda: msg.dim_e, lambda: msg.upload_floats,
                 lambda: serialize_message(msg)):
        with pytest.raises(ProtocolError, match="covers no class"):
            read()


@pytest.mark.parametrize("at", [0, 7])
def test_head_checkpoint_rejects_non_finite_values(scratch, at):
    # Header 16 bytes and two class ids, then 6 weights and 2 biases:
    # float `at` is the first weight at 0 and the last bias at 7.
    load, save = _file_codec(os.path.join(scratch, "head.bin"),
                             lambda p: load_head(p, _ENCODER), save_head)
    with pytest.raises(ProtocolError, match="non-finite"):
        load(_with_float(save(_HEAD), 16 + 8 + 8 * at, np.nan))


@pytest.mark.parametrize("at, value, match", [
    (0, np.nan, "non-finite"),
    (1, 1.5, r"beta must lie in \(0, 1\)"),
    (2, 0.0, r"beta must lie in \(0, 1\)"),
    (2, 1e-17, r"with 1 - beta < 1"),
    (3, np.inf, "non-finite"),
])
def test_model_checkpoint_rejects_bad_betas_and_weights(scratch, at, value,
                                                        match):
    # Header 28 bytes, then the 3 betas, then w1: float `at` is a beta
    # for at < 3 and the first entry of w1 at 3.
    load, save = _file_codec(os.path.join(scratch, "model.bin"),
                             load_model, save_model)
    with pytest.raises(ProtocolError, match=match):
        load(_with_float(save(_MODEL), 28 + 8 * at, value))


@pytest.mark.parametrize("field", ["dim_x", "dim_cond", "num_steps",
                                   "hidden"])
def test_model_checkpoint_rejects_a_zero_dimension(scratch, field):
    # Otherwise whole: as many valid betas and weights as the header's
    # dimensions call for, so only the zero can fail it.
    dims = dict(dict(dim_x=2, dim_cond=2, num_steps=3, hidden=2),
                **{field: 0})
    size = _flat_size(_param_shapes(**dims))
    betas, weights = [0.1] * dims["num_steps"], [0.5] * size
    path = os.path.join(scratch, "zero.bin")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIIIII", b"OSDM", 1, *dims.values(), 1)
                 + struct.pack(f"<{len(betas) + size}d", *betas, *weights))
    with pytest.raises(ProtocolError, match=re.escape(
            f"model checkpoint {path} has a zero size") + rf".* {field} 0\b"):
        load_model(path)
