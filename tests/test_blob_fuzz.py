"""Every binary format either reads back a blob exactly or rejects it.

A truncated, extended or byte-flipped blob must raise ProtocolError, or
load into an object that writes the very same bytes again. A well-formed
blob carrying a NaN or an infinity, or a noise schedule beta outside
(0, 1), raises ProtocolError too. A client message its reader would
refuse cannot be built, each checkpoint writer refuses, with
ProtocolError alone and before any file is opened, everything its reader
would refuse, and each format's bytes are pinned by their sha256.
"""
import dataclasses
import hashlib
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
    client_id=3, task_id=2, classes=np.array([4, 9]),
    counts=np.array([10, 12]), means=_RNG.normal(size=(2, 3))))

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

# The kinds an id or count array may come as, and a mean array: NumPy
# casts them without a warning from ints and floats alike.
_KINDS = st.sampled_from((np.int64, np.uint32, bool, float, complex, object,
                          str))
_MEAN_KINDS = st.sampled_from((float, complex, bool, object, str))


@settings(max_examples=300, deadline=None)
@given(client_id=_ID, task_id=_ID, dim_e=st.integers(0, 3), data=st.data())
def test_message_writer_refuses_what_the_reader_refuses(client_id, task_id,
                                                        dim_e, data):
    # Up to 3 classes, in any order and repeats allowed; as many counts
    # (one short when the last is None) and a row of dim_e floats each,
    # NaN and infinities among them; each array of a drawn dtype kind,
    # mostly the one a message takes.
    classes = data.draw(st.lists(st.tuples(
        _ID, st.none() | _ID,
        st.lists(st.floats(), min_size=dim_e, max_size=dim_e)), max_size=3))
    sent = (np.array([k for k, _, _ in classes], dtype=np.int64),
            np.array([n for _, n, _ in classes if n is not None],
                     dtype=np.int64),
            np.array([mean for _, _, mean in classes], dtype=float).reshape(
                len(classes), dim_e))
    kinds = [data.draw(st.just(np.int64) | _KINDS),
             data.draw(st.just(np.int64) | _KINDS),
             data.draw(st.just(float) | _MEAN_KINDS)]
    sent = [a.astype(kind) for a, kind in zip(sent, kinds)]
    try:
        blob = serialize_message(ClientMessage(client_id, task_id, *sent))
    except ProtocolError:
        return
    back = parse_message(blob)
    assert (back.client_id, back.task_id) == (client_id, task_id)
    for got, handed in zip((back.classes, back.counts, back.means), sent):
        assert got.tobytes() == handed.astype(got.dtype).tobytes()


_HALVES = np.array([[0.5, 0.25]])
_CLASS, _COUNT = np.array([3]), np.array([1])


@pytest.mark.parametrize("classes, counts, means, client_id", [
    (_CLASS, _COUNT, np.zeros((1, 0)), 0),
    (_CLASS, np.array([0]), _HALVES, 0),
    (_CLASS, _COUNT, np.array([[np.nan, 0.5]]), 0),
    (_CLASS, np.array([-1]), _HALVES, 0),
    (np.array([-3]), _COUNT, _HALVES, 0),
    (_CLASS, _COUNT, _HALVES, 2**32),
    (np.array([3, 4]), np.array([1, 1]), _HALVES, 0),
    (_CLASS, np.zeros(0, dtype=int), _HALVES, 0),
    (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros((0, 2)), 0),
    (_CLASS, _COUNT, _HALVES, True),
    (_CLASS, _COUNT, np.float64(0.5), 0),
    (_CLASS, _COUNT, _HALVES[0], 0),
    (_CLASS, _COUNT, _HALVES[None], 0),
    (_CLASS, _COUNT, _HALVES.astype(complex), 0),
    (_CLASS, _COUNT, _HALVES > 0.3, 0),
    (_CLASS, _COUNT, _HALVES.astype(object), 0),
    (_CLASS, _COUNT, _HALVES.astype(str), 0),
    (np.array([True]), _COUNT, _HALVES, 0),
    (np.array([3.0]), _COUNT, _HALVES, 0),
    (np.array([[3]]), _COUNT, _HALVES, 0),
    (_CLASS, np.array([True]), _HALVES, 0),
    (_CLASS, np.array([1.0]), _HALVES, 0),
    (_CLASS, np.array([[1]]), _HALVES, 0),
    (np.array([3.5]), _COUNT, _HALVES, 0),
    (np.array([np.nan]), _COUNT, _HALVES, 0),
    (np.array([np.inf]), _COUNT, _HALVES, 0),
    (np.array([1e20]), _COUNT, _HALVES, 0),
], ids=["empty_mean", "zero_count", "nan_mean", "negative_count",
        "negative_class", "client_beyond_u32", "mixed_lengths", "no_count",
        "no_class", "client_true", "means_0d", "means_1d", "means_3d",
        "means_complex", "means_bool", "means_object", "means_str",
        "classes_bool", "classes_float", "classes_2d", "counts_bool",
        "counts_float", "counts_2d", "class_3.5", "class_nan", "class_inf",
        "class_1e20"])
def test_message_writer_refuses_a_message_the_reader_would(classes, counts,
                                                           means, client_id):
    # No such message exists: construction refuses it. `mixed_lengths` has
    # two classes and one mean row; `no_count` one class and no count.
    with pytest.raises(ProtocolError):
        ClientMessage(client_id, 1, classes, counts, means)


def test_a_message_with_no_class_has_no_width_or_upload_size():
    # Such a message is refused at construction, so none has either.
    with pytest.raises(ProtocolError, match="covers no class"):
        ClientMessage(0, 1, np.zeros(0, dtype=int), np.zeros(0, dtype=int),
                      np.zeros((0, 3)))


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


def _refused_or_read_back(save, load, obj, path):
    """Save `obj` to a fresh `path`: a refusal leaves no file there, and
    anything written loads back."""
    if os.path.exists(path):
        os.remove(path)
    try:
        save(obj, path)
    except ProtocolError:
        assert not os.path.exists(path)
        return None
    return load(path)


_FLOAT_AT = st.tuples(st.integers(0, 2**16), st.floats())


@settings(max_examples=300, deadline=None)
@given(classes=st.lists(_ID, max_size=3, unique=True), data=st.data())
def test_head_writer_refuses_what_the_reader_refuses(scratch, classes, data):
    # Any class ids, and parameters with NaN and infinities among them.
    clf = Classifier(_ENCODER, classes=classes)
    clf.flat[...] = data.draw(st.lists(st.floats(), min_size=clf.flat.size,
                                       max_size=clf.flat.size))
    back = _refused_or_read_back(save_head, lambda p: load_head(p, _ENCODER),
                                 clf, os.path.join(scratch, "drawn_head.bin"))
    if back is not None:
        assert back.classes == classes
        assert back.flat.tobytes() == clf.flat.tobytes()


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(_FLOAT_AT, max_size=3))
def test_model_writer_refuses_what_the_reader_refuses(scratch, edits):
    # The fixed model with up to 3 of its betas and weights replaced by any
    # float, NaN, infinities and betas outside (0, 1) among them.
    values = np.concatenate([_MODEL.schedule.betas, _MODEL.denoiser.flat])
    for at, value in edits:
        values[at % values.size] = value
    steps = _MODEL.schedule.num_steps
    model = dataclasses.replace(
        _MODEL, schedule=dataclasses.replace(_MODEL.schedule,
                                             betas=values[:steps]),
        denoiser=dataclasses.replace(_MODEL.denoiser, flat=values[steps:]))
    back = _refused_or_read_back(save_model, load_model, model,
                                 os.path.join(scratch, "drawn_model.bin"))
    if back is not None:
        assert back.schedule.betas.tobytes() == values[:steps].tobytes()
        assert back.denoiser.flat.tobytes() == values[steps:].tobytes()


def _nan_weight_head():
    clf = _HEAD.copy()
    clf.weights[1, 2] = np.nan
    return clf


def _inf_weight_model():
    flat = _MODEL.denoiser.flat.copy()
    flat[5] = np.inf
    return dataclasses.replace(
        _MODEL, denoiser=dataclasses.replace(_MODEL.denoiser, flat=flat))


@pytest.mark.parametrize("save, make, match", [
    (save_head, _nan_weight_head, "non-finite"),
    (save_model, _inf_weight_model, "non-finite"),
    (save_head, lambda: Classifier(_ENCODER, classes=[2**32]), "head check"),
    (save_head, lambda: Classifier(_ENCODER, classes=[-1]), "head check"),
], ids=["nan_head_weight", "inf_denoiser_weight", "class_2_32", "class_-1"])
def test_checkpoint_writer_refuses_and_writes_no_file(scratch, save, make,
                                                      match):
    path = os.path.join(scratch, "refused.bin")
    with pytest.raises(ProtocolError, match=match):
        save(make(), path)
    assert not os.path.exists(path)


def test_load_head_names_the_checkpoint_of_a_foreign_dim_e(scratch):
    path = os.path.join(scratch, "head.bin")
    save_head(_HEAD, path)
    with pytest.raises(ProtocolError, match=re.escape(
            f"head checkpoint {path} has dim_e 3, not the encoder's 4")):
        load_head(path, make_encoder(4, 2, 1))


# The sha256 of each fixed object's bytes: a writer change that moves a
# format fails here, which no CSV digest can show.
@pytest.mark.parametrize("write, digest", [
    (lambda _: _MESSAGE,
     "0487c5fa1f786d6d244d50cb98c7003ac09d8fde45cc832c7e57c5f0699d9b38"),
    (lambda path: _file_codec(path, None, save_head)[1](_HEAD),
     "0b113e37825572b7e5e57b8662c965406e15e27965612e54d93d570d1d41ea59"),
    (lambda path: _file_codec(path, None, save_model)[1](_MODEL),
     "8b7ad76376f04194887bfc748cac2bb8bc8cea5798255e2490c5366ff617eecc"),
], ids=["message", "head", "model"])
def test_each_format_keeps_its_bytes(scratch, write, digest):
    blob = write(os.path.join(scratch, "pinned.bin"))
    assert hashlib.sha256(blob).hexdigest() == digest
