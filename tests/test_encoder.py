import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osifl.datagen import Batch, build_world, draw_base_pool, \
    draw_client_shards, make_task_suite, CLASS_INCREMENTAL
from osifl.encoder import (ClientMessage, FrozenEncoder,
                           build_client_message, grouped_means, make_encoder,
                           parse_message, serialize_message)
from osifl.errors import ProtocolError


def test_encode_zero_input_gives_tanh_bias():
    enc = make_encoder(8, 4, 1)
    assert np.allclose(enc.encode(np.zeros(4)), np.tanh(enc.bias))


def test_encode_output_bounded():
    # Mathematically tanh stays strictly inside (-1, 1); in float64 it
    # saturates to exactly 1.0 beyond |x| ~ 19, so the strict form is
    # asserted at data-regime magnitudes and the closed bound always.
    enc = make_encoder(16, 8, 2)
    rng = np.random.default_rng(0)
    for scale in (1.0, 5.0, 100.0):
        e = enc.encode(rng.normal(size=8) * scale)
        assert np.all(np.abs(e) <= 1.0)
    e = enc.encode(rng.normal(size=8))
    assert np.all(np.abs(e) < 1.0)


def test_encode_hand_case_identity_weights():
    # W = I, b = 0, x = (0.5, -0.5) -> (tanh 0.5, tanh -0.5)
    enc = FrozenEncoder(dim_e=2, dim_x=2, weight=np.eye(2), bias=np.zeros(2))
    out = enc.encode(np.array([0.5, -0.5]))
    assert out[0] == pytest.approx(0.46211715726000974, abs=1e-15)
    assert out[1] == pytest.approx(-0.46211715726000974, abs=1e-15)


def test_encode_batch_matches_single():
    enc = make_encoder(6, 3, 4)
    xs = np.random.default_rng(1).normal(size=(5, 3))
    batch = enc.encode_batch(xs)
    for i in range(5):
        assert np.allclose(batch[i], enc.encode(xs[i]), atol=1e-15)


def test_encoder_deterministic_and_frozen():
    a = make_encoder(8, 4, 7)
    b = make_encoder(8, 4, 7)
    assert a.checksum() == b.checksum()
    assert np.array_equal(a.weight, b.weight)
    with pytest.raises(ValueError):
        a.weight[0, 0] = 1.0


def test_class_means_single_sample_per_class():
    enc = make_encoder(4, 2, 1)
    samples = Batch(np.array([[0.3, -0.2], [1.0, 2.0]]), [5, 2], [0, 0])
    classes, inverse, counts, means = grouped_means(enc, samples, samples.y)
    assert classes.tolist() == [2, 5] and inverse.tolist() == [1, 0]
    assert means.shape == (2, 4)
    assert np.allclose(means[1], enc.encode(samples.x[0]), atol=1e-15)
    assert counts.tolist() == [1, 1]


def test_class_means_identical_samples():
    enc = make_encoder(4, 2, 1)
    x = np.array([0.4, 0.9])
    samples = Batch(np.stack([x, x.copy()]), [0, 0], [0, 0])
    means = grouped_means(enc, samples, samples.y)[3]
    assert np.allclose(means[0], enc.encode(x), atol=1e-15)


def test_class_means_match_bruteforce_sum():
    # Independent accumulation order: one-at-a-time Python sum over
    # single-sample encodes, divided by the count.
    world = build_world(4, 2, 1, 0.5, 3)
    suite = make_task_suite(world, CLASS_INCREMENTAL, 1, 2)
    shards, _ = draw_client_shards(world, suite, 1, 50, 1, 5)
    enc = make_encoder(8, 4, 9)
    msg = build_client_message(enc, shards[0])
    for k, count, mean in zip(msg.classes, msg.counts, msg.means):
        total = np.zeros(8)
        n = 0
        for x, y in zip(shards[0].samples.x, shards[0].samples.y):
            if y == k:
                total = total + enc.encode(x)
                n += 1
        assert n == count == 50
        brute = total / n
        rel = np.abs(mean - brute) / np.maximum(np.abs(brute), 1e-300)
        assert rel.max() < 1e-12


def test_class_means_reject_empty():
    enc = make_encoder(4, 2, 1)
    empty = Batch(np.empty((0, 2)), [], [])
    with pytest.raises(ProtocolError):
        grouped_means(enc, empty, empty.y)


def test_pair_means_keyed_by_class_and_domain():
    enc = make_encoder(4, 2, 1)
    samples = Batch(np.array([[0.1, 0.2], [0.3, 0.1]]), [0, 0], [1, 0])
    pairs, inverse, counts, means = grouped_means(
        enc, samples, np.column_stack([samples.y, samples.domain]))
    assert pairs.tolist() == [[0, 0], [0, 1]] and inverse.tolist() == [1, 0]
    assert counts.tolist() == [1, 1]
    assert np.allclose(means[0], enc.encode(samples.x[1]))


def _grouped_by_row(batch, key):
    """The per-row loop the column means replace: rows appended to their
    group in row order, groups in ascending key order."""
    groups = {}
    for i, x in enumerate(batch.x):
        groups.setdefault(key(i), []).append(x)
    return {k: np.stack(groups[k]) for k in sorted(groups)}


def test_class_and_pair_means_equal_the_per_row_loop():
    world = build_world(5, 4, 3, 0.5, 2)
    pool = draw_base_pool(world, 300, 6)
    enc = make_encoder(8, 5, 1)
    for keys in (pool.y, np.column_stack([pool.y, pool.domain])):
        groups, inverse, counts, means = grouped_means(enc, pool, keys)
        by_key = _grouped_by_row(pool, lambda i: tuple(np.atleast_1d(keys[i])))
        assert [tuple(np.atleast_1d(g)) for g in groups] == list(by_key)
        assert [tuple(np.atleast_1d(groups[g])) for g in inverse] == \
            [tuple(np.atleast_1d(k)) for k in keys]
        for g, xs in enumerate(by_key.values()):
            assert np.array_equal(means[g],
                                  enc.encode_batch(xs).mean(axis=0))
            assert counts[g] == len(xs)


def _msg(client_id, task_id, classes, counts, means):
    return ClientMessage(client_id, task_id, np.array(classes, dtype=int),
                         np.array(counts, dtype=int), np.asarray(means))


def test_upload_float_accounting():
    msg = _msg(0, 1, range(10), [1] * 10, np.zeros((10, 512)))
    assert msg.upload_floats == 5120
    assert msg.dim_e == 512


def test_message_idempotent_for_same_shard():
    world = build_world(4, 2, 1, 0.5, 3)
    suite = make_task_suite(world, CLASS_INCREMENTAL, 1, 2)
    shards, _ = draw_client_shards(world, suite, 1, 5, 1, 5)
    enc = make_encoder(8, 4, 9)
    blob_a = serialize_message(build_client_message(enc, shards[0]))
    blob_b = serialize_message(build_client_message(enc, shards[0]))
    assert blob_a == blob_b


def test_message_roundtrip_bit_exact():
    rng = np.random.default_rng(2)
    means = rng.normal(size=(2, 6))
    back = parse_message(serialize_message(_msg(11, 4, [3, 7], [50, 49],
                                                means)))
    assert back.client_id == 11 and back.task_id == 4
    assert back.classes.tolist() == [3, 7]
    assert back.counts.tolist() == [50, 49]
    assert np.array_equal(back.means, means)
    assert not back.means.flags.writeable


def test_message_wire_size():
    msg = _msg(0, 1, range(5), [1] * 5, np.zeros((5, 16)))
    blob = serialize_message(msg)
    assert len(blob) == 16 + 5 * (8 + 16 * 8)


def test_parse_rejects_corrupt_blobs():
    blob = serialize_message(_msg(0, 1, [0], [1], np.zeros((1, 4))))
    with pytest.raises(ProtocolError):
        parse_message(blob[:10])
    with pytest.raises(ProtocolError):
        parse_message(blob + b"\x00")


def test_serialize_rejects_empty_message():
    with pytest.raises(ProtocolError):
        _msg(0, 1, [], [], np.zeros((0, 4)))


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(1, 32), n_classes=st.integers(1, 8),
       seed=st.integers(0, 2**31 - 1))
def test_message_roundtrip_property(dim, n_classes, seed):
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(1000, size=n_classes, replace=False))
    counts = rng.integers(1, 100, size=n_classes)
    means = rng.normal(size=(n_classes, dim))
    msg = _msg(int(rng.integers(1000)), int(rng.integers(100)), ids, counts,
               means)
    back = parse_message(serialize_message(msg))
    assert np.array_equal(back.classes, ids)
    assert np.array_equal(back.counts, counts)
    assert np.array_equal(back.means, means)
