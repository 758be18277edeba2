import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osifl.datagen import Batch, build_world, draw_base_pool, \
    draw_client_shards, make_task_suite, CLASS_INCREMENTAL
from osifl.encoder import (ClientMessage, FrozenEncoder,
                           build_client_message, class_mean_embeddings,
                           make_encoder, pair_mean_embeddings,
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
    means, counts = class_mean_embeddings(enc, samples)
    assert list(means) == [2, 5]
    assert all(type(k) is int for k in list(means) + list(counts))
    assert np.allclose(means[5], enc.encode(samples.x[0]), atol=1e-15)
    assert counts == {2: 1, 5: 1}


def test_class_means_identical_samples():
    enc = make_encoder(4, 2, 1)
    x = np.array([0.4, 0.9])
    samples = Batch(np.stack([x, x.copy()]), [0, 0], [0, 0])
    means, _ = class_mean_embeddings(enc, samples)
    assert np.allclose(means[0], enc.encode(x), atol=1e-15)


def test_class_means_match_bruteforce_sum():
    # Independent accumulation order: one-at-a-time Python sum over
    # single-sample encodes, divided by the count.
    world = build_world(4, 2, 1, 0.5, 3)
    suite = make_task_suite(world, CLASS_INCREMENTAL, 1, 2)
    shards, _ = draw_client_shards(world, suite, 1, 50, 1, 5)
    enc = make_encoder(8, 4, 9)
    means, counts = class_mean_embeddings(enc, shards[0].samples)
    for k in means:
        total = np.zeros(8)
        n = 0
        for x, y in zip(shards[0].samples.x, shards[0].samples.y):
            if y == k:
                total = total + enc.encode(x)
                n += 1
        assert n == counts[k] == 50
        brute = total / n
        rel = np.abs(means[k] - brute) / np.maximum(np.abs(brute), 1e-300)
        assert rel.max() < 1e-12


def test_class_means_reject_empty():
    enc = make_encoder(4, 2, 1)
    with pytest.raises(ProtocolError):
        class_mean_embeddings(enc, Batch(np.empty((0, 2)), [], []))


def test_pair_means_keyed_by_class_and_domain():
    enc = make_encoder(4, 2, 1)
    samples = Batch(np.array([[0.1, 0.2], [0.3, 0.1]]), [0, 0], [0, 1])
    table = pair_mean_embeddings(enc, samples)
    assert set(table) == {(0, 0), (0, 1)}
    assert all(type(k) is int and type(d) is int for k, d in table)
    assert np.allclose(table[(0, 0)], enc.encode(samples.x[0]))


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
    means, counts = class_mean_embeddings(enc, pool)
    by_class = _grouped_by_row(pool, lambda i: int(pool.y[i]))
    assert list(means) == list(by_class)
    for k, xs in by_class.items():
        assert np.array_equal(means[k], enc.encode_batch(xs).mean(axis=0))
        assert counts[k] == len(xs)
    table = pair_mean_embeddings(enc, pool)
    by_pair = _grouped_by_row(
        pool, lambda i: (int(pool.y[i]), int(pool.domain[i])))
    assert list(table) == list(by_pair)
    for pair, xs in by_pair.items():
        assert np.array_equal(table[pair],
                              enc.encode_batch(xs).mean(axis=0))


def test_upload_float_accounting():
    means = {k: np.zeros(512) for k in range(10)}
    msg = ClientMessage(client_id=0, task_id=1, class_means=means,
                        class_counts={k: 1 for k in range(10)})
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
    means = {3: rng.normal(size=6), 7: rng.normal(size=6)}
    msg = ClientMessage(client_id=11, task_id=4, class_means=means,
                        class_counts={3: 50, 7: 49})
    back = parse_message(serialize_message(msg))
    assert back.client_id == 11 and back.task_id == 4
    assert list(back.class_means) == [3, 7]
    assert back.class_counts == {3: 50, 7: 49}
    for k in means:
        assert np.array_equal(back.class_means[k], means[k])


def test_message_wire_size():
    means = {k: np.zeros(16) for k in range(5)}
    msg = ClientMessage(client_id=0, task_id=1, class_means=means,
                        class_counts={k: 1 for k in range(5)})
    blob = serialize_message(msg)
    assert len(blob) == 16 + 5 * (8 + 16 * 8)


def test_parse_rejects_corrupt_blobs():
    means = {0: np.zeros(4)}
    msg = ClientMessage(client_id=0, task_id=1, class_means=means,
                        class_counts={0: 1})
    blob = serialize_message(msg)
    with pytest.raises(ProtocolError):
        parse_message(blob[:10])
    with pytest.raises(ProtocolError):
        parse_message(blob + b"\x00")


def test_serialize_rejects_empty_message():
    msg = ClientMessage(client_id=0, task_id=1, class_means={},
                        class_counts={})
    with pytest.raises(ProtocolError):
        serialize_message(msg)


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(1, 32), n_classes=st.integers(1, 8),
       seed=st.integers(0, 2**31 - 1))
def test_message_roundtrip_property(dim, n_classes, seed):
    rng = np.random.default_rng(seed)
    ids = sorted(rng.choice(1000, size=n_classes, replace=False).tolist())
    means = {int(k): rng.normal(size=dim) for k in ids}
    counts = {int(k): int(rng.integers(1, 100)) for k in ids}
    msg = ClientMessage(client_id=int(rng.integers(1000)),
                        task_id=int(rng.integers(100)),
                        class_means=means, class_counts=counts)
    back = parse_message(serialize_message(msg))
    assert back.class_counts == counts
    assert all(np.array_equal(back.class_means[k], means[k]) for k in ids)
