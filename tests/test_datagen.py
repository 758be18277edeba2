import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osifl.datagen import (CLASS_INCREMENTAL, DOMAIN_INCREMENTAL, Batch,
                           build_world, draw_base_pool, draw_client_shards,
                           make_task_suite)
from osifl.errors import ConfigError, ProtocolError


def test_world_shapes_and_bounds():
    world = build_world(16, 60, 6, 0.5, 42)
    assert world.class_anchors.shape == (60, 16)
    assert world.domain_offsets.shape == (6, 16)
    assert np.all(world.class_anchors >= -4.0)
    assert np.all(world.class_anchors <= 4.0)


def test_world_deterministic_bitwise():
    a = build_world(16, 60, 6, 0.5, 42)
    b = build_world(16, 60, 6, 0.5, 42)
    assert np.array_equal(a.class_anchors, b.class_anchors)
    assert np.array_equal(a.domain_offsets, b.domain_offsets)
    c = build_world(16, 60, 6, 0.5, 43)
    assert not np.array_equal(a.class_anchors, c.class_anchors)


def test_world_arrays_frozen():
    world = build_world(4, 3, 2, 0.5, 1)
    with pytest.raises(ValueError):
        world.class_anchors[0, 0] = 99.0


def test_world_empirical_class_means():
    # Two classes, one domain: empirical class means over 10^4 draws per
    # class land within 3 standard errors of anchor_k + offset_0. The
    # draw seed is pinned; the statistic is a calibrated z-score.
    world = build_world(2, 2, 1, 0.5, 7)
    suite = make_task_suite(world, CLASS_INCREMENTAL, 1, 2)
    n = 10_000
    shards, _ = draw_client_shards(world, suite, 1, n, 1, 11)
    se = world.within_std / np.sqrt(n)
    for k in (0, 1):
        xs = shards[0].samples.x[shards[0].samples.y == k]
        assert xs.shape[0] == n
        dev = np.abs(xs.mean(axis=0) - world.cluster_mean(k, 0)) / se
        assert dev.max() <= 3.0


@pytest.mark.parametrize("bad", [
    dict(dim_x=0), dict(num_classes=1), dict(num_domains=0),
    dict(within_std=0.0), dict(within_std=-1.0)])
def test_world_rejects_bad_arguments(bad):
    kwargs = dict(dim_x=4, num_classes=3, num_domains=2, within_std=0.5,
                  seed=0)
    kwargs.update(bad)
    with pytest.raises(ConfigError):
        build_world(**kwargs)


def test_class_incremental_suite_structure():
    world = build_world(8, 60, 6, 0.5, 42)
    suite = make_task_suite(world, CLASS_INCREMENTAL, 6, 10)
    assert len(suite.tasks) == 6
    assert [t.task_id for t in suite.tasks] == [1, 2, 3, 4, 5, 6]
    sets = [set(t.classes) for t in suite.tasks]
    assert all(len(s) == 10 for s in sets)
    union = set().union(*sets)
    assert len(union) == 60
    for t in suite.tasks:
        assert t.domains == tuple(range(6))
        assert list(t.classes) == sorted(t.classes)


def test_single_task_suite():
    world = build_world(4, 4, 2, 0.5, 3)
    suite = make_task_suite(world, CLASS_INCREMENTAL, 1, 4)
    assert len(suite.tasks) == 1
    assert set(suite.tasks[0].classes) == {0, 1, 2, 3}


def test_two_task_partition_covers_all_classes():
    world = build_world(4, 4, 1, 0.5, 9)
    suite = make_task_suite(world, CLASS_INCREMENTAL, 2, 2)
    a, b = (set(t.classes) for t in suite.tasks)
    assert a | b == {0, 1, 2, 3}
    assert a & b == set()


def test_per_task_class_count_list():
    world = build_world(4, 7, 1, 0.5, 9)
    suite = make_task_suite(world, CLASS_INCREMENTAL, 3, [3, 2, 2])
    assert [len(t.classes) for t in suite.tasks] == [3, 2, 2]
    with pytest.raises(ConfigError):
        make_task_suite(world, CLASS_INCREMENTAL, 3, [3, 2])


def test_domain_incremental_suite():
    world = build_world(4, 5, 3, 0.5, 2)
    suite = make_task_suite(world, DOMAIN_INCREMENTAL, 3)
    used = [t.domains for t in suite.tasks]
    assert sorted(d for (d,) in used) == [0, 1, 2]
    for t in suite.tasks:
        assert t.classes == tuple(range(5))
    with pytest.raises(ConfigError):
        make_task_suite(world, DOMAIN_INCREMENTAL, 4)


def test_suite_rejects_overdraw_and_unknown_mode():
    world = build_world(4, 4, 2, 0.5, 3)
    with pytest.raises(ConfigError):
        make_task_suite(world, CLASS_INCREMENTAL, 3, 2)
    with pytest.raises(ConfigError):
        make_task_suite(world, "mystery", 1, 2)


@settings(max_examples=25, deadline=None)
@given(num_classes=st.integers(2, 12), num_tasks=st.integers(1, 4),
       seed=st.integers(0, 10_000))
def test_suite_partition_property(num_classes, num_tasks, seed):
    per_task = num_classes // num_tasks
    if per_task == 0:
        return
    world = build_world(2, num_classes, 1, 0.5, seed)
    suite = make_task_suite(world, CLASS_INCREMENTAL, num_tasks, per_task)
    seen: set[int] = set()
    for t in suite.tasks:
        assert not (set(t.classes) & seen)
        seen |= set(t.classes)
    assert len(seen) == per_task * num_tasks


def test_shard_layout_at_reference_scale():
    world = build_world(8, 60, 6, 0.5, 42)
    suite = make_task_suite(world, CLASS_INCREMENTAL, 6, 10)
    shards, test_sets = draw_client_shards(world, suite, 1, 50, 20, 42)
    assert len(shards) == 6
    assert [s.client_id for s in shards] == [0, 1, 2, 3, 4, 5]
    for shard, task in zip(shards, suite.tasks):
        assert shard.task_id == task.task_id
        assert len(shard.samples) == 500
        per_class = {k: int((shard.samples.y == k).sum())
                     for k in task.classes}
        assert all(v == 50 for v in per_class.values())
    assert set(test_sets) == {1, 2, 3, 4, 5, 6}
    assert all(len(v) == 200 for v in test_sets.values())


def test_shard_rejects_zero_clients():
    world = build_world(4, 4, 2, 0.5, 3)
    suite = make_task_suite(world, CLASS_INCREMENTAL, 2, 2)
    with pytest.raises(ConfigError):
        draw_client_shards(world, suite, 0, 5, 3, 1)


def test_same_task_clients_draw_distinct_samples():
    world = build_world(4, 4, 2, 0.5, 3)
    suite = make_task_suite(world, CLASS_INCREMENTAL, 1, 4)
    shards, _ = draw_client_shards(world, suite, 2, 10, 3, 5)
    xs_a = {tuple(x) for x in shards[0].samples.x}
    xs_b = {tuple(x) for x in shards[1].samples.x}
    assert not (xs_a & xs_b)


def test_test_sets_disjoint_from_shards():
    world = build_world(4, 4, 2, 0.5, 3)
    suite = make_task_suite(world, CLASS_INCREMENTAL, 2, 2)
    shards, test_sets = draw_client_shards(world, suite, 1, 10, 10, 5)
    train = {tuple(x) for sh in shards for x in sh.samples.x}
    test = {tuple(x) for ts in test_sets.values() for x in ts.x}
    assert not (train & test)


def test_shards_deterministic():
    world = build_world(4, 4, 2, 0.5, 3)
    suite = make_task_suite(world, CLASS_INCREMENTAL, 2, 2)
    a, _ = draw_client_shards(world, suite, 2, 6, 3, 5)
    b, _ = draw_client_shards(world, suite, 2, 6, 3, 5)
    for sa, sb in zip(a, b):
        for col in ("x", "y", "domain"):
            assert np.array_equal(getattr(sa.samples, col),
                                  getattr(sb.samples, col))
        assert sa.samples.task == sb.samples.task == sa.task_id


def test_base_pool_counts_near_multinomial():
    # K * D * 100 draws: expect 100 per (class, domain) pair within 3
    # binomial standard deviations. Pinned seed.
    world = build_world(3, 3, 2, 0.5, 6)
    n_total = 3 * 2 * 100
    pool = draw_base_pool(world, n_total, 8)
    assert len(pool) == n_total
    prob = 1.0 / 6.0
    sigma = np.sqrt(n_total * prob * (1 - prob))
    for k in range(3):
        for d in range(2):
            count = int(((pool.y == k) & (pool.domain == d)).sum())
            assert abs(count - 100) <= 3 * sigma


def test_base_pool_edges():
    world = build_world(3, 3, 2, 0.5, 6)
    pool = draw_base_pool(world, 1, 8)
    assert len(pool) == 1
    assert 0 <= pool.y[0] < 3 and 0 <= pool.domain[0] < 2
    assert pool.task is None
    again = draw_base_pool(world, 1, 8)
    assert np.array_equal(pool.x, again.x)
    with pytest.raises(ConfigError):
        draw_base_pool(world, 0, 8)


def test_batch_columns_are_checked_and_read_only():
    x = np.zeros((3, 2))
    batch = Batch(x, [0, 1, 1], [-1, -1, -1], 4)
    assert len(batch) == 3 and batch.task == 4
    assert batch.x.dtype == np.float64 and batch.y.dtype == np.int64
    with pytest.raises(ValueError):
        batch.x[0, 0] = 1.0
    x[0, 0] = 2.0  # the caller's array stays writable, and is viewed
    assert batch.x[0, 0] == 2.0
    for bad in (dict(y=[0, 1]), dict(domain=[0, 0, 0, 0]),
                dict(x=np.zeros(3)), dict(y=np.zeros((3, 1)))):
        cols = dict(x=x, y=[0, 1, 1], domain=[0, 0, 0])
        cols.update(bad)
        with pytest.raises(ProtocolError):
            Batch(**cols)


def test_drawn_batches_are_read_only():
    world = build_world(4, 4, 2, 0.5, 3)
    suite = make_task_suite(world, CLASS_INCREMENTAL, 2, 2)
    shards, test_sets = draw_client_shards(world, suite, 1, 5, 3, 5)
    pool = draw_base_pool(world, 10, 8)
    for batch in (shards[0].samples, test_sets[2], pool):
        for column in (batch.x, batch.y, batch.domain):
            assert not column.flags.writeable
