"""Synthetic benchmark worlds: Gaussian class/domain clusters, task
suites, client shards, and the server-side pretraining pool.

A world places one anchor per class and one additive offset per domain.
A point x of class k from domain d is drawn from
N(anchor_k + offset_d, within_std^2 * I). Everything is a pure function
of the world seed plus the draw seed, so shards regenerate bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolError
from .rng import stream

CLASS_INCREMENTAL = "class_incremental"
DOMAIN_INCREMENTAL = "domain_incremental"

ANCHOR_LOW = -4.0
ANCHOR_HIGH = 4.0


@dataclass(frozen=True, eq=False)
class World:
    dim_x: int
    num_classes: int
    num_domains: int
    within_std: float
    seed: int
    class_anchors: np.ndarray  # (num_classes, dim_x), uniform in [-4, 4]
    domain_offsets: np.ndarray  # (num_domains, dim_x), standard normal

    def cluster_mean(self, class_id: int, domain_id: int) -> np.ndarray:
        return self.class_anchors[class_id] + self.domain_offsets[domain_id]


@dataclass(frozen=True, eq=False)
class Batch:
    """Labelled points as read-only columns. domain is -1 for synthesized
    rows, which have no ground-truth domain; task is None for the
    pretraining pool."""

    x: np.ndarray  # (n, dim_x) float64
    y: np.ndarray  # (n,) int64
    domain: np.ndarray  # (n,) int64
    task: int | None = None

    def __post_init__(self):
        for name, dtype in (("x", float), ("y", int), ("domain", int)):
            # A view, so a caller's array keeps its own flags.
            column = np.asarray(getattr(self, name), dtype=dtype).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if (self.x.ndim, self.y.ndim, self.domain.ndim) != (2, 1, 1) or \
                not len(self.x) == len(self.y) == len(self.domain):
            raise ProtocolError(
                f"batch columns disagree: x {self.x.shape}, y "
                f"{self.y.shape}, domain {self.domain.shape}")

    def __len__(self) -> int:
        return len(self.y)


@dataclass(eq=False)
class ClientShard:
    client_id: int
    task_id: int
    samples: Batch


@dataclass(frozen=True)
class TaskSpec:
    task_id: int
    classes: tuple[int, ...]
    domains: tuple[int, ...]


@dataclass(frozen=True)
class TaskSuite:
    mode: str
    tasks: tuple[TaskSpec, ...]


def build_world(dim_x: int, num_classes: int, num_domains: int,
                within_std: float, seed: int) -> World:
    """Draw anchors and offsets for a fresh world.

    Identical arguments always rebuild the identical world.
    """
    if dim_x < 1:
        raise ConfigError(f"dim_x must be >= 1, got {dim_x}")
    if num_classes < 2:
        raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
    if num_domains < 1:
        raise ConfigError(f"num_domains must be >= 1, got {num_domains}")
    if not within_std > 0:
        raise ConfigError(f"within_std must be > 0, got {within_std}")
    anchors = stream(seed, "world", "anchors").uniform(
        ANCHOR_LOW, ANCHOR_HIGH, size=(num_classes, dim_x))
    offsets = stream(seed, "world", "offsets").standard_normal(
        size=(num_domains, dim_x))
    anchors.flags.writeable = False
    offsets.flags.writeable = False
    return World(dim_x, num_classes, num_domains, float(within_std),
                 int(seed), anchors, offsets)


def _normalize_counts(classes_per_task, num_tasks: int) -> list[int]:
    if isinstance(classes_per_task, int):
        counts = [classes_per_task] * num_tasks
    else:
        counts = [int(c) for c in classes_per_task]
        if len(counts) != num_tasks:
            raise ConfigError(
                f"classes_per_task list has {len(counts)} entries "
                f"for {num_tasks} tasks")
    if any(c < 1 for c in counts):
        raise ConfigError("every task needs at least one class")
    return counts


def make_task_suite(world: World, mode: str, num_tasks: int,
                    classes_per_task=None) -> TaskSuite:
    """Partition the world into an ordered suite of tasks.

    class_incremental: disjoint class sets, every domain available.
    domain_incremental: one domain per task, every class available.
    classes_per_task may be an int or a per-task list of ints.
    Task ids run 1..num_tasks.
    """
    if num_tasks < 1:
        raise ConfigError(f"num_tasks must be >= 1, got {num_tasks}")
    rng = stream(world.seed, "suite")
    if mode == CLASS_INCREMENTAL:
        if classes_per_task is None:
            raise ConfigError("class_incremental needs classes_per_task")
        counts = _normalize_counts(classes_per_task, num_tasks)
        if sum(counts) > world.num_classes:
            raise ConfigError(
                f"suite needs {sum(counts)} classes but the world has "
                f"{world.num_classes}")
        order = rng.permutation(world.num_classes)
        tasks = []
        cursor = 0
        all_domains = tuple(range(world.num_domains))
        for t, count in enumerate(counts, start=1):
            chunk = order[cursor:cursor + count]
            cursor += count
            tasks.append(TaskSpec(t, tuple(sorted(int(c) for c in chunk)),
                                  all_domains))
        return TaskSuite(CLASS_INCREMENTAL, tuple(tasks))
    if mode == DOMAIN_INCREMENTAL:
        if num_tasks > world.num_domains:
            raise ConfigError(
                f"domain_incremental suite needs {num_tasks} domains but "
                f"the world has {world.num_domains}")
        order = rng.permutation(world.num_domains)
        all_classes = tuple(range(world.num_classes))
        tasks = [TaskSpec(t, all_classes, (int(order[t - 1]),))
                 for t in range(1, num_tasks + 1)]
        return TaskSuite(DOMAIN_INCREMENTAL, tuple(tasks))
    raise ConfigError(f"unknown suite mode {mode!r}")


def _draw_task_samples(world: World, task: TaskSpec, n_per_class: int,
                       rng: np.random.Generator) -> Batch:
    xs, ds = [], []
    domains = np.asarray(task.domains)
    for k in task.classes:
        picks = domains[rng.integers(0, len(domains), size=n_per_class)]
        means = world.class_anchors[k] + world.domain_offsets[picks]
        xs.append(means + world.within_std * rng.standard_normal(
            (n_per_class, world.dim_x)))
        ds.append(picks)
    return Batch(np.concatenate(xs), np.repeat(task.classes, n_per_class),
                 np.concatenate(ds), task.task_id)


def draw_client_shards(world: World, suite: TaskSuite, clients_per_task: int,
                       n_per_class: int, test_per_class: int, seed: int
                       ) -> tuple[list[ClientShard], dict[int, Batch]]:
    """Draw client training shards and the per-task test sets.

    Each client belongs to exactly one task and holds n_per_class
    samples per class of that task. Test sets use their own random
    substream, so they are disjoint from every shard with probability 1.
    """
    if clients_per_task < 1:
        raise ConfigError(
            f"clients_per_task must be >= 1, got {clients_per_task}")
    if n_per_class < 1:
        raise ConfigError(f"n_per_class must be >= 1, got {n_per_class}")
    if test_per_class < 1:
        raise ConfigError(
            f"test_per_class must be >= 1, got {test_per_class}")
    shards: list[ClientShard] = []
    test_sets: dict[int, Batch] = {}
    next_client = 0
    for task in suite.tasks:
        for _ in range(clients_per_task):
            rng = stream(seed, "shard", task.task_id, next_client)
            shard = ClientShard(client_id=next_client, task_id=task.task_id,
                                samples=_draw_task_samples(
                                    world, task, n_per_class, rng))
            shards.append(shard)
            next_client += 1
        rng_test = stream(seed, "test", task.task_id)
        test_sets[task.task_id] = _draw_task_samples(
            world, task, test_per_class, rng_test)
    return shards, test_sets


def draw_base_pool(world: World, n_total: int, seed: int) -> Batch:
    """Server-side pretraining pool, uniform over (class, domain) pairs."""
    if n_total < 1:
        raise ConfigError(f"n_total must be >= 1, got {n_total}")
    rng = stream(seed, "pool")
    ks = rng.integers(0, world.num_classes, size=n_total)
    ds = rng.integers(0, world.num_domains, size=n_total)
    means = world.class_anchors[ks] + world.domain_offsets[ds]
    xs = means + world.within_std * rng.standard_normal(
        (n_total, world.dim_x))
    return Batch(xs, ks, ds)
