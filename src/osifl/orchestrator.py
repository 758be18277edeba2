"""End-to-end protocol runs.

One-shot methods: every client of the arriving task uploads its single
class-means message, the server synthesizes stand-in data, trains the
shared head, and (for the replay method) banks exemplars. Federated
baselines instead run round-based weighted parameter averaging over the
arriving task's clients. After each task phase the classifier is scored
on every test set seen so far, building a lower-triangular accuracy
matrix from which average accuracy and forgetting are derived.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .datagen import Batch, ClientShard, TaskSpec, TaskSuite, World, \
    draw_base_pool
from .diffusion import SynthSet, make_surrogate, pretrain, \
    synthesize_task_data
from .encoder import build_client_message, make_encoder, \
    serialize_message
from .errors import ConfigError, ProtocolError
from .ledgers import CommsLedger, ComputeLedger
from .rng import stream
from .ssr import ExemplarMemory, select_exemplars
from .trainer import AnchorState, Classifier, Stack, TrainHP, \
    estimate_fisher, train

# bench/traced.py and the tests time and patch head training through these
# names, one per method, until the program reports its own (ROADMAP item 2).
train_naive = train_joint = train_osifl = train_regularized = \
    train_local = train


class Method(str, Enum):
    OSIFL = "OSIFL"
    OSCAR_IL = "OSCAR_IL"
    OSCAR_R = "OSCAR_R"
    OSCAR_CEILING = "OSCAR_CEILING"
    FEDAVG = "FEDAVG"
    FEDPROX = "FEDPROX"
    FEDEWC = "FEDEWC"


ONESHOT_METHODS = frozenset({Method.OSIFL, Method.OSCAR_IL, Method.OSCAR_R,
                             Method.OSCAR_CEILING})
FEDERATED_METHODS = frozenset({Method.FEDAVG, Method.FEDPROX, Method.FEDEWC})


def parse_method(name: str) -> Method:
    try:
        return Method(name)
    except ValueError:
        raise ConfigError(
            f"unknown method {name!r}; choose from "
            f"{sorted(m.value for m in Method)}") from None


class ServerMemo:
    """The server's method-independent work, its one-shot heads (stored
    and restored by `trainer.train` under `trainer.head_key`), and a
    grid's reports by `run_key`, shared by the runs that are handed the
    same memo.

    An entry is computed on the first `recall` of its key and kept only
    if that computation succeeds, so a failure is raised again by every
    run that reaches it. Every recall, the first included, adds the
    multiply-adds the computation charged to the caller's ledger, if
    any: a run's ledger reads as if the run had done the work alone.
    """

    def __init__(self):
        self._entries: dict = {}

    def __contains__(self, key) -> bool:
        return key in self._entries

    def recall(self, key, build, ledger: ComputeLedger | None):
        """The value `build(scratch_ledger)` returns for `key`."""
        entry = self._entries.get(key)
        if entry is None:
            scratch = ComputeLedger()
            entry = (build(scratch), dict(scratch.madds_by_kind))
            self._entries[key] = entry
        value, madds = entry
        if ledger is not None:
            for kind, n in madds.items():
                ledger.add(kind, n)
        return value


def generator_key(config, world: World, seed: int) -> tuple:
    """Everything a run's generator is a function of: the world (by its
    `build_world` arguments) and the seed, which fix the pretraining
    pool and the encoder, plus the pool size, the embedding width, the
    generator kind and, for `ddpm`, the pretraining hyperparameters."""
    hp = dataclasses.astuple(config.diffusion_hp()) \
        if config.generator == "ddpm" else None
    return ("generator", int(seed), world.seed, world.dim_x,
            world.num_classes, world.num_domains, world.within_std,
            config.base_pool_total, config.dim_e, config.generator, hp)


def run_key(method, config, seed: int) -> tuple:
    """Everything `run_method`'s report, `config_echo` aside, is a
    function of: the method, the seed and the config, with the fields
    this method never reads set to None. Those are `methods`, `seeds`
    and `out_dir`, the retention budget `p` for every method but OSIFL,
    and the guidance weight `w` for federated methods and under the
    `surrogate` generator, which ignores it."""
    method = parse_method(method) if isinstance(method, str) else method
    unread = dict(methods=None, seeds=None, out_dir=None)
    if method is not Method.OSIFL:
        unread["retain_per_class"] = None
    if method in FEDERATED_METHODS or config.generator == "surrogate":
        unread["guidance_w"] = None
    return (method, int(seed), dataclasses.replace(config, **unread))


@dataclass(eq=False)
class RunState:
    method: Method
    config: object
    seed: int
    world: World
    encoder: object
    classifier: Classifier
    hp: TrainHP
    generator: object = None
    memory: ExemplarMemory | None = None
    anchor: AnchorState | None = None
    synth_history: list[Batch] = field(default_factory=list)
    comms: CommsLedger = field(default_factory=CommsLedger)
    compute: ComputeLedger = field(default_factory=ComputeLedger)
    events: list[str] = field(default_factory=list)
    server: ServerMemo = field(default_factory=ServerMemo)


def _synthesized_task(state: RunState, messages: list) -> SynthSet:
    """The task's `SynthSet` as the server memo holds it for this
    generator, task, upload set, `z_per_class` and `w`."""
    cfg, seed, t = state.config, state.seed, messages[0].task_id

    def build(ledger):
        synth = synthesize_task_data(state.generator, messages,
                                     cfg.z_per_class, cfg.guidance_w,
                                     stream(seed, "synth", t), ledger=ledger)
        for k, batch in synth.per_class.items():
            if not np.isfinite(batch.x).all():
                raise ProtocolError(
                    f"synthesis (seed {seed}, task {t}) produced non-finite "
                    f"values for class {k}")
        return synth

    # A memo hands out one generator object per generator key, so the
    # object (hashed by identity) stands for that key.
    key = ("synthesis", state.generator, seed, t, cfg.z_per_class,
           cfg.guidance_w, tuple(serialize_message(m) for m in messages))
    return state.server.recall(key, build, state.compute)


def _expand_head(state: RunState, task: TaskSpec) -> Classifier:
    """Give the head rows for the task's new classes, and the anchor, if
    any, the same zero rows, so new classes stay unconstrained."""
    clf = state.classifier
    clf.expand_head([c for c in task.classes if c not in clf.class_index])
    if state.anchor is not None:
        state.anchor = AnchorState(clf.grow(state.anchor.theta),
                                   clf.grow(state.anchor.fisher))
    return clf


def oneshot_task_phase(state: RunState, task: TaskSpec, messages: list):
    """Run one arriving task through upload, synthesis, training, and
    (for the replay method) exemplar selection; a generator that yields
    its training call to `lockstep` and returns the state."""
    cfg = state.config
    t = task.task_id
    if not messages:
        raise ProtocolError(f"task {t} arrived with no client messages")
    for msg in messages:
        if msg.task_id != t:
            raise ProtocolError(
                f"message from client {msg.client_id} belongs to task "
                f"{msg.task_id}, not {t}")
        if msg.client_id in state.comms.messages_by_client:
            raise ProtocolError(
                f"client {msg.client_id} already sent its one-shot message")
        state.comms.record_upload(msg.client_id, msg.upload_floats)
        state.events.append(
            f"task{t}:upload client={msg.client_id} "
            f"floats={msg.upload_floats}")
    data = _synthesized_task(state, messages).data
    state.events.append(f"task{t}:synthesize n={len(data)}")
    clf = _expand_head(state, task)
    rng_t = stream(state.seed, "train", t)
    # A head whose training the server memo has seen is restored from it.
    shared = dict(ledger=state.compute, memo=state.server)
    if state.method is Method.OSIFL:
        p = cfg.retain_per_class
        scorer = clf.copy() if p and cfg.scoring_point == "pre_update" else clf
        if data:
            yield train_osifl, (clf, [data, *state.memory.replay_sets(t)],
                                state.hp, rng_t), shared
        state.events.append(f"task{t}:train method=OSIFL")
        # With no exemplar to keep, no row is scored or billed.
        kept = Batch(data.x[:0], data.y[:0], data.domain[:0], t)
        if p:
            kept = select_exemplars(scorer, data, p, score_by=cfg.score_by,
                                    ledger=state.compute)
        state.events.append(
            f"task{t}:select params={cfg.scoring_point} kept={len(kept)}")
        state.memory.add_task(t, kept)
        state.events.append(f"task{t}:memory_update size={state.memory.size}")
    elif state.method is Method.OSCAR_IL:
        if data:
            yield train_naive, (clf, data, state.hp, rng_t), shared
        state.events.append(f"task{t}:train method=OSCAR_IL")
    elif state.method is Method.OSCAR_R:
        if data:
            # With no anchor yet, or lambda = 0, this trains as OSCAR_IL.
            yield train_regularized, (clf, data, state.hp, rng_t), dict(
                shared, anchor=state.anchor, lam=state.hp.lambda_ewc)
            state.anchor = estimate_fisher(clf, data)
        state.events.append(f"task{t}:train method=OSCAR_R")
    elif state.method is Method.OSCAR_CEILING:
        state.synth_history.append(data)
        if any(state.synth_history):
            yield train_joint, (clf, state.synth_history, state.hp,
                                rng_t), shared
        state.events.append(f"task{t}:train method=OSCAR_CEILING")
    else:
        raise ConfigError(f"{state.method} is not a one-shot method")
    return state


def _weighted_average(updates: list[np.ndarray],
                      counts: list[int]) -> np.ndarray:
    total = sum(counts)
    if total <= 0:
        raise ProtocolError("cannot average over zero samples")
    avg = np.zeros_like(updates[0])
    for update, n in zip(updates, counts):
        avg += (n / total) * update
    return avg


def federated_task_phase(state: RunState, task: TaskSpec,
                         task_shards: list[ClientShard]):
    """Round-based training over the arriving task's clients only; a
    generator like `oneshot_task_phase`, with a call per client and round."""
    cfg = state.config
    t = task.task_id
    if not task_shards:
        raise ProtocolError(f"task {t} has no clients")
    if any(s.task_id != t for s in task_shards):
        raise ProtocolError(f"shard from another task handed to task {t}")
    clf = _expand_head(state, task)
    anchor, lam = None, 0.0
    if state.method is Method.FEDEWC and state.anchor is not None:
        anchor, lam = state.anchor, state.hp.lambda_ewc
    elif state.method is Method.FEDPROX:
        lam = state.hp.mu_prox
    for rnd in range(1, cfg.rounds + 1):
        if state.method is Method.FEDPROX:
            # (mu / 2) ||theta - broadcast||^2 is the anchor penalty at
            # F = 1/2 and lambda = mu.
            anchor = AnchorState(clf.flat.copy(), np.full_like(clf.flat, 0.5))
        updates, counts = [], []
        for shard in task_shards:
            local = clf.copy()
            rng = stream(state.seed, "fed", t, rnd, shard.client_id)
            yield train_local, (local, shard.samples, state.hp, rng), dict(
                epochs=cfg.local_epochs, anchor=anchor, lam=lam,
                ledger=state.compute)
            updates.append(local.flat)
            counts.append(len(shard.samples))
            reported = cfg.reported_model_params
            state.comms.record_upload(
                shard.client_id, reported if reported else clf.param_count)
        clf.flat[...] = _weighted_average(updates, counts)
        state.events.append(
            f"task{t}:round{rnd} clients="
            f"{[s.client_id for s in task_shards]}")
    if state.method is Method.FEDEWC:
        fishers = [estimate_fisher(clf, shard.samples).fisher
                   for shard in task_shards]
        counts = [len(shard.samples) for shard in task_shards]
        state.anchor = AnchorState(clf.flat.copy(),
                                   _weighted_average(fishers, counts))
        state.events.append(f"task{t}:anchor_refresh")
    return state


def evaluate(classifier: Classifier, test_sets: list[Batch]
             ) -> tuple[list[float], float, float]:
    """Top-1 accuracy on each test set, their unweighted mean, and the
    accuracy over all their rows pooled, from one prediction per row."""
    if not test_sets:
        raise ProtocolError("evaluation needs at least one test set")
    accs, correct = [], 0
    for ts in test_sets:
        if not ts:
            raise ProtocolError("empty test set")
        missing = sorted(set(ts.y.tolist()) - set(classifier.class_index))
        if missing:
            raise ProtocolError(f"head does not cover test classes {missing}")
        hits = classifier.predict(ts.x) == ts.y
        accs.append(float(np.mean(hits)))
        correct += int(hits.sum())
    return accs, float(np.mean(accs)), correct / sum(map(len, test_sets))


def forgetting(matrix: list[list[float]]) -> tuple[list[float], float]:
    """Per-task drop from best-ever to final accuracy.

    Row t holds accuracies on tasks 1..t after learning task t. For each
    task except the last, forgetting is max-over-rows minus the last
    row's entry. One task means nothing can have been forgotten yet.
    """
    m = len(matrix)
    if m == 0:
        raise ConfigError("forgetting needs at least one task row")
    for i, row in enumerate(matrix):
        if len(row) != i + 1:
            raise ConfigError(
                f"row {i} has {len(row)} entries, expected {i + 1}")
    per_task = []
    for j in range(m - 1):
        best = max(matrix[t][j] for t in range(j, m))
        per_task.append(float(best - matrix[m - 1][j]))
    mean = float(np.mean(per_task)) if per_task else 0.0
    return per_task, mean


@dataclass
class RunReport:
    method: str
    seed: int
    accuracy: list[list[float]]
    avg_after: list[float]
    forgetting_after: list[float]
    forgetting_final: list[float]
    forgetting_mean: float
    uploads_after: list[int]
    madds_after: list[int]
    upload_floats_total: int
    madds_total: int
    floats_by_client: dict[int, int]
    messages_by_client: dict[int, int]
    madds_by_kind: dict[str, int]
    events: list[str]
    config_echo: str


def _build_generator(state: RunState) -> None:
    cfg, world, seed = state.config, state.world, state.seed

    def build(ledger):
        pool = draw_base_pool(world, cfg.base_pool_total, seed)
        if cfg.generator == "surrogate":
            return make_surrogate(world, state.encoder, pool)
        if cfg.generator != "ddpm":
            raise ConfigError(f"unknown generator {cfg.generator!r}")
        model = pretrain(pool, state.encoder, cfg.diffusion_hp(), seed,
                         ledger=ledger)
        for name, param in model.denoiser.params.items():
            if not np.isfinite(param).all():
                raise ProtocolError(
                    f"pretraining (seed {seed}) left non-finite values in "
                    f"denoiser parameter {name}")
        return model

    state.generator = state.server.recall(generator_key(cfg, world, seed),
                                          build, state.compute)


def _check_head(state: RunState, task_id: int) -> None:
    if not np.isfinite(state.classifier.flat).all():
        raise ProtocolError(
            f"{state.method.value} task phase (seed {state.seed}, task "
            f"{task_id}) left non-finite values in the head")


def lockstep(runs: list) -> list:
    """Drive generators like `run_steps`, which yield training calls as
    (fn, args, kwargs) and are resumed with each call's result or error,
    to their ends together. The calls of one step to one function are
    made as one call on a `Stack` of each argument, even a lone one.
    Returns what each generator returned, or the error it raised."""
    results, replies = [None] * len(runs), dict.fromkeys(range(len(runs)))
    while replies:
        calls = {}
        for i, reply in replies.items():
            try:
                fn, args, kwargs = runs[i].throw(reply) \
                    if isinstance(reply, Exception) else runs[i].send(reply)
                calls.setdefault((fn, len(args), tuple(kwargs)), []).append(
                    (i, args, kwargs))
            except StopIteration as stop:
                results[i] = stop.value
            except Exception as err:
                results[i] = err
        replies = {}
        for (fn, _, names), group in calls.items():
            ids, args, kwargs = zip(*group)
            try:
                out = fn(*map(Stack, zip(*args)),
                         **{k: Stack(kw[k] for kw in kwargs) for k in names})
            except Exception as err:
                out = [err] * len(ids)
            replies.update(zip(ids, out, strict=True))
    return results


def run_method(method, world: World, suite: TaskSuite,
               shards: list[ClientShard], test_sets: dict[int, Batch],
               config, seed: int, *, server: ServerMemo | None = None
               ) -> RunReport:
    """Run one method over the whole suite and report every metric.

    The report is a pure function of (config, seed): rerunning with the
    same inputs reproduces it bit for bit. Runs given the same `server`
    memo pretrain and synthesize only once per distinct input and each
    still bill the full cost; without one, the run keeps a private memo.
    """
    [result] = lockstep([run_steps(method, world, suite, shards, test_sets,
                                   config, seed, server=server)])
    if isinstance(result, Exception):
        raise result
    return result


def run_steps(method, world: World, suite: TaskSuite,
              shards: list[ClientShard], test_sets: dict[int, Batch],
              config, seed: int, *, server: ServerMemo | None = None):
    """`run_method` as a generator: it yields each head-training call of
    the run to `lockstep` and returns the run's report."""
    method = parse_method(method) if isinstance(method, str) else method
    encoder = make_encoder(config.dim_e, world.dim_x, seed)
    encoder_sum = encoder.checksum()
    state = RunState(method=method, config=config, seed=seed, world=world,
                     encoder=encoder, classifier=Classifier(encoder),
                     hp=config.train_hp(),
                     server=ServerMemo() if server is None else server)
    if method in ONESHOT_METHODS:
        _build_generator(state)
        if method is Method.OSIFL:
            state.memory = ExemplarMemory(config.retain_per_class)
    by_task: dict[int, list[ClientShard]] = {}
    for shard in shards:
        by_task.setdefault(shard.task_id, []).append(shard)
    accuracy: list[list[float]] = []
    avg_after, forgetting_after = [], []
    uploads_after, madds_after = [], []
    for task in suite.tasks:
        t = task.task_id
        if method in ONESHOT_METHODS:
            messages = [build_client_message(encoder, shard)
                        for shard in by_task.get(t, [])]
            yield from oneshot_task_phase(state, task, messages)
        else:
            yield from federated_task_phase(state, task, by_task.get(t, []))
        _check_head(state, t)
        seen = [test_sets[s.task_id] for s in suite.tasks
                if s.task_id <= t]
        accs, avg, _ = evaluate(state.classifier, seen)
        accuracy.append(accs)
        avg_after.append(avg)
        forgetting_after.append(forgetting(accuracy)[1])
        uploads_after.append(state.comms.total_floats)
        madds_after.append(state.compute.total)
    if encoder.checksum() != encoder_sum:
        raise ProtocolError("frozen encoder was mutated during the run")
    forgetting_final, forgetting_mean = forgetting(accuracy)
    return RunReport(
        method=method.value, seed=int(seed), accuracy=accuracy,
        avg_after=avg_after, forgetting_after=forgetting_after,
        forgetting_final=forgetting_final, forgetting_mean=forgetting_mean,
        uploads_after=uploads_after, madds_after=madds_after,
        upload_floats_total=state.comms.total_floats,
        madds_total=state.compute.total,
        floats_by_client=dict(state.comms.floats_by_client),
        messages_by_client=dict(state.comms.messages_by_client),
        madds_by_kind=dict(state.compute.madds_by_kind),
        events=list(state.events), config_echo=config.canonical())


CSV_HEADER = ("method,seed,task,eval_task,accuracy,avg_acc,forgetting_mean,"
              "upload_floats_total,madds_total")


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_rows(report: RunReport) -> list[list]:
    """Flatten one report: a row per (task, eval_task) plus, per task, a
    summary row with eval_task = -1 carrying the running average."""
    rows = []
    for t_idx, row in enumerate(report.accuracy):
        t = t_idx + 1
        common = [report.avg_after[t_idx], report.forgetting_after[t_idx],
                  report.uploads_after[t_idx], report.madds_after[t_idx]]
        for j_idx, acc in enumerate(row):
            rows.append([report.method, report.seed, t, j_idx + 1, acc]
                        + common)
        rows.append([report.method, report.seed, t, -1,
                     report.avg_after[t_idx]] + common)
    return rows


def rows_to_csv(rows: list[list], header: str = CSV_HEADER) -> str:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_report_csv(path: str, reports: list[RunReport]) -> None:
    rows = []
    for report in reports:
        rows.extend(report_rows(report))
    with open(path, "w", newline="\n") as fh:
        fh.write(rows_to_csv(rows))
