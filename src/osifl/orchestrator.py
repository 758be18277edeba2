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

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .datagen import Batch, ClientShard, TaskSpec, TaskSuite, World, \
    draw_base_pool
from .diffusion import SynthSet, drawn_task_data, make_surrogate, \
    pretrain, synthesize_task_data
from .encoder import build_client_message, make_encoder, parse_message, \
    serialize_message
from .errors import ConfigError, ProtocolError
from .ledgers import CommsLedger, ComputeLedger
from .rng import stream
from .ssr import ExemplarMemory, select_exemplars
from .trainer import HP_FIELDS, AnchorState, Classifier, Stack, \
    estimate_fisher, train

# bench/traced.py and the tests time and patch head training through these
# names until the ROADMAP's "Timings from the program" item is done.
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
    """The clients' uploads, the server's method-independent work and a
    grid's reports, each under its `memo_key`, and its one-shot heads
    (stored and restored by `trainer.train` under `trainer.head_key`),
    shared by the runs that are handed the same memo.

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


# The config fields each memoized layer reads. A run's row holds the rows
# of the layers it uses and its method's own fields. Under `surrogate` no
# layer reads DDPM_ONLY (pretraining and guidance), and none reads UNREAD.
_WORLD = ("dim_x", "num_classes", "num_domains", "within_std")
_PRETRAINING = ("diffusion_steps", "beta_min", "beta_max", "p_drop",
                "denoiser_hidden", "pretrain_steps", "pretrain_batch")
DDPM_ONLY = frozenset((*_PRETRAINING, "guidance_w"))
UNREAD = ("methods", "seeds", "out_dir")
_INPUTS = (*_WORLD, "suite_mode", "num_tasks", "classes_per_task",
           "clients_per_task", "n_per_class", "test_per_class")
_GENERATOR = ("base_pool_total", "dim_e", "generator", *_PRETRAINING)
_SYNTHESIS = ("z_per_class", "guidance_w")
# Head training reads HP_FIELDS; a federated client starts from fresh Adam.
_ONESHOT = (*_INPUTS, *_GENERATOR, *_SYNTHESIS, *HP_FIELDS, "epochs_per_task")
_FEDERATED = (*_INPUTS, "dim_e", *HP_FIELDS, "rounds", "local_epochs",
              "reported_model_params")
READS = {
    "inputs": _INPUTS,
    "message": (*_INPUTS, "dim_e"),
    "generator": (*_WORLD, *_GENERATOR),
    "synthesis": _SYNTHESIS,
    Method.OSIFL: (*_ONESHOT, "retain_per_class", "scoring_point", "score_by"),
    Method.OSCAR_IL: _ONESHOT,
    Method.OSCAR_R: (*_ONESHOT, "lambda_ewc"),
    Method.OSCAR_CEILING: _ONESHOT,
    Method.FEDAVG: _FEDERATED,
    Method.FEDPROX: (*_FEDERATED, "mu_prox"),
    Method.FEDEWC: (*_FEDERATED, "lambda_ewc")}


def reads(layer, config) -> tuple[str, ...]:
    """`layer`'s row, less DDPM_ONLY unless `config` uses `ddpm`."""
    return tuple(f for f in READS[layer]
                 if config.generator == "ddpm" or f not in DDPM_ONLY)


def memo_key(layer, config, seed: int, *inputs) -> tuple:
    """`layer`'s memo key for `config` at `seed`: the layer, the seed, the
    value of each field it `reads` and the entry's other `inputs`."""
    return (layer, int(seed),
            *(getattr(config, f) for f in reads(layer, config)), *inputs)


@dataclass(eq=False)
class RunState:
    method: Method
    config: object
    seed: int
    world: World
    encoder: object
    classifier: Classifier
    generator: object = None
    memory: ExemplarMemory | None = None
    anchor: AnchorState | None = None
    synth_history: list[Batch] = field(default_factory=list)
    comms: CommsLedger = field(default_factory=CommsLedger)
    compute: ComputeLedger = field(default_factory=ComputeLedger)
    events: list[str] = field(default_factory=list)
    server: ServerMemo = field(default_factory=ServerMemo)


def synthesized(cfg, seed: int, generator, t: int, blobs: list[bytes],
                messages: list, server: ServerMemo, ledger=None,
                drawn=None) -> SynthSet:
    """Task `t`'s `SynthSet` from the `messages` parsed from `blobs`, kept
    in `server` under the blobs and the generator object the memo hands
    out: sampled, or made of `drawn`, the rows a forked worker sampled
    from that generator (`diffusion.drawn_task_data`)."""
    def build(scratch):
        if drawn is None:
            synth = synthesize_task_data(
                generator, messages, cfg.z_per_class, cfg.guidance_w,
                stream(seed, "synth", t), ledger=scratch)
        else:
            synth = drawn_task_data(generator, messages, cfg.z_per_class,
                                    drawn, ledger=scratch)
        for k, batch in synth.per_class.items():
            if not np.isfinite(batch.x).all():
                raise ProtocolError(
                    f"synthesis (seed {seed}, task {t}) produced non-finite "
                    f"values for class {k}")
        return synth

    return server.recall(memo_key("synthesis", cfg, seed, generator, t,
                                  tuple(blobs)), build, ledger)


def task_synthesis(cfg, seed: int, world: World, shards: list[ClientShard],
                   t: int, server: ServerMemo, drawn=None) -> SynthSet:
    """Task `t`'s synthesis for `seed`'s one-shot runs, built through
    `server` as they build it: the generator, the task's uploads, then
    `synthesized`."""
    encoder = make_encoder(cfg.dim_e, world.dim_x, seed)
    generator = build_generator(cfg, seed, world, encoder, server)
    blobs = [upload(cfg, seed, encoder, shard, server) for shard in shards
             if shard.task_id == t]
    return synthesized(cfg, seed, generator, t, blobs,
                       [parse_message(blob) for blob in blobs], server,
                       drawn=drawn)


def _expand_head(state: RunState, task: TaskSpec) -> Classifier:
    """Give the head rows for the task's new classes, and the anchor, if
    any, the same zero rows, so new classes stay unconstrained."""
    clf = state.classifier
    clf.expand_head([c for c in task.classes if c not in clf.class_index])
    if state.anchor is not None:
        state.anchor = AnchorState(clf.grow(state.anchor.theta),
                                   clf.grow(state.anchor.fisher))
    return clf


def oneshot_task_phase(state: RunState, task: TaskSpec, blobs: list[bytes]):
    """Parse the arriving task's client blobs, then run the task through
    synthesis, training, and (for the replay method) exemplar selection;
    a generator that yields its training call to `lockstep`."""
    cfg = state.config
    t = task.task_id
    if not blobs:
        raise ProtocolError(f"task {t} arrived with no client messages")
    messages = [parse_message(blob) for blob in blobs]
    for msg in messages:
        if msg.task_id != t:
            raise ProtocolError(
                f"message from client {msg.client_id} belongs to task "
                f"{msg.task_id}, not {t}")
        if msg.dim_e != state.encoder.dim_e:
            raise ProtocolError(
                f"message from client {msg.client_id} has dim_e "
                f"{msg.dim_e}, not the encoder's {state.encoder.dim_e}")
        foreign = sorted(set(msg.classes.tolist()) - set(task.classes))
        if foreign:
            raise ProtocolError(f"message from client {msg.client_id} names "
                                f"class {foreign[0]}, which task {t} does "
                                f"not bring")
        if msg.client_id in state.comms.messages_by_client:
            raise ProtocolError(
                f"client {msg.client_id} already sent its one-shot message")
        state.comms.record_upload(msg.client_id, msg.upload_floats)
        state.events.append(
            f"task{t}:upload client={msg.client_id} "
            f"floats={msg.upload_floats}")
    data = synthesized(cfg, state.seed, state.generator, t, blobs, messages,
                       state.server, state.compute).data
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
                                cfg, rng_t), shared
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
            yield train_naive, (clf, data, cfg, rng_t), shared
        state.events.append(f"task{t}:train method=OSCAR_IL")
    elif state.method is Method.OSCAR_R:
        if data:
            # With no anchor yet, or lambda = 0, this trains as OSCAR_IL.
            yield train_regularized, (clf, data, cfg, rng_t), dict(
                shared, anchor=state.anchor, lam=cfg.lambda_ewc)
            state.anchor = estimate_fisher(clf, data)
        state.events.append(f"task{t}:train method=OSCAR_R")
    elif state.method is Method.OSCAR_CEILING:
        state.synth_history.append(data)
        if any(state.synth_history):
            yield train_joint, (clf, state.synth_history, cfg, rng_t), shared
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
        anchor, lam = state.anchor, cfg.lambda_ewc
    elif state.method is Method.FEDPROX:
        lam = cfg.mu_prox
    for rnd in range(1, cfg.rounds + 1):
        if state.method is Method.FEDPROX:
            # (mu / 2) ||theta - broadcast||^2 is the anchor penalty at
            # F = 1/2 and lambda = mu.
            anchor = AnchorState(clf.flat.copy(), np.full_like(clf.flat, 0.5))
        updates, counts = [], []
        for shard in task_shards:
            local = clf.copy()
            rng = stream(state.seed, "fed", t, rnd, shard.client_id)
            yield train_local, (local, shard.samples, cfg, rng), dict(
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
    per_task = [float(max(matrix[t][j] for t in range(j, m))
                      - matrix[m - 1][j]) for j in range(m - 1)]
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


def build_generator(cfg, seed: int, world: World, encoder, server: ServerMemo,
                    ledger: ComputeLedger | None = None):
    """`seed`'s generator, built once per `server` under its `memo_key`."""
    def build(scratch):
        pool = draw_base_pool(world, cfg.base_pool_total, seed)
        if cfg.generator == "surrogate":
            return make_surrogate(world, encoder, pool)
        model = pretrain(pool, encoder, cfg, seed, ledger=scratch)
        for name, param in model.denoiser.params.items():
            if not np.isfinite(param).all():
                raise ProtocolError(
                    f"pretraining (seed {seed}) left non-finite values in "
                    f"denoiser parameter {name}")
        return model

    return server.recall(memo_key("generator", cfg, seed), build, ledger)


def upload(cfg, seed: int, encoder, shard: ClientShard,
           server: ServerMemo) -> bytes:
    """The client's one-shot upload, built and serialized once per
    `server` under its `memo_key`."""
    return server.recall(
        memo_key("message", cfg, seed, shard.task_id, shard.client_id),
        lambda _: serialize_message(build_client_message(encoder, shard)),
        None)


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
    memo build uploads, pretrain and synthesize once per distinct input and
    each still bill the full cost; without one, the run keeps its own memo.
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
                     server=ServerMemo() if server is None else server)
    if method in ONESHOT_METHODS:
        state.generator = build_generator(config, seed, world, encoder,
                                          state.server, state.compute)
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
            blobs = [upload(config, seed, encoder, shard, state.server)
                     for shard in by_task.get(t, [])]
            yield from oneshot_task_phase(state, task, blobs)
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
    rows = [row for report in reports for row in report_rows(report)]
    with open(path, "w", newline="\n") as fh:
        fh.write(rows_to_csv(rows))
