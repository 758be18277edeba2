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
from .diffusion import make_surrogate, pretrain, synthesize_task_data
from .encoder import build_client_message, make_encoder, \
    serialize_message
from .errors import ConfigError, ProtocolError
from .ledgers import CommsLedger, ComputeLedger, encoder_forward_madds, \
    head_backward_madds, head_forward_madds, softmax_madds
from .rng import stream
from .ssr import ExemplarMemory, select_exemplars
from .trainer import AnchorState, Classifier, TrainHP, align_anchor, \
    estimate_fisher, ewc_penalty_and_grads, proximal_penalty_and_grads, \
    train_joint, train_local, train_naive, train_osifl, train_regularized


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
    """The server's method-independent work, shared by the runs that are
    handed the same memo: `osifl run` and `sweep` use one per grid.

    An entry is computed on the first `recall` of its key and kept only
    if that computation succeeds, so a failure is raised again by every
    run that reaches it. Every recall, the first included, adds the
    multiply-adds the computation charged to the caller's ledger: a
    run's ledger reads as if the run had done the work alone.
    """

    def __init__(self):
        self._entries: dict = {}

    def recall(self, key, build, ledger: ComputeLedger):
        """The value `build(scratch_ledger)` returns for `key`."""
        entry = self._entries.get(key)
        if entry is None:
            scratch = ComputeLedger()
            entry = (build(scratch), dict(scratch.madds_by_kind))
            self._entries[key] = entry
        value, madds = entry
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


def _synthesized_task(state: RunState, messages: list) -> dict[int, Batch]:
    """The task's synthesized samples, one batch per class over a
    read-only array, as the server memo holds them for this generator,
    task, upload set, `z_per_class` and `w`."""
    cfg, seed, t = state.config, state.seed, messages[0].task_id

    def build(ledger):
        synth = synthesize_task_data(state.generator, messages,
                                     cfg.z_per_class, cfg.guidance_w,
                                     stream(seed, "synth", t), ledger=ledger)
        for k, xs in synth.per_class.items():
            if not np.isfinite(xs).all():
                raise ProtocolError(
                    f"synthesis (seed {seed}, task {t}) produced non-finite "
                    f"values for class {k}")
        return {k: Batch(xs, np.full(len(xs), k), np.full(len(xs), -1), t)
                for k, xs in synth.per_class.items()}

    # A memo hands out one generator object per generator key, so the
    # object (hashed by identity) stands for that key.
    key = ("synthesis", state.generator, seed, t, cfg.z_per_class,
           cfg.guidance_w, tuple(serialize_message(m) for m in messages))
    return state.server.recall(key, build, state.compute)


def oneshot_task_phase(state: RunState, task: TaskSpec,
                       messages: list) -> RunState:
    """Run one arriving task through upload, synthesis, training, and
    (for the replay method) exemplar selection."""
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
    per_class = _synthesized_task(state, messages)
    classes = sorted(per_class)
    data = Batch(np.concatenate([per_class[k].x for k in classes]),
                 np.concatenate([per_class[k].y for k in classes]),
                 np.concatenate([per_class[k].domain for k in classes]), t)
    state.events.append(f"task{t}:synthesize n={len(data)}")
    clf = state.classifier
    clf.expand_head([c for c in task.classes if c not in clf.class_index])
    rng_t = stream(state.seed, "train", t)
    if state.method is Method.OSIFL:
        # With no exemplar to keep, no class is scored or billed.
        to_score = sorted(per_class) if cfg.retain_per_class > 0 else []
        snapshot = clf.head_params() \
            if to_score and cfg.scoring_point == "pre_update" else None
        if data:
            train_osifl(clf, data, state.memory, state.hp, rng_t,
                        ledger=state.compute)
        state.events.append(f"task{t}:train method=OSIFL")
        scorer = clf
        if snapshot is not None:
            scorer = clf.copy()
            scorer.load_params(snapshot)
        kept = {}
        for k in to_score:
            pool = per_class[k]
            kept[k] = select_exemplars(scorer, pool, cfg.retain_per_class,
                                       score_by=cfg.score_by)
            n, c_out, dim_e = len(pool), clf.num_classes, clf.encoder.dim_e
            state.compute.add("exemplar_scoring",
                              encoder_forward_madds(n, dim_e,
                                                    clf.encoder.dim_x)
                              + head_forward_madds(n, c_out, dim_e)
                              + softmax_madds(n, c_out)
                              + head_backward_madds(n, c_out, dim_e))
        state.events.append(
            f"task{t}:select params={cfg.scoring_point} "
            f"kept={sum(len(v) for v in kept.values())}")
        state.memory.add_task(t, kept)
        state.events.append(f"task{t}:memory_update size={state.memory.size}")
    elif state.method is Method.OSCAR_IL:
        if data:
            train_naive(clf, data, state.hp, rng_t, ledger=state.compute)
        state.events.append(f"task{t}:train method=OSCAR_IL")
    elif state.method is Method.OSCAR_R:
        if data:
            if state.anchor is not None and state.hp.lambda_ewc > 0:
                anchor = align_anchor(state.anchor, {"weights": clf.weights,
                                                     "bias": clf.bias})
                train_regularized(clf, data, anchor, state.hp.lambda_ewc,
                                  state.hp, rng_t, ledger=state.compute)
            else:
                train_naive(clf, data, state.hp, rng_t, ledger=state.compute)
            state.anchor = estimate_fisher(clf, data)
        state.events.append(f"task{t}:train method=OSCAR_R")
    elif state.method is Method.OSCAR_CEILING:
        state.synth_history.append(data)
        if any(state.synth_history):
            train_joint(clf, state.synth_history, state.hp, rng_t,
                        ledger=state.compute)
        state.events.append(f"task{t}:train method=OSCAR_CEILING")
    else:
        raise ConfigError(f"{state.method} is not a one-shot method")
    return state


def _weighted_average(updates: list[dict[str, np.ndarray]],
                      counts: list[int]) -> dict[str, np.ndarray]:
    total = sum(counts)
    if total <= 0:
        raise ProtocolError("cannot average over zero samples")
    avg = {k: np.zeros_like(v) for k, v in updates[0].items()}
    for update, n in zip(updates, counts):
        for k in avg:
            avg[k] += (n / total) * update[k]
    return avg


def federated_task_phase(state: RunState, task: TaskSpec,
                         task_shards: list[ClientShard]) -> RunState:
    """Round-based training over the arriving task's clients only."""
    cfg = state.config
    t = task.task_id
    if not task_shards:
        raise ProtocolError(f"task {t} has no clients")
    if any(s.task_id != t for s in task_shards):
        raise ProtocolError(f"shard from another task handed to task {t}")
    clf = state.classifier
    clf.expand_head([c for c in task.classes if c not in clf.class_index])
    anchor = None
    if state.method is Method.FEDEWC and state.anchor is not None:
        anchor = align_anchor(state.anchor, {"weights": clf.weights,
                                             "bias": clf.bias})
    for rnd in range(1, cfg.rounds + 1):
        broadcast = clf.head_params()
        updates, counts = [], []
        for shard in task_shards:
            local = clf.copy()
            penalty = None
            if state.method is Method.FEDPROX and state.hp.mu_prox > 0:
                penalty = lambda params, ref=broadcast: \
                    proximal_penalty_and_grads(params, ref, state.hp.mu_prox)
            elif state.method is Method.FEDEWC and anchor is not None \
                    and state.hp.lambda_ewc > 0:
                penalty = lambda params, anc=anchor: \
                    ewc_penalty_and_grads(params, anc, state.hp.lambda_ewc)
            train_local(local, shard.samples, state.hp,
                        stream(state.seed, "fed", t, rnd, shard.client_id),
                        epochs=cfg.local_epochs, penalty=penalty,
                        ledger=state.compute)
            updates.append(local.head_params())
            counts.append(len(shard.samples))
            reported = cfg.reported_model_params
            state.comms.record_upload(
                shard.client_id, reported if reported else clf.param_count)
        clf.load_params(_weighted_average(updates, counts))
        state.events.append(
            f"task{t}:round{rnd} clients="
            f"{[s.client_id for s in task_shards]}")
    if state.method is Method.FEDEWC:
        fishers = [estimate_fisher(clf, shard.samples).fisher
                   for shard in task_shards]
        counts = [len(shard.samples) for shard in task_shards]
        state.anchor = AnchorState(theta=clf.head_params(),
                                   fisher=_weighted_average(fishers, counts))
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
    pooled_after: list[float]
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
    clf = state.classifier
    for name, values in (("weights", clf.weights), ("bias", clf.bias)):
        if not np.isfinite(values).all():
            raise ProtocolError(
                f"{state.method.value} task phase (seed {state.seed}, task "
                f"{task_id}) left non-finite values in the head {name}")


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
    avg_after, pooled_after, forgetting_after = [], [], []
    uploads_after, madds_after = [], []
    for task in suite.tasks:
        t = task.task_id
        if method in ONESHOT_METHODS:
            messages = [build_client_message(encoder, shard)
                        for shard in by_task.get(t, [])]
            oneshot_task_phase(state, task, messages)
        else:
            federated_task_phase(state, task, by_task.get(t, []))
        _check_head(state, t)
        seen = [test_sets[s.task_id] for s in suite.tasks
                if s.task_id <= t]
        accs, avg, pooled = evaluate(state.classifier, seen)
        accuracy.append(accs)
        avg_after.append(avg)
        pooled_after.append(pooled)
        forgetting_after.append(forgetting(accuracy)[1])
        uploads_after.append(state.comms.total_floats)
        madds_after.append(state.compute.total)
    if encoder.checksum() != encoder_sum:
        raise ProtocolError("frozen encoder was mutated during the run")
    forgetting_final, forgetting_mean = forgetting(accuracy)
    return RunReport(
        method=method.value, seed=int(seed), accuracy=accuracy,
        avg_after=avg_after, pooled_after=pooled_after,
        forgetting_after=forgetting_after,
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
