"""The grid's plan: which of its pending work one forked worker takes.

A grid's work comes in units: each lockstep group of runs still to make
(one method at one axis value, over the seeds that need it, each run
once per `memo_key` however many values name it), split under
`generator = ddpm` into a unit per seed for a one-shot method. A unit's
seconds are estimated from closed forms of its config: minibatch steps,
training calls and the multiply-adds the ledgers bill. Each process
builds, through its memo, what its own runs read. The priced entries
that units share, the task-1 heads and, under `ddpm`, each seed's
generator and each task's synthesis, are each built once by every
process that needs them; a seed's inputs, uploads and `surrogate`
generator are too cheap to price. `split` places the units by longest
processing time first (LPT, Graham 1969): the largest first, each where
the estimated finish of both processes is earlier. A unit that would
rebuild in the worker entries that cost as much as its own work comes
back here, so a seed's generator stays with the runs that read it.
Where nothing goes to the worker, `task_units` split a `ddpm` seed's
synthesis by task once its generator is built here, and the runs are
placed again with the entries built priced at 0. `forked` runs both
sides in one call, and only reports, error texts and a task's drawn
rows cross its pipe.
"""
from __future__ import annotations

import ctypes
import glob
import itertools
import os
import pickle
import signal
import sys
import traceback
import warnings
from typing import Hashable, NamedTuple

import numpy as np

from . import ledgers
from .datagen import DOMAIN_INCREMENTAL, _normalize_counts
from .diffusion import chain_step_madds, pretrain_step_madds
from .errors import ProtocolError
from .orchestrator import FEDERATED_METHODS, Method, RunReport, memo_key
from .trainer import stack_width

# Seconds per unit of work, fitted once by least squares on a 2-vCPU
# machine (Python 3.11, NumPy 2.4.6, one OpenBLAS thread): head training
# over 45 lockstep groups of the benchmark configs and variants of them
# (within 17% on every group over 40 ms), the generator over six
# pretraining and sampling configs (within 25%).
HEAD_CALL_S = 1.3e-4      # a head's training call, with a client's round
STEP_S = 3.5e-5           # a minibatch step of a stack of heads
MADD_S = 1.5e-10          # a multiply-add of training or of a pass
PASS_S = 1.1e-3           # a head's evaluation, scoring or Fisher pass
PRETRAIN_STEP_S = 2e-4    # a pretraining step
PRETRAIN_MADD_S = 7.5e-11
CHAIN_STEP_S = 1.6e-4     # a step of a task's reverse chains
SAMPLE_MADD_S = 3.1e-11
# A fork, its pipe and the reaping of a worker that pipes back a small
# pickle, in a 45 MB process, took 2.8 ms (median of 30) to 5 ms (90th
# percentile) on that machine.
FORK_S = 0.005


class Unit(NamedTuple):
    """Work that either process can do. `key` is what it makes: its runs'
    `memo_key`s. `seconds` is its own estimated work, and `needs` each
    shared memo entry it reads, with the seconds to build it. `job` is
    `(config, method, seeds)`."""
    key: Hashable
    seconds: float
    needs: dict
    job: tuple


def _sizes(cfg) -> tuple[list[int], list[int]]:
    """The classes each task brings, and the head's classes after it."""
    if cfg.suite_mode == DOMAIN_INCREMENTAL:
        return ([cfg.num_classes] * cfg.num_tasks,) * 2
    brought = _normalize_counts(cfg.classes_per_task, cfg.num_tasks)
    return brought, list(itertools.accumulate(brought))


def _pass(cfg, rows: int, classes: int, heads: int) -> float:
    """`heads` heads' evaluation or Fisher pass on `rows` rows."""
    return heads * (PASS_S + MADD_S * (
        ledgers.encoder_forward_madds(rows, cfg.dim_e, cfg.dim_x)
        + ledgers.head_forward_madds(rows, classes, cfg.dim_e)))


def _training(cfg, rows: int, classes: int, epochs: int, heads: int):
    """A lockstep training call of `heads` heads on `rows` rows each."""
    if not rows:
        return 0.0
    madds = sum(ledgers.training_madds(rows, epochs, classes, cfg.dim_e,
                                       cfg.dim_x).values())
    stacks = -(-heads // stack_width(cfg.dim_e, rows))
    return heads * (HEAD_CALL_S + MADD_S * madds) \
        + STEP_S * stacks * epochs * -(-rows // cfg.batch_size)


def _group_seconds(cfg, method, heads: int) -> tuple[float, float, float]:
    """A lockstep group's task-1 training, its later training, and the
    rest: federated training, evaluation, scoring and Fisher passes."""
    brought, classes = _sizes(cfg)
    z, p = cfg.z_per_class, cfg.retain_per_class
    train, rest, history = [0.0, 0.0], 0.0, 0
    for t, (k, c) in enumerate(zip(brought, classes)):
        rest += _pass(cfg, cfg.test_per_class * sum(brought[:t + 1]), c,
                      heads)
        if method in FEDERATED_METHODS:
            rows = cfg.n_per_class * k
            rest += cfg.rounds * cfg.clients_per_task * _training(
                cfg, rows, c, cfg.local_epochs, heads)
            if method is Method.FEDEWC:
                rest += cfg.clients_per_task * _pass(cfg, rows, c, heads)
            continue
        history += z * k
        rows = {Method.OSIFL: z * k + min(p, z) * sum(brought[:t]),
                Method.OSCAR_CEILING: history}.get(method, z * k)
        train[t > 0] += _training(cfg, rows, c, cfg.epochs_per_task, heads)
        if method is Method.OSIFL and p:
            # Scoring, billed as one epoch of training on its rows.
            rest += heads * (PASS_S + MADD_S * sum(ledgers.training_madds(
                z * k, 1, c, cfg.dim_e, cfg.dim_x).values()))
        if method is Method.OSCAR_R:
            rest += _pass(cfg, z * k, c, heads)
    return train[0], train[1], rest


def _synthesis_seconds(cfg, brought: int) -> float:
    """A task's synthesis: the steps and multiply-adds of its reverse
    chains for `brought` classes."""
    sizes = cfg.dim_x, cfg.dim_e, cfg.diffusion_steps, cfg.denoiser_hidden
    chains = chain_step_madds(sizes, cfg.z_per_class * brought)
    return cfg.diffusion_steps * (CHAIN_STEP_S + SAMPLE_MADD_S * chains)


def _ddpm_seconds(cfg) -> tuple[float, float]:
    """A seed's pretraining, and its synthesis of every task."""
    sizes = cfg.dim_x, cfg.dim_e, cfg.diffusion_steps, cfg.denoiser_hidden
    step = pretrain_step_madds(sizes, cfg.pretrain_batch)
    return cfg.pretrain_steps * (PRETRAIN_STEP_S + PRETRAIN_MADD_S * step), \
        sum(_synthesis_seconds(cfg, k) for k in _sizes(cfg)[0])


def _synthesis(cfg, seed: int, t: int) -> tuple:
    """The plan's name of task `t`'s synthesis memo entry for `seed`: its
    memo key, the generator and the uploads named by their own."""
    return memo_key("synthesis", cfg, seed, memo_key("generator", cfg, seed),
                    t, memo_key("message", cfg, seed))


def task_units(cfg, seed: int) -> list[Unit]:
    """`seed`'s `ddpm` synthesis under `cfg`, a unit per task: `key` the
    entry the one-shot units need, `job` `(config, seed, task)`. Each
    reads the generator, built before they are placed."""
    return [Unit(_synthesis(cfg, seed, t), _synthesis_seconds(cfg, k), {},
                 (cfg, seed, t))
            for t, k in enumerate(_sizes(cfg)[0], start=1)]


def units(groups, built=frozenset()) -> list[Unit]:
    """The grid's units in serial order: each lockstep group `(config,
    method, seeds)`, or under `ddpm` a one-shot group's runs of each seed,
    at its share of the group's stacked seconds. A one-shot unit needs
    each of its seeds' task-1 heads and, under `ddpm`, generator and each
    task's synthesis, priced at 0 if `built` names it.

    The one-shot runs of a seed share its task-1 heads. OSCAR_IL, OSIFL
    at p = 0 and OSCAR_R at lambda_ewc = 0 train the same heads at every
    task, so they share their later training too."""
    out = []
    for cfg, method, seeds in groups:
        first, later, rest = _group_seconds(cfg, method, len(seeds))
        pretraining = _ddpm_seconds(cfg)[0]
        trunk_only = method is Method.OSCAR_IL or (
            method is Method.OSIFL and not cfg.retain_per_class) or (
            method is Method.OSCAR_R and not cfg.lambda_ewc)
        if not trunk_only:
            rest += later
        apart = cfg.generator == "ddpm" and method not in FEDERATED_METHODS
        for part in [(seed,) for seed in seeds] if apart else [seeds]:
            needs = {}
            for seed in () if method in FEDERATED_METHODS else part:
                trunk = memo_key(Method.OSCAR_IL, cfg, seed)
                needs["head1", trunk] = first / len(seeds)
                if trunk_only:
                    needs["heads", trunk] = later / len(seeds)
                if cfg.generator == "ddpm":
                    needs.update((u.key, u.seconds)
                                 for u in task_units(cfg, seed))
                    needs[memo_key("generator", cfg, seed)] = pretraining
            out.append(Unit(
                tuple(memo_key(method, cfg, seed) for seed in part),
                rest / len(seeds) if apart else rest,
                {e: 0.0 if e in built else s for e, s in needs.items()},
                (cfg, method, part)))
    return out


def seconds(units) -> float:
    """The estimated seconds of `units` in one process: their own, and
    once each entry they read."""
    needs = {}
    for unit in units:
        needs.update(unit.needs)
    return sum(u.seconds for u in units) + sum(needs.values())


def finish(here, there) -> float:
    """The estimated seconds until both processes are done, the worker
    running `there` while this process runs `here`."""
    return max(seconds(here), seconds(there))


def rebuilt(unit: Unit, here) -> float:
    """The seconds of the entries `unit`, placed in the worker, builds
    there that this process builds as well."""
    built_here = {e for u in here for e in u.needs}
    return sum(s for e, s in unit.needs.items() if e in built_here)


def split(units: list[Unit]):
    """`(here, there)`: the units this process and the worker run, each in
    serial order. The unit of most seconds of its own is placed first,
    each where `finish` is earlier, this process on a tie. Then each unit
    whose `rebuilt` entries cost at least its own seconds comes back
    here, until none does. The worker gets nothing unless the estimated
    saving, `seconds` of all less `finish`, exceeds `FORK_S`."""
    here, there = [], []
    for unit in sorted(units, key=lambda u: -u.seconds):
        if finish(here, [*there, unit]) < finish([*here, unit], there):
            there.append(unit)
        else:
            here.append(unit)
    while back := [u for u in there if rebuilt(u, here) >= u.seconds]:
        here += back
        there = [u for u in there if u not in back]
    away = {u.key for u in there}
    here, there = [u for u in units if u.key not in away], \
        [u for u in units if u.key in away]
    if seconds(units) - finish(here, there) <= FORK_S:
        return list(units), []
    return here, there


def _blas_threads():
    """The getter and setter of the thread count of NumPy's bundled
    OpenBLAS, or None where NumPy carries none."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    lib = ctypes.CDLL(libs[0]) if libs else None
    for name in ("scipy_openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
        if hasattr(lib, name.format("set")):
            return getattr(lib, name.format("get")), \
                getattr(lib, name.format("set"))
    return None


def one_blas_thread() -> None:
    """Set NumPy's bundled OpenBLAS to one thread for the rest of this
    process and of the workers it forks; nothing where NumPy carries
    none. With a BLAS thread per CPU, idle threads spin: on the CPU a
    worker needs (the default `ddpm` run took 11-17 s so, against 5 s),
    and on a free one, as in the pretraining a one-seed `ddpm` grid runs
    before its first fork. One thread also keeps the arithmetic off the
    machine's CPU count."""
    found = _blas_threads()
    if found is not None:
        found[1](1)


def can_fork() -> bool:
    """A worker pays only with a second CPU to run it on."""
    return hasattr(os, "fork") and hasattr(os, "sched_getaffinity") \
        and len(os.sched_getaffinity(0)) >= 2


def forked(here, there, keys: list) -> dict:
    """Run `there()`, which returns a report, an array of rows or an
    error for each of `keys`, in a forked worker process that pipes them
    back, while this process runs `here()`. Return `here()`'s results
    updated with the worker's: each report or array as sent, each error
    as RuntimeError of its text, or every key failing alike with
    ProtocolError if the worker died or sent anything else; a worker that
    raises prints its traceback. If this process raises, the worker is
    killed and reaped first. If the system refuses the fork, `here()` and
    then `there()` run in this process."""
    for stream in (sys.stdout, sys.stderr):
        stream.flush()
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns of a fork with threads running;
            # NumPy's OpenBLAS threads are shut down across a fork.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        results = here()
        results.update(there())
        return results
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with os.fdopen(w, "wb") as out:
                out.write(pickle.dumps({
                    key: got if isinstance(got, (RunReport, np.ndarray))
                    else str(got)
                    for key, got in there().items()}))
            code = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as pipe:
        try:
            results = here()
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    code = os.waitstatus_to_exitcode(status)
    if code:
        got = dict.fromkeys(keys, ProtocolError(
            "the worker " + (f"was killed by signal {-code}" if code < 0
                             else f"exited with code {code}")))
    else:
        try:
            got = pickle.loads(data)
            if not (isinstance(got, dict) and set(got) == set(keys) and all(
                    isinstance(v, (RunReport, np.ndarray, str))
                    for v in got.values())):
                raise ValueError(got)
        except Exception:
            got = dict.fromkeys(keys, ProtocolError(
                "the worker sent unreadable bytes"))
    results.update({key: RuntimeError(v) if isinstance(v, str) else v
                    for key, v in got.items()})
    return results
