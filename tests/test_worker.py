"""The worker: `run_grid(..., workers=1)` forks one process per grid for
the units `plan.split` gives it. The failure tests place the units
themselves (`_place`), so that what the worker holds does not hang on
the plan's cost estimates. Each test here starts at most two
processes."""
import errno
import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from osifl import cli, orchestrator, plan
from osifl.cli import main, run_experiment, run_grid, sweep
from osifl.config import ExperimentConfig
from osifl.diffusion import DiffusionModel
from osifl.encoder import make_encoder
from osifl.errors import ConfigError, ProtocolError
from osifl.orchestrator import FEDERATED_METHODS, Method, memo_key
from reference_run import reference_run

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

_BODY = ("num_tasks = 2\nnum_classes = 8\nclasses_per_task = 4\n"
         "dim_x = 6\nnum_domains = 2\nn_per_class = 8\ntest_per_class = 6\n"
         "z_per_class = 6\nbase_pool_total = 240\ndim_e = 12\n"
         "epochs_per_task = 2\nrounds = 2\n")

_MIXED = (Method.OSIFL, Method.OSCAR_IL, Method.FEDAVG, Method.FEDPROX)


def _small(**overrides):
    base = dict(dim_x=6, num_classes=8, num_domains=2, num_tasks=2,
                classes_per_task=4, clients_per_task=1, n_per_class=8,
                test_per_class=6, z_per_class=6, base_pool_total=240,
                dim_e=12, epochs_per_task=2, rounds=2, methods=_MIXED,
                seeds=(5, 6))
    base.update(overrides)
    return ExperimentConfig(**base)


def _files(path):
    return {name: (path / name).read_bytes() for name in os.listdir(path)}


def _two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


def _place(monkeypatch, away, tasks=None):
    """Give the grid two CPUs, and have the worker take each run unit
    whose `job`, `(config, method, seeds)`, satisfies `away`, and each
    task unit whose `job`, `(config, seed, task)`, satisfies `tasks`.
    Given `tasks`, the first plan gives the worker nothing, so that the
    `ddpm` synthesis splits by task before the runs are planned again.
    Return the `(here, there)` plans made."""
    _two_cpus(monkeypatch)
    plans = []

    def gone(unit):
        if not isinstance(unit.job[1], Method):
            return tasks(unit.job)
        return away(unit.job) and not (tasks and not plans)

    monkeypatch.setattr(plan, "split", lambda units: plans.append((
        [u for u in units if not gone(u)],
        [u for u in units if gone(u)])) or plans[-1])
    return plans


def _federated(job):
    return job[1] in FEDERATED_METHODS


def _in_worker(parent, act, name="train_local"):
    """Wrap the orchestrator's `name` to `act()` in a worker only."""
    real = getattr(orchestrator, name)

    def wrapped(*args, **kwargs):
        if os.getpid() != parent:
            act()
        return real(*args, **kwargs)

    return wrapped


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("args", [
    ["run"], ["sweep", "--axis", "p", "--values", "0,2"]],
    ids=["run", "sweep"])
def test_the_module_command_forks_and_writes_the_in_process_bytes(
        tmp_path, args):
    # `python -m osifl.cli` forks one worker where it has two CPUs (a
    # `sitecustomize` logs each fork), and writes the bytes that
    # `main(...)` writes in this process without one.
    path = tmp_path / "exp.cfg"
    path.write_text(_BODY + "methods = " + ", ".join(m.value for m in Method)
                    + "\nseeds = 42, 18\n")
    site, log = tmp_path / "site", tmp_path / "forks.log"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        "import os\n_fork = os.fork\n\ndef fork():\n    pid = _fork()\n"
        "    if pid:\n        with open(os.environ['FORK_LOG'], 'a') as fh:\n"
        "            fh.write('fork\\n')\n    return pid\n\nos.fork = fork\n")
    env = dict(os.environ, PYTHONPATH=f"{site}{os.pathsep}{_SRC}",
               FORK_LOG=str(log))
    env.pop(cli.SEED_ENV, None)
    command = [*args, "--config", str(path), "--out"]
    done = subprocess.run(
        [sys.executable, "-m", "osifl.cli", *command, str(tmp_path / "a")],
        env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert main(command + [str(tmp_path / "b")]) == 0
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    forks = log.read_text().count("fork") if log.exists() else 0
    assert forks == int(plan.can_fork())


def test_the_console_script_passes_one_worker(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "main", lambda argv=None, workers=0:
                        seen.append(workers) or 0)
    assert cli.command() == 0 and seen == [1]


def _kill():
    os.kill(os.getpid(), signal.SIGKILL)


def test_a_killed_worker_fails_each_forked_run(tmp_path, monkeypatch,
                                               capsys):
    _place(monkeypatch, _federated)
    monkeypatch.setattr(orchestrator, "train_local",
                        _in_worker(os.getpid(), _kill))
    cfg = _small()
    assert run_experiment(cfg, str(tmp_path), workers=1) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"run failed: {m} seed={s}: the worker was killed by "
        f"signal {signal.SIGKILL.value}" for s in (5, 6)
        for m in ("FEDAVG", "FEDPROX")]
    assert sorted(os.listdir(tmp_path)) == [
        f"run_{m}_seed{s}.csv" for m in ("OSCAR_IL", "OSIFL")
        for s in (5, 6)] + ["summary.partial.csv"]
    _assert_no_child_left()


@pytest.mark.parametrize("payload", [
    b"not a pickle", pickle.dumps({"FEDAVG": "a run no one asked for"}),
    pickle.dumps({(Method.FEDAVG, 5): 1})], ids=["bytes", "keys", "value"])
def test_a_worker_that_sends_unreadable_bytes_fails_each_forked_run(
        monkeypatch, payload):
    _place(monkeypatch, _federated)
    parent, real = os.getpid(), pickle.dumps
    monkeypatch.setattr(pickle, "dumps", lambda obj: payload
                        if os.getpid() != parent else real(obj))
    cfg = _small()
    cells, failures = run_grid(cfg, None, [None], cfg.seeds, workers=1)
    assert failures == [
        f"{m} seed={s}: the worker sent unreadable bytes"
        for s in (5, 6) for m in ("FEDAVG", "FEDPROX")]
    [(_, reports)] = cells
    assert [(r.method, r.seed) for r in reports] == [
        (m, s) for s in (5, 6) for m in ("OSIFL", "OSCAR_IL")]
    _assert_no_child_left()


def test_a_run_failing_in_the_worker_sends_its_text(monkeypatch):
    _place(monkeypatch, _federated)

    def refuse():
        raise ProtocolError("no update from this client")

    monkeypatch.setattr(orchestrator, "train_local",
                        _in_worker(os.getpid(), refuse))
    cfg = _small(methods=(Method.OSIFL, Method.FEDAVG), seeds=(5,))
    _, failures = run_grid(cfg, "p", [1], cfg.seeds, workers=1)
    assert failures == ["p=1 FEDAVG seed=5: no update from this client"]
    _assert_no_child_left()


@pytest.mark.parametrize("sent", [
    "no rows", np.array([0.5, 1.5]), [0.5, 1.5]],
    ids=["text", "array", "list"])
def test_the_pipe_takes_texts_and_arrays_and_refuses_the_rest(
        monkeypatch, sent):
    # What the worker pickles for a key, and what this process reads.
    parent, real = os.getpid(), pickle.dumps
    monkeypatch.setattr(pickle, "dumps", lambda obj: real(obj)
                        if os.getpid() == parent else real({"rows": sent}))
    got = plan.forked(dict, dict, ["rows"])["rows"]
    if isinstance(sent, list):
        assert isinstance(got, ProtocolError)
        assert str(got) == "the worker sent unreadable bytes"
    elif isinstance(sent, str):
        assert isinstance(got, RuntimeError) and str(got) == sent
    else:
        assert got.tolist() == sent.tolist()
    _assert_no_child_left()


def test_a_worker_that_raises_prints_its_traceback(monkeypatch, capfd):
    _place(monkeypatch, _federated)
    parent, real = os.getpid(), pickle.dumps

    def dumps(obj):
        if os.getpid() != parent:
            raise RuntimeError("cannot pickle this report")
        return real(obj)

    monkeypatch.setattr(pickle, "dumps", dumps)
    cfg = _small()
    _, failures = run_grid(cfg, None, [None], cfg.seeds, workers=1)
    assert failures == [f"{m} seed={s}: the worker exited with code 1"
                        for s in (5, 6) for m in ("FEDAVG", "FEDPROX")]
    assert capfd.readouterr().err.endswith(
        "RuntimeError: cannot pickle this report\n")
    _assert_no_child_left()


class _Abort(BaseException):
    pass


def test_an_error_here_kills_and_reaps_the_worker(monkeypatch):
    # The worker would sleep for a minute; the error in this process's
    # one-shot runs ends the grid at once, and the worker with it.
    _place(monkeypatch, _federated)
    monkeypatch.setattr(orchestrator, "train_local",
                        _in_worker(os.getpid(), lambda: time.sleep(60)))
    parent, real = os.getpid(), orchestrator.train_naive

    def abort(*args, **kwargs):
        if os.getpid() == parent:
            raise _Abort
        return real(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "train_naive", abort)
    cfg = _small()
    start = time.monotonic()
    with pytest.raises(_Abort):
        run_grid(cfg, None, [None], cfg.seeds, workers=1)
    assert time.monotonic() - start < 30
    _assert_no_child_left()


def _refused(calls):
    def refuse():
        calls.append(None)
        raise OSError(errno.EAGAIN, "no process to spare")
    return refuse


def test_the_in_process_entry_points_never_fork(tmp_path, monkeypatch):
    _two_cpus(monkeypatch)
    calls = []
    monkeypatch.setattr(os, "fork", _refused(calls))
    cfg = _small()
    path = tmp_path / "exp.cfg"
    path.write_text(_BODY + "methods = OSIFL, FEDAVG\nseeds = 5\n")
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "main")]) == 0
    assert run_experiment(cfg, str(tmp_path / "run")) == 0
    assert sweep(cfg, "p", ["1", "2"], str(tmp_path / "sweep")) == 0
    assert run_grid(cfg, None, [None], cfg.seeds)[1] == []
    assert calls == []


def test_a_refused_fork_runs_the_worker_here(tmp_path, monkeypatch):
    _two_cpus(monkeypatch)
    calls = []
    monkeypatch.setattr(os, "fork", _refused(calls))
    cfg = _small()
    assert run_experiment(cfg, str(tmp_path / "one"), workers=1) == 0
    assert run_experiment(cfg, str(tmp_path / "zero")) == 0
    assert len(calls) == 1
    assert _files(tmp_path / "one") == _files(tmp_path / "zero")


def test_one_cpu_or_no_fork_forks_nothing(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(os, "fork", _refused(calls))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    cfg = _small()
    assert run_experiment(cfg, str(tmp_path / "one_cpu"), workers=1) == 0
    monkeypatch.delattr(os, "fork")
    _two_cpus(monkeypatch)
    assert run_experiment(cfg, str(tmp_path / "no_fork"), workers=1) == 0
    assert calls == []
    assert _files(tmp_path / "one_cpu") == _files(tmp_path / "no_fork")


def test_workers_is_zero_or_one():
    cfg = _small()
    with pytest.raises(ConfigError, match="workers must be 0 or 1"):
        run_grid(cfg, None, [None], cfg.seeds, workers=2)


_DDPM = dict(generator="ddpm", diffusion_steps=5, denoiser_hidden=8,
             pretrain_steps=10, pretrain_batch=16)
_THREE = (Method.OSIFL, Method.OSCAR_IL, Method.FEDAVG)


def _assert_reference_reports(cells):
    for cell, reports in cells:
        for r in reports:
            assert r == reference_run(r.method, cell, r.seed).report


def _one_shot_of(seed):
    return lambda job: job[1] not in FEDERATED_METHODS and job[2] == (seed,)


# (a) OSCAR_IL does not read p: the worker's one unit fills its cells at
# both values. (b) The worker holds seed 6's one-shot runs, and pretrains
# the generator they read.
_HELD = {
    "sweep_key": (dict(methods=_THREE), "p", [1, 2],
                  lambda job: job[1] is Method.OSCAR_IL, "train_naive",
                  [f"p={p} OSCAR_IL seed={s}" for p in (1, 2)
                   for s in (5, 6)]),
    "seed": (dict(_DDPM, methods=_THREE), None, [None], _one_shot_of(6),
             "pretrain", [f"{m} seed=6" for m in ("OSIFL", "OSCAR_IL")])}


@pytest.mark.parametrize("held", sorted(_HELD))
@pytest.mark.parametrize("fault", ["killed", "unreadable"])
def test_a_failed_worker_fails_each_cell_that_needed_its_units(
        monkeypatch, held, fault):
    overrides, axis, values, away, name, cells_failed = _HELD[held]
    _place(monkeypatch, away)
    parent = os.getpid()
    if fault == "killed":
        monkeypatch.setattr(orchestrator, name,
                            _in_worker(parent, _kill, name))
        why = f"the worker was killed by signal {signal.SIGKILL.value}"
    else:
        real = pickle.dumps
        monkeypatch.setattr(pickle, "dumps", lambda obj: b"not a pickle"
                            if os.getpid() != parent else real(obj))
        why = "the worker sent unreadable bytes"
    cfg = _small(**overrides)
    cells, failures = run_grid(cfg, axis, values, cfg.seeds, workers=1)
    assert failures == [f"{cell}: {why}" for cell in cells_failed]
    assert sum(map(len, (reports for _, reports in cells))) == \
        len(values) * len(cfg.seeds) * len(cfg.methods) - len(failures)
    _assert_reference_reports(cells)
    _assert_no_child_left()


def test_generators_made_in_the_worker_equal_the_reference_run(
        monkeypatch):
    # The worker holds seed 6's one-shot runs at both values and pretrains
    # their generator there. This process pretrains only the seeds of the
    # one-shot runs the plan keeps here, once each for both values, and
    # keeps only their generators.
    _place(monkeypatch, _one_shot_of(6))
    plans, split = [], plan.split
    monkeypatch.setattr(plan, "split", lambda units: plans.append(
        split(units)) or plans[-1])
    forks, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real())
    # A worker's calls append to its own copy of the list.
    here, pretrain = [], orchestrator.pretrain
    monkeypatch.setattr(orchestrator, "pretrain", lambda *args, **kw:
                        here.append(args[3]) or pretrain(*args, **kw))
    cfg = _small(**dict(_DDPM, methods=_THREE))
    server = orchestrator.ServerMemo()
    cells, failures = run_grid(cfg, "w", [1.0, 3.0], cfg.seeds,
                               server=server, workers=1)
    [(kept, _)] = plans
    kept_seeds = sorted({seed for u in kept if u.job[1] not in
                         FEDERATED_METHODS for seed in u.job[2]})
    assert failures == [] and len(forks) == 1
    assert sorted(here) == kept_seeds == [5]
    assert [seed for seed in cfg.seeds
            if memo_key("generator", cfg, seed) in server] == kept_seeds
    _assert_reference_reports(cells)
    _assert_no_child_left()


def test_each_process_builds_only_the_uploads_its_runs_read(monkeypatch):
    # The worker holds seed 6's one-shot runs, so this process serializes
    # no upload of seed 6: each client message it builds is one of seed
    # 5's shards, told apart by the encoder that encodes it.
    _place(monkeypatch, _one_shot_of(6))
    cfg = _small(**dict(_DDPM, methods=_THREE))
    seed_of = {make_encoder(cfg.dim_e, cfg.dim_x, seed).checksum(): seed
               for seed in cfg.seeds}
    # A worker's calls append to its own copy of the list.
    here, build = [], orchestrator.build_client_message
    monkeypatch.setattr(orchestrator, "build_client_message",
                        lambda encoder, shard: here.append(
                            seed_of[encoder.checksum()])
                        or build(encoder, shard))
    cells, failures = run_grid(cfg, None, [None], cfg.seeds, workers=1)
    assert failures == []
    assert sorted(set(here)) == [5]
    assert len(here) == cfg.num_tasks * cfg.clients_per_task
    _assert_reference_reports(cells)
    _assert_no_child_left()


_ONE_SEED = dict(_DDPM, seeds=(5,), num_tasks=3, classes_per_task=2,
                 methods=(Method.OSIFL, Method.OSCAR_IL, Method.OSCAR_R))


def _even_task(job):
    return job[2] % 2 == 0


def _synthesis_of(cfg, workers):
    """Each task's kept synthesis, rows and bill, of a grid of `cfg`."""
    server = orchestrator.ServerMemo()
    cells, failures = run_grid(cfg, None, [None], cfg.seeds, server=server,
                               workers=workers)
    # A key ends with the task and its uploads.
    return cells, failures, sorted(
        (key[-2], synth.data.x.tobytes(), madds)
        for key, (synth, madds) in server._entries.items()
        if key[0] == "synthesis")


def _logged(monkeypatch, path, name, what):
    """Wrap the orchestrator's `name` to append `<pid> <what(args)>` to
    `path`: a line from either process."""
    real = getattr(orchestrator, name)

    def wrapped(*args, **kwargs):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()} {what(args)}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(orchestrator, name, wrapped)


def test_a_one_seed_grid_splits_its_synthesis_then_its_runs(
        tmp_path, monkeypatch):
    # The first plan gives the worker nothing. The parent pretrains the
    # one generator; the worker inherits it and synthesizes task 2, this
    # process tasks 1 and 3, each once. Then OSCAR_IL's runs go to a
    # second worker, which synthesizes nothing: both forks' runs read the
    # synthesis this process keeps, the rows and bill of `workers=0`.
    cfg = _small(**_ONE_SEED)
    *_, alone = _synthesis_of(cfg, 0)
    plans = _place(monkeypatch, lambda job: job[1] is Method.OSCAR_IL,
                   _even_task)
    forks, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real())
    log = tmp_path / "calls.log"
    _logged(monkeypatch, log, "pretrain", lambda args: "pretrain")
    _logged(monkeypatch, log, "synthesize_task_data",
            lambda args: f"task {args[1][0].task_id}")
    cells, failures, kept = _synthesis_of(cfg, 1)
    assert failures == [] and len(forks) == 2 and kept == alone
    assert [[u.job[1:] for u in there] for _, there in plans] == [
        [], [(5, 2)], [(Method.OSCAR_IL, (5,))]]
    parent = str(os.getpid())
    calls = sorted((pid == parent, what) for pid, what in (
        line.split(" ", 1) for line in log.read_text().splitlines()))
    assert calls == [(False, "task 2"), (True, "pretrain"), (True, "task 1"),
                     (True, "task 3")]
    _assert_reference_reports(cells)
    _assert_no_child_left()


def _piped(change):
    """A worker's `pickle.dumps`, after `real`, with each array it pipes
    changed."""
    return lambda real, obj: real({
        key: change(got) if isinstance(got, np.ndarray) else got
        for key, got in obj.items()})


_PIPED = {
    "unreadable": lambda real, obj: b"not a pickle",
    "short": _piped(lambda rows: rows[:-1]),
    "narrow": _piped(lambda rows: rows[:, :-1]),
    "dtype": _piped(lambda rows: rows.astype(np.float32)),
    "non_finite": _piped(lambda rows: np.full_like(rows, np.nan)),
    "list": _piped(lambda rows: rows.tolist())}


@pytest.mark.parametrize("fault", ["killed", *_PIPED])
def test_a_worker_whose_synthesis_fails_leaves_it_to_the_runs(
        monkeypatch, capfd, fault):
    # The worker holds task 2's synthesis and no run. Whether it dies in
    # `synthesize_task_data`, garbles its pickle or pipes rows of the
    # wrong shape, dtype, values or type, this process leaves task 2 to
    # the runs, which build it: every report, and each task's kept rows
    # and bill, are the in-process grid's, and no run fails.
    cfg = _small(**_ONE_SEED)
    [(_, alone)], _, synthesis = _synthesis_of(cfg, 0)
    plans = _place(monkeypatch, lambda job: False, _even_task)
    parent = os.getpid()
    if fault == "killed":
        monkeypatch.setattr(orchestrator, "synthesize_task_data", _in_worker(
            parent, _kill, "synthesize_task_data"))
    else:
        real = pickle.dumps
        monkeypatch.setattr(pickle, "dumps", lambda obj: real(obj)
                            if os.getpid() == parent
                            else _PIPED[fault](real, obj))
    [(_, reports)], failures, kept = _synthesis_of(cfg, 1)
    assert [[u.job[1:] for u in there] for _, there in plans] == [
        [], [(5, 2)], []]
    assert failures == [] and reports == alone and kept == synthesis
    assert capfd.readouterr().err == ""
    _assert_no_child_left()


def test_a_generator_that_synthesizes_nan_fails_its_runs_alike(
        monkeypatch):
    # The worker's task 2 and this process's tasks 1 and 3 all come out
    # non-finite; each run fails at task 1 with the text it fails with
    # in process, and the runs' second plan keeps OSIFL here.
    class NaNModel(DiffusionModel):
        def sample_chains(self, *args, **kwargs):
            return np.full_like(super().sample_chains(*args, **kwargs),
                                np.nan)

    real = orchestrator.pretrain

    def pretrain(*args, **kwargs):
        model = real(*args, **kwargs)
        model.__class__ = NaNModel
        return model

    monkeypatch.setattr(orchestrator, "pretrain", pretrain)
    cfg = _small(**_ONE_SEED)
    alone = run_grid(cfg, None, [None], cfg.seeds)
    plans = _place(monkeypatch, lambda job: job[1] is not Method.OSIFL,
                   _even_task)
    assert run_grid(cfg, None, [None], cfg.seeds, workers=1) == alone
    assert len(plans) == 3
    assert [line.split(" for class ")[0] for line in alone[1]] == [
        f"{m.value} seed=5: synthesis (seed 5, task 1) produced non-finite "
        "values" for m in cfg.methods]
    _assert_no_child_left()
