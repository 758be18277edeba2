"""The federated worker: `run_grid(..., workers=1)` forks one process per
grid value for its federated runs. Each test here starts at most two
processes."""
import errno
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from osifl import cli, orchestrator
from osifl.cli import main, run_experiment, run_grid, sweep
from osifl.config import ExperimentConfig
from osifl.errors import ConfigError, ProtocolError
from osifl.orchestrator import Method

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


def _in_worker(parent, act):
    """Wrap the federated clients' trainer to `act()` in a worker only."""
    real = orchestrator.train_local

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
    assert forks == int(cli._can_fork())


def test_the_console_script_passes_one_worker(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "main", lambda argv=None, workers=0:
                        seen.append(workers) or 0)
    assert cli.command() == 0 and seen == [1]


def test_a_killed_worker_fails_each_forked_run(tmp_path, monkeypatch,
                                               capsys):
    _two_cpus(monkeypatch)
    monkeypatch.setattr(orchestrator, "train_local", _in_worker(
        os.getpid(), lambda: os.kill(os.getpid(), signal.SIGKILL)))
    cfg = _small()
    assert run_experiment(cfg, str(tmp_path), workers=1) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"run failed: {m} seed={s}: the federated worker was killed by "
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
    _two_cpus(monkeypatch)
    parent, real = os.getpid(), pickle.dumps
    monkeypatch.setattr(pickle, "dumps", lambda obj: payload
                        if os.getpid() != parent else real(obj))
    cfg = _small()
    cells, failures = run_grid(cfg, None, [None], cfg.seeds, workers=1)
    assert failures == [
        f"{m} seed={s}: the federated worker sent unreadable bytes"
        for s in (5, 6) for m in ("FEDAVG", "FEDPROX")]
    [(_, reports)] = cells
    assert [(r.method, r.seed) for r in reports] == [
        (m, s) for s in (5, 6) for m in ("OSIFL", "OSCAR_IL")]
    _assert_no_child_left()


def test_a_run_failing_in_the_worker_sends_its_text(monkeypatch):
    _two_cpus(monkeypatch)

    def refuse():
        raise ProtocolError("no update from this client")

    monkeypatch.setattr(orchestrator, "train_local",
                        _in_worker(os.getpid(), refuse))
    cfg = _small(methods=(Method.OSIFL, Method.FEDAVG), seeds=(5,))
    _, failures = run_grid(cfg, "p", [1], cfg.seeds, workers=1)
    assert failures == ["p=1 FEDAVG seed=5: no update from this client"]
    _assert_no_child_left()


class _Abort(BaseException):
    pass


def test_an_error_here_kills_and_reaps_the_worker(monkeypatch):
    # The worker would sleep for a minute; the error in this process's
    # one-shot runs ends the grid at once, and the worker with it.
    _two_cpus(monkeypatch)
    monkeypatch.setattr(orchestrator, "train_local",
                        _in_worker(os.getpid(), lambda: time.sleep(60)))

    def abort(*args):
        raise _Abort

    monkeypatch.setattr(orchestrator, "make_surrogate", abort)
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
