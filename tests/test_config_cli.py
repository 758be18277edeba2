import os

import numpy as np
import pytest

from osifl import cli, orchestrator
from osifl.cli import (SEED_ENV, SWEEP_HEADER, main, resolve_seeds,
                       run_experiment, sweep)
from osifl.config import (ExperimentConfig, build_run_inputs, parse_config,
                          serialize_config)
from osifl.errors import ConfigError
from osifl.orchestrator import CSV_HEADER, Method


def _small(**overrides):
    base = dict(dim_x=6, num_classes=8, num_domains=2, num_tasks=2,
                classes_per_task=4, clients_per_task=1, n_per_class=8,
                test_per_class=6, z_per_class=6, base_pool_total=240,
                dim_e=12, epochs_per_task=2, rounds=2)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_empty_file_yields_full_defaults():
    cfg = parse_config("")
    assert cfg == ExperimentConfig()
    assert cfg.retain_per_class == 5
    assert cfg.learning_rate == 0.001
    assert cfg.epochs_per_task == 20
    assert cfg.seeds == (42, 18, 50)
    assert cfg.guidance_w == 2.0
    assert cfg.generator == "surrogate"


def test_comments_and_blank_lines_ignored():
    text = "# experiment\n\n  # indented comment\nnum_tasks = 3\n" \
           "num_classes = 15\n"
    cfg = parse_config(text)
    assert cfg.num_tasks == 3 and cfg.num_classes == 15


def test_negative_p_error_names_the_line():
    with pytest.raises(ConfigError, match=r"line 2: p:.*-1"):
        parse_config("# budget\np = -1\n")


def test_unknown_duplicate_and_malformed_keys():
    with pytest.raises(ConfigError, match="line 1: unknown key 'retain'"):
        parse_config("retain = 3\n")
    with pytest.raises(ConfigError, match="line 2: duplicate key 'p'"):
        parse_config("p = 1\np = 2\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")


def test_short_keys_map_to_long_fields():
    cfg = parse_config("w = 3.5\np = 7\n")
    assert cfg.guidance_w == 3.5
    assert cfg.retain_per_class == 7


@pytest.mark.parametrize("line", [
    "w = 0.5",
    "generator = gan",
    "suite_mode = task_incremental",
    "beta_min = 0",
    "learning_rate = 0",
    "seeds = ",
    "num_classes = one",
])
def test_value_constraint_violations(line):
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(line + "\n")


def test_class_list_and_seed_parsing():
    cfg = parse_config("num_tasks = 3\nnum_classes = 7\n"
                       "classes_per_task = 3, 2, 2\nseeds = 1, 2\n")
    assert cfg.classes_per_task == (3, 2, 2)
    assert cfg.seeds == (1, 2)


def test_cross_validation_failures():
    with pytest.raises(ConfigError, match="classes_per_task"):
        parse_config("num_tasks = 2\nclasses_per_task = 3, 2, 2\n")
    with pytest.raises(ConfigError, match="needs 40 classes"):
        parse_config("num_tasks = 8\nclasses_per_task = 5\n")
    with pytest.raises(ConfigError, match="num_tasks <= num_domains"):
        parse_config("suite_mode = domain_incremental\nnum_tasks = 7\n")
    with pytest.raises(ConfigError, match="beta_min"):
        parse_config("beta_min = 0.2\nbeta_max = 0.1\n")


def test_methods_list_parsing():
    cfg = parse_config("methods = OSIFL, FEDAVG\n")
    assert cfg.methods == (Method.OSIFL, Method.FEDAVG)
    assert parse_config("methods =\n").methods == ()
    with pytest.raises(ConfigError, match="unknown method"):
        parse_config("methods = OSIFL, BOGUS\n")
    with pytest.raises(ConfigError,
                       match="line 1: methods: method OSIFL is listed twice"):
        parse_config("methods = OSIFL, FEDAVG, OSIFL\n")
    with pytest.raises(ConfigError,
                       match="line 2: seeds: seed 42 is listed twice"):
        parse_config("p = 1\nseeds = 42, 7, 42\n")


def test_config_maps_to_train_and_diffusion_hp():
    cfg = parse_config(
        "learning_rate = 0.02\nbatch_size = 7\nepochs_per_task = 3\n"
        "weight_decay = 0.5\nlambda_ewc = 12.0\nmu_prox = 0.3\n"
        "adam_reset_per_task = false\ndiffusion_steps = 11\n"
        "beta_min = 0.001\nbeta_max = 0.2\ndenoiser_hidden = 9\n"
        "p_drop = 0.25\npretrain_steps = 13\npretrain_batch = 5\n")
    train = cfg.train_hp()
    assert (train.learning_rate, train.batch_size, train.epochs_per_task,
            train.weight_decay, train.lambda_ewc, train.mu_prox,
            train.adam_reset_per_task) == (0.02, 7, 3, 0.5, 12.0, 0.3, False)
    diff = cfg.diffusion_hp()
    assert (diff.num_steps, diff.beta_min, diff.beta_max, diff.hidden,
            diff.p_drop, diff.train_steps, diff.batch_size) == \
        (11, 0.001, 0.2, 9, 0.25, 13, 5)


def test_serialize_parse_round_trip():
    assert parse_config(serialize_config(ExperimentConfig())) == \
        ExperimentConfig()
    custom = parse_config("p = 2\nw = 4.0\nnum_tasks = 3\n"
                          "num_classes = 9\nclasses_per_task = 3\n"
                          "methods = OSIFL\nseeds = 5\n"
                          "generator = ddpm\nadam_reset_per_task = false\n")
    assert parse_config(serialize_config(custom)) == custom


def test_build_run_inputs_shapes():
    cfg = _small()
    world, suite, shards, test_sets = build_run_inputs(cfg, 11)
    assert world.dim_x == cfg.dim_x
    assert len(suite.tasks) == cfg.num_tasks
    assert len(shards) == cfg.num_tasks * cfg.clients_per_task
    assert sorted(test_sets) == [t.task_id for t in suite.tasks]
    assert all(len(test_sets[t]) == 4 * cfg.test_per_class
               for t in test_sets)


def test_resolve_seeds_env_override(monkeypatch):
    cfg = _small(seeds=(3, 4))
    monkeypatch.delenv(SEED_ENV, raising=False)
    assert resolve_seeds(cfg) == (3, 4)
    monkeypatch.setenv(SEED_ENV, " 7, 9 ")
    assert resolve_seeds(cfg) == (7, 9)
    monkeypatch.setenv(SEED_ENV, "")
    assert resolve_seeds(cfg) == (3, 4)
    monkeypatch.setenv(SEED_ENV, "7;9")
    with pytest.raises(ConfigError, match=SEED_ENV):
        resolve_seeds(cfg)
    monkeypatch.setenv(SEED_ENV, "7, 9, 7")
    with pytest.raises(ConfigError,
                       match=f"{SEED_ENV}: seed 7 is listed twice"):
        resolve_seeds(cfg)


def test_run_experiment_writes_every_method_seed_csv(tmp_path):
    cfg = _small(seeds=(42, 18, 50))
    out = str(tmp_path / "out")
    assert run_experiment(cfg, out) == 0
    names = sorted(os.listdir(out))
    run_files = [n for n in names if n.startswith("run_")]
    assert len(run_files) == 7 * 3
    for method in Method:
        for seed in (42, 18, 50):
            assert f"run_{method.value}_seed{seed}.csv" in names
    assert "summary.csv" in names
    with open(os.path.join(out, run_files[0])) as fh:
        assert fh.readline().strip() == CSV_HEADER
    with open(os.path.join(out, "summary.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == CSV_HEADER
    # summary: one seed-averaged row per (method, task)
    assert len(lines) - 1 == 7 * cfg.num_tasks


def test_run_experiment_no_methods_is_a_noop(tmp_path):
    cfg = _small(methods=(), seeds=(42,))
    out = str(tmp_path / "empty")
    assert run_experiment(cfg, out) == 0
    assert os.listdir(out) == ["summary.csv"]
    with open(os.path.join(out, "summary.csv")) as fh:
        assert fh.read() == CSV_HEADER + "\n"


def test_run_experiment_reruns_byte_identical(tmp_path):
    cfg = _small(methods=(Method.OSIFL, Method.FEDPROX), seeds=(42, 18))
    dirs = [str(tmp_path / name) for name in ("a", "b")]
    for d in dirs:
        assert run_experiment(cfg, d) == 0
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    for name in names:
        with open(os.path.join(dirs[0], name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(dirs[1], name), "rb") as fh:
            assert first == fh.read(), name


def test_run_experiment_partial_failure(tmp_path, capsys):
    # An untrained generator (zero pretraining steps) makes every
    # one-shot run fail at sampling time while federated runs are
    # unaffected, exercising the partial-summary path.
    cfg = _small(generator="ddpm", pretrain_steps=0,
                 methods=(Method.OSIFL, Method.FEDAVG), seeds=(5,))
    out = str(tmp_path / "part")
    assert run_experiment(cfg, out) == 1
    names = sorted(os.listdir(out))
    assert "run_FEDAVG_seed5.csv" in names
    assert "run_OSIFL_seed5.csv" not in names
    assert "summary.partial.csv" in names and "summary.csv" not in names
    err = capsys.readouterr().err
    assert "run failed: OSIFL seed=5" in err


def test_sweep_rejects_bad_axis_and_empty_values(tmp_path, capsys):
    cfg = _small()
    with pytest.raises(ConfigError, match="unknown sweep axis"):
        sweep(cfg, "dim_e", [1], str(tmp_path))
    with pytest.raises(ConfigError, match="at least one value"):
        sweep(cfg, "p", [], str(tmp_path))
    # Values go through the config file's parser for the axis key, so a
    # bad one stops the sweep before any run writes anything.
    for axis, value in (("p", "abc"), ("p", "-1"), ("w", "0.5"),
                        ("clients_per_task", "0")):
        with pytest.raises(ConfigError, match=f"sweep {axis}:"):
            sweep(cfg, axis, ["1", value], str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()
    path = tmp_path / "exp.cfg"
    path.write_text("methods = OSIFL\nseeds = 7\n")
    for axis, values in (("p", "abc"), ("p", "-1"), ("w", "0.5")):
        assert main(["sweep", "--config", str(path), "--axis", axis,
                     "--values", values, "--out",
                     str(tmp_path / "cli")]) == 2
        assert "error: sweep" in capsys.readouterr().err
    assert not (tmp_path / "cli").exists()


def test_sweep_csv_structure(tmp_path):
    cfg = _small(methods=(Method.OSIFL,), seeds=(42, 18))
    out = str(tmp_path / "sw")
    assert sweep(cfg, "p", ["0", "2"], out) == 0
    with open(os.path.join(out, "sweep_p.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == SWEEP_HEADER
    rows = [line.split(",") for line in lines[1:]]
    # per value: one row per seed plus one seed-averaged row (seed -1)
    assert len(rows) == 2 * (2 + 1)
    assert [r[0] for r in rows] == ["p"] * 6
    assert sorted({r[1] for r in rows}) == ["0", "2"]
    for value in ("0", "2"):
        seeds = [r[3] for r in rows if r[1] == value]
        assert seeds == ["42", "18", "-1"]


def test_single_value_sweep_matches_plain_run(tmp_path):
    cfg = _small(methods=(Method.OSIFL, Method.OSCAR_IL), seeds=(42,))
    run_out = str(tmp_path / "run")
    sweep_out = str(tmp_path / "sweep")
    assert run_experiment(cfg, run_out) == 0
    assert sweep(cfg, "p", [str(cfg.retain_per_class)], sweep_out) == 0
    with open(os.path.join(sweep_out, "sweep_p.csv")) as fh:
        sweep_rows = [line.split(",") for line in
                      fh.read().strip().split("\n")[1:]]
    finals = {}
    for method in cfg.methods:
        path = os.path.join(run_out, f"run_{method.value}_seed42.csv")
        with open(path) as fh:
            for line in fh.read().strip().split("\n")[1:]:
                cells = line.split(",")
                if cells[2] == str(cfg.num_tasks) and cells[3] == "-1":
                    finals[method.value] = cells[5]
    for row in sweep_rows:
        if row[3] == "42":
            assert row[4] == finals[row[2]]


def test_main_run_subcommand(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("num_tasks = 2\nnum_classes = 8\nclasses_per_task = 4\n"
                    "dim_x = 6\nnum_domains = 2\nn_per_class = 8\n"
                    "test_per_class = 6\nz_per_class = 6\n"
                    "base_pool_total = 240\ndim_e = 12\n"
                    "epochs_per_task = 2\nrounds = 2\n"
                    "methods = OSCAR_IL\nseeds = 7\n")
    out = str(tmp_path / "cli_out")
    assert main(["run", "--config", str(path), "--out", out]) == 0
    assert "run_OSCAR_IL_seed7.csv" in os.listdir(out)


def test_main_uses_config_out_dir_when_not_overridden(tmp_path):
    out = tmp_path / "from_cfg"
    path = tmp_path / "exp.cfg"
    path.write_text(f"methods =\nout_dir = {out}\n")
    assert main(["run", "--config", str(path)]) == 0
    assert (out / "summary.csv").exists()


def test_main_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("p = -1\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()


def test_main_sweep_and_selftest_wiring(tmp_path, monkeypatch):
    path = tmp_path / "exp.cfg"
    path.write_text("num_tasks = 2\nnum_classes = 8\nclasses_per_task = 4\n"
                    "dim_x = 6\nnum_domains = 2\nn_per_class = 8\n"
                    "test_per_class = 6\nz_per_class = 6\n"
                    "base_pool_total = 240\ndim_e = 12\n"
                    "epochs_per_task = 1\nrounds = 2\n"
                    "methods = OSIFL\nseeds = 7\n")
    out = str(tmp_path / "sw_out")
    assert main(["sweep", "--config", str(path), "--axis", "p",
                 "--values", "0,2", "--out", out]) == 0
    assert "sweep_p.csv" in os.listdir(out)
    import osifl.acceptance
    called = []
    monkeypatch.setattr(osifl.acceptance, "run_all",
                        lambda: called.append(True) or 0)
    assert main(["selftest"]) == 0
    assert called == [True]


_DDPM = dict(generator="ddpm", diffusion_steps=5, denoiser_hidden=8,
             pretrain_steps=10, pretrain_batch=16,
             methods=tuple(m for m in Method
                           if m in orchestrator.ONESHOT_METHODS),
             seeds=(3, 4))


def _read_dir(path):
    return {name: (path / name).read_bytes() for name in os.listdir(path)}


def test_shared_server_memo_writes_what_private_memos_write(
        tmp_path, monkeypatch):
    cfg = _small(**_DDPM)
    shared, private = [], []

    def collect(into, strip_server):
        def call(*args, **kwargs):
            if strip_server:
                kwargs.pop("server")
            report = orchestrator.run_method(*args, **kwargs)
            into.append(report)
            return report
        return call

    monkeypatch.setattr(cli, "run_method", collect(shared, False))
    assert run_experiment(cfg, str(tmp_path / "shared")) == 0
    monkeypatch.setattr(cli, "run_method", collect(private, True))
    assert run_experiment(cfg, str(tmp_path / "private")) == 0
    assert len(shared) == 8 and shared == private
    assert _read_dir(tmp_path / "shared") == _read_dir(tmp_path / "private")


def _count_calls(monkeypatch, name, key):
    real, seen = getattr(orchestrator, name), []

    def counted(*args, **kwargs):
        seen.append(key(args))
        return real(*args, **kwargs)

    monkeypatch.setattr(orchestrator, name, counted)
    return seen


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_grid_pretrains_once_per_seed_and_samples_once_per_task(
        tmp_path, monkeypatch, command):
    cfg = _small(**_DDPM)
    pretrained = _count_calls(monkeypatch, "pretrain", lambda a: a[3])
    sampled = _count_calls(monkeypatch, "synthesize_task_data",
                           lambda a: (id(a[0]), a[1][0].task_id))
    out = str(tmp_path / command)
    if command == "run":
        assert run_experiment(cfg, out) == 0
    else:
        assert sweep(cfg, "p", ["0", "2"], out) == 0
    assert pretrained == [3, 4]
    assert len(sampled) == len(set(sampled)) == 2 * cfg.num_tasks


def test_w_sweep_rows_match_separate_sweeps(tmp_path):
    cfg = _small(**_DDPM)
    assert sweep(cfg, "w", ["1", "4"], str(tmp_path / "both")) == 0
    rows = []
    for value in ("1", "4"):
        out = tmp_path / f"w{value}"
        assert sweep(cfg, "w", [value], str(out)) == 0
        rows += (out / "sweep_w.csv").read_text().splitlines()[1:]
    both = (tmp_path / "both" / "sweep_w.csv").read_text().splitlines()
    assert both[1:] == rows
    # The guidance weight reaches the ddpm sampler.
    assert rows[:len(rows) // 2] != rows[len(rows) // 2:]


def test_non_finite_synthesis_is_a_failed_run_not_a_nan_row(
        tmp_path, monkeypatch, capsys):
    class NaNGenerator:
        def sample(self, cond, n, w, rng, ledger=None):
            return np.full((n, cfg.dim_x), np.nan)

    cfg = _small(methods=(Method.OSIFL, Method.FEDAVG), seeds=(5,))
    monkeypatch.setattr(orchestrator, "make_surrogate",
                        lambda *args: NaNGenerator())
    out = tmp_path / "nan"
    assert run_experiment(cfg, str(out)) == 1
    assert "run failed: OSIFL seed=5: synthesis (seed 5, task 1) produced " \
        "non-finite values" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["run_FEDAVG_seed5.csv",
                                       "summary.partial.csv"]
    assert "nan" not in (out / "summary.partial.csv").read_text()
