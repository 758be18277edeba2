import dataclasses
import os
import pathlib
import re

import numpy as np
import pytest

from osifl import cli, orchestrator, trainer
from osifl.cli import (SEED_ENV, SWEEP_HEADER, main, resolve_seeds,
                       run_experiment, sweep)
from osifl.config import (FIELD_SPECS, ExperimentConfig, build_run_inputs,
                          parse_config, serialize_config)
from osifl.encoder import build_client_message, make_encoder, \
    parse_message, serialize_message
from osifl.errors import ConfigError
from osifl.orchestrator import CSV_HEADER, READS, UNREAD, Method, memo_key, \
    reads, report_rows, rows_to_csv
from reference_run import record_states, reference_run


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
    "beta_min = 1e-17",
    "beta_max = nan",
    "learning_rate = 0",
    "learning_rate = inf",
    "within_std = inf",
    "weight_decay = inf",
    "lambda_ewc = inf",
    "mu_prox = 1e400",
    "w = inf",
    "p_drop = nan",
    "learning_rate = -inf",
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


@pytest.mark.parametrize("body, key", [
    ("num_tasks = 2\nclasses_per_task = 3, 2, 2", "classes_per_task"),
    ("num_tasks = 8\nclasses_per_task = 5", "classes_per_task"),
    ("suite_mode = domain_incremental\nnum_tasks = 7", "num_tasks"),
    ("beta_max = 0.1\nbeta_min = 0.2", "beta_min"),
    ("test_per_class = 999999999999", "test_per_class")],
    ids=["list_length", "too_few_classes", "too_few_domains",
         "betas_crossed", "oversized_array"])
def test_construction_refuses_what_the_parser_refuses_across_keys(
        body, key):
    # `ExperimentConfig(...)` and `dataclasses.replace` of a valid config
    # raise the parser's error less its line, naming the key.
    lines = body.splitlines()
    with pytest.raises(ConfigError) as parsed:
        parse_config(body + "\n")
    line = 1 + [ln.split(" = ")[0] for ln in lines].index(key)
    prefix = f"line {line}: "
    assert str(parsed.value).startswith(prefix)
    values = {FIELD_SPECS[k][0]: FIELD_SPECS[k][1](v)
              for k, v in (ln.split(" = ") for ln in lines)}
    for build in (lambda: ExperimentConfig(**values),
                  lambda: dataclasses.replace(ExperimentConfig(), **values)):
        with pytest.raises(ConfigError) as built:
            build()
        assert str(built.value) == str(parsed.value)[len(prefix):]
        assert built.value.key == key


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


def test_serialize_parse_round_trip():
    assert parse_config(serialize_config(ExperimentConfig())) == \
        ExperimentConfig()
    custom = parse_config("p = 2\nw = 4.0\nnum_tasks = 3\n"
                          "num_classes = 9\nclasses_per_task = 3\n"
                          "methods = OSIFL\nseeds = 5\n"
                          "generator = ddpm\nadam_reset_per_task = false\n")
    assert parse_config(serialize_config(custom)) == custom


DEFAULT_TEXT = """\
dim_x = 16
num_classes = 30
num_domains = 6
within_std = 0.5
suite_mode = class_incremental
num_tasks = 6
classes_per_task = 5
clients_per_task = 1
n_per_class = 50
test_per_class = 20
z_per_class = 50
base_pool_total = 3600
dim_e = 64
learning_rate = 0.001
batch_size = 32
epochs_per_task = 20
weight_decay = 0.0001
lambda_ewc = 0.1
mu_prox = 0.01
adam_reset_per_task = true
rounds = 20
local_epochs = 1
reported_model_params = 0
diffusion_steps = 100
beta_min = 0.0001
beta_max = 0.05
p_drop = 0.1
w = 2.0
generator = surrogate
denoiser_hidden = 128
pretrain_steps = 2000
pretrain_batch = 64
p = 5
scoring_point = pre_update
score_by = grad_norm
methods = OSIFL, OSCAR_IL, OSCAR_R, OSCAR_CEILING, FEDAVG, FEDPROX, FEDEWC
seeds = 42, 18, 50
out_dir = out
"""


def test_the_default_canonical_text_is_unchanged():
    # Every config_echo and every memo key built from it starts here.
    assert serialize_config(ExperimentConfig()) == DEFAULT_TEXT


# One valid value per ExperimentConfig field, other than its default, as
# a config file writes it; each is valid with every other field at its
# default. A field with no entry fails the test below.
NON_DEFAULT_VALUES = {
    "dim_x": "8", "num_classes": "31", "num_domains": "7",
    "within_std": "0.25", "suite_mode": "domain_incremental",
    "num_tasks": "5", "classes_per_task": "5, 4, 5, 4, 5, 4",
    "clients_per_task": "2", "n_per_class": "20", "test_per_class": "10",
    "z_per_class": "0", "base_pool_total": "1000", "dim_e": "32",
    "learning_rate": "0.01", "batch_size": "16", "epochs_per_task": "0",
    "weight_decay": "0.0", "lambda_ewc": "0.5", "mu_prox": "0.1",
    "adam_reset_per_task": "false", "rounds": "3", "local_epochs": "2",
    "reported_model_params": "1000", "diffusion_steps": "50",
    "beta_min": "0.001", "beta_max": "0.02", "p_drop": "0.2",
    "guidance_w": "3.5", "generator": "ddpm", "denoiser_hidden": "64",
    "pretrain_steps": "0", "pretrain_batch": "32", "retain_per_class": "0",
    "scoring_point": "post_update", "score_by": "loss",
    "methods": "OSIFL, FEDAVG", "seeds": "7, 8", "out_dir": "elsewhere",
}


def test_each_field_round_trips_a_value_under_its_own_key():
    fields = dataclasses.fields(ExperimentConfig)
    assert sorted(NON_DEFAULT_VALUES) == sorted(f.name for f in fields)
    key_of = {attr: key for key, (attr, _) in FIELD_SPECS.items()}
    assert sorted(key_of) == sorted(f.name for f in fields)
    for field in fields:
        text = f"{key_of[field.name]} = {NON_DEFAULT_VALUES[field.name]}\n"
        cfg = parse_config(text)
        assert getattr(cfg, field.name) != field.default, field.name
        assert cfg == dataclasses.replace(
            ExperimentConfig(), **{field.name: getattr(cfg, field.name)})
        assert parse_config(serialize_config(cfg)) == cfg


# One value per ExperimentConfig field, as Python passes it, that the
# config file would refuse or read back as another value.
REFUSED_VALUES = {
    "dim_x": 0, "num_classes": 1, "num_domains": 0, "within_std": 0.0,
    "suite_mode": "task_incremental", "num_tasks": 0,
    "classes_per_task": (5,), "clients_per_task": 0, "n_per_class": 0,
    "test_per_class": 0, "z_per_class": -1, "base_pool_total": 0,
    "dim_e": 0, "learning_rate": 0.0, "batch_size": 0,
    "epochs_per_task": -1, "weight_decay": -1e-4, "lambda_ewc": -0.1,
    "mu_prox": float("nan"), "adam_reset_per_task": 1, "rounds": 0,
    "local_epochs": 0, "reported_model_params": -1, "diffusion_steps": 0,
    "beta_min": 1e-17, "beta_max": 1.0, "p_drop": 2.0, "guidance_w": 0.5,
    "generator": "gan", "denoiser_hidden": 0, "pretrain_steps": -1,
    "pretrain_batch": 32.0, "retain_per_class": "5",
    "scoring_point": "mid_update", "score_by": "margin",
    "methods": ("OSIFL", "OSIFL"), "seeds": (), "out_dir": "a#b",
}


def test_each_field_refuses_in_python_what_the_file_refuses():
    fields = dataclasses.fields(ExperimentConfig)
    assert sorted(REFUSED_VALUES) == sorted(f.name for f in fields)
    key_of = {attr: key for key, (attr, _) in FIELD_SPECS.items()}
    for field in fields:
        value = {field.name: REFUSED_VALUES[field.name]}
        with pytest.raises(ConfigError, match=rf"^{key_of[field.name]}: "):
            ExperimentConfig(**value)
        with pytest.raises(ConfigError, match=rf"^{key_of[field.name]}: "):
            dataclasses.replace(ExperimentConfig(), **value)
    # NumPy scalars are read, and written to a file, as their values.
    assert ExperimentConfig(learning_rate=np.float64(0.01),
                            batch_size=np.int64(16)).canonical() == \
        ExperimentConfig(learning_rate=0.01, batch_size=16).canonical()


@pytest.mark.parametrize("out_dir", ["a#b", "#", " a", "a ", "\ta",
                                     "a\nb", "a\rb", "a\x0bb", "a\u2028b"])
def test_out_dir_refuses_what_a_config_file_line_cannot_hold(out_dir):
    with pytest.raises(ConfigError, match=r"^out_dir: a config file "):
        ExperimentConfig(out_dir=out_dir)


def test_out_dir_with_inner_blanks_and_signs_round_trips():
    for out_dir in ("my runs/out", "a=b", "", "out-1.2"):
        cfg = ExperimentConfig(out_dir=out_dir)
        assert parse_config(cfg.canonical()) == cfg


# The memo-key walk's base: small, unequal to every NON_DEFAULT_VALUES
# entry, and a valid config with any one of them. Each head trains two
# minibatch steps a task, so that a penalty, zero at the first step from
# its anchor, moves the head.
_WALK = dict(dim_x=4, num_classes=30, num_domains=6, num_tasks=6,
             classes_per_task=2, n_per_class=4, test_per_class=3,
             z_per_class=4, base_pool_total=60, dim_e=6, batch_size=4,
             epochs_per_task=1, rounds=1, diffusion_steps=3,
             denoiser_hidden=4, pretrain_steps=4, pretrain_batch=8)


def _memo_keys(cfg, states, seed=3):
    """Each memoized layer's `memo_key` for `cfg` at `seed`, with a
    function that computes the bits of what the key stands for, each on a
    private memo: a run's are its report and the states that `states`, a
    `record_states` dict, records after each task."""
    inputs = build_run_inputs(cfg, seed)
    world, _, shards, test_sets = inputs
    state = orchestrator.RunState(
        method=Method.OSIFL, config=cfg, seed=seed, world=world,
        encoder=make_encoder(cfg.dim_e, world.dim_x, seed), classifier=None)
    task1 = [s for s in shards if s.task_id == 1]
    blobs = [serialize_message(build_client_message(state.encoder, s))
             for s in task1]
    gen_key = memo_key("generator", cfg, seed)

    def generator():
        orchestrator._build_generator(state)
        gen = state.generator
        return type(gen), (gen.cond_matrix if cfg.generator == "surrogate"
                           else gen.denoiser.flat).tobytes()

    def synthesized():
        orchestrator._build_generator(state)
        data = orchestrator._synthesized_task(
            state, blobs, [parse_message(blob) for blob in blobs]).data
        return data.x.tobytes(), data.y.tobytes()

    batches = [s.samples for s in shards] + list(test_sets.values())
    bits = {"inputs": lambda: (
        inputs[1], [s.client_id for s in shards], [a.tobytes() for a in (
            world.class_anchors, world.domain_offsets, *(
                a for b in batches for a in (b.x, b.y, b.domain)))]),
        "message": lambda: blobs[0], "generator": generator,
        "synthesis": synthesized}

    def run(method):
        states.clear()
        report = orchestrator.run_method(method, *inputs, cfg, seed)
        return dataclasses.replace(report, config_echo=None), list(
            states.values())

    for method in Method:
        bits[method] = lambda m=method: run(m)
    # The message key's and the synthesis key's other inputs, with the
    # generator key standing for the memo's generator object.
    others = {"message": (1, task1[0].client_id),
              "synthesis": (gen_key, 1, tuple(blobs))}
    assert sorted(bits) == sorted(READS)
    return {layer: (memo_key(layer, cfg, seed, *others.get(layer, ())),
                    bits[layer]) for layer in READS}


@pytest.mark.parametrize("generator", ["surrogate", "ddpm"])
def test_each_memo_key_changes_with_a_field_or_keys_the_same_bits(
        generator, monkeypatch):
    # Each config field moves to its NON_DEFAULT_VALUES entry. Where a
    # layer's key stays put, what it keys must not move; the keys of the
    # inputs and the generator move exactly when their bits do.
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert sorted(NON_DEFAULT_VALUES) == sorted(fields)
    # Every field is read by a row of the table, or named as unread.
    base_cfg = ExperimentConfig(**_WALK, generator=generator)
    ddpm = dataclasses.replace(base_cfg, generator="ddpm")
    read = {f for layer in READS for f in reads(layer, ddpm)}
    assert read | set(UNREAD) == set(fields) and not read & set(UNREAD), \
        set(fields) ^ read
    key_of = {attr: key for key, (attr, _) in FIELD_SPECS.items()}
    states = record_states(monkeypatch)
    base, base_bits = _memo_keys(base_cfg, states), {}
    for field in fields:
        value = FIELD_SPECS[key_of[field]][1](NON_DEFAULT_VALUES[field])
        moved = _memo_keys(dataclasses.replace(base_cfg, **{field: value}),
                           states)
        for name, (key, bits) in moved.items():
            if key == base[name][0] or name in ("inputs", "generator"):
                if name not in base_bits:
                    base_bits[name] = base[name][1]()
                assert (bits() == base_bits[name]) == \
                    (key == base[name][0]), (field, name)


def test_the_readme_configuration_table_names_every_key():
    readme = (pathlib.Path(__file__).resolve().parents[1] /
              "README.md").read_text()
    section = readme.split("## Configuration reference", 1)[1]
    section = section.split("\n## ", 1)[0]
    keys = [key for line in section.splitlines() if line.startswith("| `")
            for key in re.findall(r"`([^`]+)`", line.split("|")[1])]
    assert sorted(keys) == sorted(FIELD_SPECS)


def test_the_readme_library_examples_run(capsys):
    # The python blocks under "Library use" run in order, in one
    # namespace, as a reader would paste them.
    readme = (pathlib.Path(__file__).resolve().parents[1] /
              "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 4
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    assert "(250, 16) [5 5 5 5 5] 1" in capsys.readouterr().out


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


@pytest.mark.parametrize("field, value, method", [
    ("lambda_ewc", 1e200, Method.OSCAR_R), ("mu_prox", 1e300, Method.FEDPROX)])
def test_an_overflowing_penalty_is_a_failed_run(tmp_path, capsys, field,
                                                value, method):
    # Outside the tests an overflow is only a RuntimeWarning, so ignore
    # it here too: the run itself must fail, naming lambda.
    # Batches of 8: a FedProx pass's first step has no gap to pull on.
    cfg = _small(methods=(method,), seeds=(5,), batch_size=8,
                 **{field: value})
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_experiment(cfg, str(tmp_path)) == 1
    assert f"run failed: {method.value} seed=5: training overflowed Adam's " \
        f"moments (lambda {value}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["summary.partial.csv"]


@pytest.mark.parametrize("first_fails", [True, False])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_rerun_leaves_only_its_own_summary(tmp_path, command,
                                             first_fails):
    # A failing config (a learning rate that overflows the head) and a
    # good one, run in either order into the same directory.
    good = _small(methods=(Method.FEDAVG,), seeds=(5,))
    bad = dataclasses.replace(good, learning_rate=1e308)
    stem = "summary" if command == "run" else "sweep_p"
    for cfg in (bad, good) if first_fails else (good, bad):
        with np.errstate(all="ignore"):
            if command == "run":
                code = run_experiment(cfg, str(tmp_path))
            else:
                code = sweep(cfg, "p", ["2"], str(tmp_path))
        assert code == (1 if cfg is bad else 0)
    last = f"{stem}.csv" if first_fails else f"{stem}.partial.csv"
    assert [n for n in os.listdir(tmp_path) if n.startswith(stem)] == [last]


def test_sweep_rejects_bad_axis_and_empty_values(tmp_path, capsys):
    cfg = _small()
    with pytest.raises(ConfigError, match="unknown sweep axis"):
        sweep(cfg, "dim_e", [1], str(tmp_path))
    with pytest.raises(ConfigError, match="at least one value"):
        sweep(cfg, "p", [], str(tmp_path))
    # Values go through the config file's parser for the axis key, so a
    # bad one stops the sweep before any run writes anything.
    for axis, value in (("p", "abc"), ("p", "-1"), ("w", "0.5"),
                        ("w", "inf"), ("clients_per_task", "0")):
        with pytest.raises(ConfigError, match=f"sweep {axis}:"):
            sweep(cfg, axis, ["1", value], str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()
    path = tmp_path / "exp.cfg"
    path.write_text("methods = OSIFL\nseeds = 7\n")
    for axis, values in (("p", "abc"), ("p", "-1"), ("w", "0.5"),
                         ("w", "inf"), ("w", "2,nan")):
        assert main(["sweep", "--config", str(path), "--axis", axis,
                     "--values", values, "--out",
                     str(tmp_path / "cli")]) == 2
        assert "error: sweep" in capsys.readouterr().err
    # Duplicates are found among the parsed values.
    for axis, values, shown in (("w", "2,2.0", "2.0"), ("p", "5,05", "5")):
        assert main(["sweep", "--config", str(path), "--axis", axis,
                     "--values", values, "--out",
                     str(tmp_path / "cli")]) == 2
        assert capsys.readouterr().err == \
            f"error: sweep {axis}: value {shown} is listed twice\n"
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
    # The sweep's rows and each run's CSV are the reference runs'.
    cfg = _small(methods=(Method.OSIFL, Method.OSCAR_IL), seeds=(42,))
    assert run_experiment(cfg, str(tmp_path / "run")) == 0
    assert sweep(cfg, "p", [str(cfg.retain_per_class)], str(tmp_path)) == 0
    assert (tmp_path / "sweep_p.csv").read_text() == \
        _reference_sweep_csv(cfg, "p", [cfg.retain_per_class])
    for method in cfg.methods:
        assert (tmp_path / "run" / f"run_{method.value}_seed42.csv") \
            .read_text() == rows_to_csv(report_rows(
                reference_run(method, cfg, 42).report))


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
    # Non-finite numbers, a count beyond int64 and a beta whose 1 - beta
    # rounds to 1 stop the run at parse time, before any output exists.
    for body in ("p = -1", "learning_rate = inf", "within_std = inf",
                 "weight_decay = inf", "lambda_ewc = inf",
                 "n_per_class = 999999999999999999999999999999",
                 "num_tasks = 999999999999",
                 "suite_mode = domain_incremental\nnum_tasks = 999999999999"
                 "\nnum_domains = 999999999999",
                 "generator = surrogate\nw = inf",
                 "generator = ddpm\nbeta_min = 1e-17"):
        bad.write_text(body + "\nmethods = OSIFL\nseeds = 7\n")
        out = tmp_path / "never"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()
    # So do arrays too large to hold, from closed forms, before any is
    # allocated; the denoiser's keys count under `ddpm` only.
    for key, generator in (
            *((key, "surrogate") for key in (
                "test_per_class", "n_per_class", "base_pool_total",
                "z_per_class", "dim_e", "num_classes", "num_domains",
                "dim_x")),
            *((key, "ddpm") for key in (
                "denoiser_hidden", "diffusion_steps", "pretrain_batch"))):
        body = f"{key} = 999999999999\nmethods = OSIFL\nseeds = 7\n"
        if generator == "ddpm":
            parse_config(body)  # the surrogate makes no denoiser
        bad.write_text(body + f"generator = {generator}\n")
        for args in (["run"], ["sweep", "--axis", "p", "--values", "1"]):
            assert main(args + ["--config", str(bad), "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(
                f"error: line 1: {key}: ")
            assert not out.exists()
    # A swept value is checked the same way, before any run.
    bad.write_text("methods = FEDAVG\nseeds = 1\n")
    assert main(["sweep", "--config", str(bad), "--out", str(out), "--axis",
                 "clients_per_task", "--values", "2, 999999999999"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: sweep clients_per_task=999999999999: clients_per_task: "
        "the client shards would hold ")
    assert not out.exists()
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()
    good = tmp_path / "good.cfg"
    good.write_text("methods = OSIFL\n")
    out = tmp_path / "good.cfg" / "out"
    assert main(["run", "--config", str(good), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot create output directory {out}: ")


@pytest.mark.parametrize("body, what", [
    ("dim_e = 100000", "encoded synthesized rows"),
    ("dim_e = 100000\nz_per_class = 10\nn_per_class = 300", "encoded shard"),
    ("dim_e = 100000\nz_per_class = 10\ntest_per_class = 300",
     "encoded test set"),
    ("dim_e = 100000\nz_per_class = 10\nnum_domains = 50",
     "generator's table"),
])
def test_each_embedded_array_is_counted(body, what):
    # Each body makes that one array of rows x dim_e, and no other array,
    # hold more than 2^27 floats; only the parser runs.
    with pytest.raises(ConfigError,
                       match=rf"^line 1: dim_e: the {what} would hold "):
        parse_config(body + "\n")


def test_an_embedded_shard_too_large_to_hold_exits_2(tmp_path, capsys):
    # One task's shard of 250 rows, embedded 3,000,000 wide, is 750M
    # floats; the run stops at parse time, before any array exists.
    body = "methods = OSCAR_IL\nseeds = 1\nnum_tasks = 1\ndim_e = 3000000\n"
    with pytest.raises(ConfigError, match=r"^line 4: dim_e: the encoded "
                                          r"shard would hold 750000000 "):
        parse_config(body)
    path, out = tmp_path / "wide.cfg", tmp_path / "never"
    path.write_text(body)
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: line 4: dim_e: ")
    assert not out.exists()


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "binary.cfg"
    bad.write_bytes(b"methods = OSIFL\nseeds = \xff\xfe\x00\x81\n")
    out = tmp_path / "never"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot read config {bad}: ")
    assert not out.exists()


def test_an_error_building_a_seeds_inputs_fails_each_of_its_runs(
        tmp_path, monkeypatch, capsys):
    # Shards too large to hold are refused as the config is built, with
    # the parser's message less its line, so no grid ever sees them.
    with pytest.raises(ConfigError, match=r"^n_per_class: the client "
                                          r"shards would hold ") as huge:
        ExperimentConfig(n_per_class=2 ** 63 - 1)
    assert huge.value.key == "n_per_class"

    # An error building a seed's inputs fails each (seed, method) cell of
    # that seed like a failed run.
    def refuse(cfg, seed):
        raise ConfigError(f"no inputs for seed {seed}")

    monkeypatch.setattr(cli, "build_run_inputs", refuse)
    cfg = _small(seeds=(7, 8), methods=(Method.OSCAR_IL, Method.FEDAVG))
    out = tmp_path / "out"
    assert run_experiment(cfg, str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"run failed: {m} seed={s}: no inputs for seed {s}"
                   for s in (7, 8) for m in ("OSCAR_IL", "FEDAVG")]
    assert os.listdir(out) == ["summary.partial.csv"]
    assert (out / "summary.partial.csv").read_text() == CSV_HEADER + "\n"


def test_a_grid_checks_sizes_its_shared_inputs_leave_out():
    # The inputs key leaves out `base_pool_total`, so a grid could recall
    # inputs drawn for a smaller pool; a config whose pool is too large to
    # hold never exists to reach one. The pool is one NumPy refuses
    # before allocating, were it drawn.
    cfg = ExperimentConfig(**_WALK, methods=(Method.OSCAR_IL,), seeds=(7,))
    refused = r"^base_pool_total: the pretraining pool would hold "
    with pytest.raises(ConfigError, match=refused) as err:
        dataclasses.replace(cfg, base_pool_total=2 ** 63 - 1)
    assert err.value.key == "base_pool_total"


def test_a_grid_refuses_its_axis_and_values_before_any_run():
    cfg = _small(methods=(Method.OSCAR_IL,), seeds=(7,))
    server = orchestrator.ServerMemo()
    with pytest.raises(ConfigError, match=re.escape(
            "unknown sweep axis 'bogus'; choose from "
            f"{sorted(cli.SWEEP_AXES)}")):
        cli.run_grid(cfg, "bogus", [1], cfg.seeds, server)
    with pytest.raises(ConfigError, match=r"^clients_per_task=1000000000000: "
                       r"clients_per_task: the client shards would hold "):
        cli.run_grid(cfg, "clients_per_task", [1, 10 ** 12], cfg.seeds,
                     server)
    assert not server._entries


def test_a_failed_rerun_removes_the_earlier_runs_csv(tmp_path, capsys):
    # The rerun's OSIFL fails (an untrained ddpm): the first run's
    # OSIFL CSV would read as this run's result.
    cfg = _small(methods=(Method.OSIFL, Method.FEDAVG), seeds=(3,))
    assert run_experiment(cfg, str(tmp_path)) == 0
    assert sorted(os.listdir(tmp_path)) == [
        "run_FEDAVG_seed3.csv", "run_OSIFL_seed3.csv", "summary.csv"]
    rerun = dataclasses.replace(cfg, generator="ddpm", pretrain_steps=0)
    assert run_experiment(rerun, str(tmp_path)) == 1
    assert "run failed: OSIFL seed=3: " in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["run_FEDAVG_seed3.csv",
                                            "summary.partial.csv"]


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
    # Each value's rows are its reference runs', each run alone; and the
    # guidance weight reaches the ddpm sampler: past the value column,
    # the two values' rows differ.
    cfg = _small(**_DDPM)
    assert sweep(cfg, "w", ["1", "4"], str(tmp_path)) == 0
    text = (tmp_path / "sweep_w.csv").read_text()
    assert text == _reference_sweep_csv(cfg, "w", [1.0, 4.0])
    rows = [row.split(",")[2:] for row in text.splitlines()[1:]]
    assert rows[:len(rows) // 2] != rows[len(rows) // 2:]


def test_non_finite_synthesis_is_a_failed_run_not_a_nan_row(
        tmp_path, monkeypatch, capsys):
    class NaNGenerator:
        def sample_chains(self, conds, counts, w, rng, ledger=None):
            return np.full((sum(counts), cfg.dim_x), np.nan)

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


def _foreign_class(blob):
    """Seed 5's tasks bring classes (2, 4, 6, 7), then (0, 1, 3, 5): the
    second task's blob names class 7 for its last class, 5, which keeps
    its classes ascending."""
    msg = parse_message(blob)
    if msg.task_id == 1:
        return blob
    assert msg.classes.tolist() == [0, 1, 3, 5]
    return serialize_message(dataclasses.replace(
        msg, classes=np.array([0, 1, 3, 7])))


@pytest.mark.parametrize("corrupt, error", [
    # The header's 16 bytes, then the first class's id and count.
    (lambda blob: blob[:20] + bytes(4) + blob[24:],
     r"message blob gives class \d+ no samples"),
    (lambda blob: blob[:-1], "message blob is truncated"),
    (_foreign_class, "message from client 1 names class 7, which task 2 "
                     "does not bring")],
    ids=["zeroed_count", "truncated", "foreign_class"])
def test_a_blob_corrupted_in_flight_fails_only_its_own_run(
        tmp_path, monkeypatch, capsys, corrupt, error):
    real = orchestrator.serialize_message
    monkeypatch.setattr(orchestrator, "serialize_message",
                        lambda msg: corrupt(real(msg)))
    cfg = _small(methods=(Method.OSIFL, Method.FEDAVG), seeds=(5,))
    out = tmp_path / "corrupt"
    assert run_experiment(cfg, str(out)) == 1
    assert re.search("run failed: OSIFL seed=5: " + error,
                     capsys.readouterr().err)
    assert sorted(os.listdir(out)) == ["run_FEDAVG_seed5.csv",
                                       "summary.partial.csv"]


def _reference_sweep_csv(cfg, axis, values):
    """The sweep CSV built from the reference run of every cell."""
    rows = []
    for value in values:
        cell = dataclasses.replace(cfg, **{FIELD_SPECS[axis][0]: value})
        reports = [reference_run(method, cell, seed).report
                   for seed in cell.seeds for method in cell.methods]
        rows += [[axis, value, r.method, r.seed, r.avg_after[-1],
                  r.forgetting_mean, r.upload_floats_total, r.madds_total]
                 for r in reports]
        rows += [[axis, value, method.value, -1] + [
            float(np.mean([getattr(r, col)[-1] for r in reports
                           if r.method == method.value]))
            for col in ("avg_after", "forgetting_after", "uploads_after",
                        "madds_after")] for method in cell.methods]
    return rows_to_csv(rows, header=SWEEP_HEADER)


def _count_runs(monkeypatch):
    """Patch `cli.run_steps`, which a grid calls once per run it makes,
    to record the (method, seed) of each call."""
    calls = []

    def counted(method, *args, **kwargs):
        calls.append((method, args[-1]))
        return orchestrator.run_steps(method, *args, **kwargs)

    monkeypatch.setattr(cli, "run_steps", counted)
    return calls


_THREE = (Method.OSIFL, Method.OSCAR_IL, Method.FEDAVG)


@pytest.mark.parametrize("axis, overrides, values, runs", [
    # Only OSIFL reads p: 3 OSIFL runs, one each for the others.
    ("p", dict(methods=_THREE, seeds=(3,)), ("0", "2", "3"), 5),
    # Every method reads the client count: every cell runs.
    ("clients_per_task", dict(methods=(Method.OSIFL, Method.FEDAVG),
                              seeds=(3,)), ("1", "2"), 4),
    # The surrogate ignores w: one run per (method, seed).
    ("w", dict(methods=_THREE, seeds=(3, 4)), ("1", "3"), 6),
    # The ddpm sampler reads w, so the one-shot methods run per value.
    ("w", dict(_DDPM, methods=_THREE, seeds=(3,)), ("1", "3"), 5),
])
def test_sweep_runs_each_distinct_cell_once_and_writes_direct_bytes(
        tmp_path, monkeypatch, axis, overrides, values, runs):
    cfg = _small(**overrides)
    calls = _count_runs(monkeypatch)
    assert sweep(cfg, axis, list(values), str(tmp_path)) == 0
    assert len(calls) == runs
    parsed = [FIELD_SPECS[axis][1](value) for value in values]
    assert (tmp_path / f"sweep_{axis}.csv").read_text() == \
        _reference_sweep_csv(cfg, axis, parsed)


def test_sweep_reruns_a_failed_key_at_every_value(
        tmp_path, monkeypatch, capsys):
    # An untrained ddpm makes every one-shot run fail. OSCAR_IL does not
    # read p, but a failed run is never kept, so each value runs it again.
    cfg = _small(generator="ddpm", pretrain_steps=0, methods=_THREE,
                 seeds=(5,))
    calls = _count_runs(monkeypatch)
    assert sweep(cfg, "p", ["1", "2"], str(tmp_path)) == 1
    assert [m for m, _ in calls] == [Method.OSIFL, Method.OSCAR_IL,
                                     Method.FEDAVG, Method.OSIFL,
                                     Method.OSCAR_IL]
    assert capsys.readouterr().err.splitlines() == [
        f"sweep run failed: p={p} {m} seed=5: refusing to sample from an "
        f"untrained model" for p in (1, 2) for m in ("OSIFL", "OSCAR_IL")]
    assert os.listdir(tmp_path) == ["sweep_p.partial.csv"]
    rows = (tmp_path / "sweep_p.partial.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:4] for row in rows] == [
        ["p", p, "FEDAVG", s] for p in ("1", "2") for s in ("5", "-1")]


def test_reused_report_carries_its_own_config_echo(monkeypatch):
    cfg = _small(methods=(Method.FEDAVG,), seeds=(3,))
    calls = _count_runs(monkeypatch)
    cells, failures = cli.run_grid(cfg, "p", [1, 2], cfg.seeds)
    assert failures == [] and len(calls) == 1
    [(cfg_1, [first]), (cfg_2, [second])] = cells
    assert (cfg_1.retain_per_class, cfg_2.retain_per_class) == (1, 2)
    assert first.config_echo == dataclasses.replace(
        cfg, retain_per_class=1).canonical()
    assert second.config_echo == dataclasses.replace(
        cfg, retain_per_class=2).canonical()
    assert dataclasses.replace(first, config_echo=second.config_echo) == \
        second



def _stack_sizes(monkeypatch):
    """Wrap the trainers the orchestrator calls to record how many heads
    each call trains."""
    sizes = []
    for name in ("train_naive", "train_joint", "train_osifl",
                 "train_regularized", "train_local"):
        def counted(clf, *args, _real=getattr(orchestrator, name), **kw):
            sizes.append(len(clf))
            return _real(clf, *args, **kw)
        monkeypatch.setattr(orchestrator, name, counted)
    return sizes


def _assert_grid_matches_reference(cfg, axis, values, states, **grid):
    """Run the grid, with `run_grid`'s keyword arguments `grid`: each
    report it returns, and each run it computes in this process after
    every task (`states`, from `record_states`), equal the reference
    run's bit for bit. Returns the failure lines and how many heads the
    reference runs train for the runs computed in this process."""
    cells, failures = cli.run_grid(cfg, axis, values, cfg.seeds, **grid)
    refs = {}
    for cell, reports in cells:
        for r in reports:
            ref = refs[Method(r.method), r.seed, cell] = \
                reference_run(r.method, cell, r.seed)
            assert r == ref.report
    computed = {key[:3] for key in states} & set(refs)
    for method, seed, cell in computed:
        assert [states[method, seed, cell, t] for t in
                range(1, cell.num_tasks + 1)] == \
            refs[method, seed, cell].snapshots
    return failures, sum(refs[run].heads for run in computed)


_ALL_SEEDS = dict(methods=tuple(Method), seeds=(42, 18, 50))


@pytest.mark.parametrize("overrides", [
    {}, dict(_DDPM, **_ALL_SEEDS),
    dict(adam_reset_per_task=False, lambda_ewc=100.0, mu_prox=1.0)],
    ids=["surrogate", "ddpm", "persisted_moments"])
def test_a_grid_of_seeds_trains_them_stacked_like_a_grid_per_seed(
        monkeypatch, overrides):
    # Every head trains in a stack of three seeds' heads, and as many
    # heads train as the reference runs train one at a time.
    cfg = _small(**dict(_ALL_SEEDS, **overrides))
    states, sizes = record_states(monkeypatch), _stack_sizes(monkeypatch)
    failures, heads = _assert_grid_matches_reference(cfg, None, [None],
                                                     states)
    assert failures == [] and set(sizes) == {3} and sum(sizes) == heads
    assert len(states) == 7 * 3 * cfg.num_tasks


@pytest.mark.parametrize("axis, values, overrides", [
    ("p", [0, 2, 5], dict(scoring_point="post_update", score_by="loss")),
    ("w", [1.0, 3.0], dict(_DDPM, adam_reset_per_task=False,
                           lambda_ewc=100.0, mu_prox=1.0)),
    ("clients_per_task", [1, 3], {})], ids=["p", "w_ddpm", "clients"])
def test_a_grid_equals_the_reference_run_after_every_task(
        monkeypatch, axis, values, overrides):
    # Every method of every cell, over two seeds with one shared memo:
    # each report, and each computed run's head, kept exemplars and
    # ledgers after every task, are the reference run's.
    cfg = _small(**dict(overrides, methods=tuple(Method), seeds=(3, 4)))
    states, sizes = record_states(monkeypatch), _stack_sizes(monkeypatch)
    failures, heads = _assert_grid_matches_reference(cfg, axis, values,
                                                     states)
    assert failures == [] and sum(sizes) == heads


def _count_forks(monkeypatch):
    """Give the grid two CPUs, and record each fork it makes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    forks, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real())
    return forks


@pytest.mark.parametrize("overrides", [
    {}, dict(_DDPM, **_ALL_SEEDS),
    dict(adam_reset_per_task=False, lambda_ewc=100.0, mu_prox=1.0)],
    ids=["surrogate", "ddpm", "persisted_moments"])
def test_a_grid_of_seeds_with_a_worker_equals_the_reference_run(
        monkeypatch, overrides):
    # `test_a_grid_of_seeds_trains_them_stacked_like_a_grid_per_seed` with
    # `workers=1`: the federated runs train stacked in one worker, out of
    # the recorders' sight, and the one-shot runs train stacked here.
    # Every report is the reference run's.
    forks = _count_forks(monkeypatch)
    cfg = _small(**dict(_ALL_SEEDS, **overrides))
    states, sizes = record_states(monkeypatch), _stack_sizes(monkeypatch)
    failures, heads = _assert_grid_matches_reference(
        cfg, None, [None], states, workers=1)
    assert failures == [] and set(sizes) == {3} and sum(sizes) == heads
    assert len(states) == 4 * 3 * cfg.num_tasks and len(forks) == 1


@pytest.mark.parametrize("workers", [0, 1])
def test_a_p_sweep_forked_or_not_equals_the_reference_run(monkeypatch,
                                                         workers):
    # FEDAVG does not read p: p = 0 computes it, in the worker if there
    # is one, and the memo keeps the reports for p = 2 and 5, whose
    # only runs left are OSIFL's, so they fork nothing.
    forks = _count_forks(monkeypatch)
    cfg = _small(methods=_THREE, seeds=(3, 4))
    server = orchestrator.ServerMemo()
    states = record_states(monkeypatch)
    failures, _ = _assert_grid_matches_reference(
        cfg, "p", [0, 2, 5], states, server=server, workers=workers)
    assert failures == [] and len(forks) == workers
    for p in (0, 2, 5):
        cell = dataclasses.replace(cfg, retain_per_class=p)
        assert all(memo_key(Method.FEDAVG, cell, seed) in server
                   for seed in cfg.seeds)


def test_a_seed_whose_synthesis_is_not_finite_fails_alone(monkeypatch):
    # Seeds 42 and 50 synthesize NaN; 18 trains alone meanwhile, as its
    # reference run does. A failure line for each failed run, in (value,
    # seed, method) order; p = 2 reruns the failed keys.
    real, cfg = orchestrator.make_surrogate, _small(**_ALL_SEEDS)

    class NaNGenerator:
        def sample_chains(self, conds, counts, w, rng, ledger=None):
            return np.full((sum(counts), cfg.dim_x), np.nan)

    def broken(world, *args):
        return NaNGenerator() if world.seed in (42, 50) else real(world,
                                                                  *args)

    monkeypatch.setattr(orchestrator, "make_surrogate", broken)
    states, sizes = record_states(monkeypatch), _stack_sizes(monkeypatch)
    failures, _ = _assert_grid_matches_reference(cfg, "p", [1, 2], states)
    # Seed 18's one-shot runs train alone, the federated runs stacked.
    assert sorted(set(sizes)) == [1, 3]
    assert [line.split(": ", 1)[0] for line in failures] == [
        f"p={p} {m} seed={s}" for p in (1, 2) for s in (42, 50)
        for m in ("OSIFL", "OSCAR_IL", "OSCAR_R", "OSCAR_CEILING")]
    assert all(f"synthesis (seed {line.split('seed=')[1][:2]}, task 1) "
               f"produced non-finite values" in line for line in failures)


def test_a_head_whose_penalty_overflows_fails_alone_in_its_stack(
        monkeypatch):
    # Seed 18's Fisher estimates are scaled by 1e300, so its OSCAR_R and
    # FEDEWC penalties overflow Adam's moments in task 2, while stacked
    # with the other two seeds' heads. Overflow warnings are silenced as
    # they would be in a solo run. Every other head trains as its
    # reference run's does.
    seed_of, make, fisher = {}, orchestrator.make_encoder, \
        orchestrator.estimate_fisher

    def tagged(dim_e, dim_x, seed):
        encoder = make(dim_e, dim_x, seed)
        seed_of[id(encoder)] = seed
        return encoder

    def exploding(clf, data):
        anchor = fisher(clf, data)
        if seed_of[id(clf.encoder)] == 18:
            anchor.fisher *= 1e300
        return anchor

    monkeypatch.setattr(orchestrator, "make_encoder", tagged)
    monkeypatch.setattr(orchestrator, "estimate_fisher", exploding)
    cfg = _small(**_ALL_SEEDS)
    states, sizes = record_states(monkeypatch), _stack_sizes(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        failures, _ = _assert_grid_matches_reference(cfg, None, [None],
                                                     states)
    # Seed 18's heads trained in stacks of three, and failed in one.
    assert set(sizes) == {3}
    assert failures == [
        f"{m} seed=18: training overflowed Adam's moments (lambda 0.1, "
        f"learning_rate 0.001)" for m in ("OSCAR_R", "FEDEWC")]


@pytest.mark.parametrize("axis, values, builds", [
    ("p", ["1", "2"], 2), ("w", ["1", "3"], 2),
    ("clients_per_task", ["1", "2"], 4)])
def test_a_grid_builds_a_seeds_inputs_once_unless_the_axis_changes_them(
        tmp_path, monkeypatch, axis, values, builds):
    cfg = _small(methods=(Method.OSIFL, Method.FEDAVG), seeds=(3, 4))
    built, real = [], cli.build_run_inputs

    def counted(cell, seed):
        built.append(seed)
        return real(cell, seed)

    monkeypatch.setattr(cli, "build_run_inputs", counted)
    assert sweep(cfg, axis, values, str(tmp_path)) == 0
    assert len(built) == builds


def _count_restored_heads(monkeypatch):
    """Wrap the trainer's restore helper to record, per head it is asked
    about, whether it restored that head."""
    restored, real = [], trainer._restore_head

    def counted(call, memo, key):
        hit = real(call, memo, key)
        restored.append(hit)
        return hit

    monkeypatch.setattr(trainer, "_restore_head", counted)
    return restored


_ONESHOT = (Method.OSIFL, Method.OSCAR_IL, Method.OSCAR_R,
            Method.OSCAR_CEILING)


@pytest.mark.parametrize("axis, values, overrides, restored", [
    # OSIFL at p = 0 is OSCAR_IL step for step (6 heads), and task 1,
    # with nothing to replay yet, is one head at every p (2 more).
    ("p", [0, 5, 10], dict(methods=_ONESHOT[:2], seeds=(3,)), 8),
    # Task 1 of OSCAR_IL, of OSCAR_R (no anchor yet) and of
    # OSCAR_CEILING (one set) is OSIFL's task 1, for each seed.
    (None, [None], dict(methods=_ONESHOT, seeds=(3, 4)), 6),
    # Restored heads carry their Adam state into task 2.
    (None, [None], dict(methods=_ONESHOT, seeds=(3,), lambda_ewc=100.0,
                        adam_reset_per_task=False), 3),
], ids=["p_sweep", "run", "persisted_moments"])
def test_a_grid_restores_heads_to_what_each_cell_trains_alone(
        monkeypatch, axis, values, overrides, restored):
    cfg = _small(num_classes=12, classes_per_task=2, num_tasks=6,
                 **overrides)
    heads, states = _count_restored_heads(monkeypatch), \
        record_states(monkeypatch)
    failures, _ = _assert_grid_matches_reference(cfg, axis, values, states)
    assert failures == [] and sum(heads) == restored
    del heads[:]
    # A run alone, with a private memo, repeats none of its own heads.
    for cell in [cfg] if axis is None else [
            dataclasses.replace(cfg, retain_per_class=p) for p in values]:
        for seed in cfg.seeds:
            for method in cfg.methods:
                orchestrator.run_method(
                    method, *build_run_inputs(cell, seed), cell, seed)
    assert heads and not any(heads)


def _restored_bits(call):
    clf = call.classifier
    return (list(clf.classes), clf.flat.tobytes(), clf.adam.step,
            clf.adam.m.tobytes(), clf.adam.v.tobytes(),
            call.rng.bit_generator.state)


def test_a_restored_adam_state_is_read_only_and_restores_again(
        monkeypatch):
    cfg = _small(num_classes=12, classes_per_task=2, num_tasks=6,
                 methods=_ONESHOT, seeds=(3,), lambda_ewc=100.0,
                 adam_reset_per_task=False)
    hits, real = [], trainer._restore_head

    def recorded(call, memo, key):
        hit = real(call, memo, key)
        if hit:
            hits.append((call, memo, key, call.classifier.adam,
                         _restored_bits(call)))
        return hit

    monkeypatch.setattr(trainer, "_restore_head", recorded)
    _, failures = cli.run_grid(cfg, None, [None], cfg.seeds)
    assert failures == [] and hits
    call, memo, key, adam, bits = hits[0]
    # The head went on to train in later tasks; the state it was restored
    # with, which the memo holds too, cannot be written.
    with pytest.raises(ValueError):
        adam.m[0] = 1.0
    again = call._replace(
        classifier=trainer.Classifier(call.classifier.encoder,
                                      classes=bits[0]),
        rng=np.random.default_rng(), ledger=None)
    assert real(again, memo, key) and _restored_bits(again) == bits
