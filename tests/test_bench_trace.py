"""The benchmark's tracer wraps program functions by name; these runs
show that every layer it reports still sees calls, and that each method
trains its head through the name the tracer times it by."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from osifl import cli, orchestrator
from osifl.config import parse_config

ROOT = Path(__file__).resolve().parents[1]

_SMALL = ("num_tasks = 2\nnum_classes = 8\nclasses_per_task = 4\n"
          "dim_x = 6\nnum_domains = 2\nn_per_class = 8\n"
          "test_per_class = 6\nz_per_class = 6\nbase_pool_total = 240\n"
          "dim_e = 12\nepochs_per_task = 1\nrounds = 2\np = 2\nseeds = 3\n")

# The layers each config reaches; every count and time must be above 0.
_LAYERS = ("datagen.calls", "encoder.messages", "diffusion.samples",
           "trainer.calls", "ssr.scored", "orchestrator.evals",
           "trainer.fisher_s")


@pytest.mark.parametrize("config, layers", [
    ("generator = surrogate\nmethods = OSIFL, OSCAR_IL, OSCAR_R, "
     "OSCAR_CEILING, FEDAVG, FEDPROX, FEDEWC\n",
     _LAYERS + ("trainer.local_calls", "diffusion.surrogate_build_s")),
    ("generator = ddpm\ndiffusion_steps = 5\ndenoiser_hidden = 8\n"
     "pretrain_steps = 10\npretrain_batch = 16\n"
     "methods = OSIFL, OSCAR_IL, OSCAR_R, OSCAR_CEILING\n",
     _LAYERS + ("diffusion.pretrain_calls",))],
    ids=["surrogate", "ddpm"])
def test_the_tracer_sees_every_layer(tmp_path, config, layers):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_SMALL + config)
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("OSIFL_SEED_OVERRIDE", None)
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced.py"), str(trace),
         "--", "run", "--config", str(cfg), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(trace.read_text())
    assert {name: metrics[name] for name in layers if metrics[name] <= 0} \
        == {}


# The `orchestrator` name each method's head training goes through: the
# tracer times `train_local` as federated training and the other four
# as one-shot training.
_TRAINS_THROUGH = {
    "OSIFL": "train_osifl", "OSCAR_IL": "train_naive",
    "OSCAR_R": "train_regularized", "OSCAR_CEILING": "train_joint",
    "FEDAVG": "train_local", "FEDPROX": "train_local",
    "FEDEWC": "train_local"}


@pytest.mark.parametrize("method", sorted(_TRAINS_THROUGH))
def test_each_method_trains_only_through_its_own_name(monkeypatch, method):
    calls = dict.fromkeys(sorted(set(_TRAINS_THROUGH.values())), 0)
    for name in calls:
        def counted(*args, _real=getattr(orchestrator, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(orchestrator, name, counted)
    cfg = parse_config(_SMALL + f"generator = surrogate\nmethods = {method}\n")
    _, failures = cli.run_grid(cfg, None, [None], cfg.seeds)
    assert failures == []
    assert {name for name, n in calls.items() if n} == \
        {_TRAINS_THROUGH[method]}
