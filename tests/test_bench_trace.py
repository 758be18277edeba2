"""The benchmark's tracer wraps program functions by name; these runs
show that every layer it reports still sees calls."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
