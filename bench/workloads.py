"""The benchmark's workloads: each one osifl CLI command over one config.

Everything a check needs to know about a workload is stated here in the
benchmark's own terms (the config keys it writes and the closed forms the
paper gives), never read back from the program, so the checks stay
independent of the code they check.
"""
from __future__ import annotations

from dataclasses import dataclass, field

ONESHOT_METHODS = ("OSIFL", "OSCAR_IL", "OSCAR_R", "OSCAR_CEILING")
FEDERATED_METHODS = ("FEDAVG", "FEDPROX", "FEDEWC")

# Written explicitly into every workload's config, at the program's
# documented defaults, because the checks' closed forms depend on them.
BASE_PARAMS = {
    "num_classes": 30,
    "suite_mode": "class_incremental",
    "num_tasks": 6,
    "classes_per_task": 5,
    "clients_per_task": 1,
    "test_per_class": 20,
    "dim_e": 64,
    "rounds": 20,
    "reported_model_params": 0,
    "generator": "surrogate",
    "p": 5,
}

# `--seed n` shifts every reference seed by SEED_STRIDE * n, so seed 0
# runs the reference seeds and any other n a disjoint set.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                      # "run" or "sweep"
    methods: tuple[str, ...]
    base_seeds: tuple[int, ...]
    params: dict = field(default_factory=dict)
    sweep_axis: str | None = None
    sweep_values: tuple[int, ...] = ()

    def param(self, key: str):
        return self.params.get(key, BASE_PARAMS.get(key))

    def seeds(self, n: int) -> tuple[int, ...]:
        return tuple(s + SEED_STRIDE * n for s in self.base_seeds)

    def config_text(self, n: int) -> str:
        keys = dict(BASE_PARAMS, **self.params)
        lines = [f"{key} = {value}" for key, value in keys.items()]
        lines.append("methods = " + ", ".join(self.methods))
        lines.append("seeds = " + ", ".join(map(str, self.seeds(n))))
        return "\n".join(lines) + "\n"

    def cli_args(self, config_path: str, out_dir: str) -> list[str]:
        args = [self.command, "--config", config_path, "--out", out_dir]
        if self.command == "sweep":
            args += ["--axis", self.sweep_axis, "--values",
                     ",".join(map(str, self.sweep_values))]
        return args

    def operations(self, n: int) -> list[tuple[str, int, int | None]]:
        """One (method, seed, axis value) triple per run the command makes."""
        values = self.sweep_values if self.command == "sweep" else (None,)
        return [(m, s, v) for v in values for s in self.seeds(n)
                for m in self.methods]

    def task_classes(self) -> list[int]:
        """Number of classes each task brings (and is tested on)."""
        if self.param("suite_mode") == "domain_incremental":
            return [self.param("num_classes")] * self.param("num_tasks")
        return [self.param("classes_per_task")] * self.param("num_tasks")

    def test_count(self, task: int) -> int:
        """Test samples of task `task` (1-based): accuracies on it are
        multiples of one over this."""
        return self.param("test_per_class") * self.task_classes()[task - 1]

    def uploads_after(self, method: str, task: int) -> int:
        """Floats uploaded by the end of task `task`, in closed form.

        One-shot: each client sends its task's class means once,
        clients * |classes_t| * dim_e. Federated: every round each client
        sends the head over the classes seen so far, C * dim_e + C.
        """
        clients, dim_e = self.param("clients_per_task"), self.param("dim_e")
        per_task = self.task_classes()
        domain = self.param("suite_mode") == "domain_incremental"
        total = 0
        for t in range(task):
            # Domain tasks all share one class set; class tasks add theirs.
            seen = per_task[t] if domain else sum(per_task[:t + 1])
            if method in ONESHOT_METHODS:
                total += clients * per_task[t] * dim_e
            else:
                total += self.param("rounds") * clients * (seen * dim_e + seen)
        return total


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="class-inc-surrogate", command="run",
            methods=ONESHOT_METHODS + FEDERATED_METHODS,
            base_seeds=(42, 18, 50)),
        Workload(
            name="class-inc-ddpm", command="run", methods=ONESHOT_METHODS,
            base_seeds=(42,), params={"generator": "ddpm"}),
        Workload(
            name="domain-inc-p-sweep", command="sweep",
            methods=("OSIFL", "OSCAR_IL", "FEDAVG"), base_seeds=(42,),
            params={"suite_mode": "domain_incremental"},
            sweep_axis="p", sweep_values=(0, 5, 10)),
    )
}
