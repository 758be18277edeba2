"""Run one osifl CLI command with its layer entry points wrapped in spans.

    python3 bench/traced.py TRACE_JSON -- run --config C --out O

The wrappers replace the public functions that `osifl.cli` and
`osifl.orchestrator` call, under the names those modules bind them to,
so the program itself is unchanged. Spans are kept in memory; when the
command ends, the per-layer metrics are written to TRACE_JSON and the
command's exit code becomes this process's.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time

from osifl import cli, orchestrator


def _madds(ledger, prefix: str) -> int:
    if ledger is None:
        return 0
    return sum(v for k, v in ledger.madds_by_kind.items()
               if k.startswith(prefix))


class Tracer:
    def __init__(self):
        # [name, start, end, parent index]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: dict[str, int] = {}
        self._pretrain_keys: set = set()
        self._run_results: set = set()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _timed(self, name: str, call):
        """Call `call()` inside a span named `name`."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else None])
        self._open.append(idx)
        try:
            return call()
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, module, attr: str, span: str, *, ledger_prefix=None,
             after=None) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ledger = kwargs.get("ledger")
            madds0 = _madds(ledger, ledger_prefix) if ledger_prefix else 0
            result = self._timed(span, lambda: fn(*args, **kwargs))
            if ledger_prefix:
                self.count(span + ".madds",
                           _madds(ledger, ledger_prefix) - madds0)
            if after is not None:
                # The bookkeeping gets a span of its own, so that no
                # layer's self time includes it.
                self._timed("trace", lambda: after(args, result))
            return result

        setattr(module, attr, wrapper)

    def on_pretrain(self, args, _model) -> None:
        _pool, _encoder, hp, seed = args[:4]
        self._pretrain_keys.add((seed, repr(hp)))
        self.counts["pretrain.distinct"] = len(self._pretrain_keys)

    def on_synthesize(self, _args, synth) -> None:
        self.count("samples", sum(len(v) for v in synth.per_class.values()))

    def on_select(self, args, kept) -> None:
        self.count("scored", len(args[1]))
        self.count("kept", len(kept))

    def on_run(self, _args, report) -> None:
        result = dataclasses.asdict(report)
        result.pop("config_echo")
        key = (report.method, report.seed, repr(result))
        if key not in self._run_results:
            self._run_results.add(key)
            self.count("runs.distinct")

    def install(self) -> None:
        o = orchestrator
        self.wrap(cli, "build_run_inputs", "datagen")
        self.wrap(cli, "run_method", "orchestrator.run", after=self.on_run)
        self.wrap(o, "draw_base_pool", "datagen")
        self.wrap(o, "make_encoder", "encoder.make")
        self.wrap(o, "build_client_message", "encoder.message")
        self.wrap(o, "pretrain", "diffusion.pretrain",
                  ledger_prefix="diffusion_pretrain", after=self.on_pretrain)
        self.wrap(o, "synthesize_task_data", "diffusion.sample",
                  ledger_prefix="diffusion_sampling",
                  after=self.on_synthesize)
        self.wrap(o, "make_surrogate", "diffusion.surrogate_build")
        for attr in ("train_joint", "train_naive", "train_osifl",
                     "train_regularized"):
            self.wrap(o, attr, "trainer.train", ledger_prefix="train_")
        self.wrap(o, "train_local", "trainer.local", ledger_prefix="train_")
        self.wrap(o, "estimate_fisher", "trainer.fisher")
        self.wrap(o, "select_exemplars", "ssr", after=self.on_select)
        self.wrap(o, "evaluate", "orchestrator.evaluate")

    def time_of(self, *names: str) -> tuple[float, int]:
        spans = [s for s in self.spans if s[0] in names]
        return sum((s[2] - s[1] for s in spans), 0.0), len(spans)

    def self_time(self, name: str) -> float:
        """Time inside `name` spans not covered by their child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - child[i]
                   for i, s in enumerate(self.spans) if s[0] == name)

    def metrics(self) -> dict[str, float]:
        c = self.counts.get

        def rate(num, den):
            return num / den if den > 0 else 0.0

        datagen_s, datagen_n = self.time_of("datagen")
        encoder_s, _ = self.time_of("encoder.make", "encoder.message")
        _, messages = self.time_of("encoder.message")
        pre_s, pre_n = self.time_of("diffusion.pretrain")
        sample_s, _ = self.time_of("diffusion.sample")
        surrogate_s, _ = self.time_of("diffusion.surrogate_build")
        train_s, train_n = self.time_of("trainer.train", "trainer.local")
        local_s, local_n = self.time_of("trainer.local")
        fisher_s, fisher_n = self.time_of("trainer.fisher")
        ssr_s, _ = self.time_of("ssr")
        eval_s, evals = self.time_of("orchestrator.evaluate")
        _, runs = self.time_of("orchestrator.run")
        train_madds = (c("trainer.train.madds", 0)
                       + c("trainer.local.madds", 0))
        return {
            "datagen.s": datagen_s,
            "datagen.calls": datagen_n,
            "encoder.s": encoder_s,
            "encoder.messages": messages,
            "diffusion.pretrain_s": pre_s,
            "diffusion.pretrain_calls": pre_n,
            "diffusion.pretrain_gmadds_per_s": rate(
                c("diffusion.pretrain.madds", 0) / 1e9, pre_s),
            # No pretraining repeats anything when there is none.
            "diffusion.pretrain_distinct_ratio": rate(
                c("pretrain.distinct", 0), pre_n) if pre_n else 1.0,
            "diffusion.sample_s": sample_s,
            "diffusion.samples": c("samples", 0),
            "diffusion.sample_gmadds_per_s": rate(
                c("diffusion.sample.madds", 0) / 1e9, sample_s),
            "diffusion.surrogate_build_s": surrogate_s,
            "trainer.s": train_s + fisher_s,
            "trainer.calls": train_n + fisher_n,
            "trainer.local_s": local_s,
            "trainer.local_calls": local_n,
            "trainer.fisher_s": fisher_s,
            "trainer.gmadds_per_s": rate(train_madds / 1e9, train_s),
            "ssr.s": ssr_s,
            "ssr.scored": c("scored", 0),
            "ssr.scored_per_s": rate(c("scored", 0), ssr_s),
            "ssr.kept_ratio": rate(c("kept", 0), c("scored", 0)),
            "orchestrator.evaluate_s": eval_s,
            "orchestrator.evals": evals,
            "orchestrator.self_s": self.self_time("orchestrator.run"),
            "orchestrator.runs": runs,
            "cli.self_s": self.self_time("cli"),
            "cli.distinct_run_ratio": rate(c("runs.distinct", 0), runs),
        }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py TRACE_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    tracer.wrap(cli, "main", "cli")
    code = cli.main(argv[2:])
    with open(argv[0], "w") as fh:
        json.dump(tracer.metrics(), fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
