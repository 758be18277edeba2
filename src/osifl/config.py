"""Experiment configuration: a line-oriented `key = value` file format
with `#` comments, strict unknown-key rejection, and a canonical
serialization that round-trips through the parser.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .datagen import CLASS_INCREMENTAL, DOMAIN_INCREMENTAL, build_world, \
    draw_client_shards, make_task_suite
from .diffusion import DiffusionHP
from .errors import ConfigError
from .orchestrator import Method, parse_method
from .trainer import TrainHP

ALL_METHODS = tuple(Method)


@dataclass(frozen=True)
class ExperimentConfig:
    dim_x: int = 16
    num_classes: int = 30
    num_domains: int = 6
    within_std: float = 0.5
    suite_mode: str = CLASS_INCREMENTAL
    num_tasks: int = 6
    classes_per_task: int | tuple[int, ...] = 5
    clients_per_task: int = 1
    n_per_class: int = 50
    test_per_class: int = 20
    z_per_class: int = 50
    base_pool_total: int = 3600
    dim_e: int = 64
    learning_rate: float = 0.001
    batch_size: int = 32
    epochs_per_task: int = 20
    weight_decay: float = 1e-4
    lambda_ewc: float = 0.1
    mu_prox: float = 0.01
    adam_reset_per_task: bool = True
    rounds: int = 20
    local_epochs: int = 1
    reported_model_params: int = 0  # 0 means count the actual head size
    diffusion_steps: int = 100
    beta_min: float = 1e-4
    beta_max: float = 0.05
    p_drop: float = 0.1
    guidance_w: float = 2.0
    generator: str = "surrogate"
    denoiser_hidden: int = 128
    pretrain_steps: int = 2000
    pretrain_batch: int = 64
    retain_per_class: int = 5
    scoring_point: str = "pre_update"
    score_by: str = "grad_norm"
    methods: tuple[Method, ...] = ALL_METHODS
    seeds: tuple[int, ...] = (42, 18, 50)
    out_dir: str = "out"

    def canonical(self) -> str:
        return serialize_config(self)

    def train_hp(self) -> TrainHP:
        """Head-training hyperparameters of every method."""
        return TrainHP(learning_rate=self.learning_rate,
                       batch_size=self.batch_size,
                       epochs_per_task=self.epochs_per_task,
                       weight_decay=self.weight_decay,
                       lambda_ewc=self.lambda_ewc, mu_prox=self.mu_prox,
                       adam_reset_per_task=self.adam_reset_per_task)

    def diffusion_hp(self) -> DiffusionHP:
        """Denoiser pretraining hyperparameters."""
        return DiffusionHP(num_steps=self.diffusion_steps,
                           beta_min=self.beta_min, beta_max=self.beta_max,
                           hidden=self.denoiser_hidden, p_drop=self.p_drop,
                           train_steps=self.pretrain_steps,
                           batch_size=self.pretrain_batch)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    raise ConfigError(f"expected true or false, got {text!r}")


def _int_min(minimum):
    def parse(text):
        value = _parse_int(text)
        if value < minimum:
            raise ConfigError(f"value must be >= {minimum}, got {value}")
        return value
    return parse


def _float_in(low, high, *, min_open=False, max_open=False):
    def parse(text):
        value = _parse_float(text)
        ok_low = value > low if min_open else value >= low
        ok_high = value < high if max_open else value <= high
        if not (ok_low and ok_high):
            raise ConfigError(
                f"value must lie in {'(' if min_open else '['}{low}, "
                f"{high}{')' if max_open else ']'}, got {value}")
        return value
    return parse


def _parse_beta(text: str) -> float:
    """A noise schedule beta: in (0, 1), and large enough that 1 - beta
    rounds below 1, or the first alpha_bar is 1 and sampling divides
    by 1 - alpha_bar = 0."""
    value = _float_in(0.0, 1.0, min_open=True, max_open=True)(text)
    if not 1.0 - value < 1.0:
        raise ConfigError(f"1 - {value!r} rounds to 1; need a larger beta")
    return value


def _choice(*options):
    def parse(text):
        if text not in options:
            raise ConfigError(f"expected one of {options}, got {text!r}")
        return text
    return parse


def _parse_int_or_list(text: str):
    if "," in text:
        items = tuple(_int_min(1)(tok.strip()) for tok in text.split(","))
        if not items:
            raise ConfigError("empty class count list")
        return items
    return _int_min(1)(text)


def _distinct(items: tuple, what: str) -> tuple:
    """`items`, unless one of them is listed twice."""
    twice = [item for i, item in enumerate(items) if item in items[:i]]
    if twice:
        raise ConfigError(f"{what} {_fmt_value(twice[0])} is listed twice")
    return items


def _parse_seeds(text: str) -> tuple[int, ...]:
    toks = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not toks:
        raise ConfigError("seed list must not be empty")
    return _distinct(tuple(_parse_int(tok) for tok in toks), "seed")


def _parse_methods(text: str) -> tuple[Method, ...]:
    return _distinct(tuple(parse_method(tok.strip())
                           for tok in text.split(",") if tok.strip()),
                     "method")


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(v.value if isinstance(v, Method) else str(v)
                         for v in value)
    if isinstance(value, Method):
        return value.value
    if isinstance(value, float):
        return repr(value)
    return str(value)


# key name in the file -> (dataclass attribute, value parser)
FIELD_SPECS: dict[str, tuple[str, object]] = {
    "dim_x": ("dim_x", _int_min(1)),
    "num_classes": ("num_classes", _int_min(2)),
    "num_domains": ("num_domains", _int_min(1)),
    "within_std": ("within_std", _float_in(0.0, float("inf"), min_open=True)),
    "suite_mode": ("suite_mode", _choice(CLASS_INCREMENTAL,
                                         DOMAIN_INCREMENTAL)),
    "num_tasks": ("num_tasks", _int_min(1)),
    "classes_per_task": ("classes_per_task", _parse_int_or_list),
    "clients_per_task": ("clients_per_task", _int_min(1)),
    "n_per_class": ("n_per_class", _int_min(1)),
    "test_per_class": ("test_per_class", _int_min(1)),
    "z_per_class": ("z_per_class", _int_min(0)),
    "base_pool_total": ("base_pool_total", _int_min(1)),
    "dim_e": ("dim_e", _int_min(1)),
    "learning_rate": ("learning_rate",
                      _float_in(0.0, float("inf"), min_open=True)),
    "batch_size": ("batch_size", _int_min(1)),
    "epochs_per_task": ("epochs_per_task", _int_min(0)),
    "weight_decay": ("weight_decay", _float_in(0.0, float("inf"))),
    "lambda_ewc": ("lambda_ewc", _float_in(0.0, float("inf"))),
    "mu_prox": ("mu_prox", _float_in(0.0, float("inf"))),
    "adam_reset_per_task": ("adam_reset_per_task", _parse_bool),
    "rounds": ("rounds", _int_min(1)),
    "local_epochs": ("local_epochs", _int_min(1)),
    "reported_model_params": ("reported_model_params", _int_min(0)),
    "diffusion_steps": ("diffusion_steps", _int_min(1)),
    "beta_min": ("beta_min", _parse_beta),
    "beta_max": ("beta_max", _parse_beta),
    "p_drop": ("p_drop", _float_in(0.0, 1.0)),
    "w": ("guidance_w", _float_in(1.0, float("inf"))),
    "generator": ("generator", _choice("ddpm", "surrogate")),
    "denoiser_hidden": ("denoiser_hidden", _int_min(1)),
    "pretrain_steps": ("pretrain_steps", _int_min(0)),
    "pretrain_batch": ("pretrain_batch", _int_min(1)),
    "p": ("retain_per_class", _int_min(0)),
    "scoring_point": ("scoring_point", _choice("pre_update", "post_update")),
    "score_by": ("score_by", _choice("grad_norm", "loss")),
    "methods": ("methods", _parse_methods),
    "seeds": ("seeds", _parse_seeds),
    "out_dir": ("out_dir", str),
}


def _cross_validate(cfg: ExperimentConfig, lines_for: dict[str, int]) -> None:
    def fail(key: str, message: str):
        line = lines_for.get(key)
        prefix = f"line {line}: " if line is not None else ""
        raise ConfigError(prefix + message)

    if cfg.suite_mode == CLASS_INCREMENTAL:
        if isinstance(cfg.classes_per_task, tuple):
            if len(cfg.classes_per_task) != cfg.num_tasks:
                fail("classes_per_task",
                     f"classes_per_task lists {len(cfg.classes_per_task)} "
                     f"tasks but num_tasks is {cfg.num_tasks}")
            needed = sum(cfg.classes_per_task)
        else:
            needed = cfg.num_tasks * cfg.classes_per_task
        if needed > cfg.num_classes:
            fail("classes_per_task",
                 f"suite needs {needed} classes but num_classes is "
                 f"{cfg.num_classes}")
    else:
        if cfg.num_tasks > cfg.num_domains:
            fail("num_tasks",
                 f"domain_incremental needs num_tasks <= num_domains, got "
                 f"{cfg.num_tasks} > {cfg.num_domains}")
    if cfg.beta_min > cfg.beta_max:
        fail("beta_min",
             f"beta_min {cfg.beta_min} exceeds beta_max {cfg.beta_max}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse a config file body. An empty file yields the full defaults;
    unknown or malformed lines raise ConfigError naming the line."""
    values: dict[str, object] = {}
    lines_for: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in FIELD_SPECS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, parser = FIELD_SPECS[key]
        if attr in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[attr] = parser(value)
        except ConfigError as err:
            raise ConfigError(f"line {lineno}: {key}: {err}") from None
        lines_for[key] = lineno
    cfg = ExperimentConfig(**values)
    _cross_validate(cfg, lines_for)
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c."""
    lines = []
    for key, (attr, _) in FIELD_SPECS.items():
        value = getattr(cfg, attr)
        lines.append(f"{key} = {_fmt_value(value)}".rstrip())
    return "\n".join(lines) + "\n"


def build_run_inputs(cfg: ExperimentConfig, seed: int):
    """World, suite, shards and test sets for one seed. Every method of
    a seed shares these, so comparisons are paired."""
    world = build_world(cfg.dim_x, cfg.num_classes, cfg.num_domains,
                        cfg.within_std, seed)
    classes_per_task = cfg.classes_per_task
    suite = make_task_suite(world, cfg.suite_mode, cfg.num_tasks,
                            classes_per_task)
    shards, test_sets = draw_client_shards(world, suite,
                                           cfg.clients_per_task,
                                           cfg.n_per_class,
                                           cfg.test_per_class, seed)
    return world, suite, shards, test_sets
