"""Experiment configuration: a line-oriented `key = value` file format
with `#` comments, strict unknown-key rejection, and a canonical
serialization that round-trips through the parser. `ExperimentConfig` is
the one hyperparameter object: the head trainer and the denoiser's
pretraining read their settings from it. A config that exists is valid:
building one checks each value, the rules across keys and the size cap.
"""
from __future__ import annotations

import dataclasses
import math

from .datagen import CLASS_INCREMENTAL, DOMAIN_INCREMENTAL, build_world, \
    draw_client_shards, make_task_suite
from .diffusion import _param_shapes
from .errors import ConfigError
from .orchestrator import Method, parse_method

INT64_MAX = 2 ** 63 - 1
# The most floats one array of a run may hold: 2^27 (1 GiB of float64).
# The defaults' largest is every task's synthesized rows, embedded: 96,000.
MAX_ARRAY_FLOATS = 2 ** 27


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
    """A count: an integer from `minimum` up to the largest int64."""
    def parse(text):
        value = _parse_int(text)
        if value < minimum:
            raise ConfigError(f"value must be >= {minimum}, got {value}")
        if value > INT64_MAX:
            raise ConfigError(f"value must be <= {INT64_MAX}, got {value}")
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
        return tuple(_int_min(1)(tok.strip()) for tok in text.split(","))
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
        return repr(float(value))
    return str(value)


def _parse_out_dir(text: str) -> str:
    """A directory name that a config file line can hold: no `#`, no
    line break and no leading or trailing blank."""
    if "#" in text or text != text.strip() or len(text.splitlines()) > 1:
        raise ConfigError(f"a config file cannot hold {text!r}")
    return text


def _spec(default, parse, key=None):
    """A config field: its default, the parser of its value in a config
    file and, when it differs from the field's name, its key there."""
    return dataclasses.field(default=default,
                             metadata={"parse": parse, "key": key})


_POSITIVE = _float_in(0.0, math.inf, min_open=True)
_NON_NEGATIVE = _float_in(0.0, math.inf)


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; each field is one line of the config file. A
    config that exists is valid: construction checks it whole."""
    dim_x: int = _spec(16, _int_min(1))
    num_classes: int = _spec(30, _int_min(2))
    num_domains: int = _spec(6, _int_min(1))
    within_std: float = _spec(0.5, _POSITIVE)
    suite_mode: str = _spec(CLASS_INCREMENTAL,
                            _choice(CLASS_INCREMENTAL, DOMAIN_INCREMENTAL))
    num_tasks: int = _spec(6, _int_min(1))
    classes_per_task: int | tuple[int, ...] = _spec(5, _parse_int_or_list)
    clients_per_task: int = _spec(1, _int_min(1))
    n_per_class: int = _spec(50, _int_min(1))
    test_per_class: int = _spec(20, _int_min(1))
    z_per_class: int = _spec(50, _int_min(0))
    base_pool_total: int = _spec(3600, _int_min(1))
    dim_e: int = _spec(64, _int_min(1))
    learning_rate: float = _spec(0.001, _POSITIVE)
    batch_size: int = _spec(32, _int_min(1))
    epochs_per_task: int = _spec(20, _int_min(0))
    weight_decay: float = _spec(1e-4, _NON_NEGATIVE)
    lambda_ewc: float = _spec(0.1, _NON_NEGATIVE)
    mu_prox: float = _spec(0.01, _NON_NEGATIVE)
    adam_reset_per_task: bool = _spec(True, _parse_bool)
    rounds: int = _spec(20, _int_min(1))
    local_epochs: int = _spec(1, _int_min(1))
    reported_model_params: int = _spec(0, _int_min(0))  # 0: the head's size
    diffusion_steps: int = _spec(100, _int_min(1))
    beta_min: float = _spec(1e-4, _parse_beta)
    beta_max: float = _spec(0.05, _parse_beta)
    p_drop: float = _spec(0.1, _float_in(0.0, 1.0))
    guidance_w: float = _spec(2.0, _float_in(1.0, math.inf), key="w")
    generator: str = _spec("surrogate", _choice("ddpm", "surrogate"))
    denoiser_hidden: int = _spec(128, _int_min(1))
    pretrain_steps: int = _spec(2000, _int_min(0))
    pretrain_batch: int = _spec(64, _int_min(1))
    retain_per_class: int = _spec(5, _int_min(0), key="p")
    scoring_point: str = _spec("pre_update",
                               _choice("pre_update", "post_update"))
    score_by: str = _spec("grad_norm", _choice("grad_norm", "loss"))
    methods: tuple[Method, ...] = _spec(tuple(Method), _parse_methods)
    seeds: tuple[int, ...] = _spec((42, 18, 50), _parse_seeds)
    out_dir: str = _spec("out", _parse_out_dir)

    def __post_init__(self):
        """Parse each value's text in the config file, then check the
        rules across keys and the size cap: a value the file would
        refuse, or read back as another, or a config the file would
        refuse, raises ConfigError naming its key."""
        for f in dataclasses.fields(self):
            key, value = f.metadata["key"] or f.name, getattr(self, f.name)
            try:
                parsed = f.metadata["parse"](_fmt_value(value))
            except ConfigError as err:
                raise ConfigError(f"{key}: {err}", key) from None
            if parsed != value:
                raise ConfigError(f"{key}: {value!r} reads back as "
                                  f"{parsed!r}", key)
        _cross_validate(self)

    def canonical(self) -> str:
        return serialize_config(self)


# key name in the file -> (dataclass attribute, value parser)
FIELD_SPECS: dict[str, tuple[str, object]] = {
    f.metadata["key"] or f.name: (f.name, f.metadata["parse"])
    for f in dataclasses.fields(ExperimentConfig)}


def _suite_classes(cfg: ExperimentConfig) -> tuple[int, int]:
    """The classes the suite's tasks bring in all, and the most that one
    task brings, from closed forms."""
    if cfg.suite_mode == DOMAIN_INCREMENTAL:
        return cfg.num_tasks * cfg.num_classes, cfg.num_classes
    if isinstance(cfg.classes_per_task, tuple):
        return sum(cfg.classes_per_task), max(cfg.classes_per_task)
    return cfg.num_tasks * cfg.classes_per_task, cfg.classes_per_task


def check_input_sizes(cfg: ExperimentConfig) -> None:
    """Refuse, from closed forms and before anything is allocated, a
    config that would make an array, or a set of buffers made together,
    of more than MAX_ARRAY_FLOATS floats, naming the largest of the keys
    that drive it; every config's construction runs it. A count is the
    product of the driving sizes, not an exact buffer layout. Embedded
    rows count as arrays of their own: a client's shard, a task's test
    set, the generator's (class, domain) table and the most rows one head
    trains on, OSCAR_CEILING's every synthesized row. The denoiser and
    its buffers count under `ddpm` only. The cap is per array, not per
    run: a run may hold several arrays just under it at once."""
    classes, widest_task = _suite_classes(cfg)
    dim_x, dim_e = cfg.dim_x, cfg.dim_e
    arrays = [
        (("num_classes", "num_domains", "dim_x"),
         "world's anchors and offsets",
         (cfg.num_classes + cfg.num_domains) * dim_x),
        (("n_per_class", "clients_per_task", "dim_x"), "client shards",
         cfg.clients_per_task * cfg.n_per_class * classes * dim_x),
        (("test_per_class", "dim_x"), "test sets",
         cfg.test_per_class * classes * dim_x),
        (("base_pool_total", "dim_x"), "pretraining pool",
         cfg.base_pool_total * dim_x),
        (("z_per_class", "dim_x"), "synthesized task sets",
         cfg.z_per_class * classes * dim_x),
        (("dim_e", "dim_x"), "encoder", dim_e * dim_x),
        (("dim_e",), "head", min(classes, cfg.num_classes) * dim_e),
        (("n_per_class", "dim_e"), "encoded shard",
         cfg.n_per_class * widest_task * dim_e),
        (("test_per_class", "dim_e"), "encoded test set",
         cfg.test_per_class * widest_task * dim_e),
        (("num_classes", "num_domains", "dim_e"), "generator's table",
         cfg.num_classes * cfg.num_domains * dim_e),
        (("z_per_class", "dim_e"), "encoded synthesized rows",
         cfg.z_per_class * classes * dim_e)]
    if cfg.generator == "ddpm":
        hidden = cfg.denoiser_hidden
        shapes = _param_shapes(dim_x, dim_e, cfg.diffusion_steps, hidden)
        arrays += [
            (("denoiser_hidden", "diffusion_steps"), "denoiser",
             math.prod(shapes["w1"]) + math.prod(shapes["w2"])),
            (("pretrain_batch",), "pretraining batch buffers",
             cfg.pretrain_batch * (shapes["w1"][1] + hidden)),
            (("z_per_class", "denoiser_hidden"), "sampler's buffers",
             cfg.z_per_class * widest_task * hidden)]
    for keys, what, floats in arrays:
        if floats > MAX_ARRAY_FLOATS:
            key = max(keys, key=lambda k: getattr(cfg, k))
            raise ConfigError(f"{key}: the {what} would hold {floats} "
                              f"floats, more than 2^27 = {MAX_ARRAY_FLOATS}",
                              key)


def _cross_validate(cfg: ExperimentConfig) -> None:
    if cfg.suite_mode == CLASS_INCREMENTAL:
        if isinstance(cfg.classes_per_task, tuple) and \
                len(cfg.classes_per_task) != cfg.num_tasks:
            raise ConfigError(
                f"classes_per_task lists {len(cfg.classes_per_task)} tasks "
                f"but num_tasks is {cfg.num_tasks}", "classes_per_task")
        needed = _suite_classes(cfg)[0]
        if needed > cfg.num_classes:
            raise ConfigError(f"suite needs {needed} classes but num_classes "
                              f"is {cfg.num_classes}", "classes_per_task")
    elif cfg.num_tasks > cfg.num_domains:
        raise ConfigError(f"domain_incremental needs num_tasks <= "
                          f"num_domains, got {cfg.num_tasks} > "
                          f"{cfg.num_domains}", "num_tasks")
    if cfg.beta_min > cfg.beta_max:
        raise ConfigError(f"beta_min {cfg.beta_min} exceeds beta_max "
                          f"{cfg.beta_max}", "beta_min")
    check_input_sizes(cfg)


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
            raise ConfigError(f"line {lineno}: {key}: {err}", key) from None
        lines_for[key] = lineno
    try:
        return ExperimentConfig(**values)
    except ConfigError as err:
        line = f"line {lines_for[err.key]}: " if err.key in lines_for else ""
        raise ConfigError(line + str(err), err.key) from None


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
