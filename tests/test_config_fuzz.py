"""The config boundary at the run level: whatever a config text or a
keyword value holds, parsing, building a config, drawing its inputs and
one tiny run raise only ConfigError or ProtocolError.

Every size-driving value is tiny or one the parser or the size cap
refuses, so no example allocates more than a few MB.
"""
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osifl import cli, orchestrator
from osifl.config import FIELD_SPECS, ExperimentConfig, build_run_inputs, \
    parse_config
from osifl.errors import ConfigError, ProtocolError
from osifl.orchestrator import Method

# A tiny config of every method, both generators' sizes set small.
_BASE = dict(dim_x="3", num_classes="4", num_domains="2", num_tasks="2",
             classes_per_task="2", n_per_class="3", test_per_class="2",
             z_per_class="2", base_pool_total="12", dim_e="3",
             batch_size="4", epochs_per_task="1", rounds="1",
             diffusion_steps="2", denoiser_hidden="3", pretrain_steps="2",
             pretrain_batch="4", p="1", seeds="1")

_HUGE = (2 ** 63 - 1, 2 ** 63)

# Tiny values, values the parser or the size cap refuses, malformed
# tokens, and the other values of the keys with a choice.
_TOKENS = ("0", "1", "2", "3", "-1", "0.5", "1e-17", "nan", "inf", "-inf",
           *map(str, _HUGE), "", "x", "1.5.2", "2,", "2, 1", "1, 1", "true",
           "ddpm", "domain_incremental", "post_update", "loss", "OSIFL",
           "FEDAVG, FEDAVG", "OSCAR_R, FEDPROX, FEDEWC")


def _accepted(key):
    """The tokens the parser of `key` reads, as (text, value) pairs."""
    pairs = []
    for token in _TOKENS:
        try:
            pairs.append((token, FIELD_SPECS[key][1](token)))
        except ConfigError:
            pass
    return tuple(pairs)


# Per key, the tokens its parser reads: half the values set are drawn
# from these, so that many configs get as far as a run.
_ACCEPTED = {key: _accepted(key) for key in FIELD_SPECS}

# The keys a tiny run clamps: each may be large and still pass the cap.
_CLAMPED = ("num_tasks", "epochs_per_task", "local_epochs", "rounds",
            "pretrain_steps", "diffusion_steps")


@st.composite
def _texts(draw):
    """The tiny config's text with up to four values set from `_TOKENS`,
    then, in two texts of five, one or two lines broken: `=` dropped,
    the key made unknown, or the line repeated."""
    values = dict(_BASE)
    for key in draw(st.lists(st.sampled_from(tuple(FIELD_SPECS)),
                             max_size=4)):
        values[key] = draw(st.one_of(
            st.sampled_from(_TOKENS),
            st.sampled_from(_ACCEPTED[key]).map(lambda pair: pair[0])))
    lines = [f"{key} = {value}" for key, value in values.items()]
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        i = draw(st.integers(0, len(lines) - 1))
        fault = draw(st.sampled_from(("no_equals", "unknown", "repeated")))
        if fault == "no_equals":
            lines[i] = lines[i].replace("=", "", 1)
        elif fault == "unknown":
            lines[i] = "x" + lines[i]
        else:
            lines.append(lines[i])
    return "\n".join(lines) + "\n"


def _run_tiny(cfg: ExperimentConfig) -> None:
    """Clamp the run's loop counts small (the class list, if any, fixes
    the task count), draw the first seed's inputs, and run every method
    on that seed in one grid; raise the first error a run raised."""
    small = {key: min(getattr(cfg, key), 2) for key in _CLAMPED}
    if isinstance(cfg.classes_per_task, tuple):
        del small["num_tasks"]
    cfg = dataclasses.replace(cfg, **small)
    seed = cfg.seeds[0]
    build_run_inputs(cfg, seed)
    raised = []

    def recorded(*args, **kwargs):
        try:
            return (yield from orchestrator.run_steps(*args, **kwargs))
        except Exception as err:
            raised.append(err)
            raise

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_steps", recorded)
        _, failures = cli.run_grid(cfg, None, [None], (seed,))
    assert len(failures) == len(raised)
    if raised:
        raise raised[0]


@settings(max_examples=150, deadline=None)
@given(text=_texts())
def test_a_config_text_fails_only_with_a_config_or_protocol_error(text):
    try:
        _run_tiny(parse_config(text))
    except (ConfigError, ProtocolError):
        pass


_SMALL_INTS = st.integers(-1, 3)
_VALUES = st.one_of(
    _SMALL_INTS, st.sampled_from(_HUGE), st.floats(), st.booleans(),
    st.none(), st.sampled_from(_TOKENS),
    st.lists(_SMALL_INTS, max_size=3).map(tuple),
    st.lists(st.sampled_from(tuple(Method)), max_size=3).map(tuple))


@st.composite
def _keywords(draw):
    """The tiny config's values, typed, with up to three set to a value
    of any type, or to one a key's parser reads from a token."""
    values = {FIELD_SPECS[key][0]: FIELD_SPECS[key][1](value)
              for key, value in _BASE.items()}
    for key in draw(st.lists(st.sampled_from(tuple(FIELD_SPECS)),
                             max_size=3)):
        values[FIELD_SPECS[key][0]] = draw(st.one_of(
            _VALUES,
            st.sampled_from(_ACCEPTED[key]).map(lambda pair: pair[1])))
    return values


@settings(max_examples=150, deadline=None)
@given(values=_keywords())
def test_keyword_values_fail_only_with_a_config_or_protocol_error(values):
    try:
        _run_tiny(ExperimentConfig(**values))
    except (ConfigError, ProtocolError):
        pass
