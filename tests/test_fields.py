"""Every config dataclass rejects a non-finite float, a non-integral int or
a bool in either where it is made, naming the field by its config key."""

from dataclasses import fields, replace

import numpy as np
import pytest

from fedcpr.algorithms import HyperParams
from fedcpr.data import DataConfig
from fedcpr.harness import RunConfig, parse_config
from fedcpr.losses import OuterFnSpec, PairwiseLossSpec
from fedcpr.model import ScorerSpec

# Each dataclass with arguments that make a valid instance; the loss and
# outer kinds are the ones whose parameters are checked.
VALID = {
    HyperParams: {},
    DataConfig: dict(n_pos_per_client=4, n_neg_per_client=20, input_dim=8, n_clients=4),
    ScorerSpec: dict(kind="mlp1", input_dim=4, hidden_dim=3),
    PairwiseLossSpec: dict(kind="kl_opauc"),
    OuterFnSpec: dict(kind="kl_log"),
}


def _make(cls, **changes):
    if cls is RunConfig:
        return replace(parse_config(""), **changes)
    return cls(**{**VALID[cls], **changes})


def _fields(*types):
    return [pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
            for cls in (*VALID, RunConfig) for f in fields(cls) if f.type in types]


def _key(name):
    return "lambda" if name == "lam" else name


FLOATS = _fields("float")
INTS = _fields("int", "int | None")


def test_every_float_field_is_covered():
    assert {p.id for p in FLOATS} >= {
        "HyperParams.eta", "HyperParams.lr_decay_factor", "DataConfig.hetero_step",
        "DataConfig.hetero_base", "DataConfig.hetero_var", "DataConfig.cluster_sep",
        "DataConfig.cluster_std", "PairwiseLossSpec.lam", "OuterFnSpec.lam",
        "OuterFnSpec.u_floor",
    }


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("cls, name", FLOATS)
def test_non_finite_float_names_its_key(cls, name, value):
    with pytest.raises(ValueError, match=f"^{_key(name)} must be finite"):
        _make(cls, **{name: value})


@pytest.mark.parametrize("cls, name", FLOATS)
def test_bool_float_names_its_key(cls, name):
    with pytest.raises(ValueError, match=f"^{_key(name)} must be a number, got True"):
        _make(cls, **{name: True})


@pytest.mark.parametrize("value", [2.5, 2.0, "2", True])
@pytest.mark.parametrize("cls, name", INTS)
def test_non_integral_int_names_its_key(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        _make(cls, **{name: value})


@pytest.mark.parametrize("cls, name", INTS)
def test_numpy_integer_passes(cls, name):
    assert getattr(_make(cls, **{name: np.int64(2)}), name) == 2
