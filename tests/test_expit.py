"""The package's logistic sigmoid, and a package that runs without scipy."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedcpr
from fedcpr.losses import expit


def _math_expit(x: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # exp(-x) beyond the largest double
        return 0.0


def _assert_within_4_ulp(got, xs):
    for x, y in zip(xs.tolist(), got.tolist()):
        want = _math_expit(x)
        assert abs(y - want) <= 4 * math.ulp(want), (x, y, want)


def test_matches_math_on_a_dense_grid():
    xs = np.concatenate([np.linspace(-800.0, 800.0, 160_001), np.linspace(-1.0, 1.0, 20_001)])
    _assert_within_4_ulp(expit(xs), xs)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=20))
def test_matches_math_property(values):
    xs = np.array(values)
    _assert_within_4_ulp(expit(xs), xs)


@pytest.mark.parametrize("x, want", [
    (math.inf, 1.0), (-math.inf, 0.0),
    (709.78, 1.0), (-709.78, 1.0 / (1.0 + math.exp(709.78))),  # subnormal, not 0
    (710.0, 1.0), (-710.0, 0.0),
    (745.2, 1.0), (-745.2, 0.0),
    (750.0, 1.0), (-750.0, 0.0),
])
def test_exact_values_at_the_limits(x, want):
    assert expit(np.float64(x)) == want
    assert expit(np.array([x]))[0] == want


def test_nan_stays_nan():
    assert math.isnan(expit(np.float64("nan")))
    assert np.isnan(expit(np.array([np.nan, 0.0]))).tolist() == [True, False]


def test_no_warning_anywhere():
    xs = np.array([-np.inf, -1e308, -750.0, -710.0, -709.78, 0.0, 709.78, 1e308, np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expit(xs)
        for x in xs:
            expit(x)


_NO_SCIPY = """
import sys

import fedcpr, fedcpr.cli, fedcpr.harness
from fedcpr.harness import parse_config, run

for algorithm in ("fedx1", "local_sgd"):
    config = parse_config(
        f"algorithm = {algorithm}\\nloss.kind = psm_sigmoid\\nhyper.R = 1\\nhyper.K = 2\\n"
    )
    run(config, out=f"{algorithm}.csv", quiet=True)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_package_runs_without_importing_scipy(tmp_path):
    # A fresh interpreter, so that no other test's imports count; the
    # package root goes first on its path, as for the CLI tests.
    pkg_root = str(Path(fedcpr.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", _NO_SCIPY], capture_output=True, text=True,
                         cwd=tmp_path, env={**os.environ, "PYTHONPATH": pythonpath})
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
    assert (tmp_path / "fedx1.csv").exists() and (tmp_path / "local_sgd.csv").exists()
