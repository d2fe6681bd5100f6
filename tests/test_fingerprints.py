"""Every fingerprinted config's trace against src/fedcpr/fingerprints.json.

The configs are those of ``tests/golden/fingerprints.py``; the hashing is
the package's (``fedcpr.selftest``). The fingerprints hold for the numeric
profile the file was made on (its ``profile`` entry: numpy's SIMD dispatch
and the BLAS build). Where the canary of ``np.exp``, ``np.log`` and ``@``
differs, the traces may too, so the comparisons skip and name the
operations that differ, as ``fedcpr selftest`` does.
"""

import json

import pytest
from golden import fingerprints

from fedcpr.selftest import PARTS, canary_differs, fingerprint

GOLDEN = json.loads(fingerprints.GOLDEN.read_text())
CONFIGS = fingerprints.configs()


@pytest.fixture(scope="module")
def golden_profile():
    differ = canary_differs(GOLDEN)
    if differ:
        pytest.skip(
            f"numeric profile differs from the fingerprinted one in {', '.join(differ)} "
            f"(fingerprinted: {GOLDEN['profile']}; here: {fingerprints.profile()})"
        )


def test_every_config_is_fingerprinted():
    assert sorted(GOLDEN["configs"]) == sorted(CONFIGS)
    assert all(sorted(parts) == sorted(PARTS) for parts in GOLDEN["configs"].values())


@pytest.mark.parametrize("name", list(CONFIGS))
def test_trace_matches_fingerprint(name, golden_profile):
    here, want = fingerprint(CONFIGS[name]), GOLDEN["configs"][name]
    moved = [part for part in PARTS if here[part] != want[part]]
    assert not moved, (
        f"the {name} {' and '.join(moved)} moved; if that is intended, regenerate "
        "with `PYTHONPATH=src python tests/golden/fingerprints.py`"
    )
