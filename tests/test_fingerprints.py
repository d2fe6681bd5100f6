"""Every fingerprinted config's trace against tests/golden/fingerprints.json.

The fingerprints hold for the numeric profile the file was made on (its
``profile`` entry: numpy's SIMD dispatch and the BLAS build). Where the
canary of ``np.exp``, ``np.log`` and ``@`` differs, the traces may too, so
the comparisons skip and name the operations that differ.
"""

import json

import pytest
from golden import fingerprints

GOLDEN = json.loads(fingerprints.GOLDEN.read_text())
CONFIGS = fingerprints.configs()


@pytest.fixture(scope="module")
def golden_profile():
    here = fingerprints.canary()
    differ = sorted(op for op, digest in GOLDEN["canary"].items() if here.get(op) != digest)
    if differ:
        pytest.skip(
            f"numeric profile differs from the fingerprinted one in {', '.join(differ)} "
            f"(fingerprinted: {GOLDEN['profile']}; here: {fingerprints.profile()})"
        )


def test_every_config_is_fingerprinted():
    assert sorted(GOLDEN["configs"]) == sorted(CONFIGS)
    assert all(sorted(parts) == sorted(fingerprints.PARTS) for parts in GOLDEN["configs"].values())


@pytest.mark.parametrize("name", list(CONFIGS))
def test_trace_matches_fingerprint(name, golden_profile):
    here, want = fingerprints.fingerprint(CONFIGS[name]), GOLDEN["configs"][name]
    moved = [part for part in fingerprints.PARTS if here[part] != want[part]]
    assert not moved, (
        f"the {name} {' and '.join(moved)} moved; if that is intended, regenerate "
        "with `PYTHONPATH=src python tests/golden/fingerprints.py`"
    )
