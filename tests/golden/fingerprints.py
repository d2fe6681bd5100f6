"""Writes the trace fingerprints, ``src/fedcpr/fingerprints.json``.

The hashing, :func:`fedcpr.selftest.fingerprint` and
:func:`fedcpr.selftest.canary`, lives in the package, which ships the file
so that ``fedcpr selftest`` can compare its own configs on any install.
This script adds the configs only the repository can build.

Every config is a short-R version of one the simulator is known by: the
five algorithms on the default config (the package's
:data:`fedcpr.selftest.CONFIGS`), the variants the engine tests branch on,
the buffer-wrap configs of ``tests/test_engine.py``, the preset, the three
benchmark workloads, two ``square`` configs and one with flipped labels.

Traces are byte-identical per numeric profile, not across machines, so the
file also records the canary and the ``profile`` it was made on, and a
fingerprint is only compared where the canary matches.

Regenerate with ``PYTHONPATH=src python tests/golden/fingerprints.py`` from
the repository root; a deliberate trace change commits the new file. The
script prints each canary operation and each config part whose hash differs
from the file it overwrites, the list a trace change names.
"""

from __future__ import annotations

import importlib.util
import json
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from fedcpr.harness import RunConfig, parse_config, parse_config_file
from fedcpr.selftest import CONFIGS, canary, fingerprint

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "src" / "fedcpr" / "fingerprints.json"

# The benchmark's workload configs, read from perfbench/ without putting
# that directory on the import path.
_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SHORT_R = 2
WORKLOAD_SEED = 1


def configs() -> dict[str, RunConfig]:
    """name -> config, every one short enough for Tier-1."""
    short = {"hyper.R": SHORT_R}
    out = {
        "fedx2-reuse": {"algorithm": "fedx2", "outer.kind": "kl_log",
                        "hyper.history_samples": "reuse", **short},
        "local_pair-kl_log": {"algorithm": "local_pair", "outer.kind": "kl_log", **short},
        "centralized-kl_log": {"algorithm": "centralized", "outer.kind": "kl_log", **short},
        "fedx1-square": {"algorithm": "fedx1", "loss.kind": "square", **short},
        "fedx2-square": {"algorithm": "fedx2", "loss.kind": "square",
                         "outer.kind": "kl_log", **short},
        # The default config with label corruption, which writes every client's rows.
        "fedx1-flip": {"algorithm": "fedx1", "data.flip_fraction": 0.2, **short},
        # tests/test_engine.py's wrap configs, R = 3 there already.
        "wrap-n1": {"algorithm": "fedx1", "data.n_clients": 1, "data.n_pos_per_client": 4,
                    "data.n_neg_per_client": 20, "data.input_dim": 4, "data.seed": 31,
                    "hyper.eta": 0.01, "hyper.K": 6, "hyper.R": 3, "hyper.B1": 4,
                    "hyper.B2": 1, "hyper.seed": 8},
        "wrap-n2": {"algorithm": "fedx2", "loss.kind": "kl_opauc", "loss.lambda": 2.0,
                    "outer.kind": "kl_log", "outer.lambda": 2.0, "scorer.kind": "mlp1",
                    "scorer.hidden_dim": 2, "data.n_clients": 2, "data.n_pos_per_client": 4,
                    "data.n_neg_per_client": 20, "data.input_dim": 4, "data.seed": 31,
                    "hyper.eta": 0.01, "hyper.K": 6, "hyper.R": 3, "hyper.B1": 1,
                    "hyper.B2": 9, "hyper.seed": 9},
    }
    out = {**CONFIGS, **{name: parse_config(workloads.config_text(keys))
                         for name, keys in out.items()}}
    preset = parse_config_file(ROOT / "presets" / "full-protocol.cfg")
    out["preset"] = replace(preset, hyper=replace(preset.hyper, R=SHORT_R))
    for name in workloads.WORKLOADS:
        keys = {**workloads.config(name, WORKLOAD_SEED), **short}
        out[name] = parse_config(workloads.config_text(keys))
    return out


def profile() -> str:
    """What the canary stands for, as far as this numpy reports it."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f))
    except ImportError:  # numpy 1.x
        simd = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 only prints
        blas = "unknown"
    return (f"numpy {np.__version__} on {platform.machine()}, "
            f"SIMD dispatch: {simd or 'none'}, BLAS: {blas}")


def moved(old: dict, new: dict) -> list[str]:
    """What differs from ``old`` in ``new``: each canary operation, then
    each config and part, by name."""
    lines = [f"canary {op}" for op in sorted(old["canary"].keys() | new["canary"].keys())
             if old["canary"].get(op) != new["canary"].get(op)]
    for name in sorted(old["configs"].keys() | new["configs"].keys()):
        was, now = old["configs"].get(name, {}), new["configs"].get(name, {})
        lines += [f"config {name} {part}" for part in sorted(was.keys() | now.keys())
                  if was.get(part) != now.get(part)]
    return lines


def main() -> int:
    old = json.loads(GOLDEN.read_text())
    golden = {
        "profile": profile(),
        "canary": canary(),
        "configs": {name: fingerprint(config) for name, config in configs().items()},
    }
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {len(golden['configs'])} fingerprints to {GOLDEN}")
    changes = moved(old, golden)
    print("\n".join(f"moved: {line}" for line in changes) if changes else "nothing moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
