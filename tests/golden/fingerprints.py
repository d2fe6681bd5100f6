"""Trace fingerprints: two SHA-256s per config, checked in as fingerprints.json.

A config's fingerprint hashes what ``fedcpr run --iter-trace`` writes, in
two parts, so a change to the exact oracle alone shows as that:

* ``trajectory``: the round CSV without its ``# config:`` echo (which names
  the output path) and without the ``wall_seconds``, ``objective`` and
  ``grad_norm_sq`` columns, then the per-iteration CSV and the
  little-endian float64 bytes of ``final_model``;
* ``oracle``: the round CSV's ``objective`` and ``grad_norm_sq`` columns,
  the exact oracle's output, which no training step reads.

Every config is a short-R version of one the simulator is known by: the
five algorithms on the default config, the variants the engine tests branch
on, the buffer-wrap configs of ``tests/test_engine.py``, the preset, the
three benchmark workloads and two ``square`` configs.

Traces are byte-identical per numeric profile, not across machines:
``np.exp``, ``np.log`` (numpy's SIMD dispatch) and ``@`` (the BLAS kernel)
may round differently elsewhere. So the file also records a canary, one
hash per operation on fixed inputs, and a fingerprint is only compared
where the canary matches.

Regenerate with ``PYTHONPATH=src python tests/golden/fingerprints.py`` from
the repository root; a deliberate trace change commits the new file.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import platform
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from fedcpr.harness import RunConfig, parse_config, parse_config_file, run

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("fingerprints.json")

# The benchmark's workload configs, read from perfbench/ without putting
# that directory on the import path.
_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SHORT_R = 2
WORKLOAD_SEED = 1
PARTS = ("trajectory", "oracle")
ORACLE_COLUMNS = ("objective", "grad_norm_sq")


def configs() -> dict[str, RunConfig]:
    """name -> config, every one short enough for Tier-1."""
    short = {"hyper.R": SHORT_R}
    out = {
        "fedx1": {"algorithm": "fedx1", **short},
        "fedx2": {"algorithm": "fedx2", "outer.kind": "kl_log", **short},
        "local_sgd": {"algorithm": "local_sgd", **short},
        "local_pair": {"algorithm": "local_pair", **short},
        "centralized": {"algorithm": "centralized", **short},
        "fedx2-reuse": {"algorithm": "fedx2", "outer.kind": "kl_log",
                        "hyper.history_samples": "reuse", **short},
        "local_pair-kl_log": {"algorithm": "local_pair", "outer.kind": "kl_log", **short},
        "centralized-kl_log": {"algorithm": "centralized", "outer.kind": "kl_log", **short},
        "fedx1-square": {"algorithm": "fedx1", "loss.kind": "square", **short},
        "fedx2-square": {"algorithm": "fedx2", "loss.kind": "square",
                         "outer.kind": "kl_log", **short},
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
    out = {name: parse_config(workloads.config_text(keys)) for name, keys in out.items()}
    preset = parse_config_file(ROOT / "presets" / "full-protocol.cfg")
    out["preset"] = replace(preset, hyper=replace(preset.hyper, R=SHORT_R))
    for name in workloads.WORKLOADS:
        keys = {**workloads.config(name, WORKLOAD_SEED), **short}
        out[name] = parse_config(workloads.config_text(keys))
    return out


def fingerprint(config: RunConfig) -> dict[str, str]:
    """{part: SHA-256} of one run's round CSV, iteration CSV and final model."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "trace.csv"
        trace = run(config, out=out, iteration_trace=True, quiet=True)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]  # past the echo
        iters = Path(f"{out}.iters.csv").read_bytes()
    header = rows[0]
    columns = {"oracle": [header.index(name) for name in ORACLE_COLUMNS]}
    columns["trajectory"] = [i for i, name in enumerate(header)
                             if name != "wall_seconds" and name not in ORACLE_COLUMNS]
    digests = {part: hashlib.sha256() for part in PARTS}
    for cells in rows:
        for part, digest in digests.items():
            digest.update((",".join(cells[i] for i in columns[part]) + "\n").encode())
    digests["trajectory"].update(b"\0" + iters + b"\0")
    digests["trajectory"].update(np.asarray(trace.final_model, dtype="<f8").tobytes())
    return {part: digest.hexdigest() for part, digest in digests.items()}


def canary() -> dict[str, str]:
    """One hash per operation whose rounding depends on the machine."""
    exp_x = np.concatenate([np.linspace(-50.0, 50.0, 100_001),
                            np.linspace(-745.0, 709.0, 100_001)])
    log_x = np.concatenate([np.linspace(1e-3, 10.0, 100_001),
                            np.linspace(10.0, 1e300, 100_001)])
    rng = np.random.default_rng(0)
    # (left, right) operand shapes of the engine's stacked scoring and
    # gradient contractions and of the oracle's per-side sums.
    shapes = [((16, 32, 8), (16, 8, 1)), ((16, 32, 8), (16, 8, 8)),
              ((16, 1, 32), (16, 32, 72)), ((256, 10, 8), (256, 8, 1)),
              ((6, 5120), (5120,)), ((1024,), (1024, 8))]
    products = [(rng.random(a) - 0.5) @ (rng.random(b) - 0.5) for a, b in shapes]
    parts = {"exp": [np.exp(exp_x)], "log": [np.log(log_x)], "matmul": products}
    return {name: hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
            for name, arrays in parts.items()}


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


def main() -> int:
    golden = {
        "profile": profile(),
        "canary": canary(),
        "configs": {name: fingerprint(config) for name, config in configs().items()},
    }
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {len(golden['configs'])} fingerprints to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
