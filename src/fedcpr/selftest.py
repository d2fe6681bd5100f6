"""Built-in checks behind the ``selftest`` CLI command.

They check what the pytest suite cannot check for an installed package:
whether this numpy reproduces the reference traces, and the code that leans
on numpy's internals. Returns structured results so the CLI can exit 4 on
any failure.

The reference is ``fingerprints.json``, shipped beside this module: two
SHA-256s per config (:func:`fingerprint`) and a :func:`canary` of the
operations whose rounding depends on the machine. Traces are byte-identical
per numeric profile, so they are only compared where the canary matches.
``tests/golden/fingerprints.py`` writes the file.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path

import numpy as np

from .harness import RunConfig, parse_config, run
from .losses import OuterFnSpec, PairwiseLossSpec, exact_oracle
from .model import ScorerSpec, finite_diff_grad
from .rng import batches, buffer_positions, substream

PARTS = ("trajectory", "oracle")
ORACLE_COLUMNS = ("objective", "grad_norm_sq")

# The fingerprinted configs the package can build on its own: the five
# algorithms on the default config, two rounds each.
CONFIGS = {
    name: parse_config(f"algorithm = {name}\n{extra}hyper.R = 2\n")
    for name, extra in (("fedx1", ""), ("fedx2", "outer.kind = kl_log\n"),
                        ("local_sgd", ""), ("local_pair", ""), ("centralized", ""))
}


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def fingerprint(config: RunConfig) -> dict[str, str]:
    """{part: SHA-256} of one run's round CSV, iteration CSV and final model.

    The parts hash what ``fedcpr run --iter-trace`` writes, split so that a
    change to the exact oracle alone shows as that:

    * ``trajectory``: the round CSV without its ``# config:`` echo (which
      names the output path) and without the ``wall_seconds`` and
      :data:`ORACLE_COLUMNS` columns, then the per-iteration CSV and the
      little-endian float64 bytes of ``final_model``;
    * ``oracle``: the round CSV's :data:`ORACLE_COLUMNS`, the exact
      oracle's output, which no training step reads.
    """
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
    # pullback contractions and of the oracle's per-side pullbacks.
    shapes = [((16, 32, 8), (16, 8, 1)), ((16, 32, 8), (16, 8, 8)),
              ((16, 8, 20), (16, 20, 8)), ((16, 1, 20), (16, 20, 8)),
              ((256, 10, 8), (256, 8, 1)), ((6, 5120), (5120,)),
              ((1024,), (1024, 8)), ((8, 320), (320, 8))]
    products = [(rng.random(a) - 0.5) @ (rng.random(b) - 0.5) for a, b in shapes]
    parts = {"exp": [np.exp(exp_x)], "log": [np.log(log_x)], "matmul": products}
    return {name: hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
            for name, arrays in parts.items()}


def canary_differs(golden: dict) -> list[str]:
    """The operations whose canary here differs from ``golden["canary"]``."""
    here = canary()
    return sorted(op for op, digest in golden["canary"].items() if here.get(op) != digest)


def _reference() -> dict:
    return json.loads(files(__package__).joinpath("fingerprints.json").read_text())


def _check_traces() -> CheckResult:
    name = "traces match the reference fingerprints"
    golden = _reference()
    differ = canary_differs(golden)
    if differ:
        return CheckResult(name, True, "not compared: the numeric profile differs "
                                       f"from the reference one in {', '.join(differ)}")
    moved = [f"{config} {part}" for config in CONFIGS
             for part, digest in fingerprint(CONFIGS[config]).items()
             if digest != golden["configs"][config][part]]
    if moved:
        return CheckResult(name, False, f"moved: {', '.join(moved)}")
    return CheckResult(name, True, f"{len(CONFIGS)} configs")


def _oracle_vs_finite_differences(name, scorer, lam, pos, neg, w) -> CheckResult:
    """kl_opauc + kl_log: the oracle is finite and its gradient matches
    central finite differences of the objective."""
    loss_spec = PairwiseLossSpec("kl_opauc", lam=lam)
    outer = OuterFnSpec("kl_log", lam=lam)
    obj, g = exact_oracle(loss_spec, outer, scorer, w, pos, neg)
    if not (np.isfinite(obj) and np.all(np.isfinite(g))):
        return CheckResult(name, False, "non-finite")
    fd = finite_diff_grad(
        lambda v: exact_oracle(loss_spec, outer, scorer, v, pos, neg)[0], w, 1e-5
    )
    err = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
    return CheckResult(name, bool(err <= 1e-5), f"objective {obj:.4g}, rel err {err:.2e}")


def _check_exact_gradient() -> CheckResult:
    rng = np.random.default_rng(5)
    scorer = ScorerSpec("mlp1", 4, hidden_dim=3)
    pos = rng.standard_normal((5, 4))
    neg = rng.standard_normal((7, 4))
    w = 0.5 * rng.standard_normal(scorer.param_count)
    return _oracle_vs_finite_differences(
        "exact gradient vs finite differences", scorer, 2.0, pos, neg, w
    )


def _check_log_domain_oracle() -> CheckResult:
    # Far from the optimum exp(m^2/lambda) alone overflows (m^2 reaches 1e5).
    rng = np.random.default_rng(17)
    pos = rng.standard_normal((6, 4)) + 1.0
    neg = rng.standard_normal((9, 4))
    w = -30.0 * np.ones(4)  # every positive scored far below every negative
    return _oracle_vs_finite_differences(
        "log-domain oracle at a far point", ScorerSpec("linear", 4), 1.0, pos, neg, w
    )


def _check_batched_draws() -> CheckResult:
    # The batched draw reproduces numpy's choice from PCG64's raw output; an
    # installed numpy whose choice differs fails here rather than in a trace.
    name = "batched draws equal Generator.choice"
    K, N = 3, 100
    sizes = [(20, 20), (9, 9), (1000, 1000), (4, 4)]  # the batched route
    got = batches(1, sizes, K, N, "selftest-choices")
    for k, i in np.ndindex(K, N):
        g = substream(1, "selftest-choices", i, k)
        for (pop, size), drawn in zip(sizes, got):
            if not np.array_equal(drawn[k, i], g.choice(pop, size, replace=False)):
                tags = ("selftest-choices", i, k)
                return CheckResult(name, False, f"stream {tags}, choice({pop}, {size})")
    return CheckResult(name, True, f"{K * N} streams x {len(sizes)} draws")


def _check_batched_seeding() -> CheckResult:
    # The one-pass seeding restates numpy's SeedSequence mixing and hands
    # its words to numpy's PCG64; an installed numpy that seeds differently
    # fails here.
    name = "batched seeding equals substream"
    N, size, K, n = 50, 52, 2, 40  # two laps per client
    for side in ("buffer-pos", "buffer-neg"):
        at, _ = buffer_positions(1, side, 3, N, size, K, n)
        for i in range(N):
            g = substream(1, side, i, 3)
            laps = np.concatenate([g.permutation(size), g.permutation(size)])
            if not np.array_equal(at[:, i].ravel(), laps[:K * n]):
                return CheckResult(name, False, f"stream {(side, i, 3)}")
    return CheckResult(name, True, f"{2 * N} streams")


def run_selftest() -> list[CheckResult]:
    checks = [
        _check_traces,
        _check_exact_gradient,
        _check_log_domain_oracle,
        _check_batched_draws,
        _check_batched_seeding,
    ]
    return [fn() for fn in checks]
