"""Output checks made apart from the program, with NumPy alone.

The scorer, pairwise losses, outer functions, objective and ranking metrics
are written again here from their definitions, so a fault in the package's
own oracles cannot hide a fault in its training. Each ``check_*`` function
returns a list of problems; an empty list means the check passed.

Run ``python3 perfbench/checks.py <workload>`` after a benchmark run of that
workload to show that every check rejects a trace perturbed in the one field
it checks.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

OUT_DIR = Path(__file__).resolve().parent / "out"

OBJECTIVE_RTOL = 1e-9
GRAD_RTOL = 1e-4
METRIC_ATOL = 1e-9
FD_STEP = 1e-6


# ---------------------------------------------------------------- trace files

def read_trace(path: Path) -> list[dict[str, str]]:
    """Rows of a trace CSV as strings, skipping the ``# config:`` line."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _num(row: dict[str, str], col: str) -> float:
    return float(row[col])


# ------------------------------------------------------ reference definitions

def scores(cfg: dict, w: np.ndarray, X: np.ndarray) -> np.ndarray:
    if cfg["scorer.kind"] == "linear":
        return X @ w
    h, d = cfg["scorer.hidden_dim"], X.shape[1]
    return np.tanh(X @ w[: h * d].reshape(h, d).T) @ w[h * d:]


def pair_loss(cfg: dict, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    kind = cfg["loss.kind"]
    if kind == "psm_sigmoid":
        return 1.0 / (1.0 + np.exp(a - b))
    if kind == "kl_opauc":
        m = np.maximum(b + 1.0 - a, 0.0)
        return np.exp(m * m / cfg["loss.lambda"])
    raise ValueError(f"no reference for loss {kind!r}")


def outer(cfg: dict, s: np.ndarray) -> np.ndarray:
    if cfg["outer.kind"] == "identity":
        return s
    return cfg["outer.lambda"] * np.log(np.maximum(s, cfg.get("outer.u_floor", 1e-8)))


def objective(cfg: dict, w: np.ndarray, pos_X: np.ndarray, neg_X: np.ndarray) -> float:
    """mean over positives of f(mean over negatives of the pairwise loss)."""
    a, b = scores(cfg, w, pos_X), scores(cfg, w, neg_X)
    return float(np.mean(outer(cfg, pair_loss(cfg, a[:, None], b[None, :]).mean(axis=1))))


def fd_grad(cfg: dict, w: np.ndarray, pos_X: np.ndarray, neg_X: np.ndarray) -> np.ndarray:
    """Central finite differences of :func:`objective`."""
    g = np.empty_like(w)
    for i in range(w.size):
        step = np.zeros_like(w)
        step[i] = FD_STEP
        g[i] = (objective(cfg, w + step, pos_X, neg_X)
                - objective(cfg, w - step, pos_X, neg_X)) / (2 * FD_STEP)
    return g


def pairwise_win_rate(pos: np.ndarray, neg: np.ndarray) -> float:
    """Share of (positive, negative) pairs the positive wins, ties as 1/2."""
    neg = np.sort(neg)
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    wins2 = 2 * int(below.sum()) + int(tied.sum())  # twice the wins, exact
    return wins2 / (2 * pos.size * neg.size)


def hardest(neg: np.ndarray, fpr: float) -> np.ndarray:
    """The floor(fpr*Q) highest negative scores."""
    return np.sort(neg)[::-1][: int(np.floor(fpr * neg.size))]


def kl_log_domain(cfg: dict, w: np.ndarray, pos_X: np.ndarray, neg_X: np.ndarray):
    """Objective and gradient of kl_opauc + kl_log for the linear scorer,
    computed with logsumexp and softmax weights so they stay finite."""
    lam, outer_lam = cfg["loss.lambda"], cfg["outer.lambda"]
    a, b = pos_X @ w, neg_X @ w
    m = np.maximum(b[None, :] + 1.0 - a[:, None], 0.0)
    z = m * m / lam
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    total = e.sum(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(total[:, 0])
    obj = float(np.mean(outer_lam * (lse - math.log(neg_X.shape[0]))))
    weights = (e / total) * (2.0 * m / lam)  # d/dw = weights * (x_q - x_p)
    grad = outer_lam * (weights.sum(axis=0) @ neg_X - weights.sum(axis=1) @ pos_X)
    return obj, grad / pos_X.shape[0]


def stress_point(pos_X: np.ndarray, neg_X: np.ndarray) -> np.ndarray:
    """w = -10 (mu+ - mu-) / ||mu+ - mu-||: every positive scored far below
    every negative."""
    diff = pos_X.mean(axis=0) - neg_X.mean(axis=0)
    return -10.0 * diff / np.linalg.norm(diff)


# ------------------------------------------------------------------- checks

def _effective(cfg: dict) -> tuple[int, int]:
    return (min(cfg["hyper.B1"], cfg["data.n_pos_per_client"]),
            min(cfg["hyper.B2"], cfg["data.n_neg_per_client"]))


def expected_comm(cfg: dict, d: int) -> tuple[int, int]:
    """(uplink, downlink) floats per client and round."""
    algo, K, N = cfg["algorithm"], cfg["hyper.K"], cfg["data.n_clients"]
    b1, b2 = _effective(cfg)
    if algo == "fedx1":
        return d + K * (b1 + b2), d + N * K * (b1 + b2)
    if algo == "fedx2":
        return 2 * d + K * (2 * b1 + b2), 2 * d + N * K * (2 * b1 + b2)
    if algo == "centralized":
        models = 1 if cfg["outer.kind"] == "identity" else 2
        return models * d, models * d
    raise ValueError(f"no communication formula for {algo!r}")


def check_comm(cfg: dict, rows, w: np.ndarray) -> list[str]:
    up, down = expected_comm(cfg, w.size)
    return [
        f"round {row['round']}: uplink/downlink {row['uplink_floats']}/"
        f"{row['downlink_floats']}, expected {up}/{down}"
        for row in rows
        if int(row["uplink_floats"]) != up or int(row["downlink_floats"]) != down
    ]


def check_rounds(cfg: dict, rows) -> list[str]:
    got = [int(row["round"]) for row in rows]
    want = list(range(cfg["hyper.R"] + 1))
    return [] if got == want else [f"rounds {got}, expected {want}"]


def check_objective(cfg: dict, rows, w, data) -> list[str]:
    want = objective(cfg, w, data["pos_X"], data["neg_X"])
    got = _num(rows[-1], "objective")
    if abs(got - want) <= OBJECTIVE_RTOL * abs(want):
        return []
    return [f"final objective {got!r}, recomputed {want!r}"]


def check_grad(cfg: dict, rows, w, data) -> list[str]:
    g = fd_grad(cfg, w, data["pos_X"], data["neg_X"])
    want = float(g @ g)
    got = _num(rows[-1], "grad_norm_sq")
    if abs(got - want) <= GRAD_RTOL * abs(want):
        return []
    return [f"final grad_norm_sq {got!r}, finite differences give {want!r}"]


def check_metrics(cfg: dict, rows, w, data) -> list[str]:
    pos = scores(cfg, w, data["eval_pos_X"])
    neg = scores(cfg, w, data["eval_neg_X"])
    final = rows[-1]
    want = {"auc": pairwise_win_rate(pos, neg)}
    for col in final:
        if col.startswith("pauc_"):
            want[col] = pairwise_win_rate(pos, hardest(neg, float(col[5:])))
    return [
        f"final {col} {final[col]}, recounted {value!r}"
        for col, value in want.items()
        if abs(_num(final, col) - value) > METRIC_ATOL
    ]


def check_progress(rows) -> list[str]:
    first, last = rows[0], rows[-1]
    problems = []
    if not _num(last, "objective") < _num(first, "objective"):
        problems.append(f"objective {last['objective']} not below round 0's {first['objective']}")
    if not _num(last, "auc") > max(0.5, _num(first, "auc")):
        problems.append(f"auc {last['auc']} not above 0.5 and round 0's {first['auc']}")
    return problems


def check_finite(rows, iter_rows=None) -> list[str]:
    problems = []
    for name, table in (("round", rows), ("iteration", iter_rows or [])):
        for row in table:
            for col, cell in row.items():
                if cell != "" and not math.isfinite(float(cell)):
                    problems.append(f"{name} row {row}: {col} = {cell}")
    return problems


def check_iterations(cfg: dict, iter_rows) -> list[str]:
    want = cfg["data.n_clients"] * cfg["hyper.K"] * cfg["hyper.R"]
    if len(iter_rows) == want:
        return []
    return [f"{len(iter_rows)} iteration rows, expected N*K*R = {want}"]


def check_same(ref_rows, rows, what: str) -> list[str]:
    """Equal cells in every column but wall_seconds."""
    strip = lambda table: [{k: v for k, v in r.items() if k != "wall_seconds"} for r in table]
    if strip(ref_rows) == strip(rows):
        return []
    return [f"{what}: trace rows differ from the reference run's"]


def check_output(cfg: dict, rows, w: np.ndarray, data, iter_rows=None) -> list[str]:
    """Every check of one simulation's output."""
    problems = check_rounds(cfg, rows) + check_comm(cfg, rows, w)
    problems += check_finite(rows, iter_rows)
    if iter_rows is not None:
        problems += check_iterations(cfg, iter_rows)
    if not problems:
        problems += check_objective(cfg, rows, w, data)
        problems += check_grad(cfg, rows, w, data)
        problems += check_metrics(cfg, rows, w, data)
        problems += check_progress(rows)
    return problems


# ---------------------------------------------------------- perturbation test

def _perturbed(rows, index: int, col: str, value) -> list[dict[str, str]]:
    out = [dict(r) for r in rows]
    out[index][col] = repr(value) if isinstance(value, float) else str(value)
    return out


def selftest(workload: str) -> int:
    """Show that each check rejects a trace perturbed in its one field."""
    run_dir = OUT_DIR / workload
    cfg = json.loads((run_dir / "config.json").read_text())
    sim = run_dir / "sim-0"
    rows = read_trace(sim / "trace.csv")
    iters = sim / "trace.csv.iters.csv"
    iter_rows = read_trace(iters) if iters.exists() else None
    w = np.array(json.loads((sim / "result.json").read_text())["final_model"])
    data = dict(np.load(sim / "data.npz"))
    last = len(rows) - 1
    cases = [
        ("uplink_floats", lambda r: check_comm(cfg, r, w),
         _perturbed(rows, last, "uplink_floats", int(rows[last]["uplink_floats"]) + 1)),
        ("downlink_floats", lambda r: check_comm(cfg, r, w),
         _perturbed(rows, 0, "downlink_floats", int(rows[0]["downlink_floats"]) - 1)),
        ("objective", lambda r: check_objective(cfg, r, w, data),
         _perturbed(rows, last, "objective", _num(rows[last], "objective") * (1 + 1e-8))),
        ("grad_norm_sq", lambda r: check_grad(cfg, r, w, data),
         _perturbed(rows, last, "grad_norm_sq", _num(rows[last], "grad_norm_sq") * (1 + 1e-3))),
        ("auc", lambda r: check_metrics(cfg, r, w, data),
         _perturbed(rows, last, "auc", _num(rows[last], "auc") + 1e-8)),
        ("pauc_0.3", lambda r: check_metrics(cfg, r, w, data),
         _perturbed(rows, last, "pauc_0.3", _num(rows[last], "pauc_0.3") - 1e-8)),
        ("pauc_0.5", lambda r: check_metrics(cfg, r, w, data),
         _perturbed(rows, last, "pauc_0.5", _num(rows[last], "pauc_0.5") + 1e-8)),
        ("objective (progress)", check_progress,
         _perturbed(rows, 0, "objective", _num(rows[last], "objective") - 1.0)),
        ("auc (progress)", check_progress,
         _perturbed(rows, 0, "auc", _num(rows[last], "auc") + 1e-6)),
        ("grad_norm_sq (finite)", lambda r: check_finite(r),
         _perturbed(rows, 1, "grad_norm_sq", float("nan"))),
        ("buffer_wraps (same rows)", lambda r: check_same(rows, r, "perturbed"),
         _perturbed(rows, last, "buffer_wraps", int(rows[last]["buffer_wraps"]) + 1)),
    ]
    if iter_rows is not None:
        cases.append(("loss_estimate (finite)", lambda r: check_finite(rows, r),
                      _perturbed(iter_rows, 0, "loss_estimate", float("inf"))))
        cases.append(("iteration rows", lambda r: check_iterations(cfg, r), iter_rows[:-1]))
    failures = 0
    base = check_output(cfg, rows, w, data, iter_rows) + check_same(rows, rows, "self")
    print(f"unperturbed: {'pass' if not base else base}")
    failures += bool(base)
    for field, check, bad in cases:
        rejected = bool(check(bad))
        print(f"{field}: {'rejected' if rejected else 'NOT REJECTED'}")
        failures += not rejected
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 perfbench/checks.py <workload>")
    sys.exit(selftest(sys.argv[1]))
