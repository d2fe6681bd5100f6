"""The benchmark's workloads: one generated config per (workload, seed).

Every key the checks read is written out explicitly, so the checks never
depend on the package's defaults. The seed goes to both ``data.seed`` and
``hyper.seed``.
"""

from __future__ import annotations

# Data and hyperparameters of presets/full-protocol.cfg, with fewer rounds
# and lambda = 8: at the preset's lambda = 2 fedx2 diverges within round 1 on
# 9 of seeds 0-99 (17, 25, 26, 31, 59, 62, 68, 78, 96), and most of them still
# do at step size 0.002; no simulation of a run may fail.
_PAPER_PROTOCOL = {
    "algorithm": "fedx2",
    "eval_every_rounds": 1,
    "oracle_every_rounds": 1,
    "loss.kind": "kl_opauc",
    "loss.lambda": 8.0,
    "outer.kind": "kl_log",
    "outer.lambda": 8.0,
    "scorer.kind": "mlp1",
    "scorer.hidden_dim": 8,
    "data.n_pos_per_client": 4,
    "data.n_neg_per_client": 20,
    "data.input_dim": 8,
    "data.n_clients": 16,
    "data.hetero_base": -0.08,
    "data.hetero_step": 0.01,
    "data.hetero_var": 0.04,
    "hyper.eta": 0.01,
    "hyper.K": 32,
    "hyper.R": 10,
    "hyper.B1": 32,
    "hyper.B2": 32,
    "hyper.gamma": 0.1,
    "hyper.beta": 0.1,
    "hyper.lr_decay_every": 5000,
    "hyper.lr_decay_factor": 0.1,
}

# 256 clients with tiny shards: each round every client refills its buffers
# from the whole N*K*(B1+B2) aggregate, so the exchange costs grow as N^2.
# eta = 1 lets the linear model pass AUC 0.5 within the few rounds that fit.
_MANY_CLIENTS = {
    "algorithm": "fedx1",
    "eval_every_rounds": 0,
    "oracle_every_rounds": 0,
    "loss.kind": "psm_sigmoid",
    "outer.kind": "identity",
    "scorer.kind": "linear",
    "data.n_pos_per_client": 2,
    "data.n_neg_per_client": 10,
    "data.input_dim": 8,
    "data.n_clients": 256,
    "data.hetero_base": -0.08,
    "data.hetero_step": 0.01,
    "data.hetero_var": 0.04,
    "hyper.eta": 1.0,
    "hyper.K": 8,
    "hyper.R": 3,
    "hyper.B1": 32,
    "hyper.B2": 32,
}

# One worker on 1024 positives x 5120 negatives: the exact oracle over all
# 5.2M pairs dominates every round, and the federation layer is bypassed.
# eta = 0.002: at 0.01 the steps oscillate (seed 49 ends with held-out AUC
# below round 0's) and at 0.03 they diverge.
_ORACLE_HEAVY = {
    "algorithm": "centralized",
    "eval_every_rounds": 1,
    "oracle_every_rounds": 1,
    "loss.kind": "kl_opauc",
    "loss.lambda": 2.0,
    "outer.kind": "kl_log",
    "outer.lambda": 2.0,
    "scorer.kind": "linear",
    "data.n_pos_per_client": 64,
    "data.n_neg_per_client": 320,
    "data.input_dim": 8,
    "data.n_clients": 16,
    "data.hetero_base": -0.08,
    "data.hetero_step": 0.01,
    "data.hetero_var": 0.04,
    "hyper.eta": 0.002,
    "hyper.K": 4,
    "hyper.R": 12,
    "hyper.B1": 32,
    "hyper.B2": 32,
    "hyper.gamma": 0.1,
    "hyper.beta": 0.1,
}

WORKLOADS = {
    "paper-protocol": _PAPER_PROTOCOL,
    "many-clients": _MANY_CLIENTS,
    "oracle-heavy": _ORACLE_HEAVY,
}

# Workloads that also write the per-iteration CSV.
ITERATION_TRACE = {"many-clients"}

# Workloads whose simulations each end with the oracle.stress probe.
STRESS_PROBE = {"oracle-heavy"}


def config(name: str, seed: int) -> dict:
    """The full generated config of a workload, seed included."""
    cfg = dict(WORKLOADS[name])
    cfg["data.seed"] = seed
    cfg["hyper.seed"] = seed
    return cfg


def config_text(cfg: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in cfg.items())


def local_steps(cfg: dict) -> int:
    """Client-local steps in one simulation: N*K*R, or K*R for one worker."""
    workers = 1 if cfg["algorithm"] == "centralized" else cfg["data.n_clients"]
    return workers * cfg["hyper.K"] * cfg["hyper.R"]
