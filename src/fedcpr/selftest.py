"""Built-in invariant suite behind the ``selftest`` CLI command.

A fast, dependency-free subset of the full pytest suite: cross-checks each
dual-route pair (analytic vs finite-difference gradients, sorted vs
brute-force AUC, estimator vs reduction identities) and the determinism and
accounting contracts. Returns structured results so the CLI can exit 4 on
any failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithms import (
    HyperParams,
    fedx_estimate,
    momentum_update,
    simulate,
)
from .data import DataConfig, build_dataset
from .federation import buffer_draw
from .losses import (
    IDENTITY_OUTER,
    OuterFnSpec,
    PairwiseLossSpec,
    exact_objective,
    exact_oracle,
    loss,
    loss_and_slope,
)
from .metrics import ScoredEval, auc, auc_bruteforce, partial_auc
from .model import ScorerSpec, finite_diff_grad, score_grad_many, score_many
from .rng import choices, substream, substreams


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check_score_gradients() -> CheckResult:
    rng = np.random.default_rng(11)
    worst = 0.0
    for spec in (ScorerSpec("linear", 6), ScorerSpec("mlp1", 5, hidden_dim=3)):
        for _ in range(20):
            w = rng.standard_normal(spec.param_count)
            x = rng.standard_normal((1, spec.input_dim))
            g = score_grad_many(spec, w, x)[1][0]
            fd = finite_diff_grad(lambda v: score_many(spec, v, x)[0], w, 1e-5)
            err = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
            worst = max(worst, err)
    return CheckResult("score gradients vs finite differences", worst <= 1e-5,
                       f"worst rel err {worst:.2e}")


def _oracle_vs_finite_differences(name, scorer, lam, pos, neg, w) -> CheckResult:
    """kl_opauc + kl_log: the oracle is finite and its gradient matches
    central finite differences of the objective."""
    loss_spec = PairwiseLossSpec("kl_opauc", lam=lam)
    outer = OuterFnSpec("kl_log", lam=lam)
    obj, g = exact_oracle(loss_spec, outer, scorer, w, pos, neg)
    if not (np.isfinite(obj) and np.all(np.isfinite(g))):
        return CheckResult(name, False, "non-finite")
    fd = finite_diff_grad(
        lambda v: exact_objective(loss_spec, outer, scorer, v, pos, neg), w, 1e-5
    )
    err = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
    return CheckResult(name, err <= 1e-5, f"objective {obj:.4g}, rel err {err:.2e}")


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


def _check_psm_symmetry() -> CheckResult:
    rng = np.random.default_rng(3)
    spec = PairwiseLossSpec("psm_sigmoid")
    a = rng.uniform(-30, 30, 500)
    b = rng.uniform(-30, 30, 500)
    gap = np.abs(loss(spec, a, b) + loss(spec, b, a) - 1.0).max()
    return CheckResult("psm symmetry", gap <= 1e-12, f"max |l(a,b)+l(b,a)-1| {gap:.2e}")


def _check_auc_routes() -> CheckResult:
    rng = np.random.default_rng(7)
    for _ in range(20):
        ev = ScoredEval(
            rng.integers(0, 6, rng.integers(1, 30)).astype(float),
            rng.integers(0, 6, rng.integers(1, 30)).astype(float),
        )
        if auc(ev) != auc_bruteforce(ev):
            return CheckResult("auc sorted vs brute force", False, "mismatch")
        if partial_auc(ev, 1.0) != auc(ev):
            return CheckResult("auc sorted vs brute force", False,
                               "partial_auc(1) != auc")
    return CheckResult("auc sorted vs brute force", True)


def _check_estimator_reduction() -> CheckResult:
    # One client (a stack of G = 1): 3 positive and 4 negative rows.
    rng = np.random.default_rng(9)
    scorer, spec = ScorerSpec("linear", 4), PairwiseLossSpec("kl_opauc", lam=2.0)
    w = rng.standard_normal((1, 4))
    x1, x2 = rng.standard_normal((1, 3, 4)), rng.standard_normal((1, 4, 4))
    (a, j1), (b, j2) = (score_grad_many(scorer, w, x) for x in (x1, x2))
    lazy_neg = rng.normal(size=(1, 3))
    lazy_pos = rng.normal(size=(1, 4))
    lazy_u = 1.0 + np.abs(rng.normal(size=(1, 4)))
    d1 = -loss_and_slope(spec, a, lazy_neg)[1]
    args = (IDENTITY_OUTER, j1, j2, d1, loss_and_slope(spec, lazy_pos, b)[1])
    tracked = fedx_estimate(*args, np.full((1, 3), 1.5), lazy_u)
    ok = np.array_equal(tracked, fedx_estimate(*args))
    return CheckResult("tracked means under an identity outer change nothing", ok)


def _check_momentum_closed_form() -> CheckResult:
    rng = np.random.default_rng(13)
    g0 = rng.standard_normal(6)
    g = rng.standard_normal(6)
    beta = 0.3
    mom = g0.copy()
    for _ in range(12):
        mom = momentum_update(mom, g, beta)
    expected = (1 - beta) ** 12 * g0 + (1 - (1 - beta) ** 12) * g
    gap = np.abs(mom - expected).max()
    return CheckResult("momentum closed form", gap <= 1e-12, f"max gap {gap:.2e}")


def _check_buffer() -> CheckResult:
    first, wraps = buffer_draw(substream(1, "selftest-buffer"), 52, 52)
    ok = np.array_equal(np.sort(first), np.arange(52)) and wraps == 0
    again, _ = buffer_draw(substream(1, "selftest-buffer"), 52, 52)
    ok = ok and np.array_equal(again, first)
    return CheckResult("buffer permutation and replay", ok)


def _check_batched_draws() -> CheckResult:
    # The batched draw reproduces numpy's choice from PCG64's raw output; an
    # installed numpy whose choice differs fails here rather than in a trace.
    name = "batched draws equal Generator.choice"
    streams = [("selftest-choices", i) for i in range(300)]
    specs = [(20, 20), (9, 9), (1000, 1000), (4, 4)]  # the batched route
    got = choices(1, streams, specs)
    for row, tags in enumerate(streams):
        g = substream(1, *tags)
        for (pop, size), drawn in zip(specs, got):
            if not np.array_equal(drawn[row], g.choice(pop, size, replace=False)):
                return CheckResult(name, False, f"stream {tags}, choice({pop}, {size})")
    return CheckResult(name, True, f"{len(streams)} streams x {len(specs)} draws")


def _check_batched_seeding() -> CheckResult:
    # The one-pass seeding restates numpy's SeedSequence and PCG64; an
    # installed numpy that seeds differently fails here.
    name = "batched seeding equals substream"
    streams = [("step", i, 3, k) for i in range(50) for k in range(4)]
    streams += [(side, i, 3) for side in ("buffer-pos", "buffer-neg") for i in range(50)]
    for g, tags in zip(substreams(1, streams), streams):
        want = substream(1, *tags)
        if g.bit_generator.state != want.bit_generator.state or not np.array_equal(
            g.permutation(52), want.permutation(52)
        ):
            return CheckResult(name, False, f"stream {tags}")
    return CheckResult(name, True, f"{len(streams)} streams")


def _fedx1_trace(seed: int):
    cfg = DataConfig(n_pos_per_client=4, n_neg_per_client=8, input_dim=3,
                     n_clients=2, hetero_var=0, hetero_base=0, hetero_step=0,
                     seed=seed)
    ds = build_dataset(cfg)
    hyper = HyperParams(eta=0.05, K=4, R=3, B1=2, B2=2, seed=seed)
    return simulate("fedx1", ds, ScorerSpec("linear", 3), PairwiseLossSpec("square"),
                    IDENTITY_OUTER, hyper)


def _check_comm_accounting() -> CheckResult:
    trace = _fedx1_trace(4)
    d, K, B = 3, 4, 2
    ok = all(rec.uplink_floats == d + 2 * K * B for rec in trace.rounds)
    ok = ok and all(rec.buffer_wraps == 0 for rec in trace.rounds)
    return CheckResult("communication accounting", ok)


def _check_replay() -> CheckResult:
    a, b = _fedx1_trace(6), _fedx1_trace(6)
    same = all(
        ra.objective == rb.objective
        and ra.grad_norm_sq == rb.grad_norm_sq
        and ra.auc == rb.auc
        for ra, rb in zip(a.rounds, b.rounds)
    ) and np.array_equal(a.final_model, b.final_model)

    cfg = DataConfig(n_pos_per_client=4, n_neg_per_client=8, input_dim=3,
                     n_clients=2, hetero_var=0, hetero_base=0, hetero_step=0, seed=8)
    ds = build_dataset(cfg)
    hyper = HyperParams(eta=0.01, K=3, R=2, B1=2, B2=2, gamma=0.5, beta=0.5, seed=8)
    kw = dict(
        scorer=ScorerSpec("linear", 3),
        loss_spec=PairwiseLossSpec("kl_opauc", lam=2.0),
        outer=OuterFnSpec("kl_log", lam=2.0),
        hyper=hyper,
    )
    t1 = simulate("fedx2", ds, **kw)
    t2 = simulate("fedx2", ds, **kw)
    same = same and np.array_equal(t1.final_model, t2.final_model)
    return CheckResult("deterministic replay", same)


def run_selftest() -> list[CheckResult]:
    checks = [
        _check_score_gradients,
        _check_exact_gradient,
        _check_log_domain_oracle,
        _check_psm_symmetry,
        _check_auc_routes,
        _check_estimator_reduction,
        _check_momentum_closed_form,
        _check_buffer,
        _check_batched_draws,
        _check_batched_seeding,
        _check_comm_accounting,
        _check_replay,
    ]
    return [fn() for fn in checks]
