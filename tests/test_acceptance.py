"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest
from reference import (
    ClientState,
    Shard,
    auc_bruteforce,
    client_shard,
    emitted_ids,
    exact_inner_all,
    one_client_fedx1,
    one_client_fedx2,
)

from fedcpr.algorithms import (
    PROGRAMS,
    HyperParams,
    RunSettings,
    UTable,
    fedx_estimate,
    momentum_update,
    simulate,
    theory_schedule,
)
from fedcpr.data import DataConfig, build_dataset
from fedcpr.federation import server_aggregate
from fedcpr.harness import parse_config, run as harness_run, sweep
from fedcpr.losses import (
    IDENTITY_OUTER,
    OuterFnSpec,
    PairwiseLossSpec,
    exact_grad,
    exact_objective,
    loss_and_slope,
    outer_deriv,
)
from fedcpr.metrics import ScoredEval, auc, partial_auc
from fedcpr.model import (
    ScorerSpec,
    finite_diff_grad,
    init_params,
    score_grad_many,
    score_many,
)
from fedcpr.rng import substream


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number:>2} {status}: {name}{extra}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Gradient-oracle consistency


def test_criterion_1_gradient_oracle_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    losses = [
        PairwiseLossSpec("psm_sigmoid"),
        PairwiseLossSpec("kl_opauc", lam=2.0),
        PairwiseLossSpec("square"),
    ]
    outers = [IDENTITY_OUTER, OuterFnSpec("kl_log", lam=2.0)]
    scorers = [ScorerSpec("linear", 4), ScorerSpec("mlp1", 4, hidden_dim=3)]
    checked = 0
    worst = 0.0
    for loss_spec in losses:
        for outer in outers:
            for scorer in scorers:
                for _ in range(5):
                    pos = rng.standard_normal((int(rng.integers(1, 9)), 4))
                    neg = rng.standard_normal((int(rng.integers(1, 9)), 4))
                    w = 0.6 * rng.standard_normal(scorer.param_count)
                    g = exact_grad(loss_spec, outer, scorer, w, pos, neg)
                    fd = finite_diff_grad(
                        lambda v: exact_objective(loss_spec, outer, scorer, v, pos, neg),
                        w, 1e-5,
                    )
                    rel = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
                    worst = max(worst, rel)
                    checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        1, "gradient-oracle consistency",
        checked >= 50 and worst <= 1e-5 and elapsed < 30,
        f"{checked} instances, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. FedX1 unbiasedness (frozen-model protocol)

N_MC = 100_000


def _unbias_fixture(seed=42):
    cfg = DataConfig(n_pos_per_client=5, n_neg_per_client=8, input_dim=6,
                     n_clients=4, hetero_var=0, hetero_base=0, hetero_step=0,
                     seed=seed)
    ds = build_dataset(cfg)
    scorer = ScorerSpec("linear", 6)
    w0 = init_params(scorer, substream(seed, "init"))
    return ds, scorer, w0


def _scalar_d1_psm(a, b):
    s = 1.0 / (1.0 + math.exp(a - b))
    return -s * (1.0 - s)


def _scalar_d2_psm(a, b):
    s = 1.0 / (1.0 + math.exp(a - b))
    return s * (1.0 - s)


def test_criterion_2_fedx1_unbiasedness():
    t0 = time.perf_counter()
    ds, scorer, w0 = _unbias_fixture()
    loss_spec = PairwiseLossSpec("psm_sigmoid")
    hyper = HyperParams(eta=0.0, K=1, R=1, B1=1, B2=1, seed=42)
    settings = RunSettings("fedx1", scorer, loss_spec, IDENTITY_OUTER, hyper)
    program = PROGRAMS["fedx1"](settings, ds)
    download = server_aggregate(program.bootstrap_uploads())
    # The sample ids of the aggregate's scores, in download order.
    pos_ids, neg_ids = (ids.reshape(-1) for ids in emitted_ids(program))

    # Leg A: the estimator through the real exchange machinery equals an
    # independent scalar recomputation, and under eta=0 every lazy record
    # equals the frozen-model score of its sample (the protocol's premise).
    all_scores = {}
    for ids, X in (ds.pos_union(), ds.neg_union()):
        for sid, x in zip(ids, X):
            all_scores[int(sid)] = float(np.dot(w0, x))
    machinery_ok = True
    for r in range(1, 301):
        program.begin_round(download, r)
        # The engine's step-0 estimate for every client at once.
        x1, x2 = program.sampled(0)
        (a_now, pull1), (b_now, pull2) = (score_grad_many(scorer, program.model, x)
                                          for x in (x1, x2))
        ests = fedx_estimate(settings.outer, pull1, pull2,
                             -loss_and_slope(loss_spec, a_now, program.lazy_neg[0])[1],
                             loss_and_slope(loss_spec, program.lazy_pos[0], b_now)[1])
        for i in range(ds.n_clients):
            shard = client_shard(ds, i)
            g = substream(42, "step", i, r, 0)
            z1 = g.choice(shard.n_pos, size=1, replace=False)
            z2 = g.choice(shard.n_neg, size=1, replace=False)
            (jn,), (jp,) = program.neg_at[0, i], program.pos_at[0, i]
            lazy_neg, lazy_pos = download.r2[[jn]], download.r1[[jp]]
            est = ests[i]
            a = float(np.dot(w0, shard.pos_X[z1[0]]))
            b = float(np.dot(w0, shard.neg_X[z2[0]]))
            manual = (
                _scalar_d1_psm(a, lazy_neg[0]) * shard.pos_X[z1[0]]
                + _scalar_d2_psm(lazy_pos[0], b) * shard.neg_X[z2[0]]
            )
            frozen = (
                lazy_neg[0] == all_scores[int(neg_ids[jn])]
                and lazy_pos[0] == all_scores[int(pos_ids[jp])]
            )
            if not (np.allclose(est, manual, rtol=1e-12) and frozen):
                machinery_ok = False
        program.step(0, hyper.eta)
        download = server_aggregate(program.uploads())
        pos_ids, neg_ids = (ids.reshape(-1) for ids in emitted_ids(program))

    # Leg B: 1e5 i.i.d. draws of the same (verified) estimator distribution:
    # active sample uniform on the client shard, lazy record uniform over
    # (client, sample) exactly as a uniform draw of the aggregated history.
    P, Q, N, d = 5, 8, 4, 6
    a_all, b_all = score_many(scorer, w0, ds.pos_X), score_many(scorer, w0, ds.neg_X)
    posX, negX = ds.pos_X, ds.neg_X
    truth = exact_grad(loss_spec, IDENTITY_OUTER, scorer, w0,
                       ds.pos_union()[1], ds.neg_union()[1])
    rng = substream(42, "mc-draws")
    G = np.zeros((N_MC, d))
    for i in range(N):
        z1 = rng.integers(0, P, N_MC)
        z2 = rng.integers(0, Q, N_MC)
        lazy_neg = b_all[rng.integers(0, N, N_MC), rng.integers(0, Q, N_MC)]
        lazy_pos = a_all[rng.integers(0, N, N_MC), rng.integers(0, P, N_MC)]
        d1 = -loss_and_slope(loss_spec, a_all[i, z1], lazy_neg)[1]
        d2 = loss_and_slope(loss_spec, lazy_pos, b_all[i, z2])[1]
        G += d1[:, None] * posX[i, z1] + d2[:, None] * negX[i, z2]
    G /= N
    mean = G.mean(axis=0)
    gate = 3.0 * G.std(axis=0, ddof=1) / math.sqrt(N_MC)
    dev = np.abs(mean - truth)
    elapsed = time.perf_counter() - t0
    _report(
        2, "fedx1 estimator unbiasedness",
        machinery_ok and bool(np.all(dev <= gate)) and elapsed < 60,
        f"max dev/gate {(dev / gate).max():.2f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. FedX2 exact-u consistency


def test_criterion_3_fedx2_exact_u_consistency():
    t0 = time.perf_counter()
    ds, scorer, w0 = _unbias_fixture()
    loss_spec = PairwiseLossSpec("kl_opauc", lam=2.0)
    outer = OuterFnSpec("kl_log", lam=2.0)
    neg_union = ds.neg_union()[1]
    P, Q, N, d = 5, 8, 4, 6
    a_all, b_all = score_many(scorer, w0, ds.pos_X), score_many(scorer, w0, ds.neg_X)
    posX, negX = ds.pos_X, ds.neg_X
    u_exact = np.stack(
        [exact_inner_all(loss_spec, scorer, w0, pos_X, neg_union) for pos_X in ds.pos_X]
    )
    truth = exact_grad(loss_spec, outer, scorer, w0, ds.pos_union()[1], neg_union)

    # Leg A: the FedX2 estimate with the exact-inner substitution equals an
    # independent scalar recomputation on a few hundred random draws.
    hyper = HyperParams(eta=0.0, K=1, R=1, B1=1, B2=1, seed=42)
    settings = RunSettings("fedx2", scorer, loss_spec, outer, hyper)

    lam = 2.0
    check_rng = substream(42, "exact-u-check")
    machinery_ok = True
    for _ in range(300):
        i = int(check_rng.integers(0, N))
        st = ClientState(index=i, shard=client_shard(ds, i), settings=settings,
                         model=w0.copy())
        st.u_table = UTable(P)
        st.u_table.values[:] = u_exact[i]
        z1 = check_rng.integers(0, P, 1)
        z2 = check_rng.integers(0, Q, 1)
        jl, il = int(check_rng.integers(0, N)), int(check_rng.integers(0, Q))
        jp, ip = int(check_rng.integers(0, N)), int(check_rng.integers(0, P))
        lazy_neg = b_all[jl, [il]]
        lazy_pos = a_all[jp, [ip]]
        lazy_u = u_exact[jp, [ip]]
        est = one_client_fedx2(st, z1, z2, lazy_neg, lazy_pos, lazy_u)
        a, b = float(a_all[i, z1[0]]), float(b_all[i, z2[0]])
        m1 = max(lazy_neg[0] + 1.0 - a, 0.0)
        d1 = -math.exp(m1 * m1 / lam) * (2.0 * m1 / lam)
        m2 = max(b + 1.0 - lazy_pos[0], 0.0)
        d2 = math.exp(m2 * m2 / lam) * (2.0 * m2 / lam)
        manual = (lam / u_exact[i, z1[0]]) * d1 * posX[i, z1[0]] + (
            lam / lazy_u[0]
        ) * d2 * negX[i, z2[0]]
        if not np.allclose(est, manual, rtol=1e-12):
            machinery_ok = False

    # Leg B: 1e5 i.i.d. draws, mean against the exact gradient.
    rng = substream(42, "mc-draws-u")
    G = np.zeros((N_MC, d))
    for i in range(N):
        z1 = rng.integers(0, P, N_MC)
        z2 = rng.integers(0, Q, N_MC)
        lazy_neg = b_all[rng.integers(0, N, N_MC), rng.integers(0, Q, N_MC)]
        jp, ip = rng.integers(0, N, N_MC), rng.integers(0, P, N_MC)
        d1 = -loss_and_slope(loss_spec, a_all[i, z1], lazy_neg)[1]
        d2 = loss_and_slope(loss_spec, a_all[jp, ip], b_all[i, z2])[1]
        w1 = outer_deriv(outer, u_exact[i, z1]) * d1
        w2 = outer_deriv(outer, u_exact[jp, ip]) * d2
        G += w1[:, None] * posX[i, z1] + w2[:, None] * negX[i, z2]
    G /= N
    mean = G.mean(axis=0)
    gate = 3.0 * G.std(axis=0, ddof=1) / math.sqrt(N_MC)
    dev = np.abs(mean - truth)
    elapsed = time.perf_counter() - t0
    _report(
        3, "fedx2 exact-u consistency",
        machinery_ok and bool(np.all(dev <= gate)) and elapsed < 60,
        f"max dev/gate {(dev / gate).max():.2f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. Convex convergence


def test_criterion_4_convex_convergence():
    t0 = time.perf_counter()
    cfg = DataConfig(n_pos_per_client=8, n_neg_per_client=40, input_dim=5,
                     n_clients=4, hetero_var=0, hetero_base=0, hetero_step=0, seed=1)
    ds = build_dataset(cfg)
    scorer = ScorerSpec("linear", 5)
    sq = PairwiseLossSpec("square")
    pos_X, neg_X = ds.pos_union()[1], ds.neg_union()[1]

    # Full-gradient-descent oracle, step from the exact quadratic curvature.
    diffs = pos_X[:, None, :] - neg_X[None, :, :]
    hess = 2.0 * np.einsum("pqi,pqj->ij", diffs, diffs) / diffs.shape[0] / diffs.shape[1]
    eta_gd = 1.0 / np.linalg.eigvalsh(hess).max()
    w = init_params(scorer, substream(1, "init"))
    for _ in range(10_000):
        w = w - eta_gd * exact_grad(sq, IDENTITY_OUTER, scorer, w, pos_X, neg_X)
    f_opt = exact_objective(sq, IDENTITY_OUTER, scorer, w, pos_X, neg_X)

    hyper = HyperParams(eta=0.05, K=8, R=300, B1=8, B2=8, seed=1,
                        lr_decay_every=800, lr_decay_factor=0.1)
    trace = simulate("fedx1", ds, scorer, sq, IDENTITY_OUTER, hyper,
                     eval_every=0, oracle_every=0)
    gap = trace.final_round().objective - f_opt
    elapsed = time.perf_counter() - t0
    _report(
        4, "fedx1 convex convergence to the descent optimum",
        0 <= gap <= 1e-3 and elapsed < 120,
        f"objective gap {gap:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. FedX2 stationarity trend


def test_criterion_5_fedx2_stationarity_trend():
    t0 = time.perf_counter()
    M, R, K, N = 8, 200, 8, 4
    eps = (math.sqrt(M) / R) ** (1.0 / 3.0)
    sched = theory_schedule("fedx2", eps, n_clients=N, max_shard=M)
    kl = PairwiseLossSpec("kl_opauc", lam=2.0)
    outer = OuterFnSpec("kl_log", lam=2.0)
    scorer = ScorerSpec("mlp1", 6, hidden_dim=8)
    ratios = []
    for seed in (1, 2, 3):
        cfg = DataConfig(n_pos_per_client=M, n_neg_per_client=40, input_dim=6,
                         n_clients=N, hetero_var=0, hetero_base=0, hetero_step=0,
                         seed=seed)
        ds = build_dataset(cfg)
        hyper = HyperParams(eta=sched.eta, K=K, R=R, B1=32, B2=32,
                            gamma=sched.gamma, beta=sched.beta, seed=seed)
        trace = simulate("fedx2", ds, scorer, kl, outer, hyper,
                         eval_every=0, oracle_every=1)
        g = [rec.grad_norm_sq for rec in trace.rounds[1:]]
        running_mean_at_R = float(np.mean(g))
        ratios.append(running_mean_at_R / g[0])
    elapsed = time.perf_counter() - t0
    _report(
        5, "fedx2 stationarity trend under the theory schedule",
        all(r <= 0.10 for r in ratios) and elapsed < 300,
        "ratios " + ", ".join(f"{r:.3f}" for r in ratios) + f", {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. Reduction identities


def test_criterion_6_reduction_identities():
    t0 = time.perf_counter()
    # (a) identity-outer estimator equality, exact.
    rng = np.random.default_rng(1006)
    shard = Shard(
        pos_ids=np.arange(4), pos_X=rng.standard_normal((4, 3)),
        neg_ids=np.arange(4, 10), neg_X=rng.standard_normal((6, 3)),
    )
    settings = RunSettings(
        "test", ScorerSpec("linear", 3), PairwiseLossSpec("kl_opauc", lam=2.0),
        IDENTITY_OUTER, HyperParams(),
    )
    st = ClientState(index=0, shard=shard, settings=settings,
                     model=rng.standard_normal(3))
    st.u_table = UTable(shard.n_pos)
    for m in range(shard.n_pos):
        st.u_table.values[m] = rng.uniform(1, 2)
    z1, z2 = np.array([0, 2, 3]), np.array([1, 4, 5])
    lazy_neg = rng.standard_normal(3)
    lazy_pos = rng.standard_normal(3)
    lazy_u = rng.uniform(1, 2, 3)
    eq_a = np.array_equal(
        one_client_fedx2(st, z1, z2, lazy_neg, lazy_pos, lazy_u),
        one_client_fedx1(st, z1, z2, lazy_neg, lazy_pos),
    )

    # (b) momentum closed form to 1e-12.
    g0, g = rng.standard_normal(5), rng.standard_normal(5)
    beta = 0.23
    mom = g0.copy()
    eq_b = True
    for k in range(1, 40):
        mom = momentum_update(mom, g, beta)
        expected = (1 - beta) ** k * g0 + (1 - (1 - beta) ** k) * g
        eq_b = eq_b and bool(np.all(np.abs(mom - expected) <= 1e-12))

    # (c) partial_auc at full FPR equals auc, exactly.
    eq_c = True
    for _ in range(50):
        ev = ScoredEval(rng.normal(1, 1, int(rng.integers(1, 40))),
                        rng.normal(0, 1, int(rng.integers(1, 40))))
        eq_c = eq_c and partial_auc(ev, 1.0) == auc(ev)

    # (d) sorted AUC equals the O(P*Q) definition, exactly, with ties.
    eq_d = True
    for _ in range(60):
        ev = ScoredEval(
            rng.integers(0, 7, int(rng.integers(1, 51))).astype(float),
            rng.integers(0, 7, int(rng.integers(1, 51))).astype(float),
        )
        eq_d = eq_d and auc(ev) == auc_bruteforce(ev)
    elapsed = time.perf_counter() - t0
    _report(
        6, "reduction identities",
        eq_a and eq_b and eq_c and eq_d,
        f"a={eq_a} b={eq_b} c={eq_c} d={eq_d}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. Communication accounting


def test_criterion_7_communication_accounting():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1007)
    ok = True
    details = []
    for trial in range(10):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        b = int(rng.integers(1, 4))
        dim = int(rng.integers(2, 7))
        n_pos, n_neg = int(rng.integers(b, 7)), int(rng.integers(b, 9))
        cfg = DataConfig(n_pos_per_client=n_pos, n_neg_per_client=n_neg,
                         input_dim=dim, n_clients=n, hetero_var=0, hetero_base=0,
                         hetero_step=0, seed=trial)
        ds = build_dataset(cfg)
        hyper = HyperParams(eta=0.01, K=k, R=2, B1=b, B2=b, seed=trial)
        if trial % 2 == 0:
            scorer = ScorerSpec("linear", dim)
            trace = simulate("fedx1", ds, scorer, PairwiseLossSpec("square"),
                             IDENTITY_OUTER, hyper, eval_every=0, oracle_every=0)
            d = scorer.param_count
            expect_up = d + 2 * k * b
        else:
            scorer = ScorerSpec("mlp1", dim, hidden_dim=2)
            trace = simulate("fedx2", ds, scorer, PairwiseLossSpec("kl_opauc", lam=2.0),
                             OuterFnSpec("kl_log", lam=2.0), hyper,
                             eval_every=0, oracle_every=0)
            d = scorer.param_count
            expect_up = 2 * d + 3 * k * b
        ups = {rec.uplink_floats for rec in trace.rounds}
        wraps = sum(rec.buffer_wraps for rec in trace.rounds)
        if ups != {expect_up} or wraps != 0:
            ok = False
            details.append(f"trial {trial}: got {ups}, expected {{{expect_up}}}")
    # Default-shaped config (every client, every round) stays wrap-free.
    cfg = parse_config("hyper.R = 2\ndata.n_clients = 16\n")
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as td:
        trace = harness_run(cfg, out=pathlib.Path(td) / "t.csv", quiet=True)
    wrap_free = all(rec.buffer_wraps == 0 for rec in trace.rounds)
    elapsed = time.perf_counter() - t0
    _report(
        7, "communication accounting",
        ok and wrap_free,
        ("; ".join(details) if details else "10 configs bit-exact, zero wraps")
        + f", {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. Vary-N ablation analog


# Criterion 8's config without its seeds; tests/golden/criterion8_scan.py
# runs it over a seed range.
CRITERION_8_CONFIG = """
algorithm = fedx2
loss.kind = kl_opauc
loss.lambda = 5.0
outer.kind = kl_log
outer.lambda = 5.0
scorer.kind = mlp1
scorer.hidden_dim = 16
data.n_pos_per_client = 16
data.n_neg_per_client = 80
data.input_dim = 6
data.n_clients = 1
data.hetero_var = 0
data.hetero_base = 0
data.hetero_step = 0
hyper.eta = 0.01
hyper.K = 8
hyper.R = 150
hyper.B1 = 8
hyper.B2 = 8
hyper.gamma = 0.3
hyper.beta = 0.2
eval_every_rounds = 0
oracle_every_rounds = 0
"""


def test_criterion_8_vary_n_ablation(tmp_path):
    t0 = time.perf_counter()
    wins = 0
    gaps = []
    for seed in (1, 2, 3):
        cfg = parse_config(CRITERION_8_CONFIG + f"data.seed = {seed}\nhyper.seed = {seed}\n")
        rows = sweep(cfg, "N", [1, 4, 16], tmp_path / f"seed{seed}")
        by_n = {row["value"]: row["final_pauc_0.3"] for row in rows}
        gaps.append(by_n[16] - by_n[1])
        wins += by_n[16] >= by_n[1]
    elapsed = time.perf_counter() - t0
    _report(
        8, "vary-N ablation: more sources help",
        wins >= 2 and elapsed < 600,
        f"wins {wins}/3, pauc@0.3 gaps " + ", ".join(f"{g:+.4f}" for g in gaps)
        + f", {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 9. Robustness analog under label flipping


def test_criterion_9_flip_robustness():
    t0 = time.perf_counter()
    scorer = ScorerSpec("mlp1", 6, hidden_dim=8)
    wins = 0
    gaps = []
    for seed in (1, 2, 3):
        final_auc = {}
        for kind in ("psm_sigmoid", "square"):
            cfg = DataConfig(n_pos_per_client=8, n_neg_per_client=40, input_dim=6,
                             n_clients=4, hetero_var=0, hetero_base=0, hetero_step=0,
                             flip_fraction=0.2, seed=seed)
            ds = build_dataset(cfg)
            hyper = HyperParams(eta=0.05, K=8, R=150, B1=16, B2=16, seed=seed)
            trace = simulate("fedx1", ds, scorer, PairwiseLossSpec(kind),
                             IDENTITY_OUTER, hyper, eval_every=0, oracle_every=0)
            final_auc[kind] = trace.final_round().auc
        gaps.append(final_auc["psm_sigmoid"] - final_auc["square"])
        wins += final_auc["psm_sigmoid"] > final_auc["square"]
    elapsed = time.perf_counter() - t0
    _report(
        9, "symmetric loss is more robust to flipped labels",
        wins >= 2 and elapsed < 600,
        f"wins {wins}/3, auc gaps " + ", ".join(f"{g:+.4f}" for g in gaps)
        + f", {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 10. Determinism across reruns


def _normalized_trace(path):
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    wall = header.index("wall_seconds")
    out = [lines[0].replace(path.name, "trace.csv")]
    for line in lines[1:]:
        cells = line.split(",")
        del cells[wall]
        out.append(",".join(cells))
    return "\n".join(out)


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    texts = {}
    for alg, body in (
        ("fedx1", "algorithm = fedx1\nscorer.kind = linear\n"),
        ("fedx2", "algorithm = fedx2\nscorer.kind = mlp1\nscorer.hidden_dim = 4\n"
                  "loss.kind = kl_opauc\nloss.lambda = 2.0\n"
                  "outer.kind = kl_log\nouter.lambda = 2.0\nhyper.gamma = 0.3\n"),
    ):
        cfg = parse_config(
            body
            + "data.n_pos_per_client = 4\ndata.n_neg_per_client = 8\n"
            "data.input_dim = 3\ndata.n_clients = 4\n"
            "hyper.eta = 0.005\nhyper.K = 3\nhyper.R = 3\nhyper.B1 = 2\nhyper.B2 = 2\n"
        )
        assert np.all(np.isfinite(  # the models must stay finite throughout
            [r.objective for r in harness_run(cfg, out=tmp_path / f"{alg}-probe.csv",
                                              quiet=True).rounds]
        ))
        for attempt in ("a", "b"):
            out = tmp_path / f"{alg}-{attempt}.csv"
            harness_run(cfg, out=out, quiet=True)
            texts[(alg, attempt)] = _normalized_trace(out)
    same = all(texts[(alg, "a")] == texts[(alg, "b")] for alg in ("fedx1", "fedx2"))
    elapsed = time.perf_counter() - t0
    _report(
        10, "byte-identical traces across reruns",
        same, f"{elapsed:.1f}s",
    )
