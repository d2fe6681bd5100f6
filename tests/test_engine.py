"""The stacked round engine against the per-client reference round."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import emitted_ids, reference_rounds, small_dataset

from fedcpr import algorithms
from fedcpr.algorithms import PROGRAMS, HyperParams, RunSettings, simulate
from fedcpr.data import DataConfig, build_dataset
from fedcpr.federation import server_aggregate
from fedcpr.harness import parse_config
from fedcpr.losses import IDENTITY_OUTER, OuterFnSpec, PairwiseLossSpec
from fedcpr.model import ScorerSpec

PSM = PairwiseLossSpec("psm_sigmoid")
KL = PairwiseLossSpec("kl_opauc", lam=2.0)
KL_LOG = OuterFnSpec("kl_log", lam=2.0)

# (algorithm, loss, outer, history_samples): all five algorithms, each
# outer function the baselines branch on, and both fedx2 emission modes.
VARIANTS = {
    "fedx1": ("fedx1", PSM, IDENTITY_OUTER, "independent"),
    "fedx2": ("fedx2", KL, KL_LOG, "independent"),
    "fedx2-reuse": ("fedx2", KL, KL_LOG, "reuse"),
    "local_sgd": ("local_sgd", PSM, IDENTITY_OUTER, "independent"),
    "local_pair": ("local_pair", PSM, IDENTITY_OUTER, "independent"),
    "local_pair-kl_log": ("local_pair", KL, KL_LOG, "independent"),
    "centralized": ("centralized", PSM, IDENTITY_OUTER, "independent"),
    "centralized-kl_log": ("centralized", KL, KL_LOG, "independent"),
}


def _equal_dataset(n_clients=3, n_pos=5, n_neg=9):
    return build_dataset(DataConfig(
        n_pos_per_client=n_pos, n_neg_per_client=n_neg, input_dim=4,
        n_clients=n_clients, seed=31,
    ))


# case -> (dataset factory, scorer, hyper)
CASES = {
    "equal": (_equal_dataset, ScorerSpec("mlp1", 4, hidden_dim=3),
              HyperParams(eta=0.05, K=4, R=3, B1=3, B2=4, gamma=0.3, beta=0.4, seed=5)),
    # fedx1's wrap config: the negative buffer holds K entries, drawn 4 per step.
    "wrap-n1": (lambda: _equal_dataset(n_clients=1, n_pos=4, n_neg=20),
                ScorerSpec("linear", 4),
                HyperParams(eta=0.01, K=6, R=3, B1=4, B2=1, seed=8)),
    # fedx2's wrap config: the positive buffer holds N*K entries, drawn 9 per step.
    "wrap-n2": (lambda: _equal_dataset(n_clients=2, n_pos=4, n_neg=20),
                ScorerSpec("mlp1", 4, hidden_dim=2),
                HyperParams(eta=0.01, K=6, R=3, B1=1, B2=9, seed=9)),
}

# Pair-loss evaluations per local step: one per pair set the step
# needs (each side's update pairs, and fedx2's independent emission pairs).
LOSS_EVALS = {
    "fedx1": 2, "fedx2": 3, "fedx2-reuse": 2, "local_sgd": 0, "local_pair": 2,
    "local_pair-kl_log": 2, "centralized": 1, "centralized-kl_log": 1,
}


def _engine_rounds(algorithm, dataset, scorer, loss_spec, outer, hyper):
    """The engine's upload tables, emitted ids, aggregates, estimates and
    wraps, round by round."""
    program = PROGRAMS[algorithm](RunSettings(algorithm, scorer, loss_spec, outer, hyper), dataset)
    table = program.bootstrap_uploads()
    rounds = [(table, emitted_ids(program), server_aggregate(table),
               np.empty((0, program.n_clients)), 0)]
    for r in range(1, hyper.R + 1):
        wraps = program.begin_round(rounds[-1][2], r)
        est = np.array([program.step(k, hyper.eta_at((r - 1) * hyper.K + k))[0]
                        for k in range(hyper.K)])
        table = program.uploads()
        rounds.append((table, emitted_ids(program), server_aggregate(table), est, wraps))
    return rounds


def _arrays(*arrays):
    return [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _table_bytes(table, ids):
    """Every array of an upload table, and the sample ids of its scores:
    row i of each is client i's, so the ids pin each emission position."""
    return _arrays(table.models, table.momenta, table.h1, table.h2, table.h1_u, *ids)


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_engine_matches_per_client_reference(case, variant):
    make, scorer, hyper = CASES[case]
    algorithm, loss_spec, outer, history = VARIANTS[variant]
    hyper = HyperParams(**{**vars(hyper), "history_samples": history})
    ds = make()
    got = _engine_rounds(algorithm, ds, scorer, loss_spec, outer, hyper)
    want = reference_rounds(algorithm, ds, scorer, loss_spec, outer, hyper)
    assert len(got) == len(want) == hyper.R + 1
    for (table, ids, download, est, wraps), ref in zip(got, want):
        assert _table_bytes(table, ids) == _table_bytes(ref.table, ref.ids)
        assert download.model.tobytes() == ref.download.model.tobytes()
        assert est.tobytes() == ref.estimates.tobytes()
        assert wraps == ref.wraps
    if case.startswith("wrap") and algorithm in ("fedx1", "fedx2"):
        assert sum(r.wraps for r in want) > 0


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_one_loss_evaluation_per_pair_set(monkeypatch, variant):
    make, scorer, hyper = CASES["equal"]
    algorithm, loss_spec, outer, history = VARIANTS[variant]
    hyper = HyperParams(**{**vars(hyper), "history_samples": history})
    program = PROGRAMS[algorithm](RunSettings(algorithm, scorer, loss_spec, outer, hyper), make())
    program.begin_round(server_aggregate(program.bootstrap_uploads()), 1)
    calls = []
    for name in ("loss_and_slope", "loss"):
        fn = getattr(algorithms, name)
        monkeypatch.setattr(algorithms, name, lambda *args, fn=fn: calls.append(fn) or fn(*args))
    for k in range(hyper.K):
        program.step(k, hyper.eta)
    assert len(calls) == LOSS_EVALS[variant] * hyper.K


def test_divergence_names_the_per_client_first_failure():
    # Round 1 of this run: client 1 goes non-finite at iteration 1, client
    # 2 at 2 and client 0 at 6. One client after another, client 0 fails
    # first, so that is the failure to name.
    ds = build_dataset(DataConfig(n_pos_per_client=6, n_neg_per_client=30, input_dim=3,
                                  n_clients=4, hetero_var=0, hetero_base=0,
                                  hetero_step=0, seed=7))
    hyper = HyperParams(eta=0.05, K=8, R=30, B1=2, B2=2, gamma=0.2, beta=0.2, seed=7)
    args = ("fedx2", ds, ScorerSpec("linear", 3), KL, KL_LOG, hyper)
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError) as want:
            reference_rounds(*args)
    with pytest.raises(FloatingPointError) as got:
        simulate(*args, eval_every=0, oracle_every=0)
    assert str(got.value) == str(want.value)
    assert "client 0 at round 1, iteration 6" in str(got.value)


def test_divergence_names_a_non_finite_emitted_u_value():
    # Round 1 of this run: client 0's emitted u-value is non-finite at
    # iteration 3, while its other watched quantities stay finite all round.
    # Client 2's gradient estimate is non-finite earlier, at iteration 1,
    # but one client after another, client 0 fails first.
    ds = build_dataset(DataConfig(n_pos_per_client=20, n_neg_per_client=40, input_dim=4,
                                  n_clients=4, seed=10))
    hyper = HyperParams(eta=0.01, K=8, R=4, B1=2, B2=3, seed=5)
    kl1, kl_log1 = PairwiseLossSpec("kl_opauc", lam=1.0), OuterFnSpec("kl_log", lam=1.0)
    args = ("fedx2", ds, ScorerSpec("linear", 4), kl1, kl_log1, hyper)
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError) as want:
            reference_rounds(*args)
    with pytest.raises(FloatingPointError) as got:
        simulate(*args, eval_every=0, oracle_every=0)
    assert str(got.value) == str(want.value) == (
        "diverged: non-finite emitted u-value on client 0 at round 1, iteration 3")


def test_divergence_names_a_non_finite_bootstrap_u_value():
    # The bootstrap's u-values of clients 9 and 15 overflow, client 9's
    # first at iteration 0; round 1 would next meet client 0's pair-loss
    # estimate at iteration 1.
    cfg = parse_config("algorithm = fedx2\nloss.kind = kl_opauc\nloss.lambda = 0.05\n"
                       "outer.kind = kl_log\nhyper.R = 3\nhyper.eta = 0.01\nhyper.K = 4\n"
                       "data.seed = 1\nhyper.seed = 1\n")
    args = (cfg.algorithm, build_dataset(cfg.data), cfg.scorer, cfg.loss, cfg.outer, cfg.hyper)
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError) as want:
            reference_rounds(*args)
    with pytest.raises(FloatingPointError) as got:
        simulate(*args, eval_every=0, oracle_every=0)
    assert str(got.value) == str(want.value) == (
        "diverged: non-finite emitted u-value on client 9 at round 0, iteration 0")


@st.composite
def _random_run(draw):
    """1-4 clients of one shape, 1-6 samples a side, and batch sizes that
    take a client's side whole or not."""
    sides = st.integers(1, 6)
    ds = small_dataset(draw(st.integers(1, 4)), draw(sides), draw(sides), (2, 10),
                       draw(st.integers(0, 2**16)))
    hyper = HyperParams(eta=0.01, K=draw(st.integers(1, 4)), R=2, B1=draw(st.integers(1, 7)),
                        B2=draw(st.integers(1, 7)), gamma=0.3, beta=0.4,
                        seed=draw(st.integers(0, 2**16)))
    return ds, hyper


@pytest.mark.parametrize("variant", list(VARIANTS))
@settings(max_examples=25, deadline=None)
@given(run=_random_run())
def test_engine_matches_per_client_reference_on_random_shapes(variant, run):
    ds, hyper = run
    algorithm, loss_spec, outer, history = VARIANTS[variant]
    hyper = HyperParams(**{**vars(hyper), "history_samples": history})
    args = (algorithm, ds, ScorerSpec("linear", 4), loss_spec, outer, hyper)
    with np.errstate(all="ignore"):
        try:
            want = reference_rounds(*args)
        except FloatingPointError as exc:  # a diverged run fails alike
            with pytest.raises(FloatingPointError) as got:
                simulate(*args, eval_every=0, oracle_every=0)
            assert str(got.value) == str(exc)
            return
        got = _engine_rounds(*args)
    assert len(got) == len(want) == hyper.R + 1
    for (table, ids, download, est, wraps), ref in zip(got, want):
        assert _table_bytes(table, ids) == _table_bytes(ref.table, ref.ids)
        assert download.model.tobytes() == ref.download.model.tobytes()
        assert est.tobytes() == ref.estimates.tobytes()
        assert wraps == ref.wraps
