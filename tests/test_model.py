"""Scoring functions, analytic gradients, and the finite-difference checker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import score, score_grad

from fedcpr.model import (
    ScorerSpec,
    finite_diff_grad,
    init_params,
    initial_model,
    score_grad_many,
    score_many,
)
from fedcpr.rng import substream

LINEAR = ScorerSpec("linear", 4)
MLP = ScorerSpec("mlp1", 4, hidden_dim=2)


def mlp_score_by_hand(spec, w, x):
    """Independent straight-line recomputation, scalar by scalar."""
    h, d = spec.hidden_dim, spec.input_dim
    total = 0.0
    for j in range(h):
        pre = 0.0
        for i in range(d):
            pre += w[j * d + i] * x[i]
        total += w[h * d + j] * np.tanh(pre)
    return total


class TestScore:
    def test_linear_hand_value(self):
        spec = ScorerSpec("linear", 2)
        assert score(spec, np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_mlp_zero_weights(self):
        w = np.zeros(MLP.param_count)
        x = np.array([0.3, -1.2, 4.0, 0.0])
        assert score(MLP, w, x) == 0.0

    def test_mlp_matches_scalar_recomputation(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            w = rng.standard_normal(MLP.param_count)
            x = rng.standard_normal(4)
            np.testing.assert_allclose(
                score(MLP, w, x), mlp_score_by_hand(MLP, w, x), rtol=1e-12
            )

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal(MLP.param_count)
        x = rng.standard_normal(4)
        assert score(MLP, w, x) == score(MLP, w, x)

    def test_linear_homogeneity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = rng.standard_normal(4)
            x = rng.standard_normal(4)
            alpha = rng.uniform(-3, 3)
            lhs = score(LINEAR, w, alpha * x)
            rhs = alpha * score(LINEAR, w, x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            score(LINEAR, np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            score(LINEAR, np.zeros(4), np.zeros(5))
        with pytest.raises(ValueError):
            score(MLP, np.zeros(MLP.param_count + 1), np.zeros(4))

    def test_score_many_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"^parameter vector has length \(3,\), expected \(4,\)"):
            score_many(LINEAR, np.zeros(3), np.zeros((2, 4)))
        with pytest.raises(ValueError, match="^feature vector has length 5, expected 4"):
            score_many(MLP, np.zeros(MLP.param_count), np.zeros((2, 5)))

    def test_param_counts(self):
        assert LINEAR.param_count == 4
        assert MLP.param_count == 4 * 2 + 2

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((7, 4))
        for spec in (LINEAR, MLP):
            w = rng.standard_normal(spec.param_count)
            batch = score_many(spec, w, X)
            np.testing.assert_allclose(
                batch, [score(spec, w, x) for x in X], rtol=1e-12
            )


class TestScoreGrad:
    def test_linear_gradient_is_x(self):
        spec = ScorerSpec("linear", 2)
        w = np.array([5.0, -2.0])
        np.testing.assert_array_equal(
            score_grad(spec, w, np.array([3.0, 4.0])), [3.0, 4.0]
        )

    def test_mlp_zero_weights(self):
        # Output block is tanh(0) = 0; hidden block vanishes since w_out = 0.
        g = score_grad(MLP, np.zeros(MLP.param_count), np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_array_equal(g, np.zeros(MLP.param_count))

    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp1"])
    def test_matches_finite_differences(self, spec):
        rng = np.random.default_rng(4)
        for _ in range(100):
            w = rng.standard_normal(spec.param_count)
            x = rng.standard_normal(spec.input_dim)
            g = score_grad(spec, w, x)
            fd = finite_diff_grad(lambda v: score(spec, v, x), w, 1e-5)
            err = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
            assert err <= 1e-5

    def test_batch_matches_scalar(self):
        # Pulling back the unit vectors gives the per-sample gradients.
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 4))
        for spec in (LINEAR, MLP):
            w = rng.standard_normal(spec.param_count)
            pullback = score_grad_many(spec, w, X)[1]
            batch = np.array([pullback(e) for e in np.eye(len(X))])
            np.testing.assert_allclose(
                batch, np.array([score_grad(spec, w, x) for x in X]), rtol=1e-12,
                atol=1e-15,
            )


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["linear", "mlp1"]),
    input_dim=st.integers(1, 6),
    hidden_dim=st.integers(1, 5),
    n=st.integers(1, 8),
    clients=st.one_of(st.none(), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_pass_scores_equal_score_many(kind, input_dim, hidden_dim, n, clients, seed):
    # The local steps and the oracle take their scores from score_grad_many's
    # one forward pass; they must be score_many's to the byte, alone or per
    # client of a (G, n) stack. Its pullback of v is each client's
    # v-weighted sum of per-sample gradients: the scalar route's, and the
    # finite-difference gradient of v . score_many.
    spec = ScorerSpec(kind, input_dim, hidden_dim=hidden_dim if kind == "mlp1" else 0)
    rng = np.random.default_rng(seed)
    lead = () if clients is None else (clients,)
    w = rng.standard_normal(lead + (spec.param_count,))
    X = rng.standard_normal(lead + (n, input_dim))
    v = rng.standard_normal(lead + (n,))
    scores, pullback = score_grad_many(spec, w, X)
    want = score_many(spec, w, X)
    assert scores.shape == want.shape == lead + (n,)
    assert scores.tobytes() == want.tobytes()
    pulled = pullback(v)
    assert pulled.shape == lead + (spec.param_count,)
    for c in np.ndindex(lead):
        terms = np.array([v[c][m] * score_grad(spec, w[c], X[c][m]) for m in range(n)])
        np.testing.assert_allclose(pulled[c], terms.sum(axis=0), rtol=1e-12,
                                   atol=1e-12 * np.abs(terms).sum(axis=0).max())
        fd = finite_diff_grad(lambda u: float(v[c] @ score_many(spec, u, X[c])), w[c], 1e-5)
        assert np.linalg.norm(pulled[c] - fd) <= 1e-5 * max(1.0, np.linalg.norm(pulled[c]))
    with pytest.raises(ValueError, match=r"^pullback weights have shape"):
        pullback(v[..., :-1])


class TestFiniteDiff:
    def test_quadratic_exact_to_roundoff(self):
        fd = finite_diff_grad(lambda w: float(w @ w), np.array([1.0, 2.0]), 1e-5)
        np.testing.assert_allclose(fd, [2.0, 4.0], atol=1e-8)

    def test_constant_function(self):
        fd = finite_diff_grad(lambda w: 7.5, np.array([1.0, -1.0, 0.0]), 1e-4)
        np.testing.assert_array_equal(fd, np.zeros(3))

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda w: 0.0, np.zeros(2), 0.0)

    def test_cross_oracle_against_exact_objective(self):
        # The checker itself, validated on a 6-sample analytic objective.
        from fedcpr.losses import (
            OuterFnSpec,
            PairwiseLossSpec,
            exact_grad,
            exact_objective,
        )

        rng = np.random.default_rng(6)
        pos = rng.standard_normal((2, 4))
        neg = rng.standard_normal((4, 4))
        loss_spec = PairwiseLossSpec("kl_opauc", lam=2.0)
        outer = OuterFnSpec("kl_log", lam=2.0)
        w = rng.standard_normal(MLP.param_count) * 0.5
        fd = finite_diff_grad(
            lambda v: exact_objective(loss_spec, outer, MLP, v, pos, neg), w, 1e-5
        )
        g = exact_grad(loss_spec, outer, MLP, w, pos, neg)
        assert np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g)) <= 1e-5


class TestInit:
    def test_shapes_and_determinism(self):
        rng1 = np.random.default_rng(7)
        rng2 = np.random.default_rng(7)
        for spec in (LINEAR, MLP):
            w1 = init_params(spec, rng1)
            w2 = init_params(spec, rng2)
            assert w1.shape == (spec.param_count,)
            np.testing.assert_array_equal(w1, w2)

    @pytest.mark.parametrize("spec", [LINEAR, MLP])
    @pytest.mark.parametrize("seed", [0, 7, -(2**63)])
    def test_initial_model_is_init_params_on_the_init_stream(self, spec, seed):
        want = init_params(spec, substream(seed, "init"))
        assert initial_model(spec, seed).tobytes() == want.tobytes()

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            ScorerSpec("conv", 4)
        with pytest.raises(ValueError):
            ScorerSpec("mlp1", 4, hidden_dim=0)
        with pytest.raises(ValueError, match="^input_dim must be >= 1"):
            ScorerSpec("linear", 0)
