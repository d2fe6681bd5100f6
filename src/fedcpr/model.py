"""Prediction functions, their pullbacks, and a finite-difference checker.

Two scorer families are supported, both emitting a single scalar score:

* ``linear``: score(w, x) = w · x, with d = input_dim parameters.
* ``mlp1``: one tanh hidden layer without biases,
  score(w, x) = w_out · tanh(W_hidden @ x), parameters laid out as
  [W_hidden row-major, then w_out], d = input_dim·hidden_dim + hidden_dim.

tanh (smooth) is used rather than ReLU so the default model class has
Lipschitz gradients everywhere. All math is double precision. Gradients
come only as pullbacks, sum_n v_n * grad h(w; x_n) over a batch, so no
per-sample gradient is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import check_numbers
from .rng import substream


@dataclass(frozen=True)
class ScorerSpec:
    """Shape of a scoring function. param_count fixes the model dimension."""

    kind: str  # "linear" | "mlp1"
    input_dim: int
    hidden_dim: int = 0  # mlp1 only

    def __post_init__(self) -> None:
        # Each message starts with the field's config key name.
        check_numbers(self)
        if self.kind not in ("linear", "mlp1"):
            raise ValueError(f"kind must be linear or mlp1, got {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.kind == "mlp1" and self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1 for mlp1")

    @property
    def param_count(self) -> int:
        if self.kind == "linear":
            return self.input_dim
        return self.input_dim * self.hidden_dim + self.hidden_dim


def _check_dims(spec: ScorerSpec, w: np.ndarray, x: np.ndarray) -> None:
    if w.shape[-1:] != (spec.param_count,):
        raise ValueError(
            f"parameter vector has length {w.shape[-1:]}, expected ({spec.param_count},)"
        )
    if x.shape[-1] != spec.input_dim:
        raise ValueError(
            f"feature vector has length {x.shape[-1]}, expected {spec.input_dim}"
        )


def _vecmat(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``v @ m`` per client: (..., n) and (..., n, d) give (..., d)."""
    return v @ m if v.ndim == 1 else (v[..., None, :] @ m)[..., 0, :]


def score_many(spec: ScorerSpec, w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The scores of :func:`score_grad_many`."""
    return score_grad_many(spec, w, X)[0]


def score_grad_many(spec: ScorerSpec, w: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, Callable]:
    """Scores and their pullback from one forward pass.

    w (d,) and X (n, input_dim) give scores (n,); with leading client axes,
    w (..., d) and X (..., n, input_dim) give (..., n), each client's batch
    at its own model, bit for bit what its own call gives. ``pullback(v)``,
    for v shaped like the scores, is sum_n v[..., n] * grad h(w; x_n), (..., d).
    """
    _check_dims(spec, w, X)
    if spec.kind == "linear":
        scores = (X @ w[..., None])[..., 0]
    else:
        h, d = spec.hidden_dim, spec.input_dim  # w = [W_hidden row-major, w_out]
        hidden_w, out_w = w[..., : h * d].reshape(*w.shape[:-1], h, d), w[..., h * d :]
        t = np.tanh(X @ np.swapaxes(hidden_w, -1, -2))  # (..., n, hidden)
        scores = (t @ out_w[..., None])[..., 0]

    def pullback(v: np.ndarray) -> np.ndarray:
        if v.shape != scores.shape:
            raise ValueError(f"pullback weights have shape {v.shape}, the scores {scores.shape}")
        if spec.kind == "linear":
            return _vecmat(v, X)
        # d/dW_hidden = outer(out_w * (1 - t^2), x); d/dw_out = t
        coeff = v[..., None] * out_w[..., None, :] * (1.0 - t * t)  # (..., n, hidden)
        hidden_grad = np.swapaxes(coeff, -1, -2) @ X  # (..., hidden, input)
        return np.concatenate([hidden_grad.reshape(*v.shape[:-1], -1), _vecmat(v, t)], axis=-1)

    return scores, pullback


def finite_diff_grad(
    fn: Callable[[np.ndarray], float], w: np.ndarray, step: float
) -> np.ndarray:
    """Central-difference gradient of fn at w, one coordinate at a time."""
    if step <= 0:
        raise ValueError("step must be positive")
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    for i in range(w.size):
        wp = w.copy()
        wm = w.copy()
        wp[i] += step
        wm[i] -= step
        out[i] = (fn(wp) - fn(wm)) / (2.0 * step)
    return out


def init_params(spec: ScorerSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw an initial parameter vector, scaled like 1/sqrt(fan_in)."""
    if spec.kind == "linear":
        return rng.standard_normal(spec.input_dim) / np.sqrt(spec.input_dim)
    h, d = spec.hidden_dim, spec.input_dim
    hidden = rng.standard_normal((h, d)) / np.sqrt(d)
    out = rng.standard_normal(h) / np.sqrt(h)
    return np.concatenate([hidden.ravel(), out])


def initial_model(spec: ScorerSpec, seed: int) -> np.ndarray:
    """The model every client of a run starts from: :func:`init_params` on
    the run seed's ``("init",)`` stream."""
    return init_params(spec, substream(seed, "init"))
