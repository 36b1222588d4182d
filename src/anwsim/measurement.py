"""Homodyne-detection algebra on Gaussian states.

A homodyne detector on mode i with local-oscillator phase theta measures
the rotated quadrature x_i(theta) = cos(theta) x_i + sin(theta) y_i, with
y_i(theta) = x_i(theta + pi/2). Joint detection with post-processing gains
measures real linear combinations of rotated quadratures; all variances
are in shot-noise units (vacuum = 1). Mode indices are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GaussianState
from .symplectic import require_symplectic

__all__ = [
    "QuadratureCombination",
    "change_basis",
    "variance_at",
    "min_variance",
    "min_variances",
    "max_variance",
    "combination_variance",
    "quadrature_variances",
    "squeezing_db",
]


@dataclass(frozen=True)
class QuadratureCombination:
    """Linear form over rotated quadratures.

    ``coefficients`` has length 2N ordered (x_1(t_1)..x_N(t_N),
    y_1(t_1)..y_N(t_N)) and ``angles`` are the N detector phases t_i.
    """

    coefficients: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        a = np.asarray(self.angles, dtype=float)
        if a.ndim != 1 or c.shape != (2 * a.size,):
            raise ValueError(
                f"need 2N coefficients for N angles, got {c.shape} and {a.shape}"
            )
        if not np.any(c):
            raise ValueError("combination must have at least one nonzero coefficient")
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "angles", a)

    @property
    def n(self) -> int:
        return self.angles.size


def change_basis(state: GaussianState, t: np.ndarray, basis: str) -> GaussianState:
    """Rewrite a state in new modes q' = T q for symplectic T."""
    require_symplectic(t)
    return GaussianState(
        z=state.z,
        propagator=t @ state.propagator,
        covariance=t @ state.covariance @ t.T,
        basis=basis,
    )


def _mode_index(state: GaussianState, i: int) -> int:
    n = state.n
    if not 1 <= i <= n:
        raise IndexError(f"mode index {i} out of range 1..{n}")
    return i - 1


def variance_at(state: GaussianState, i: int, theta: float) -> float:
    """Variance of the rotated quadrature x_i(theta)."""
    k = _mode_index(state, i)
    row, angles = np.zeros(2 * state.n), np.zeros(state.n)
    row[k], angles[k] = 1.0, theta
    return float(quadrature_variances(state.covariance, row[None, :], angles)[0])


def _extremal(covariance: np.ndarray, sign: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode minimum (sign -1) or maximum (+1) of min_variances' shape."""
    v = np.asarray(covariance, dtype=float)
    n = v.shape[-1] // 2
    diag = np.diagonal(v, axis1=-2, axis2=-1)
    a, d = diag[..., :n], diag[..., n:]
    b = np.diagonal(v[..., :n, n:], axis1=-2, axis2=-1)
    mean, half = 0.5 * (a + d), 0.5 * (a - d)
    radius = np.hypot(half, b)
    # variance(theta) = mean + half cos(2 theta) + b sin(2 theta)
    theta = 0.5 * np.arctan2(sign * b, sign * half)
    theta = np.where(theta <= -np.pi / 2, theta + np.pi, theta)
    isotropic = radius < 1e-15 * np.maximum(1.0, mean)
    return np.where(isotropic, mean, mean + sign * radius), np.where(isotropic, 0.0, theta)


def min_variances(covariance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest quadrature variance of every mode and its angle.

    ``covariance`` is (..., 2N, 2N) and both results are (..., N), mode i
    at index i - 1. Angles lie in (-pi/2, pi/2]; an isotropic mode ties to 0.
    """
    return _extremal(covariance, -1.0)


def min_variance(state: GaussianState, i: int) -> tuple[float, float]:
    """Smallest quadrature variance of mode i and its angle (see min_variances)."""
    k = _mode_index(state, i)
    var, theta = _extremal(state.covariance, -1.0)
    return float(var[k]), float(theta[k])


def max_variance(state: GaussianState, i: int) -> tuple[float, float]:
    """Largest quadrature variance of mode i and its angle (antisqueezing)."""
    k = _mode_index(state, i)
    var, theta = _extremal(state.covariance, 1.0)
    return float(var[k]), float(theta[k])


def quadrature_variances(
    covariance: np.ndarray, coefficients: np.ndarray, angles: np.ndarray
) -> np.ndarray:
    """Variances of k combinations of rotated quadratures, over stacks.

    ``covariance`` is (..., 2N, 2N), ``coefficients`` (..., k, 2N) in the
    QuadratureCombination layout and ``angles`` (..., N); leading axes
    broadcast, and the result is (..., k). The LO rotation is pulled onto
    the coefficients element-wise, w_x = cos t c_x - sin t c_y and
    w_y = sin t c_x + cos t c_y, and each variance is w V w^T.
    """
    v = np.asarray(covariance, dtype=float)
    c = np.asarray(coefficients, dtype=float)
    t = np.asarray(angles, dtype=float)[..., None, :]
    n = t.shape[-1]
    if c.shape[-1] != 2 * n or v.shape[-2:] != (2 * n, 2 * n):
        raise ValueError(
            f"need 2N coefficients and a 2N x 2N covariance for N angles, got "
            f"{c.shape}, {v.shape} and {t.shape[:-2] + (n,)}"
        )
    cos, sin = np.cos(t), np.sin(t)
    cx, cy = c[..., :n], c[..., n:]
    w = np.concatenate([cos * cx - sin * cy, sin * cx + cos * cy], axis=-1)
    return np.einsum("...ki,...ki->...k", w @ v, w)


def combination_variance(state: GaussianState, combo: QuadratureCombination) -> float:
    """Variance of a gain-weighted combination of rotated quadratures."""
    if combo.n != state.n:
        raise ValueError(f"combination is over {combo.n} modes, state has {state.n}")
    return float(
        quadrature_variances(state.covariance, combo.coefficients[None, :], combo.angles)[0]
    )


def squeezing_db(variance: float | np.ndarray) -> float | np.ndarray:
    """Variance in decibels relative to shot noise (negative = squeezed).

    Works elementwise; a scalar gives a float. Every entry must be positive.
    """
    v = np.asarray(variance, dtype=float)
    bad = ~(v > 0)
    if np.any(bad):
        raise ValueError(f"variance must be positive, got {v[bad][0]}")
    db = 10.0 * np.log10(v)
    return float(db) if db.ndim == 0 else db
