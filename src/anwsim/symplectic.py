"""Dense linear-algebra kernel for Gaussian-optics calculations.

Every symplectic matrix in this package uses the quadrature ordering
(x_1 .. x_N, y_1 .. y_N) and the form matrix Omega = [[0, I], [-I, 0]].
Vacuum variance is 1, so covariance matrices of pure states built here
satisfy V = S S^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

__all__ = [
    "omega",
    "symplectic_error",
    "require_symplectic",
    "mat_exp",
    "takagi",
    "TakagiFactorization",
    "bloch_messiah",
    "BlochMessiahFactorization",
    "euler_orthogonal",
    "orthogonal_to_euler",
    "d_lo",
    "unitary_to_symplectic",
    "symplectic_to_bogoliubov",
    "bogoliubov_to_symplectic",
]

SYMPLECTIC_TOL = 1e-10


def omega(n: int) -> np.ndarray:
    """Symplectic form matrix for n modes in (x.., y..) ordering."""
    z = np.zeros((n, n))
    eye = np.eye(n)
    return np.block([[z, eye], [-eye, z]])


def _defects(s: np.ndarray) -> np.ndarray:
    """Max-abs deviation of S Omega S^T from Omega, per slice of a stack."""
    n = s.shape[-1] // 2
    om = omega(n)
    return np.abs(s @ om @ np.swapaxes(s, -1, -2) - om).max(axis=(-2, -1))


def symplectic_error(s: np.ndarray) -> float:
    """Max-abs deviation of S Omega S^T from Omega, worst over a (..., 2N, 2N) stack."""
    return float(_defects(s).max())


def require_symplectic(s: np.ndarray, tol: float | np.ndarray = SYMPLECTIC_TOL) -> None:
    """Refuse a matrix, or a stack of them, with a slice whose defect exceeds tol.

    ``tol`` is a scalar or an array over the stack's leading axes (one
    tolerance per slice); the message names the worst offending slice.
    """
    if s.ndim < 2 or s.shape[-1] != s.shape[-2] or s.shape[-1] % 2:
        raise ValueError(f"expected an even square matrix, got shape {s.shape}")
    err = _defects(s)
    bad = err > tol
    if bad.any():
        k = np.unravel_index(np.argmax(np.where(bad, err, -np.inf)), err.shape)
        limit = np.broadcast_to(tol, err.shape)[k]
        raise ValueError(f"matrix is not symplectic: deviation {err[k]:.3e} > {limit:.1e}")


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square real or complex matrix.

    A (..., m, m) stack is exponentiated slice by slice; each slice equals
    the exponential of that matrix alone, bit for bit.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix must be square in its last two axes, got shape {a.shape}")
    return expm(a)


@dataclass(frozen=True)
class TakagiFactorization:
    """Congruence diagonalization W = U^T diag(values) U of a complex symmetric W.

    ``unitary`` is the matrix U with U W U^T = diag(values); ``values`` are
    nonnegative and sorted descending.
    """

    unitary: np.ndarray
    values: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.unitary
        return u.conj().T @ np.diag(self.values) @ u.conj()


def takagi(w: np.ndarray, tol: float = 1e-12) -> TakagiFactorization:
    """Factor a complex symmetric matrix as U W U^T = diag(values) >= 0.

    The one-matrix case of the stacked factorization (see _takagi).

    Parameters
    ----------
    w : (n, n) array_like, complex symmetric
    tol : float
        Maximum allowed asymmetry ||W - W^T||_inf relative to the size
        of the largest entry.
    """
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2:
        raise ValueError(f"matrix must be square, got shape {w.shape}")
    values, u = _takagi(w, tol)
    return TakagiFactorization(unitary=u, values=values)


def _takagi(w: np.ndarray, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Takagi values (..., n) and unitaries U (..., n, n) of a stack of
    complex symmetric matrices, slice by slice as takagi.

    Uses the real embedding [[A, B], [B, -A]] of W = A + iB, whose
    eigenpairs come in (sigma, -sigma) pairs; the positive half gives the
    factor directly, and one eigh covers the whole stack. A slice with
    fewer than n positive values is completed on its own from its
    conjugated null space. Ties and the zero space are resolved
    deterministically.
    """
    w = np.asarray(w, dtype=complex)
    if w.ndim < 2 or w.shape[-1] != w.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {w.shape}")
    lead, n = w.shape[:-2], w.shape[-1]
    w = w.reshape((-1, n, n))
    wt = w.transpose(0, 2, 1)
    asym = np.abs(w - wt).max(axis=(1, 2))
    allowed = tol * np.maximum(1.0, np.abs(w).max(axis=(1, 2)))
    if np.any(asym > allowed):
        k = int(np.argmax(asym > allowed))
        raise ValueError(
            f"matrix is not symmetric: asymmetry {asym[k]:.3e} > {allowed[k]:.1e}"
        )
    w = 0.5 * (w + wt)
    a, b = w.real, w.imag
    emb = np.concatenate([np.concatenate([a, b], 2), np.concatenate([b, -a], 2)], 1)
    vals, vecs = np.linalg.eigh(emb)

    scale = np.maximum(1.0, np.abs(vals).max(axis=1))
    positive = (vals > 1e-13 * scale[:, None]).sum(axis=1)
    sigma = vals[:, n:]
    q = vecs[:, :n, n:] + 1j * vecs[:, n:, n:]
    # unit real eigenvectors of the embedding give unit complex columns
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    for i in np.flatnonzero(positive < n):
        sigma[i], q[i] = _complete_null_space(w[i], sigma[i], q[i], positive[i])

    order = np.argsort(-sigma, axis=1, kind="stable")
    rows = np.arange(len(w))[:, None]
    # q[rows, :, order][k, j] is column order[k, j] of q[k]: the rows of U = Q^H
    u = q[rows, :, order].conj()
    return sigma[rows, order].reshape(lead + (n,)), u.reshape(lead + (n, n))


def _complete_null_space(
    w: np.ndarray, sigma: np.ndarray, q: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Keep the last k (positive) Takagi columns of one matrix and complete
    them with its conjugated null space, re-orthonormalized."""
    n = len(sigma)
    q = q[:, n - k :]
    null = np.linalg.svd(w)[2][k:, :].T
    # orthonormalize the combined frame against roundoff, keeping the
    # positive-value columns aligned with their originals
    qq, _ = np.linalg.qr(np.concatenate([q, null], axis=1))
    values = np.concatenate([sigma[n - k :], np.zeros(n - k)])
    return values, np.concatenate([q, qq[:, k:]], axis=1)


@dataclass(frozen=True)
class BlochMessiahFactorization:
    """Passive/squeezer/passive factorization S = R1 K R2.

    ``passive_out`` (R1) and ``passive_in`` (R2) are orthogonal symplectic;
    ``gains`` holds r_1 >= r_2 >= ... >= 0 and K = diag(e^r, e^-r).
    """

    passive_out: np.ndarray
    gains: np.ndarray
    passive_in: np.ndarray

    @property
    def squeezer(self) -> np.ndarray:
        r = self.gains
        return np.diag(np.concatenate([np.exp(r), np.exp(-r)]))

    @property
    def squeezer_spectrum(self) -> np.ndarray:
        """Diagonal of K^2 = diag(e^{2r}, e^{-2r})."""
        r = self.gains
        return np.concatenate([np.exp(2 * r), np.exp(-2 * r)])

    def reconstruct(self) -> np.ndarray:
        return self.passive_out @ self.squeezer @ self.passive_in


def bloch_messiah(s: np.ndarray, tol: float = 1e-8) -> BlochMessiahFactorization:
    """Decompose a symplectic matrix into passive, squeezer and passive factors.

    The x quadratures carry the antisqueezing (e^{+r}) and the y quadratures
    the squeezing (e^{-r}); degenerate gains are resolved by the stable order
    of the underlying congruence diagonalization.
    """
    s = np.asarray(s, dtype=float)
    r, w_out = _passive_out(s, tol)
    e, _ = symplectic_to_bogoliubov(s)
    cosh_inv = np.diag(1.0 / np.cosh(r))
    v_in = cosh_inv @ w_out.conj().T @ e
    # v_in is unitary up to roundoff; polish to keep R2 symplectic
    uu, _, vvh = np.linalg.svd(v_in)
    v_in = uu @ vvh

    r1 = unitary_to_symplectic(w_out)
    r2 = unitary_to_symplectic(v_in)
    return BlochMessiahFactorization(passive_out=r1, gains=r, passive_in=r2)


def _passive_out(s: np.ndarray, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Output side of bloch_messiah over a (..., 2N, 2N) stack.

    Returns the gains (..., N) and the complex form W_out (..., N, N) of
    R1 = unitary_to_symplectic(W_out). Every slice must pass bloch_messiah's
    symplecticity check, max(tol, 1e-10 max(1, max|S|^2)) of its own.
    """
    s = np.asarray(s, dtype=float)
    peak = np.abs(s).max(axis=(-2, -1))
    require_symplectic(s, tol=np.maximum(tol, SYMPLECTIC_TOL * np.maximum(1.0, peak**2)))
    e, f = symplectic_to_bogoliubov(s)
    # E F^T is complex symmetric with singular values sinh(2r)/2
    values, u = _takagi(e @ np.swapaxes(f, -1, -2))
    return np.arcsinh(2.0 * values) / 2.0, np.swapaxes(u.conj(), -1, -2)


def euler_orthogonal(angles: np.ndarray, n: int) -> np.ndarray:
    """Orthogonal N x N matrix as a product of plane rotations.

    The rotation planes are taken in the fixed lexicographic order
    (1,2), (1,3), ..., (N-1,N); angle count must be N(N-1)/2. With all
    angles zero the result is the identity; det is always +1. A
    (..., N(N-1)/2) stack of angle vectors gives a (..., N, N) stack.
    """
    angles = np.asarray(angles, dtype=float)
    need = n * (n - 1) // 2
    if angles.shape[-1:] != (need,):
        raise ValueError(f"expected {need} angles for n={n}, got {angles.shape}")
    eye = np.broadcast_to(np.eye(n), angles.shape[:-1] + (n, n))
    out = eye.copy()
    k = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            c, s = np.cos(angles[..., k]), np.sin(angles[..., k])
            rot = eye.copy()
            rot[..., i, i] = c
            rot[..., j, j] = c
            rot[..., i, j] = -s
            rot[..., j, i] = s
            out = out @ rot
            k += 1
    return out


def orthogonal_to_euler(o: np.ndarray) -> np.ndarray:
    """Recover plane-rotation angles with euler_orthogonal(angles) = O.

    Requires det(O) = +1. The first column fixes the (1,j) angles through
    its spherical coordinates, after which the problem recurses on the
    orthogonal complement.
    """
    o = np.asarray(o, dtype=float)
    n = o.shape[0]
    if np.linalg.det(o) < 0:
        raise ValueError("matrix has determinant -1; not a rotation")
    a = o.copy()
    angles: list[float] = []
    for i in range(n - 1):
        u = a[i:, i]
        m = len(u)
        col = np.zeros(m - 1)
        # spherical coordinates of u: u_k = sin(a_k) prod_{l>k} cos(a_l),
        # u_0 = prod cos; all but the first angle keep cos >= 0
        for k in range(m - 1, 1, -1):
            col[k - 1] = np.arctan2(u[k], float(np.linalg.norm(u[:k])))
        if m > 1:
            col[0] = np.arctan2(u[1], u[0])
        g = np.eye(n)
        for idx, j in enumerate(range(i + 1, n)):
            c, s = np.cos(col[idx]), np.sin(col[idx])
            rot = np.eye(n)
            rot[i, i] = c
            rot[j, j] = c
            rot[i, j] = -s
            rot[j, i] = s
            g = g @ rot
        a = g.T @ a
        angles.extend(col.tolist())
    return np.array(angles)


def d_lo(theta: np.ndarray) -> np.ndarray:
    """Local-oscillator phase rotation diag-block matrix.

    Returns [[cos t, sin t], [-sin t, cos t]] with diagonal blocks; it is
    the symplectic representation of the mode-wise phase shift e^{-i t}.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:
        raise ValueError("theta must be a vector")
    c, s = np.diag(np.cos(theta)), np.diag(np.sin(theta))
    return np.block([[c, s], [-s, c]])


def unitary_to_symplectic(u: np.ndarray) -> np.ndarray:
    """Quadrature representation [[Re U, -Im U], [Im U, Re U]] of a unitary."""
    u = np.asarray(u, dtype=complex)
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


def symplectic_to_bogoliubov(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extract the (E, F) ladder-operator blocks of a symplectic matrix.

    The transform acts as A_out = E A + F A*; the inverse map is
    bogoliubov_to_symplectic. Works slice by slice on a stack.
    """
    n = s.shape[-1] // 2
    sxx, sxy = s[..., :n, :n], s[..., :n, n:]
    syx, syy = s[..., n:, :n], s[..., n:, n:]
    e = 0.5 * (sxx + syy) + 0.5j * (syx - sxy)
    f = 0.5 * (sxx - syy) + 0.5j * (syx + sxy)
    return e, f


def bogoliubov_to_symplectic(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Inverse of symplectic_to_bogoliubov."""
    return np.block([
        [e.real + f.real, f.imag - e.imag],
        [e.imag + f.imag, e.real - f.real],
    ])
