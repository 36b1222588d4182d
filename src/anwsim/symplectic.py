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


def symplectic_error(s: np.ndarray) -> float:
    """Max-abs deviation of S Omega S^T from Omega, worst over a (..., 2N, 2N) stack."""
    n = s.shape[-1] // 2
    om = omega(n)
    return float(np.abs(s @ om @ np.swapaxes(s, -1, -2) - om).max())


def require_symplectic(s: np.ndarray, tol: float = SYMPLECTIC_TOL) -> None:
    """Refuse a matrix, or a stack of them, whose worst defect exceeds tol."""
    if s.ndim < 2 or s.shape[-1] != s.shape[-2] or s.shape[-1] % 2:
        raise ValueError(f"expected an even square matrix, got shape {s.shape}")
    err = symplectic_error(s)
    if err > tol:
        raise ValueError(f"matrix is not symplectic: deviation {err:.3e} > {tol:.1e}")


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

    Uses the real embedding [[A, B], [B, -A]] of W = A + iB, whose
    eigenpairs come in (sigma, -sigma) pairs; the positive half gives the
    factor directly. Ties and the zero space are resolved deterministically.

    Parameters
    ----------
    w : (n, n) array_like, complex symmetric
    tol : float
        Maximum allowed asymmetry ||W - W^T||_inf relative to the size
        of the largest entry.
    """
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"matrix must be square, got shape {w.shape}")
    asym = float(np.abs(w - w.T).max())
    allowed = tol * max(1.0, float(np.abs(w).max()))
    if asym > allowed:
        raise ValueError(f"matrix is not symmetric: asymmetry {asym:.3e} > {allowed:.1e}")
    n = w.shape[0]
    w = 0.5 * (w + w.T)
    a, b = w.real, w.imag
    emb = np.block([[a, b], [b, -a]])
    vals, vecs = np.linalg.eigh(emb)

    scale = max(1.0, float(np.abs(vals).max()))
    pos = vals > 1e-13 * scale
    sigma = vals[pos]
    q = vecs[:n, pos] + 1j * vecs[n:, pos]
    # unit real eigenvectors of the embedding give unit complex columns
    q = q / np.linalg.norm(q, axis=0)

    k = q.shape[1]
    if k < n:
        # complete with the conjugated null space of W, re-orthonormalized
        vh = np.linalg.svd(w)[2]
        null = vh[k:, :].T
        # orthonormalize the combined frame against roundoff
        full = np.concatenate([q, null], axis=1)
        qq, _ = np.linalg.qr(full)
        # keep the positive-value columns aligned with their originals
        q = np.concatenate([q, qq[:, k:]], axis=1)
        sigma = np.concatenate([sigma, np.zeros(n - k)])

    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    q = q[:, order]
    u = q.conj().T
    return TakagiFactorization(unitary=u, values=sigma)


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
    require_symplectic(s, tol=max(tol, SYMPLECTIC_TOL * max(1.0, np.abs(s).max() ** 2)))
    n = s.shape[0] // 2
    e, f = symplectic_to_bogoliubov(s)

    # E F^T is complex symmetric with singular values sinh(2r)/2
    fac = takagi(e @ f.T)
    r = np.arcsinh(2.0 * fac.values) / 2.0
    w_out = fac.unitary.conj().T
    cosh_inv = np.diag(1.0 / np.cosh(r))
    v_in = cosh_inv @ w_out.conj().T @ e
    # v_in is unitary up to roundoff; polish to keep R2 symplectic
    uu, _, vvh = np.linalg.svd(v_in)
    v_in = uu @ vvh

    r1 = unitary_to_symplectic(w_out)
    r2 = unitary_to_symplectic(v_in)
    return BlochMessiahFactorization(passive_out=r1, gains=r, passive_in=r2)


def euler_orthogonal(angles: np.ndarray, n: int) -> np.ndarray:
    """Orthogonal N x N matrix as a product of plane rotations.

    The rotation planes are taken in the fixed lexicographic order
    (1,2), (1,3), ..., (N-1,N); angle count must be N(N-1)/2. With all
    angles zero the result is the identity; det is always +1.
    """
    angles = np.asarray(angles, dtype=float)
    need = n * (n - 1) // 2
    if angles.shape != (need,):
        raise ValueError(f"expected {need} angles for n={n}, got {angles.shape}")
    out = np.eye(n)
    k = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            c, s = np.cos(angles[k]), np.sin(angles[k])
            rot = np.eye(n)
            rot[i, i] = c
            rot[j, j] = c
            rot[i, j] = -s
            rot[j, i] = s
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
    bogoliubov_to_symplectic.
    """
    n = s.shape[0] // 2
    sxx, sxy = s[:n, :n], s[:n, n:]
    syx, syy = s[n:, :n], s[n:, n:]
    e = 0.5 * (sxx + syy) + 0.5j * (syx - sxy)
    f = 0.5 * (sxx - syy) + 0.5j * (syx + sxy)
    return e, f


def bogoliubov_to_symplectic(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Inverse of symplectic_to_bogoliubov."""
    return np.block([
        [e.real + f.real, f.imag - e.imag],
        [e.imag + f.imag, e.real - f.real],
    ])
