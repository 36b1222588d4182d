"""Dense linear-algebra kernel for Gaussian-optics calculations.

Every symplectic matrix in this package uses the quadrature ordering
(x_1 .. x_N, y_1 .. y_N) and the form matrix Omega = [[0, I], [-I, 0]].
Vacuum variance is 1, so covariance matrices of pure states built here
satisfy V = S S^T.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SYMPLECTIC_TOL",
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
# largest asymmetry ||W - W^T||_inf that takagi accepts, relative to the
# size of the largest entry
_TAKAGI_TOL = 1e-12
# floor of the symplecticity tolerance bloch_messiah applies to its input
_BLOCH_MESSIAH_TOL = 1e-8


def omega(n: int) -> np.ndarray:
    """Symplectic form matrix for n modes in (x.., y..) ordering."""
    z = np.zeros((n, n))
    eye = np.eye(n)
    return np.block([[z, eye], [-eye, z]])


@lru_cache(maxsize=None)
def _shared_omega(n: int) -> np.ndarray:
    """omega(n), built once per size (np.block costs more than a small
    check) and shared read-only by every caller through the cache."""
    om = omega(n)
    om.flags.writeable = False
    return om


def _defects(s: np.ndarray) -> np.ndarray:
    """Max-abs deviation of S Omega S^T from Omega, per slice of a stack.

    S Omega is S's column blocks swapped, the first one negated: a product
    with Omega would only add exact zeros, so for a finite S the defects
    are those of (S @ Omega) @ S^T bit for bit, from one stacked product.
    """
    n = s.shape[-1] // 2
    s_om = np.empty(s.shape, dtype=np.result_type(s.dtype, np.float64))
    np.negative(s[..., n:], out=s_om[..., :n])
    s_om[..., n:] = s[..., :n]
    # an overflowed S stays inf or nan here, which require_symplectic refuses
    with np.errstate(over="ignore", invalid="ignore"):
        d = s_om @ np.swapaxes(s, -1, -2)
        del s_om  # freed before abs allocates: at most two stacks at a time
        d -= _shared_omega(n)
        return np.abs(d).max(axis=(-2, -1))


def symplectic_error(s: np.ndarray) -> float:
    """Max-abs deviation of S Omega S^T from Omega, worst over a (..., 2N, 2N) stack."""
    return float(_defects(s).max())


def require_symplectic(s: np.ndarray, tol: float | np.ndarray = SYMPLECTIC_TOL) -> None:
    """Refuse a matrix, or a stack of them, with a slice whose defect exceeds tol.

    ``tol`` is a scalar or an array over the stack's leading axes (one
    tolerance per slice). A slice with a non-finite defect (an overflowed
    matrix) is refused first; otherwise the message names the worst
    offending slice.
    """
    if s.ndim < 2 or s.shape[-1] != s.shape[-2] or s.shape[-1] % 2:
        raise ValueError(f"expected an even square matrix, got shape {s.shape}")
    err = _defects(s)
    if not np.isfinite(err).all():
        raise ValueError("matrix is not symplectic: it is not finite")
    bad = err > tol
    if bad.any():
        k = np.unravel_index(np.argmax(np.where(bad, err, -np.inf)), err.shape)
        limit = np.broadcast_to(tol, err.shape)[k]
        raise ValueError(f"matrix is not symplectic: deviation {err[k]:.3e} > {limit:.1e}")


def _load_expm_kernels():
    """scipy's compiled Pade kernels, read from scipy/linalg without importing
    scipy.linalg.

    The extension module is loaded under its bare name and kept out of
    sys.modules, so a later ``import scipy.linalg`` loads its own copy.
    """
    scipy = importlib.util.find_spec("scipy")
    roots = (scipy.submodule_search_locations or []) if scipy else []
    spec = importlib.machinery.PathFinder.find_spec(
        "_matfuncs_expm", [os.path.join(root, "linalg") for root in roots]
    )
    if spec is None:
        from importlib.metadata import PackageNotFoundError, version

        try:
            found = f"scipy {version('scipy')} is installed"
        except PackageNotFoundError:
            found = "scipy is not installed"
        raise ImportError(
            f"mat_exp needs scipy's compiled Pade kernels (scipy/linalg/_matfuncs_expm), "
            f"which were not found: {found}; anwsim requires scipy>=1.17.1"
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # a single-phase extension module enters itself in sys.modules as it loads
    if sys.modules.get(spec.name) is module:
        del sys.modules[spec.name]
    return module.pick_pade_structure, module.pade_UV_calc


_pick_pade_structure, _pade_UV_calc = _load_expm_kernels()


def _scipy_expm(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, imported on first use: only its special cases need it."""
    from scipy.linalg import expm

    return expm(a)


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square real or complex matrix.

    A (..., m, m) stack is exponentiated slice by slice; each slice equals
    scipy.linalg.expm of that matrix alone, bit for bit. An exponential
    too large for floats comes back with inf or nan entries, without a
    warning; require_symplectic refuses such a propagator.

    General slices go through scipy's own Pade kernels
    (``scipy/linalg/_matfuncs_expm``, Al-Mohy & Higham, SIAM J. Matrix
    Anal. Appl. 31:970, 2009), loaded from their file without importing
    scipy.linalg; a stack's squarings run as one stacked product per level.
    Diagonal slices get scipy's formula diag(exp(diag(a))) in numpy. Only
    triangular slices, 1x1 and empty input import scipy.linalg, on first
    use, and go to its expm. The kernels are private, so the scipy floor in
    pyproject.toml is the release this was checked against.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix must be square in its last two axes, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        # scipy special-cases 1x1 and empty input
        if a.size == 0 or a.shape[-1] == 1:
            return _scipy_expm(a)
        return _expm_stack(a)


@lru_cache(maxsize=None)
def _strict_triangles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the strictly lower and strictly upper entries of an n x n matrix."""
    lower = np.tri(n, k=-1, dtype=bool)
    below, above = np.flatnonzero(lower), np.flatnonzero(lower.T)
    # shared by every caller through the cache
    below.flags.writeable = above.flags.writeable = False
    return below, above


def _pade(am: np.ndarray, a: np.ndarray) -> int:
    """Leave scipy's Pade approximant of a / 2**s in am[0] and return s.

    ``am`` is the (5, m, m) scratch scipy's kernels work in.
    """
    am[0] = a
    m, s = _pick_pade_structure(am)
    if m < 0:
        raise MemoryError(f"expm could not allocate its Pade structure (error code {m})")
    info = _pade_UV_calc(am, m)
    if info != 0:
        raise RuntimeError(f"expm's Pade solve failed (error code {info})")
    return s


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm of a (..., m, m) array with m >= 2, bit for bit."""
    if not np.issubdtype(a.dtype, np.inexact):
        a = a.astype(np.float64)
    elif a.dtype == np.float16:
        a = a.astype(np.float32)
    n = a.shape[-1]
    below, above = _strict_triangles(n)
    am = np.empty((5, n, n), dtype=a.dtype)
    # one general matrix: no stack to sort or gather
    if a.ndim == 2 and np.count_nonzero(a.ravel()[below]) and np.count_nonzero(a.ravel()[above]):
        s = _pade(am, a)
        e = am[0].copy()
        for _ in range(s):
            e = e @ e
        return e
    flat = a.reshape(-1, n, n)
    # scipy.linalg.bandwidth's test, for the whole stack: nan counts as nonzero
    entries = flat.reshape(len(flat), n * n)
    lower = entries[:, below].any(axis=1)
    upper = entries[:, above].any(axis=1)
    out = np.zeros(flat.shape, dtype=a.dtype)
    diagonal = np.flatnonzero(~(lower | upper))
    if diagonal.size:
        d = np.arange(n)
        out[diagonal[:, None], d, d] = np.exp(np.diagonal(flat[diagonal], axis1=1, axis2=2))
    triangular = np.flatnonzero(lower ^ upper)
    if triangular.size:
        out[triangular] = _scipy_expm(flat[triangular])
    general = np.flatnonzero(lower & upper)
    if general.size:
        e = np.empty((general.size, n, n), dtype=a.dtype)
        squarings = np.empty(general.size, dtype=int)
        for k, i in enumerate(general):
            squarings[k] = _pade(am, flat[i])
            e[k] = am[0]
        # most squarings first, so each level squares a prefix of the stack
        order = np.argsort(-squarings, kind="stable")
        e = e[order]
        for level in range(squarings.max()):
            c = int(np.count_nonzero(squarings > level))
            e[:c] = e[:c] @ e[:c]
        out[general[order]] = e
    return out.reshape(a.shape)


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


def takagi(w: np.ndarray) -> TakagiFactorization:
    """Factor a complex symmetric (n, n) matrix as U W U^T = diag(values) >= 0.

    The one-matrix case of the stacked factorization (see _takagi); a
    matrix whose asymmetry exceeds _TAKAGI_TOL is refused. The values come
    from an eigendecomposition, so for W = E F^T of a symplectic S,
    arcsinh(2 values)/2 matches bloch_messiah(S).gains, which are taken from
    singular values, to roundoff but not bit for bit.
    """
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2:
        raise ValueError(f"matrix must be square, got shape {w.shape}")
    values, u = _takagi(w)
    return TakagiFactorization(unitary=u, values=values)


def _takagi(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    allowed = _TAKAGI_TOL * np.maximum(1.0, np.abs(w).max(axis=(1, 2)))
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

    def reconstruct(self) -> np.ndarray:
        return self.passive_out @ self.squeezer @ self.passive_in


def bloch_messiah(s: np.ndarray) -> BlochMessiahFactorization:
    """Decompose a symplectic matrix into passive, squeezer and passive factors.

    The x quadratures carry the antisqueezing (e^{+r}) and the y quadratures
    the squeezing (e^{-r}). The gains are the singular-value gains of
    _squeezing_gains, bit for bit; R1 comes from the Takagi vectors of the
    same product E F^T, whose stable order resolves degenerate gains.
    """
    s = np.asarray(s, dtype=float)
    r, w_out = _passive_out(s)
    e, _ = symplectic_to_bogoliubov(s)
    cosh_inv = np.diag(1.0 / np.cosh(r))
    v_in = cosh_inv @ w_out.conj().T @ e
    # v_in is unitary up to roundoff; polish to keep R2 symplectic
    uu, _, vvh = np.linalg.svd(v_in)
    v_in = uu @ vvh

    r1 = unitary_to_symplectic(w_out)
    r2 = unitary_to_symplectic(v_in)
    return BlochMessiahFactorization(passive_out=r1, gains=r, passive_in=r2)


def _passive_out(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Output side of bloch_messiah over a (..., 2N, 2N) stack: the gains
    (..., N) of _squeezing_gains and the complex form W_out (..., N, N) of
    R1 = unitary_to_symplectic(W_out), from one checked product E F^T."""
    m = _squeezing_product(s)
    return _squeezing_gains(m), _output_unitary(m)


def _squeezing_product(s: np.ndarray) -> np.ndarray:
    """E F^T of each slice of a (..., 2N, 2N) stack, after bloch_messiah's
    symplecticity check, max(_BLOCH_MESSIAH_TOL, SYMPLECTIC_TOL max(1,
    max|S|^2)) of its own per slice.

    E F^T is complex symmetric; its Takagi values, which are its singular
    values, are sinh(2 r_k)/2 for the supermode gains r_k.
    """
    s = np.asarray(s, dtype=float)
    peak = np.abs(s).max(axis=(-2, -1))
    # a peak whose square overflows has a non-finite defect, which is refused
    with np.errstate(over="ignore"):
        limit = SYMPLECTIC_TOL * np.maximum(1.0, peak**2)
    require_symplectic(s, tol=np.maximum(_BLOCH_MESSIAH_TOL, limit))
    e, f = symplectic_to_bogoliubov(s)
    return e @ np.swapaxes(f, -1, -2)


def _squeezing_gains(m: np.ndarray) -> np.ndarray:
    """Supermode gains r_1 >= r_2 >= ... >= 0, (..., N), of a stack of
    products E F^T: r_k = arcsinh(2 sigma_k)/2 for the singular values
    sigma_k, which are the Takagi values (Horn & Johnson, Matrix Analysis,
    sec. 4.4) without the vectors. Each slice equals its one-matrix call
    bit for bit, and S = I gives exactly 0."""
    return np.arcsinh(2.0 * np.linalg.svd(m, compute_uv=False)) / 2.0


def _output_unitary(m: np.ndarray) -> np.ndarray:
    """W_out (..., N, N) of a stack of products E F^T: the conjugate
    transpose of their Takagi unitaries, columns in descending-gain order."""
    return np.swapaxes(_takagi(m)[1].conj(), -1, -2)


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
    angles = np.zeros(n * (n - 1) // 2)
    start = 0
    for i in range(n - 1):
        u = a[i:, i]
        block = angles[start : start + n - 1 - i]
        # spherical coordinates of u: u_k = sin(a_k) prod_{l>k} cos(a_l),
        # u_0 = prod cos; all but the first angle keep cos >= 0
        for k in range(len(u) - 1, 1, -1):
            block[k - 1] = np.arctan2(u[k], float(np.linalg.norm(u[:k])))
        block[0] = np.arctan2(u[1], u[0])
        # block i's rotations alone: every other angle is zero
        only = np.zeros_like(angles)
        only[start : start + len(block)] = block
        a = euler_orthogonal(only, n).T @ a
        start += len(block)
    return angles


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
