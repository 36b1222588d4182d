"""Physics of a pumped array of coupled nonlinear waveguides.

The device is N identical waveguides with nearest-neighbour evanescent
coupling C0*f_j (mm^-1) and an undepleted classical pump driving
degenerate parametric down-conversion in each guide with complex strength
eta_j = |eta_j| e^{i phi_j} (mm^-1). All lengths are in mm.

Signal-mode evolution is linear in the mode operators, so every state
reachable from vacuum is Gaussian and fully described by a symplectic
propagator S(z) acting on the quadratures (x_1..x_N, y_1..y_N) with
vacuum variance 1 and covariance V = S S^T.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .symplectic import bogoliubov_to_symplectic, mat_exp, require_symplectic

__all__ = [
    "BASES",
    "ArrayConfig",
    "PumpProfile",
    "LinearSupermodes",
    "GaussianState",
    "FlatPumpSolution",
    "coupling_tridiagonal",
    "linear_supermodes",
    "quad_generator",
    "propagators",
    "covariances",
    "propagator_exact",
    "integrated_L",
    "propagator_no_ordering",
    "flat_pump_analytic",
    "rk4_propagate",
    "rk4_propagate_batch",
]

BASES = ("individual", "linear_supermode", "nonlinear_supermode")

# removable-singularity threshold for the phase-mismatch denominator, mm^-1
DEGENERATE_MISMATCH = 1e-12
# default step of the RK4 cross-validation propagators, mm
_RK4_STEP = 1e-3


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry of the waveguide array.

    Parameters
    ----------
    n : int
        Number of waveguides (>= 1).
    coupling : float
        Nearest-neighbour coupling strength C0 in mm^-1 (>= 0).
    length : float
        Device length in mm (> 0).
    profile : array_like or None
        Dimensionless coupling weights f_j for the n-1 junctions;
        None means homogeneous (all ones). The array boundary is open,
        i.e. f_0 = f_n = 0 implicitly.
    """

    n: int
    coupling: float
    length: float
    profile: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"waveguide count must be >= 1, got {self.n}")
        if self.coupling < 0:
            raise ValueError(f"coupling must be nonnegative, got {self.coupling}")
        if not self.length > 0:
            raise ValueError(f"length must be positive, got {self.length}")
        prof = self.profile
        prof = np.ones(self.n - 1) if prof is None else np.asarray(prof, dtype=float)
        if prof.shape != (self.n - 1,):
            raise ValueError(
                f"profile needs {self.n - 1} weights for n={self.n}, got shape {prof.shape}"
            )
        if np.any(prof < 0) or not np.all(np.isfinite(prof)):
            raise ValueError("profile weights must be finite and nonnegative")
        object.__setattr__(self, "profile", prof)


def _pump_arrays(amplitudes, phases) -> tuple[np.ndarray, np.ndarray]:
    """Validated float (..., N) amplitude and phase arrays of equal shape."""
    amp = np.asarray(amplitudes, dtype=float)
    ph = np.asarray(phases, dtype=float)
    if amp.ndim < 1 or amp.shape != ph.shape:
        raise ValueError(
            f"amplitudes and phases must be equal-length vectors or equal-shape "
            f"stacks, got {amp.shape} and {ph.shape}"
        )
    if np.any(amp < 0) or not np.all(np.isfinite(amp)):
        raise ValueError("pump amplitudes must be finite and nonnegative")
    if not np.all(np.isfinite(ph)):
        raise ValueError("pump phases must be finite")
    return amp, ph


@dataclass(frozen=True)
class PumpProfile:
    """Per-guide pump strength eta_j = amplitudes[j] * exp(i phases[j])."""

    amplitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        amp, ph = _pump_arrays(self.amplitudes, self.phases)
        if amp.ndim != 1:
            raise ValueError(
                f"amplitudes and phases must be equal-length vectors, got "
                f"{amp.shape} and {ph.shape}"
            )
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "phases", ph)

    @classmethod
    def flat(cls, n: int, amplitude: float, phase: float = 0.0) -> "PumpProfile":
        """Identical pump in every guide."""
        return cls(np.full(n, float(amplitude)), np.full(n, float(phase)))

    @classmethod
    def off(cls, n: int) -> "PumpProfile":
        return cls(np.zeros(n), np.zeros(n))

    @property
    def n(self) -> int:
        return self.amplitudes.size

    @property
    def complex_amplitudes(self) -> np.ndarray:
        return self.amplitudes * np.exp(1j * self.phases)


@dataclass(frozen=True)
class LinearSupermodes:
    """Eigenbasis of the coupling matrix.

    ``matrix`` holds one supermode per row (orthogonal, rows sum-normalized
    with the first nonvanishing component positive); ``eigenvalues`` are the
    propagation-constant offsets lambda_k in mm^-1, sorted descending.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    def to_supermode_basis(self) -> np.ndarray:
        """Block-diagonal symplectic matrix mapping individual quadratures
        to supermode quadratures."""
        m = self.matrix
        z = np.zeros_like(m)
        return np.block([[m, z], [z, m]])


@dataclass(frozen=True)
class GaussianState:
    """Pure Gaussian state of the signal modes at plane z.

    ``propagator`` is the symplectic matrix S with quadratures_out =
    S quadratures_in from vacuum at z=0; ``covariance`` is V = S S^T.
    ``basis`` records which mode set the rows refer to.
    """

    z: float
    propagator: np.ndarray
    covariance: np.ndarray
    basis: str = "individual"

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}, expected one of {BASES}")

    @classmethod
    def from_propagator(cls, z: float, s: np.ndarray, basis: str = "individual"):
        return cls(z=float(z), propagator=s, covariance=covariances(s), basis=basis)

    @property
    def n(self) -> int:
        return self.propagator.shape[0] // 2

    @property
    def mean_photon_number(self) -> float:
        """Total mean photon number, invariant under passive basis changes."""
        return float(np.trace(self.covariance - np.eye(2 * self.n)) / 4.0)


def coupling_tridiagonal(cfg: ArrayConfig) -> np.ndarray:
    """Real symmetric tridiagonal coupling matrix with C0*f_j off-diagonals."""
    c = np.zeros((cfg.n, cfg.n))
    off = cfg.coupling * cfg.profile
    idx = np.arange(cfg.n - 1)
    c[idx, idx + 1] = off
    c[idx + 1, idx] = off
    return c


def linear_supermodes(cfg: ArrayConfig) -> LinearSupermodes:
    """Diagonalize the coupling matrix; eigenvalues descending."""
    lam, vecs = np.linalg.eigh(coupling_tridiagonal(cfg))
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    m = vecs[:, order].T.copy()
    for k in range(cfg.n):
        nz = np.flatnonzero(np.abs(m[k]) > 1e-12)
        if nz.size and m[k, nz[0]] < 0:
            m[k] = -m[k]
    return LinearSupermodes(matrix=m, eigenvalues=lam)


def _check_pump(cfg: ArrayConfig, pump: PumpProfile) -> None:
    if pump.n != cfg.n:
        raise ValueError(f"pump has {pump.n} entries but the array has {cfg.n} guides")


def _diag(v: np.ndarray) -> np.ndarray:
    """np.diag over the last axis of a (..., n) stack."""
    n = v.shape[-1]
    out = np.zeros(v.shape[:-1] + (n * n,))
    out[..., :: n + 1] = v
    return out.reshape(v.shape + (n,))


def _generators(cfg: ArrayConfig, amplitudes: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Generators Q of (..., N) pumps, stacked as (..., 2N, 2N)."""
    if amplitudes.shape[-1] != cfg.n:
        raise ValueError(
            f"pump has {amplitudes.shape[-1]} entries but the array has {cfg.n} guides"
        )
    c = coupling_tridiagonal(cfg)
    es = _diag(amplitudes * np.sin(phases))
    ec = _diag(amplitudes * np.cos(phases))
    top = np.concatenate([-2 * es, -c + 2 * ec], axis=-1)
    bottom = np.concatenate([c + 2 * ec, 2 * es], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


def quad_generator(cfg: ArrayConfig, pump: PumpProfile) -> np.ndarray:
    """Constant real generator Q of the quadrature equations dq/dz = Q q.

    Built from the coupled-mode equations via x = A + A^dag,
    y = i(A^dag - A); the coupling enters the off-diagonal blocks and the
    parametric gain the sin/cos projections of the pump phase.
    """
    return _generators(cfg, pump.amplitudes, pump.phases)


def propagators(
    cfg: ArrayConfig, amplitudes: np.ndarray, phases: np.ndarray, z: float | np.ndarray
) -> np.ndarray:
    """Exact propagators expm(Q z) of a stack of pumps and distances.

    ``amplitudes`` and ``phases`` are (..., N) arrays, one pump per
    leading index, and ``z`` is a scalar or an array that broadcasts
    against those leading axes: one (N,) pump with z of shape (m,) gives
    the (m, 2N, 2N) propagators of a z sweep. Each propagator is
    bit-equal to propagator_exact of its own pump and distance, but left
    unchecked: a caller that reports from the stack checks it itself.
    """
    amp, ph = _pump_arrays(amplitudes, phases)
    return _propagate(cfg, amp, ph, z)


def covariances(s: np.ndarray) -> np.ndarray:
    """Covariances V = S S^T of a (..., 2N, 2N) stack of propagators.

    Raises ValueError, with require_symplectic's message, when a
    covariance is not finite (an overflowed propagator or product).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        v = s @ np.swapaxes(s, -1, -2)
    if not np.isfinite(v).all():
        raise ValueError("matrix is not symplectic: it is not finite")
    return v


def _check_z(z: float | np.ndarray) -> np.ndarray:
    """z as a float array; refuses any entry that is not finite and >= 0."""
    z = np.asarray(z, dtype=float)
    bad = ~(np.isfinite(z) & (z >= 0))
    if np.any(bad):
        raise ValueError(f"z must be finite and nonnegative, got {z[bad][0]}")
    return z


def _propagate(
    cfg: ArrayConfig, amplitudes: np.ndarray, phases: np.ndarray, z: float | np.ndarray
) -> np.ndarray:
    z = _check_z(z)
    return mat_exp(_generators(cfg, amplitudes, phases) * z[..., None, None])


def propagator_exact(cfg: ArrayConfig, pump: PumpProfile, z: float) -> GaussianState:
    """Exact propagator S(z) = expm(Q z) in the individual-mode basis.

    The coupled-mode equations have z-independent coefficients, so the
    full solution is a single matrix exponential with no ordering
    approximation at any gain. This is the one-pump case of propagators
    (the pump was validated when the PumpProfile was built) and the one
    checked path from a pump to a state: an S that overflowed or lost
    symplecticity (roundoff at very high gain) raises ValueError before
    any covariance is taken from it.
    """
    s = _propagate(cfg, pump.amplitudes, pump.phases, z)
    require_symplectic(s)
    return GaussianState.from_propagator(z, s, "individual")


def integrated_L(
    cfg: ArrayConfig, pump: PumpProfile, modes: LinearSupermodes, z: float
) -> np.ndarray:
    """Closed-form integral over [0, z] of the pump-mediated supermode coupling.

    The coupling L_{kk'}(z) = 2i sum_j |eta_j| M_kj M_k'j exp(i(phi_j -
    (lambda_k + lambda_k') z)) is complex symmetric; its diagonal drives
    single-supermode squeezing, the off-diagonal two-supermode
    correlations. Each element integrates exp(-i s z') with s = lambda_k + lambda_k';
    elements with |s| below 1e-12 mm^-1 use the linear-in-z limit of the
    removable singularity.
    """
    _check_pump(cfg, pump)
    if modes.n != cfg.n:
        raise ValueError(f"supermode basis has {modes.n} modes, expected {cfg.n}")
    return _integrated_ls(modes, pump.complex_amplitudes, z)


def _integrated_ls(modes: LinearSupermodes, eta: np.ndarray, z: float) -> np.ndarray:
    """integrated_L of a (..., N) stack of complex pumps at one z, as (..., N, N)."""
    m, lam = modes.matrix, modes.eigenvalues
    coef = 2j * (m * eta[..., None, :]) @ m.T
    s = lam[:, None] + lam[None, :]
    small = np.abs(s) < DEGENERATE_MISMATCH
    s_safe = np.where(small, 1.0, s)
    kernel = np.where(small, z, (1.0 - np.exp(-1j * s_safe * z)) / (1j * s_safe))
    return coef * kernel


def _no_ordering_propagators(
    cfg: ArrayConfig, amplitudes: np.ndarray, phases: np.ndarray, z: float
) -> np.ndarray:
    """No-ordering propagators of a (..., N) stack of validated pumps at one z.

    Stacked as (..., 2N, 2N) in the linear-supermode basis, each slice
    bit-equal to propagator_no_ordering of its own pump. Like propagators,
    the stack is left unchecked.
    """
    _check_z(z)
    n = cfg.n
    if amplitudes.shape[-1] != n:
        raise ValueError(f"pump has {amplitudes.shape[-1]} entries but the array has {n} guides")
    modes = linear_supermodes(cfg)
    # rotating-frame generator [[0, L], [L*, 0]] of the Bogoliubov blocks
    lint = _integrated_ls(modes, amplitudes * np.exp(1j * phases), z)
    gen = np.zeros(lint.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    gen[..., :n, n:] = lint
    gen[..., n:, :n] = lint.conj()
    p = mat_exp(gen)
    # restore the bare propagation phases exp(i lambda_k z)
    ph = np.exp(1j * modes.eigenvalues * z)[:, None]
    return bogoliubov_to_symplectic(ph * p[..., :n, :n], ph * p[..., :n, n:])


def propagator_no_ordering(cfg: ArrayConfig, pump: PumpProfile, z: float) -> GaussianState:
    """Propagator neglecting space ordering of the supermode coupling.

    Exponentiates the single integral of L(z) instead of the ordered
    product, which is exact whenever L commutes with itself along z (flat
    pump) and otherwise differs from the exact solution at third order in
    |eta| z. Returned in the linear-supermode basis with the bare
    propagation phases exp(i lambda_k z) restored, so it composes with
    ordinary basis changes. This is the one-pump case of the stacked
    _no_ordering_propagators, as propagator_exact is of propagators.
    """
    s = _no_ordering_propagators(cfg, pump.amplitudes, pump.phases, z)
    return GaussianState.from_propagator(z, s, "linear_supermode")


@dataclass(frozen=True)
class FlatPumpSolution:
    """Closed-form flat-pump solution, one 2x2 symplectic block per supermode.

    With an identical pump eta in every guide the supermode coupling is
    diagonal, and supermode k evolves under the competition of its
    propagation-constant offset lambda_k and the parametric gain 2|eta|,
    governed by rate_k = sqrt(lambda_k^2 - 4|eta|^2). Real rate: bounded
    oscillation with period pi/(2 rate). Imaginary rate: hyperbolic growth
    (the phase-matched k with lambda_k = 0 is a plain degenerate parametric
    amplifier with optimal variance exp(-4|eta|z)).
    """

    z: float
    pump: complex
    eigenvalues: np.ndarray
    rates: np.ndarray
    bogoliubov_e: np.ndarray
    bogoliubov_f: np.ndarray
    modes: LinearSupermodes = field(repr=False)

    @property
    def blocks(self) -> np.ndarray:
        """(n, 2, 2) real symplectic blocks acting on (x_k, y_k)."""
        e, f = self.bogoliubov_e, self.bogoliubov_f
        n = e.size
        out = np.empty((n, 2, 2))
        out[:, 0, 0] = (e + f).real
        out[:, 0, 1] = (f - e).imag
        out[:, 1, 0] = (e + f).imag
        out[:, 1, 1] = (e - f).real
        return out

    @property
    def oscillation_lengths(self) -> np.ndarray:
        """Squeezing oscillation period per supermode; inf when not oscillating."""
        out = np.full(self.rates.size, np.inf)
        real = (np.abs(self.rates.imag) < 1e-14) & (self.rates.real > 1e-14)
        out[real] = np.pi / (2.0 * self.rates[real].real)
        return out

    @property
    def state(self) -> GaussianState:
        s = bogoliubov_to_symplectic(np.diag(self.bogoliubov_e), np.diag(self.bogoliubov_f))
        return GaussianState.from_propagator(self.z, s, "linear_supermode")


def flat_pump_analytic(cfg: ArrayConfig, eta: complex, z: float) -> FlatPumpSolution:
    """Exact per-supermode solution for a flat pump eta (any gain regime)."""
    _check_z(z)
    modes = linear_supermodes(cfg)
    lam = modes.eigenvalues
    eta = complex(eta)
    rates = np.sqrt((lam**2 - 4 * abs(eta) ** 2).astype(complex))
    fz = rates * z
    # sin(F z)/F with the F -> 0 limit taken explicitly
    small = np.abs(fz) < 1e-8
    sinc = np.where(small, z * (1 - fz**2 / 6.0), np.sin(fz) / np.where(small, 1.0, rates))
    e = np.cos(fz) + sinc * (1j * lam)
    f = sinc * (2j * eta)
    # the solution is unitary-free so tiny imaginary residue is roundoff
    return FlatPumpSolution(
        z=float(z),
        pump=eta,
        eigenvalues=lam,
        rates=rates,
        bogoliubov_e=e,
        bogoliubov_f=f,
        modes=modes,
    )


def _check_rk4(z: float | np.ndarray, step: float = _RK4_STEP) -> None:
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step}")
    if not np.all((z >= 0) & (z <= step * 2.0**53)):
        raise ValueError(f"z must be finite, nonnegative and at most 2**53 steps, got {z}")


def _rk4_increments(q: np.ndarray, steps: np.ndarray, h: float) -> np.ndarray:
    """R^k - I per row of a (m, d, d) stack, k = steps[row], R = RK4 step matrix."""
    eye, hq = np.eye(q.shape[-1]), h * q
    e = hq @ (eye + hq @ (eye / 2 + hq @ (eye / 6 + hq / 24)))
    acc = np.zeros_like(e)
    for bit in range(int(steps.max()).bit_length()):
        if bit:
            e = 2.0 * e + e @ e
        take = (steps >> bit & 1).astype(bool)
        acc[take] += e[take] + acc[take] @ e[take]
    return acc


def rk4_propagate(
    cfg: ArrayConfig, pump: PumpProfile, z: float, step: float = _RK4_STEP
) -> GaussianState:
    """Fixed-step Runge-Kutta integration of dS/dz = Q S.

    Cross-validation path for propagator_exact; integrates whole steps of
    the given size plus one shorter remainder step when z is not on the
    step grid. Q does not depend on z, so n steps are exactly R^n for the
    one-step matrix R: O(log n) squarings of I + E, never of R itself, whose
    O(1) identity would swamp the small E in each rounding (two digits lost).
    """
    _check_rk4(np.asarray(z, dtype=float), step)
    q = quad_generator(cfg, pump)[None]
    whole, rem = divmod(z, step)
    s = np.eye(2 * cfg.n) + _rk4_increments(q, np.array([int(whole)]), step)[0]
    if rem > 1e-15 * max(z, 1.0):
        s = s + _rk4_increments(q, np.array([1]), rem)[0] @ s
    return GaussianState.from_propagator(z, s, "individual")


def rk4_propagate_batch(
    generators: list[np.ndarray], z: np.ndarray, step: float = _RK4_STEP
) -> list[np.ndarray]:
    """Integrate many dS/dz = Q S problems at once, in input order.

    The powered RK4 of rk4_propagate, O(log steps) products per stack of
    same-size generators. Distances are snapped to the nearest whole number
    of steps; pass grid-aligned z for exact correspondence.
    """
    z = np.asarray(z, dtype=float)
    if len(generators) != z.size:
        raise ValueError("need one distance per generator")
    _check_rk4(z, step)
    steps = np.rint(z / step).astype(int)
    out: dict[int, np.ndarray] = {}
    for size in {g.shape[0] for g in generators}:
        idx = [i for i, g in enumerate(generators) if g.shape[0] == size]
        acc = _rk4_increments(np.stack([generators[i] for i in idx]), steps[idx], step)
        out.update(zip(idx, np.eye(size) + acc))
    return [out[i] for i in range(len(generators))]
