"""Evolution-strategy optimization of pump and detection parameters.

Three fitness functions drive the synthesis problems: F_M sums the
van Loock-Furusawa combinations over a detection setting, F_C sums the
graph nullifier variances over pump and LO parameters, and F_P measures
how close the cluster-producing transform S_LO is to something a fibered
detection system can realize (per-mode LO phases plus orthogonal
postprocessing).

The searcher is a (mu/mu, lambda) evolution strategy with global
intermediate recombination and log-normal self-adaptive per-dimension
step sizes. Amplitude and gain parameters are clipped to their bounds;
angles evolve unbounded and are wrapped to (-pi, pi] on reporting. Runs
are deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .entanglement import (
    CertificationReport,
    GraphSpec,
    certify,
    cluster_nullifier_variances,
    cluster_transform,
    emulation_error,
    nullifier_rows,
    vlf_values,
    vlf_values_batch,
)
from .measurement import quadrature_variances
from .model import ArrayConfig, GaussianState, PumpProfile, propagator_exact, propagators
from .symplectic import (
    _passive_out,
    bloch_messiah,
    euler_orthogonal,
    orthogonal_to_euler,
    require_symplectic,
)

__all__ = [
    "ETA_MAX",
    "GAIN_LIMIT",
    "ParameterSpace",
    "OptimizationProblem",
    "ESConfig",
    "OptimizationResult",
    "evolve",
    "fitness_FM",
    "fitness_FC",
    "fitness_FP",
    "vlf_problem",
    "cluster_problem",
    "VLFOptimum",
    "optimize_vlf",
    "ClusterSynthesis",
    "synthesize_cluster",
    "EmulationSynthesis",
    "synthesize_emulation",
]

ETA_MAX = 0.1  # pump amplitude search ceiling, mm^-1
GAIN_LIMIT = 10.0  # postprocessing gain search range
# polar sweeps of the nearest-phase-rotation solve: cap and stopping gain
_POLAR_SWEEPS = 200
_POLAR_TOL = 1e-14

_KINDS = ("amplitude", "angle", "gain", "free")


@dataclass(frozen=True)
class ParameterSpace:
    """Per-dimension parameter kinds and the bounds they imply."""

    kinds: tuple[str, ...]
    eta_max: float = ETA_MAX

    def __post_init__(self):
        bad = set(self.kinds) - set(_KINDS)
        if bad:
            raise ValueError(f"unknown parameter kinds {sorted(bad)}")

    @property
    def dimension(self) -> int:
        return len(self.kinds)

    @property
    def lower(self) -> np.ndarray:
        return np.array(
            [
                0.0 if k == "amplitude" else -GAIN_LIMIT if k == "gain" else -np.inf
                for k in self.kinds
            ]
        )

    @property
    def upper(self) -> np.ndarray:
        return np.array(
            [
                self.eta_max if k == "amplitude" else GAIN_LIMIT if k == "gain" else np.inf
                for k in self.kinds
            ]
        )

    @property
    def scales(self) -> np.ndarray:
        """Natural step-size scale per dimension (eta_max for amplitudes)."""
        return np.array([self.eta_max if k == "amplitude" else 1.0 for k in self.kinds])

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Wrap angle dimensions to (-pi, pi]; other dimensions untouched."""
        out = np.array(x, dtype=float)
        mask = np.array([k == "angle" for k in self.kinds])
        out[mask] = _wrap_angle(out[mask])
        return out


def _wrap_angle(x: np.ndarray) -> np.ndarray:
    """Angles wrapped to (-pi, pi]."""
    w = np.mod(x + np.pi, 2.0 * np.pi) - np.pi
    w[w <= -np.pi] += 2.0 * np.pi
    return w


@dataclass(frozen=True)
class OptimizationProblem:
    """A fitness callable over a typed parameter space with a start point.

    ``fitness`` maps a (..., d) array of parameter vectors to a (...)
    array of values: a (m, d) batch gives m values, and a single
    d-vector gives one scalar.
    """

    fitness: Callable[[np.ndarray], np.ndarray | float]
    space: ParameterSpace
    x0: np.ndarray

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (self.space.dimension,):
            raise ValueError(
                f"x0 has shape {x0.shape}, space has dimension {self.space.dimension}"
            )
        object.__setattr__(self, "x0", x0)


@dataclass(frozen=True)
class ESConfig:
    """Evolution-strategy hyperparameters.

    sigma0 is in natural units: radians for angles and gains, fractions
    of eta_max for amplitudes. It may be a scalar or a per-dimension
    vector.
    """

    population: int = 40
    parents: int = 5
    sigma0: float | np.ndarray = 0.3
    max_generations: int = 500
    target: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.parents < 1 or self.population < self.parents:
            raise ValueError(
                f"need population >= parents >= 1, got "
                f"{self.population} and {self.parents}"
            )
        if self.max_generations < 0:
            raise ValueError("max_generations must be nonnegative")
        if np.any(np.asarray(self.sigma0) <= 0):
            raise ValueError("sigma0 must be positive")


@dataclass(frozen=True)
class OptimizationResult:
    """Best-so-far outcome of an evolution-strategy run."""

    parameters: np.ndarray
    fitness: float
    trace: np.ndarray  # best-so-far fitness after each generation
    evaluations: int
    generations: int
    seed: int


def _evaluate(fitness: Callable, x: np.ndarray) -> np.ndarray:
    """Fitness of a (m, d) batch, checked to be m values."""
    f = np.asarray(fitness(x), dtype=float)
    if f.shape != (len(x),):
        raise ValueError(
            f"fitness of a ({len(x)}, {x.shape[1]}) batch returned shape {f.shape}, "
            f"expected ({len(x)},)"
        )
    return f


def evolve(problem: OptimizationProblem, config: ESConfig = ESConfig()) -> OptimizationResult:
    """Minimize the problem fitness with a (mu/mu, lambda) self-adaptive ES.

    Parents are recombined by arithmetic mean (geometric mean for the
    step sizes), offspring mutate their own step-size vectors through
    log-normal perturbations, and selection is comma (parents die each
    generation) with best-so-far tracking. Stops early when the target
    fitness is reached. The fitness is called once per generation on
    the (lambda, d) batch of offspring (once on the mu initial parents).
    """
    rng = np.random.default_rng(config.seed)
    space = problem.space
    n = space.dimension
    mu, lam = config.parents, config.population
    tau_g = 1.0 / np.sqrt(2.0 * n)
    tau_c = 1.0 / np.sqrt(2.0 * np.sqrt(n))
    raw = np.asarray(config.sigma0, dtype=float)
    # scalar step sizes are in natural units, vectors are taken verbatim
    sigma0 = float(raw) * space.scales if raw.ndim == 0 else np.broadcast_to(raw, (n,)).copy()

    xs = space.clip(problem.x0 + sigma0 * rng.standard_normal((mu, n)))
    ss = np.tile(sigma0, (mu, 1))
    fs = _evaluate(problem.fitness, xs)
    evals = mu
    order = np.argsort(fs, kind="stable")
    best_f = float(fs[order[0]])
    best_x = xs[order[0]].copy()
    trace = []

    gens = 0
    for _ in range(config.max_generations):
        gens += 1
        xm = xs.mean(axis=0)
        sm = np.exp(np.log(ss).mean(axis=0))
        # per offspring: one global step-size draw, n per-dimension step-size
        # draws and n mutation draws, in that order
        draws = rng.standard_normal((lam, 2 * n + 1))
        cand_s = np.clip(
            sm * np.exp(tau_g * draws[:, :1] + tau_c * draws[:, 1 : n + 1]), 1e-9, 2.0
        )
        cand_x = space.clip(xm + cand_s * draws[:, n + 1 :])
        cand_f = _evaluate(problem.fitness, cand_x)
        evals += lam
        idx = np.argsort(cand_f, kind="stable")[:mu]
        xs, ss, fs = cand_x[idx], cand_s[idx], cand_f[idx]
        if fs[0] < best_f:
            best_f = float(fs[0])
            best_x = xs[0].copy()
        trace.append(best_f)
        if config.target is not None and best_f <= config.target:
            break

    return OptimizationResult(
        parameters=space.wrap(best_x),
        fitness=best_f,
        trace=np.array(trace),
        evaluations=evals,
        generations=gens,
        seed=config.seed,
    )


# ---------------------------------------------------------------------------
# fitness functions


def fitness_FM(state: GaussianState, lo_phases: np.ndarray, gains: np.ndarray) -> float:
    """Sum of the N-1 van Loock-Furusawa combinations at one setting."""
    return float(vlf_values(state, lo_phases, gains).sum())


def _covariances(
    cfg: ArrayConfig, amplitudes: np.ndarray, phases: np.ndarray, z: float
) -> np.ndarray:
    """Covariances S S^T of the states of (..., N) pumps."""
    s = propagators(cfg, amplitudes, phases, z)
    return s @ np.swapaxes(s, -1, -2)


def _nullifier_sums(
    cfg: ArrayConfig,
    z: float,
    rows: np.ndarray,
    amplitudes: np.ndarray,
    phases: np.ndarray,
    lo_phases: np.ndarray,
) -> np.ndarray:
    """Summed nullifier variances over (..., N) pump and LO arrays."""
    v = _covariances(cfg, amplitudes, phases, z)
    return quadrature_variances(v, rows, lo_phases).sum(axis=-1)


def fitness_FC(
    cfg: ArrayConfig,
    z: float,
    graph: GraphSpec,
    amplitudes: np.ndarray,
    phases: np.ndarray,
    lo_phases: np.ndarray,
) -> float:
    """Sum of the graph nullifier variances after exact propagation."""
    pump = PumpProfile(amplitudes, phases)
    theta = np.asarray(lo_phases, dtype=float)
    if theta.shape != (cfg.n,):
        raise ValueError(f"need {cfg.n} LO phases, got shape {theta.shape}")
    return float(
        _nullifier_sums(cfg, z, nullifier_rows(graph), pump.amplitudes, pump.phases, theta)
    )


def fitness_FP(cfg: ArrayConfig, z: float, graph: GraphSpec, params: np.ndarray) -> float:
    """Emulation distance over the full parameter vector.

    ``params`` packs (amplitudes, pump phases, mixing Euler angles, LO
    phases, postprocessing Euler angles) with N + N + N(N-1)/2 + N +
    N(N-1)/2 entries.
    """
    n = cfg.n
    na = n * (n - 1) // 2
    params = np.asarray(params, dtype=float)
    if params.shape != (3 * n + 2 * na,):
        raise ValueError(f"expected {3 * n + 2 * na} parameters, got {params.shape}")
    amplitudes, phases = params[:n], params[n : 2 * n]
    euler = params[2 * n : 2 * n + na]
    theta = params[2 * n + na : 3 * n + na]
    post = params[3 * n + na :]
    state = propagator_exact(cfg, PumpProfile(amplitudes, phases), z)
    return emulation_error(graph, state, euler, theta, post)


# ---------------------------------------------------------------------------
# problem builders


def vlf_problem(state: GaussianState) -> OptimizationProblem:
    """F_M over (lo_phases, gains), seeded at the untouched detection point."""
    n = state.n

    def fit(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return vlf_values_batch(state.covariance, p[..., :n], p[..., n:]).sum(axis=-1)

    space = ParameterSpace(kinds=("angle",) * n + ("gain",) * n)
    return OptimizationProblem(fitness=fit, space=space, x0=np.zeros(2 * n))


def cluster_problem(
    cfg: ArrayConfig,
    z: float,
    graph: GraphSpec,
    x0: np.ndarray | None = None,
    eta_max: float = ETA_MAX,
) -> OptimizationProblem:
    """F_C over (amplitudes, pump phases, lo_phases)."""
    n = cfg.n
    rows = nullifier_rows(graph)

    def fit(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return _nullifier_sums(cfg, z, rows, p[..., :n], p[..., n : 2 * n], p[..., 2 * n :])

    space = ParameterSpace(
        kinds=("amplitude",) * n + ("angle",) * (2 * n), eta_max=eta_max
    )
    if x0 is None:
        x0 = np.zeros(3 * n)
    return OptimizationProblem(fitness=fit, space=space, x0=x0)


# ---------------------------------------------------------------------------
# multi-start driver shared by the synthesis searches


def _multistart(
    fitness: Callable[[np.ndarray], float],
    space: ParameterSpace,
    start: Callable[[int], tuple[np.ndarray, float | np.ndarray]],
    es_seed: Callable[[int], int],
    es: ESConfig,
    restarts: int,
    seed: int,
    stop: Callable[[OptimizationResult], bool] | None = None,
) -> tuple[OptimizationResult, int]:
    """Run the ES from up to ``restarts`` starting points and merge the runs.

    ``start(r)`` gives restart r's (x0, sigma0) and is called only for a
    restart that runs, so random starts keep their draw order. ``es``
    holds the population, parents, generation budget and in-run target;
    ``es_seed(r)`` seeds restart r. ``stop`` is tested whenever the best
    run improves and ends the search when it holds. The merged result
    carries the best parameters, the best-so-far trace over all runs,
    the summed evaluations and ``seed``; it is returned with the number
    of restarts run.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    best: OptimizationResult | None = None
    trace: list[float] = []
    evals = 0
    for r in range(restarts):
        x0, sigma0 = start(r)
        res = evolve(
            OptimizationProblem(fitness, space, x0),
            replace(es, sigma0=sigma0, seed=es_seed(r)),
        )
        evals += res.evaluations
        running = best.fitness if best is not None else np.inf
        trace.extend(np.minimum(res.trace, running).tolist())
        if best is None or res.fitness < best.fitness:
            best = res
            if stop is not None and stop(best):
                break
    merged = OptimizationResult(
        parameters=best.parameters,
        fitness=best.fitness,
        trace=np.minimum.accumulate(np.array(trace)),
        evaluations=evals,
        generations=len(trace),
        seed=seed,
    )
    return merged, r + 1


# ---------------------------------------------------------------------------
# multipartite-entanglement driver


@dataclass(frozen=True)
class VLFOptimum:
    """Optimized detection (and optionally pump-phase) setting."""

    optimization: OptimizationResult
    pump: PumpProfile
    lo_phases: np.ndarray
    gains: np.ndarray
    rho: np.ndarray

    @property
    def fully_inseparable(self) -> bool:
        return bool(np.all(self.rho < 4.0))


def optimize_vlf(
    cfg: ArrayConfig,
    z: float,
    amplitude: float,
    optimize_pump_phases: bool = False,
    seed: int = 7,
    generations: int = 200,
    sigma0: float = 0.1,
    restarts: int = 4,
    population: int = 40,
    parents: int = 5,
) -> VLFOptimum:
    """Minimize the summed VLF combinations for a flat-power pump.

    The detection-only search tunes the N LO phases and N gains of a
    balanced-homodyne layer on the state produced by a flat pump. It is
    a single run seeded at the neutral point (zero phases and gains)
    with a modest step size so it settles in the basin adjacent to that
    operating point; ``restarts`` is not used. With
    ``optimize_pump_phases`` the relative pump phases (N-1 extra
    parameters) join the search, which is what unlocks simultaneous
    violation at pump powers where detection alone cannot; that
    landscape traps single runs, so the first of ``restarts`` runs
    starts at the neutral point and later ones at random settings with
    a wider step. Raises ValueError when the best point's propagator has
    lost symplecticity (roundoff at very high gain).
    """
    n = cfg.n
    es = ESConfig(population=population, parents=parents, max_generations=generations)
    if optimize_pump_phases:

        def pump_phases(p: np.ndarray) -> np.ndarray:
            # guide 1 is the phase reference; the rest accumulate offsets
            rel = np.cumsum(p[..., 2 * n :], axis=-1)
            return np.concatenate([np.zeros(rel.shape[:-1] + (1,)), rel], axis=-1)

        def phased(p: np.ndarray) -> PumpProfile:
            return PumpProfile(np.full(n, amplitude), pump_phases(p))

        def fit(p: np.ndarray) -> np.ndarray:
            p = np.asarray(p, dtype=float)
            phi = pump_phases(p)
            v = _covariances(cfg, np.full(phi.shape, amplitude), phi, z)
            return vlf_values_batch(v, p[..., :n], p[..., n : 2 * n]).sum(axis=-1)

        space = ParameterSpace(kinds=("angle",) * n + ("gain",) * n + ("angle",) * (n - 1))
        rng = np.random.default_rng(seed)

        def start(r: int):
            if r == 0:
                return np.zeros(3 * n - 1), sigma0
            x0 = np.concatenate(
                [
                    rng.uniform(-np.pi, np.pi, n),
                    rng.uniform(-2.0, 2.0, n),
                    rng.uniform(-np.pi, np.pi, n - 1),
                ]
            )
            return x0, 5.0 * sigma0

    else:
        pump = PumpProfile.flat(n, amplitude)
        state = propagator_exact(cfg, pump, z)
        problem = vlf_problem(state)
        fit, space, restarts = problem.fitness, problem.space, 1

        def start(r: int):
            return problem.x0, sigma0

    res, _ = _multistart(fit, space, start, lambda r: seed + 1000 * r, es, restarts, seed)
    theta, gains = res.parameters[:n], res.parameters[n : 2 * n]
    if optimize_pump_phases:
        pump = phased(res.parameters)
        state = propagator_exact(cfg, pump, z)
    # no rho is reported from a propagator that lost symplecticity
    require_symplectic(state.propagator)
    return VLFOptimum(
        optimization=res,
        pump=pump,
        lo_phases=theta,
        gains=gains,
        rho=vlf_values(state, theta, gains),
    )


# ---------------------------------------------------------------------------
# cluster synthesis driver (fixed detection basis)


@dataclass(frozen=True)
class ClusterSynthesis:
    """Pump and LO profiles synthesizing a graph state, with certification."""

    graph: str
    optimization: OptimizationResult
    pump: PumpProfile
    lo_phases: np.ndarray
    report: CertificationReport
    restarts_used: int

    @property
    def total_variance(self) -> float:
        return float(self.report.nullifier_variances.sum())


def _flat_scan(problem: OptimizationProblem, n: int, eta_max: float) -> np.ndarray:
    """Coarse grid over flat-pump working points (common amplitude and
    common phase, LO untouched), evaluated as one batch; the best cell
    seeds the first restart."""
    cells = np.zeros((120, 3 * n))
    cells[:, :n] = np.repeat(np.linspace(eta_max / 10.0, eta_max, 10), 12)[:, None]
    cells[:, n : 2 * n] = np.tile(np.linspace(-np.pi, np.pi, 12, endpoint=False), 10)[:, None]
    f = problem.fitness(cells)
    k = int(np.argmin(np.where(np.isnan(f), np.inf, f)))
    return cells[k] if f[k] < np.inf else problem.x0


def synthesize_cluster(
    cfg: ArrayConfig,
    z: float,
    graph: GraphSpec,
    seed: int = 41,
    restarts: int = 5,
    generations: int = 100,
    parents: int = 10,
    population: int = 100,
    eta_max: float = ETA_MAX,
    target: float | None = None,
) -> ClusterSynthesis:
    """Search pump and LO profiles minimizing the summed nullifier variances.

    The landscape is deceptive: broad shallow basins surround the good
    optima, so the first restart is seeded from a coarse flat-pump grid
    scan with a tight step size, and later restarts draw random starting
    points with a wide angular step. Stops as soon as the target total
    variance is reached. The GHZ preset is searched as its star
    equivalent and returned with the LO phases rotated by pi/2 on every
    mode but the center.
    """
    n = cfg.n
    es = ESConfig(
        population=population, parents=parents, max_generations=generations, target=target
    )
    ghz = graph.name == "ghz"
    spec = GraphSpec(graph.adjacency, name="star", labeling=graph.labeling) if ghz else graph
    problem = cluster_problem(cfg, z, spec, eta_max=eta_max)
    rng = np.random.default_rng(seed)

    def start(r: int):
        if r == 0:
            x_scan = _flat_scan(problem, n, eta_max)
            return x_scan, np.concatenate([np.full(n, 0.005), np.full(2 * n, 0.1)])
        x0 = np.concatenate(
            [rng.uniform(0.0, eta_max, n), rng.uniform(-np.pi, np.pi, 2 * n)]
        )
        return x0, np.concatenate([np.full(n, 0.02), np.full(2 * n, 0.8)])

    best, used = _multistart(
        problem.fitness,
        problem.space,
        start,
        lambda r: seed + 1000 * r,
        es,
        restarts,
        seed,
        None if target is None else lambda best: best.fitness <= target,
    )
    pump = PumpProfile(best.parameters[:n], best.parameters[n : 2 * n])
    theta = best.parameters[2 * n :]
    if ghz:
        theta = _wrap_angle(theta + np.where(np.arange(n) == 2, 0.0, np.pi / 2.0))
    state = propagator_exact(cfg, pump, z)
    return ClusterSynthesis(
        graph=graph.name,
        optimization=best,
        pump=pump,
        lo_phases=theta,
        report=certify(state, graph, theta),
        restarts_used=used,
    )


# ---------------------------------------------------------------------------
# emulation synthesis driver (measurement-based cluster encoding)


@dataclass(frozen=True)
class EmulationSynthesis:
    """Pump profile plus detection layer emulating a cluster's statistics."""

    graph: str
    optimization: OptimizationResult
    pump: PumpProfile
    mixing_euler: np.ndarray
    lo_phases: np.ndarray
    post_euler: np.ndarray
    fp: float
    nullifier_variances: np.ndarray

    @property
    def parameters(self) -> np.ndarray:
        """Full flat parameter vector accepted by fitness_FP."""
        return np.concatenate(
            [
                self.pump.amplitudes,
                self.pump.phases,
                self.mixing_euler,
                self.lo_phases,
                self.post_euler,
            ]
        )


def _polar_so(a: np.ndarray) -> np.ndarray:
    """Nearest special-orthogonal matrices in Frobenius norm, over a stack."""
    u, _, vt = np.linalg.svd(a)
    uv = u @ vt
    flip = np.linalg.det(uv) < 0
    if np.count_nonzero(flip):
        u[flip, :, -1] *= -1.0
        uv[flip] = u[flip] @ vt[flip]
    return uv


def _frobenius(d: np.ndarray) -> np.ndarray:
    """Frobenius norms of a (m, N, N) complex stack, each summed in the
    order np.linalg.norm sums one matrix (a row's bits match its slice)."""
    x = d.reshape(len(d), 1, -1)
    xt = x.transpose(0, 2, 1)
    return np.sqrt((x.real @ xt.real + x.imag @ xt.imag)[:, 0, 0])


def _phase_match(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Optimal theta for fixed P over a stack: minus the phases of diag(P^T W)."""
    d = (p.transpose(0, 2, 1) @ w).diagonal(0, 1, 2)
    return -np.arctan2(d.imag, d.real)


def _split_ties(p: np.ndarray, vals: np.ndarray, y: np.ndarray) -> None:
    """Rotate, in place, each block of eigenvectors p of near-degenerate
    eigenvalues (within 1e-9 of the block's first) to diagonalize y."""
    i, n = 0, len(vals)
    while i < n:
        j = i + 1
        while j < n and vals[j] - vals[i] < 1e-9:
            j += 1
        if j - i > 1:
            blk = p[:, i:j]
            _, q = np.linalg.eigh(blk.T @ y @ blk)
            p[:, i:j] = blk @ q
        i = j


def _nearest_phase_rotation(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | float]:
    """Closest P diag(exp(-i theta)) to a unitary W, with P special orthogonal.

    Seeded from the joint eigenbasis of the commuting real and imaginary
    parts of W W^T, then refined by alternating the closed-form optimum in
    P (polar projection) and in theta (per-column phase match). A
    (..., N, N) stack is solved as one: each sweep is one batched SVD over
    the rows still improving, and every row stops on its own gain test or
    after _POLAR_SWEEPS sweeps. Returns (P, theta, distance), stacked
    like W; a single (N, N) matrix gives a float distance.
    """
    w = np.asarray(w)
    lead = w.shape[:-2]
    w = w.reshape((-1,) + w.shape[-2:])
    z = w @ w.transpose(0, 2, 1)
    vals, p = np.linalg.eigh(z.real)
    for k in np.flatnonzero(np.any(np.diff(vals, axis=-1) < 1e-9, axis=-1)):
        _split_ties(p[k], vals[k], z[k].imag)
    p[np.linalg.det(p) < 0, :, -1] *= -1.0
    theta = _phase_match(p, w)
    # the sweeps run on the rows still improving; a row is written back
    # when it stops, on its gain test or at the cap
    dist = np.full(len(w), np.inf)
    rows, wa, ta, prev = np.arange(len(w)), w, theta, dist
    for sweep in range(_POLAR_SWEEPS):
        pa = _polar_so((wa * np.exp(1j * ta)[:, None, :]).real)
        ta = _phase_match(pa, wa)
        da = _frobenius(wa - pa * np.exp(-1j * ta)[:, None, :])
        done = (prev - da < _POLAR_TOL) | (sweep == _POLAR_SWEEPS - 1)
        if np.count_nonzero(done):
            k = rows[done]
            p[k], theta[k], dist[k] = pa[done], ta[done], da[done]
            rows, wa, ta, da = rows[~done], wa[~done], ta[~done], da[~done]
            if not rows.size:
                break
        prev = da
    dist = dist.reshape(lead)
    return (
        p.reshape(lead + p.shape[-2:]),
        theta.reshape(lead + theta.shape[-1:]),
        float(dist) if dist.ndim == 0 else dist,
    )


def synthesize_emulation(
    cfg: ArrayConfig,
    z: float,
    graph: GraphSpec,
    seed: int = 11,
    restarts: int = 6,
    generations: int = 150,
    eta_max: float = ETA_MAX,
    target: float | None = None,
    population: int = 40,
    parents: int = 5,
) -> EmulationSynthesis:
    """Minimize F_P so a fibered detection layer reproduces cluster statistics.

    The search runs over pump amplitudes, pump phases and the squeezing
    mixing angles only; for each candidate the optimal LO phases and
    postprocessing rotation have a closed form (phase-rotation projection
    of a unitary), which removes N + N(N-1)/2 dimensions from the search.
    The winner is polished with a derivative-free local minimizer, and
    the eliminated parameters are reconstructed so the reported vector
    evaluates to the same F_P through the full fitness.

    ``target`` is an early-stop threshold on the summed cluster-basis
    nullifier variances (with every variance also below shot noise).
    """
    n = cfg.n
    na = n * (n - 1) // 2
    uc = cluster_transform(graph).unitary

    def _pump(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # negative amplitude = positive amplitude with a pi phase shift,
        # keeping the fitness smooth for the unconstrained local polish
        amp = p[..., :n]
        return np.abs(amp), _wrap_angle(p[..., n : 2 * n] + np.where(amp < 0, np.pi, 0.0))

    def reduced(p: np.ndarray) -> np.ndarray | float:
        p = np.asarray(p, dtype=float)
        _, w_out = _passive_out(propagators(cfg, *_pump(p), z))
        o = euler_orthogonal(p[..., 2 * n :], n)
        w = uc @ o @ np.swapaxes(w_out.conj(), -1, -2)
        dist = np.sqrt(2.0) * _nearest_phase_rotation(w)[2]
        return float(dist) if p.ndim == 1 else dist

    space = ParameterSpace(
        kinds=("amplitude",) * n + ("angle",) * (n + na), eta_max=eta_max
    )
    rng = np.random.default_rng(seed)
    sigma0 = np.concatenate([np.full(n, 0.02), np.full(n + na, 0.5)])

    def summarize(p: np.ndarray):
        pump = PumpProfile(*_pump(p))
        state = propagator_exact(cfg, pump, z)
        bm = bloch_messiah(state.propagator)
        o = euler_orthogonal(p[2 * n :], n)
        variances = cluster_nullifier_variances(graph, bm.gains, o)
        return pump, bm, o, variances

    def start(r: int):
        x0 = np.concatenate(
            [rng.uniform(0.0, eta_max, n), rng.uniform(-np.pi, np.pi, n + na)]
        )
        return x0, sigma0

    def reached(best: OptimizationResult) -> bool:
        variances = summarize(best.parameters)[3]
        return bool(variances.sum() <= target and variances.max() < 1.0)

    best, _ = _multistart(
        reduced,
        space,
        start,
        lambda r: seed + 101 * r + 1,
        ESConfig(population=population, parents=parents, max_generations=generations),
        restarts,
        seed,
        None if target is None else reached,
    )
    polish = _scipy_minimize(
        reduced,
        best.parameters,
        method="Nelder-Mead",
        options=dict(maxfev=4000, fatol=1e-12, xatol=1e-9),
    )
    x = polish.x if polish.fun <= best.fitness else best.parameters
    fp = float(min(polish.fun, best.fitness))

    pump, bm, o, variances = summarize(x)
    u1 = bm.passive_out[:n, :n] + 1j * bm.passive_out[n:, :n]
    p_opt, theta, _ = _nearest_phase_rotation(uc @ o @ u1.conj().T)
    combined = OptimizationResult(
        parameters=space.wrap(x),
        fitness=fp,
        trace=np.minimum.accumulate(np.append(best.trace, fp)),
        evaluations=best.evaluations + polish.nfev,
        generations=best.generations + 1,
        seed=seed,
    )
    return EmulationSynthesis(
        graph=graph.name,
        optimization=combined,
        pump=pump,
        mixing_euler=combined.parameters[2 * n :],
        lo_phases=_wrap_angle(theta),
        post_euler=orthogonal_to_euler(p_opt),
        fp=fp,
        nullifier_variances=variances,
    )
