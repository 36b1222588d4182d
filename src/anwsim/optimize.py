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
from functools import cached_property
from typing import Callable

import numpy as np

from .entanglement import (
    CertificationReport,
    GraphSpec,
    _lo_phases,
    certify,
    cluster_nullifier_variances,
    cluster_transform,
    nullifier_rows,
    search_equivalent,
    vlf_values,
    vlf_values_batch,
)
from .measurement import quadrature_variances
from .model import (
    ArrayConfig,
    GaussianState,
    PumpProfile,
    covariances,
    propagator_exact,
    propagators,
)
from .symplectic import (
    _output_unitary,
    _squeezing_gains,
    _squeezing_product,
    euler_orthogonal,
    orthogonal_to_euler,
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
# sweeps of the nearest-phase-rotation solve: cap and stopping gain
_POLAR_SWEEPS = 200
_POLAR_TOL = 1e-14
# longest Newton step in any angle, rad: beyond it the quadratic model is
# not trusted and the plain alternating step is taken
_NEWTON_RADIUS = 0.25
# multi-directional search polish of F_P: evaluation budget and simplex size
# at which it has converged
_POLISH_EVALS = 8000
_POLISH_XTOL = 1e-9

_KINDS = ("amplitude", "angle", "gain", "free")
_START = {"angle": (-np.pi, np.pi), "gain": (-2.0, 2.0), "free": (-1.0, 1.0)}


@dataclass(frozen=True)
class ParameterSpace:
    """Per-dimension parameter kinds, the bounds they imply and the range
    a random start is drawn from.

    Amplitudes are bounded to [0, eta_max] and start in [0, eta_max);
    gains are bounded to +/- GAIN_LIMIT and start in [-2, 2); angles are
    unbounded (wrapped on reporting) and start in [-pi, pi); free
    dimensions are unbounded and start in [-1, 1).
    """

    kinds: tuple[str, ...]
    eta_max: float = ETA_MAX

    def __post_init__(self):
        bad = set(self.kinds) - set(_KINDS)
        if bad:
            raise ValueError(f"unknown parameter kinds {sorted(bad)}")

    @property
    def dimension(self) -> int:
        return len(self.kinds)

    @cached_property
    def lower(self) -> np.ndarray:
        return _read_only(
            [
                0.0 if k == "amplitude" else -GAIN_LIMIT if k == "gain" else -np.inf
                for k in self.kinds
            ]
        )

    @cached_property
    def upper(self) -> np.ndarray:
        return _read_only(
            [
                self.eta_max if k == "amplitude" else GAIN_LIMIT if k == "gain" else np.inf
                for k in self.kinds
            ]
        )

    @cached_property
    def scales(self) -> np.ndarray:
        """Natural step-size scale per dimension (eta_max for amplitudes)."""
        return _read_only([self.eta_max if k == "amplitude" else 1.0 for k in self.kinds])

    @cached_property
    def _angles(self) -> np.ndarray:
        return _read_only([k == "angle" for k in self.kinds])

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x).clip(self.lower, self.upper)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """A random start point, drawn by one uniform call over the start
        ranges in dimension order."""
        ranges = [(0.0, self.eta_max) if k == "amplitude" else _START[k] for k in self.kinds]
        low, high = np.array(ranges, dtype=float).reshape(-1, 2).T
        return rng.uniform(low, high)

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Wrap angle dimensions to (-pi, pi]; other dimensions untouched."""
        out = np.array(x, dtype=float)
        out[..., self._angles] = _wrap_angle(out[..., self._angles])
        return out


def _read_only(values: list) -> np.ndarray:
    """An array of the values that no caller can modify: a space builds its
    bounds, scales and angle mask once and hands out the same arrays."""
    a = np.array(values)
    a.flags.writeable = False
    return a


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
    """Fitness of a (m, d) batch, checked to be m finite values.

    Finite states can still sum to a value past the float range, so numpy's
    overflow warnings are silenced here and a value that is not finite is
    refused instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.asarray(fitness(x), dtype=float)
    if f.shape != (len(x),):
        raise ValueError(
            f"fitness of a ({len(x)}, {x.shape[1]}) batch returned shape {f.shape}, "
            f"expected ({len(x)},)"
        )
    if not np.isfinite(f).all():
        raise ValueError(
            f"fitness of a ({len(x)}, {x.shape[1]}) batch is not finite: "
            f"{np.count_nonzero(~np.isfinite(f))} of {len(x)} values"
        )
    return f


def evolve(problem: OptimizationProblem, config: ESConfig = ESConfig()) -> OptimizationResult:
    """Minimize the problem fitness with a (mu/mu, lambda) self-adaptive ES.

    Parents are recombined by arithmetic mean (geometric mean for the
    step sizes), offspring mutate their own step-size vectors through
    log-normal perturbations, and selection is comma (parents die each
    generation) with best-so-far tracking (Beyer and Schwefel, Natural
    Computing 1:3, 2002). Stops early when the target fitness is reached.
    The fitness is called once per generation on the (lambda, d) batch of
    offspring (once on the mu initial parents).

    This is the one-run case of ``_evolve``. A search whose restarts all
    run (F_M with pump phases, F_C without a target) runs them in
    lockstep there, one fitness batch per generation; the F_P search and
    F_C with a target call this once per restart, because their stop
    usually ends the search after the first (``_multistart``).
    """
    return _evolve(problem.fitness, problem.space, [(problem.x0, config)])[0]


def _evolve(
    fitness: Callable[[np.ndarray], np.ndarray],
    space: ParameterSpace,
    runs: list[tuple[np.ndarray, ESConfig]],
) -> list[OptimizationResult]:
    """Run independent ES runs in lockstep, one fitness batch per generation.

    Each run is an (x0, config) pair. The runs share the population,
    parents, generation budget and target of their configs; each brings
    its own sigma0 and seed. The fitness is called once on the (R mu, d)
    stack of every run's initial parents, then once per generation on the
    (R' lambda, d) stack of offspring of the R' runs still short of the
    target, in run order. A run draws from its own generator with the
    shapes a lone run draws, and does its own arithmetic, so its result
    is bit-equal to running it alone as long as the fitness of a stack
    equals the fitness of its slices. Memory grows with the stack: R
    lambda candidates per generation.
    """
    config = runs[0][1]
    n = space.dimension
    mu, lam = config.parents, config.population
    tau_g = 1.0 / np.sqrt(2.0 * n)
    tau_c = 1.0 / np.sqrt(2.0 * np.sqrt(n))
    rngs = [np.random.default_rng(c.seed) for _, c in runs]
    # scalar step sizes are in natural units, vectors are taken verbatim
    raw = [np.asarray(c.sigma0, dtype=float) for _, c in runs]
    sigma0 = np.stack(
        [float(s) * space.scales if s.ndim == 0 else np.broadcast_to(s, (n,)) for s in raw]
    )[:, None, :]
    x0 = np.stack([x for x, _ in runs])[:, None, :]
    xs = space.clip(x0 + sigma0 * np.stack([rng.standard_normal((mu, n)) for rng in rngs]))
    ss = np.repeat(sigma0, mu, axis=1)
    fs = _evaluate(fitness, xs.reshape(-1, n)).reshape(len(runs), mu)
    top = fs.argmin(axis=1)
    best_f = fs[np.arange(len(runs)), top]
    best_x = xs[np.arange(len(runs)), top]
    # best_f and best_x of every run; live indexes the runs still short of
    # the target, and xs and ss hold their parents; row g of trace is valid
    # for the runs that ran generation g, and a run stops after gens of them
    live = np.arange(len(runs))
    trace = np.empty((config.max_generations, len(runs)))
    gens = np.full(len(runs), config.max_generations)
    draws = np.empty((len(runs), lam, 2 * n + 1))
    # row k of the stack starts at candidate k lambda
    offset = lam * np.arange(len(runs))[:, None]
    for g in range(config.max_generations):
        # means over each run's parents: the bits of mean(), without its
        # Python-level overhead
        xm = np.add.reduce(xs, axis=1, keepdims=True) / mu
        sm = np.exp(np.add.reduce(np.log(ss), axis=1, keepdims=True) / mu)
        # per offspring: one global step-size draw, n per-dimension step-size
        # draws and n mutation draws, in that order
        for rng, out in zip(rngs, draws):
            rng.standard_normal(out=out)
        cand_s = (sm * np.exp(tau_g * draws[..., :1] + tau_c * draws[..., 1 : n + 1])).clip(
            1e-9, 2.0
        )
        cand_x = space.clip(xm + cand_s * draws[..., n + 1 :]).reshape(-1, n)
        cand_f = _evaluate(fitness, cand_x)
        idx = cand_f.reshape(len(live), lam).argsort(axis=1, kind="stable")[:, :mu]
        idx += offset
        xs, ss, fs = cand_x[idx], cand_s.reshape(-1, n)[idx], cand_f[idx]
        better = fs[:, 0] < best_f[live]
        if np.count_nonzero(better):
            best_f[live[better]] = fs[better, 0]
            best_x[live[better]] = xs[better, 0]
        trace[g] = best_f
        if config.target is not None:
            short = best_f[live] > config.target
            if not short.all():
                gens[live[~short]] = g + 1
                live, xs, ss = live[short], xs[short], ss[short]
                if not live.size:
                    break
                rngs = [rng for rng, keep in zip(rngs, short) if keep]
                draws, offset = draws[: len(live)], offset[: len(live)]

    return [
        OptimizationResult(
            parameters=space.wrap(best_x[r]),
            fitness=float(best_f[r]),
            trace=trace[: gens[r], r].copy(),
            evaluations=mu + lam * int(gens[r]),
            generations=int(gens[r]),
            seed=c.seed,
        )
        for r, (_, c) in enumerate(runs)
    ]


# ---------------------------------------------------------------------------
# fitness functions


def fitness_FM(state: GaussianState, lo_phases: np.ndarray, gains: np.ndarray) -> float:
    """Sum of the N-1 van Loock-Furusawa combinations at one setting."""
    return float(vlf_values(state, lo_phases, gains).sum())


def _nullifier_sums(
    cfg: ArrayConfig,
    z: float,
    rows: np.ndarray,
    amplitudes: np.ndarray,
    phases: np.ndarray,
    lo_phases: np.ndarray,
) -> np.ndarray:
    """Summed nullifier variances over (..., N) pump and LO arrays."""
    v = covariances(propagators(cfg, amplitudes, phases, z))
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
    theta = _lo_phases(cfg.n, lo_phases)
    return float(
        _nullifier_sums(cfg, z, nullifier_rows(graph), pump.amplitudes, pump.phases, theta)
    )


def fitness_FP(cfg: ArrayConfig, z: float, graph: GraphSpec, params: np.ndarray) -> float:
    """Emulation distance F_P over the full parameter vector.

    ``params`` packs (amplitudes, pump phases, mixing Euler angles, LO
    phases, postprocessing Euler angles) with N + N + N(N-1)/2 + N +
    N(N-1)/2 entries.

    F_P = ||S_LO - Obar_post(post) D_LO(theta)||_F is small when a fibered
    detection layer (per-mode LO phases, then orthogonal postprocessing of
    the photocurrents) realizes the LO-shaping transform S_LO = S_C
    Obar(mixing) R1^T, which maps the state's covariance to the cluster;
    R1 is the state's Bloch-Messiah output factor and the mixing angles
    distribute the squeezing among the nodes. The quadrature embedding
    U -> [[Re U, -Im U], [Im U, Re U]] keeps products, scales Frobenius
    norms by sqrt(2) and maps U_C, O, W_out^H, diag(exp(-i theta)) to S_C,
    Obar, R1^T, D_LO(theta), so F_P = sqrt(2) ||W - P(post) diag(exp(-i
    theta))||_F for the W of ``_emulation_unitary``, shared with the search.
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
    w = _emulation_unitary(cluster_transform(graph).unitary, state.propagator, euler)
    detection = euler_orthogonal(post, n) * np.exp(-1j * theta)
    return float(np.sqrt(2.0) * np.linalg.norm(w - detection))


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
    cfg: ArrayConfig, z: float, graph: GraphSpec, eta_max: float = ETA_MAX
) -> OptimizationProblem:
    """F_C over (amplitudes, pump phases, lo_phases), amplitudes bounded
    to [0, eta_max], with x0 at the unpumped point.

    synthesize_cluster does not start at x0: its first restart starts at
    a flat-pump grid scan's best cell, later ones at
    ``ParameterSpace.sample`` (amplitudes in [0, eta_max), angles in
    [-pi, pi)).
    """
    n = cfg.n
    rows = nullifier_rows(graph)

    def fit(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return _nullifier_sums(cfg, z, rows, p[..., :n], p[..., n : 2 * n], p[..., 2 * n :])

    space = ParameterSpace(
        kinds=("amplitude",) * n + ("angle",) * (2 * n), eta_max=eta_max
    )
    return OptimizationProblem(fitness=fit, space=space, x0=np.zeros(3 * n))


# ---------------------------------------------------------------------------
# multi-start driver shared by the synthesis searches


def _check_ceiling(cfg: ArrayConfig, z: float, name: str, ceiling: float) -> None:
    """Refuse, before any search, a pump ceiling the propagator cannot carry.

    Propagates the flat phase-0 pump at the ceiling once: of the pumps a
    search can reach, it had the largest symplectic defect at every
    ceiling measured. That is measured, not proven, so the drivers still
    check their winner. The message names the ceiling and the length.
    """
    try:
        propagator_exact(cfg, PumpProfile.flat(cfg.n, ceiling), z)
    except ValueError as err:
        raise ValueError(f"{err} (flat phase-0 pump at {name}={ceiling}, z={z})") from None


def _multistart(
    fitness: Callable[[np.ndarray], float],
    space: ParameterSpace,
    first: tuple[np.ndarray, float | np.ndarray] | None,
    sigma: float | np.ndarray,
    es: ESConfig,
    restarts: int,
    seed: int,
    stop: Callable[[OptimizationResult], bool] | None = None,
    es_seed: Callable[[int], int] = lambda r: 1000 * r,
) -> tuple[OptimizationResult, int]:
    """Run the ES from up to ``restarts`` starting points and merge the runs.

    Restart 0 starts from ``first``, an (x0, sigma0) pair; every other
    restart, and restart 0 when ``first`` is None, starts from
    ``space.sample`` of a generator seeded with ``seed``, with step
    ``sigma``. A start is drawn only for a restart that runs. ``es``
    holds the population, parents, generation budget and in-run target;
    restart r's ES is seeded with ``seed + es_seed(r)``. ``stop`` is
    tested whenever the best run improves and ends the search when it
    holds. The merged result carries the best parameters, the
    best-so-far trace over all runs, the summed evaluations and
    ``seed``; it is returned with the number of restarts run.

    Without ``stop`` every restart runs, so they all run in lockstep
    (``_evolve``): one fitness batch per generation over every run still
    short of the in-run target. That is the F_M pump-phase search and the
    F_C search without a target. With ``stop`` (the F_P search and F_C
    with a target) the restarts run one at a time through ``evolve``:
    the stop usually holds after restart 0, so running later restarts
    alongside it would multiply the work. A single restart runs through
    ``evolve`` as well. Either way each run's result is the same bits.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    rng = np.random.default_rng(seed)

    def run(r: int) -> tuple[np.ndarray, ESConfig]:
        x0, sigma0 = first if r == 0 and first is not None else (space.sample(rng), sigma)
        return x0, replace(es, sigma0=sigma0, seed=seed + es_seed(r))

    if stop is None and restarts > 1:
        results = iter(_evolve(fitness, space, [run(r) for r in range(restarts)]))
    else:
        starts = map(run, range(restarts))
        results = (evolve(OptimizationProblem(fitness, space, x0), c) for x0, c in starts)
    best: OptimizationResult | None = None
    trace: list[float] = []
    evals = 0
    for r, res in enumerate(results):
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
    a wider step. rho comes from propagator_exact, which raises
    ValueError for a propagator that lost symplecticity: before the
    detection-only search, after the search with pump phases. With pump
    phases, a flat phase-0 pump at ``amplitude`` that loses symplecticity
    is refused before the search (_check_ceiling), and a search batch
    whose propagators overflow raises ValueError too.
    """
    n = cfg.n
    if optimize_pump_phases:

        def pump_phases(p: np.ndarray) -> np.ndarray:
            # guide 1 is the phase reference; the rest accumulate offsets
            rel = np.cumsum(p[..., 2 * n :], axis=-1)
            return np.concatenate([np.zeros(rel.shape[:-1] + (1,)), rel], axis=-1)

        def fit(p: np.ndarray) -> np.ndarray:
            p = np.asarray(p, dtype=float)
            phi = pump_phases(p)
            v = covariances(propagators(cfg, np.full(phi.shape, amplitude), phi, z))
            return vlf_values_batch(v, p[..., :n], p[..., n : 2 * n]).sum(axis=-1)

        space = ParameterSpace(kinds=("angle",) * n + ("gain",) * n + ("angle",) * (n - 1))
        x0 = np.zeros(3 * n - 1)
        _check_ceiling(cfg, z, "amplitude", amplitude)
    else:
        pump = PumpProfile.flat(n, amplitude)
        state = propagator_exact(cfg, pump, z)
        problem = vlf_problem(state)
        fit, space, x0, restarts = problem.fitness, problem.space, problem.x0, 1

    es = ESConfig(population=population, parents=parents, max_generations=generations)
    res, _ = _multistart(fit, space, (x0, sigma0), 5.0 * sigma0, es, restarts, seed)
    theta, gains = res.parameters[:n], res.parameters[n : 2 * n]
    if optimize_pump_phases:
        pump = PumpProfile(np.full(n, amplitude), pump_phases(res.parameters))
        state = propagator_exact(cfg, pump, z)
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
    """Pump and LO profiles synthesizing a graph state, and its certified state."""

    graph: str
    optimization: OptimizationResult
    pump: PumpProfile
    state: GaussianState
    lo_phases: np.ndarray
    report: CertificationReport
    restarts_used: int

    @property
    def total_variance(self) -> float:
        return float(self.report.nullifier_variances.sum())


def _flat_scan(problem: OptimizationProblem) -> np.ndarray:
    """Coarse grid over flat-pump working points (common amplitude up to
    the space's eta_max and common phase, LO untouched) of a cluster
    problem, evaluated as one batch; the best cell seeds the first restart."""
    space = problem.space
    n = space.dimension // 3
    cells = np.zeros((120, space.dimension))
    cells[:, :n] = np.repeat(np.linspace(space.eta_max / 10.0, space.eta_max, 10), 12)[:, None]
    cells[:, n : 2 * n] = np.tile(np.linspace(-np.pi, np.pi, 12, endpoint=False), 10)[:, None]
    return cells[int(np.argmin(problem.fitness(cells)))]


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
    points (``ParameterSpace.sample``: amplitudes in [0, eta_max), angles
    in [-pi, pi)) with a wide angular step. Stops as soon as the target total
    variance is reached. The graph is searched as its search_equivalent,
    whose LO phase shift carries the optimum back, and any graph is
    certified from its own nullifier rows (``certify``: the N - 1 cuts of a
    maximum spanning tree decide every bipartition). Raises
    ValueError before searching when the flat phase-0 pump at eta_max
    loses symplecticity (_check_ceiling), from a search batch whose
    propagators overflow, and from propagator_exact when the winner lost
    symplecticity.
    """
    n = cfg.n
    es = ESConfig(
        population=population, parents=parents, max_generations=generations, target=target
    )
    spec, shift = search_equivalent(graph)
    problem = cluster_problem(cfg, z, spec, eta_max=eta_max)
    tight = np.concatenate([np.full(n, 0.005), np.full(2 * n, 0.1)])
    wide = np.concatenate([np.full(n, 0.02), np.full(2 * n, 0.8)])
    stop = None if target is None else lambda best: best.fitness <= target
    _check_ceiling(cfg, z, "eta_max", eta_max)
    first = (_flat_scan(problem), tight)
    best, used = _multistart(problem.fitness, problem.space, first, wide, es, restarts, seed, stop)
    pump = PumpProfile(best.parameters[:n], best.parameters[n : 2 * n])
    theta = best.parameters[2 * n :]
    if shift is not None:
        theta = _wrap_angle(theta + shift)
    state = propagator_exact(cfg, pump, z)
    return ClusterSynthesis(
        graph=graph.name,
        optimization=best,
        pump=pump,
        state=state,
        lo_phases=theta,
        report=certify(state, graph, theta),
        restarts_used=used,
    )


# ---------------------------------------------------------------------------
# emulation synthesis driver (measurement-based cluster encoding)


@dataclass(frozen=True)
class EmulationSynthesis:
    """Pump, its state and a detection layer emulating a cluster's statistics."""

    graph: str
    optimization: OptimizationResult
    pump: PumpProfile
    state: GaussianState
    mixing_euler: np.ndarray
    lo_phases: np.ndarray
    post_euler: np.ndarray
    fp: float
    nullifier_variances: np.ndarray
    polish_evaluations: int  # evaluations of the local polish
    polish_stop: str  # why the polish stopped: "converged" or "budget"

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


def _frobenius(d: np.ndarray) -> np.ndarray:
    """Frobenius norms of a (m, N, N) complex stack, each summed in the
    order np.linalg.norm sums one matrix (a row's bits match its slice)."""
    x = d.reshape(len(d), 1, -1)
    xt = x.transpose(0, 2, 1)
    return np.sqrt((x.real @ xt.real + x.imag @ xt.imag)[:, 0, 0])


def _phase_match(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Optimal theta for fixed P over a stack: minus the phases of diag(P^T W)."""
    d = np.vecdot(p, w, axis=-2)
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


def _emulation_unitary(uc: np.ndarray, s: np.ndarray, mixing: np.ndarray) -> np.ndarray:
    """Complex form W = U_C O W_out^H of S_LO = S_C Obar R1^T (fitness_FP)
    over a (..., 2N, 2N) stack of propagators and a (..., N(N-1)/2) stack
    of mixing angles, O = euler_orthogonal(mixing)."""
    w_out = _output_unitary(_squeezing_product(s))
    o = euler_orthogonal(mixing, uc.shape[-1])
    return uc @ o @ np.swapaxes(w_out.conj(), -1, -2)


def _nearest_phase_rotation(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | float]:
    """Closest P diag(exp(-i theta)) to a unitary W, with P special orthogonal.

    For fixed theta the best P is the special-orthogonal polar factor of
    A(theta) = Re(W diag(exp(i theta))), and the squared distance is
    2N - 2 F(theta), where F sums A's singular values with the last one
    negated when det A < 0. For fixed P the best theta is minus the
    phases of diag(P^T W). The solve starts from the joint eigenbasis of
    the commuting real and imaginary parts of W W^T. Each sweep takes one
    SVD of A at the row's current angles and phase-matches its polar
    factor; the first two sweeps alternate these two closed forms. From
    then on a row takes Newton steps on F in theta, with the gradient and
    Hessian of the same SVD (_gradient_hessian).

    Safeguards: a Newton step is taken only where the Hessian is finite
    and negative definite and no angle moves by more than _NEWTON_RADIUS,
    and its point is kept only if its phase-matched distance is no larger
    than the row's best; otherwise the row takes the plain alternating
    step from its best point. A row stops when a plain step gains less
    than _POLAR_TOL, when its Newton step predicts a gain
    (1/2) g^T delta / d below _POLAR_TOL, or after _POLAR_SWEEPS sweeps.

    A (..., N, N) stack is solved as one: each sweep is one batched SVD
    over the rows still running, and each row ends as its single-matrix
    solve does. Returns (P, theta, distance) at each row's best point,
    stacked like W; a single (N, N) matrix gives a float distance.
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
    dist = np.full(len(w), np.inf)
    # the running rows: W, the angles of the next SVD, whether they came
    # from a Newton step, and the best point so far (its polar factor,
    # phase-matched angles and distance); a row is written back when it stops
    rows, wa, ta, newton = np.arange(len(w)), w, theta, np.zeros(len(w), dtype=bool)
    bp, bt, bd = p, theta, dist
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(_POLAR_SWEEPS):
            m = wa * np.exp(1j * ta)[:, None, :]
            u, s, vt = np.linalg.svd(m.real)
            pa = u @ vt
            flip = np.linalg.det(pa) < 0
            if np.count_nonzero(flip):
                u[flip, :, -1] *= -1.0
                s[flip, -1] *= -1.0
                pa[flip] = u[flip] @ vt[flip]
            tm = _phase_match(pa, wa)
            da = _frobenius(wa - pa * np.exp(-1j * tm)[:, None, :])
            gain = bd - da
            kept = ~(gain < 0.0)
            if kept.all():
                bp, bt, bd = pa, tm, da
            else:
                bp = np.where(kept[:, None, None], pa, bp)
                bt = np.where(kept[:, None], tm, bt)
                bd = np.where(kept, da, bd)
            stop = ~newton & (gain < _POLAR_TOL)
            nxt = bt
            if sweep:
                step, rise = _newton_step(*_gradient_hessian(m, pa, u, s, vt))
                newton = kept & ~stop & ~np.isnan(rise)
                stop |= newton & (rise <= _POLAR_TOL * da)
                nxt = np.where(newton[:, None], ta + step, bt)
            if sweep == _POLAR_SWEEPS - 1:
                stop[:] = True
            if np.count_nonzero(stop):
                k = rows[stop]
                p[k], theta[k], dist[k] = bp[stop], bt[stop], bd[stop]
                keep = ~stop
                if not np.count_nonzero(keep):
                    break
                rows, wa, nxt, newton = rows[keep], wa[keep], nxt[keep], newton[keep]
                bp, bt, bd = bp[keep], bt[keep], bd[keep]
            ta = nxt
    dist = dist.reshape(lead)
    return (
        p.reshape(lead + p.shape[-2:]),
        theta.reshape(lead + theta.shape[-1:]),
        float(dist) if dist.ndim == 0 else dist,
    )


def _gradient_hessian(
    m: np.ndarray, p: np.ndarray, u: np.ndarray, s: np.ndarray, vt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of F(theta) over a stack, from a sweep's SVD.

    m = W diag(exp(i theta)) and A = Re m = U diag(s) V^T, with the sign
    of the last singular value folded into s and U so that P = U V^T is
    special orthogonal. Column k of A moves only with theta_k, as
    b_k = -Im m_k, so the gradient is g_k = p_k . b_k. The Hessian is
    H_jk = sum_il Omega(j)_il V_kl c_ik - delta_jk p_k . a_k, where c = U^T B
    and Omega(j) = U^T (dP/dtheta_j) V has the entries
    (c_ij V_jl - c_lj V_ji) / (s_i + s_l) (the polar factor's derivative,
    Higham, Functions of Matrices, SIAM 2008, ch. 8).
    """
    n = m.shape[-1]
    # with K(j) = Omega(j) * (s_i + s_l), the first term is
    # (1/2) sum_il K(j)_il K(k)_il / (s_i + s_l), quadratic in c, so the
    # sign of B may be dropped there
    c = u.transpose(0, 2, 1) @ m.imag
    x = c[:, :, None, :] * vt[:, None, :, :]
    k = (x - x.transpose(0, 2, 1, 3)).reshape(len(m), -1, n)
    t = 0.5 / (s[:, :, None] + s[:, None, :])
    h = (k.transpose(0, 2, 1) * t.reshape(len(m), 1, -1)) @ k
    h.reshape(len(m), -1)[:, :: n + 1] -= np.vecdot(p, m.real, axis=-2)
    return -np.vecdot(p, m.imag, axis=-2), h


def _newton_step(g: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton step delta = -H^{-1} g over a stack and the rise (1/2) g^T delta
    of F it predicts; the rise is nan where H is not finite and negative
    definite or the step moves an angle by more than _NEWTON_RADIUS. h is
    overwritten."""
    bad = ~np.isfinite(h).all(axis=(1, 2))
    if np.count_nonzero(bad):
        h[bad] = np.eye(h.shape[-1])
    bad = ~(np.linalg.eigvalsh(h)[:, -1] < 0.0)
    if np.count_nonzero(bad):
        h[bad] = np.eye(h.shape[-1])
    step = np.linalg.solve(h, -g[:, :, None])[:, :, 0]
    rise = 0.5 * np.vecdot(g, step)
    rise[bad | ~(np.abs(step).max(axis=1) <= _NEWTON_RADIUS)] = np.nan
    return step, rise


def _polish(
    fitness: Callable[[np.ndarray], np.ndarray], x0: np.ndarray
) -> tuple[np.ndarray, float, int, str]:
    """Minimize a batched fitness from x0 by multi-directional search.

    Torczon's simplex method (SIAM J. Optim. 1:123, 1991): the simplex
    starts as scipy's Nelder-Mead does (+5 % per coordinate, 0.00025 for
    a zero one). Each iteration reflects the d non-best vertices through
    the best one and expands them twice as far, all 2d trial points in
    one batch, and keeps the reflected or expanded simplex, whichever
    holds the lower trial value, if that value beats the best vertex.
    Otherwise the vertices contract halfway to the best one, as one batch
    of d. Stops before a batch would take the count past _POLISH_EVALS
    ("budget") or once every vertex is within _POLISH_XTOL of the best
    in each coordinate ("converged"). Returns (best point, its value,
    evaluations, stop reason).
    """
    x0 = np.asarray(x0, dtype=float)
    d = len(x0)
    v = np.vstack([x0, x0 + np.diag(np.where(x0 != 0.0, 0.05 * x0, 0.00025))])
    f = _evaluate(fitness, v)
    evals = d + 1
    while True:
        k = np.argsort(f, kind="stable")
        v, f = v[k], f[k]
        if np.abs(v[1:] - v[0]).max() < _POLISH_XTOL:
            return v[0], float(f[0]), evals, "converged"
        if evals + 2 * d > _POLISH_EVALS:
            return v[0], float(f[0]), evals, "budget"
        edges = v[1:] - v[0]
        trial = np.concatenate([v[0] - edges, v[0] - 2.0 * edges])
        ft = _evaluate(fitness, trial)
        evals += 2 * d
        j = int(np.argmin(ft))
        if ft[j] < f[0]:
            keep = slice(0, d) if j < d else slice(d, 2 * d)
            v[1:], f[1:] = trial[keep], ft[keep]
        elif evals + d > _POLISH_EVALS:
            return v[0], float(f[0]), evals, "budget"
        else:
            v[1:] = v[0] + 0.5 * edges
            f[1:] = _evaluate(fitness, v[1:])
            evals += d


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
    Every restart starts from a random point of the space
    (``ParameterSpace.sample``: amplitudes in [0, eta_max), angles in
    [-pi, pi)). The winner is polished by a multi-directional simplex
    search (``_polish``) whose reflect/expand and contract steps are each
    one batch of the reduced F_P. The polish is unbounded, and reads a
    negative amplitude as its magnitude with a pi pump-phase shift; its
    point is reported, folded that way, only when it beats the ES winner
    and every folded amplitude is at most eta_max, and the ES winner is
    reported otherwise. So every reported amplitude lies in [0, eta_max].
    The eliminated parameters are reconstructed so the reported vector
    evaluates to the same F_P through fitness_FP, which builds W with the
    search's kernel (_emulation_unitary). The polish's evaluation count
    and stop reason are reported with the result.

    ``target`` is an early-stop threshold on the summed cluster-basis
    nullifier variances (with every variance also below shot noise).
    The report comes from the winner's propagator_exact state, which
    raises ValueError when it lost symplecticity; a search batch whose
    propagators overflow raises ValueError too, and so does, before the
    search, a flat phase-0 pump at eta_max that loses symplecticity
    (_check_ceiling).
    """
    n = cfg.n
    na = n * (n - 1) // 2
    uc = cluster_transform(graph).unitary

    def fold(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # negative amplitude = positive amplitude with a pi phase shift,
        # keeping the fitness smooth for the unconstrained simplex polish
        amp = p[..., :n]
        return np.abs(amp), p[..., n : 2 * n] + np.where(amp < 0, np.pi, 0.0)

    def _pump(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        amp, phases = fold(p)
        return amp, _wrap_angle(phases)

    def reduced(p: np.ndarray) -> np.ndarray | float:
        p = np.asarray(p, dtype=float)
        w = _emulation_unitary(uc, propagators(cfg, *_pump(p), z), p[..., 2 * n :])
        dist = np.sqrt(2.0) * _nearest_phase_rotation(w)[2]
        return float(dist) if p.ndim == 1 else dist

    space = ParameterSpace(
        kinds=("amplitude",) * n + ("angle",) * (n + na), eta_max=eta_max
    )
    sigma0 = np.concatenate([np.full(n, 0.02), np.full(n + na, 0.5)])

    def summarize(p: np.ndarray):
        pump = PumpProfile(*_pump(p))
        state = propagator_exact(cfg, pump, z)
        gains = _squeezing_gains(_squeezing_product(state.propagator))
        o = euler_orthogonal(p[2 * n :], n)
        return pump, state, cluster_nullifier_variances(graph, gains, o)

    def reached(best: OptimizationResult) -> bool:
        variances = summarize(best.parameters)[-1]
        return bool(variances.sum() <= target and variances.max() < 1.0)

    es = ESConfig(population=population, parents=parents, max_generations=generations)
    stop = None if target is None else reached
    _check_ceiling(cfg, z, "eta_max", eta_max)
    best, _ = _multistart(
        reduced, space, None, sigma0, es, restarts, seed, stop, es_seed=lambda r: 101 * r + 1
    )
    x_pol, f_pol, polish_evals, polish_stop = _polish(reduced, best.parameters)
    amp, phases = fold(x_pol)
    if f_pol <= best.fitness and amp.max() <= eta_max:
        x, fp = np.concatenate([amp, phases, x_pol[2 * n :]]), f_pol
    else:
        x, fp = best.parameters, best.fitness
    x = space.wrap(x)

    pump, state, variances = summarize(x)
    p_opt, theta, _ = _nearest_phase_rotation(_emulation_unitary(uc, state.propagator, x[2 * n :]))
    combined = OptimizationResult(
        parameters=x,
        fitness=fp,
        trace=np.minimum.accumulate(np.append(best.trace, fp)),
        evaluations=best.evaluations + polish_evals,
        generations=best.generations + 1,
        seed=seed,
    )
    return EmulationSynthesis(
        graph=graph.name,
        optimization=combined,
        pump=pump,
        state=state,
        mixing_euler=combined.parameters[2 * n :],
        lo_phases=_wrap_angle(theta),
        post_euler=orthogonal_to_euler(p_opt),
        fp=fp,
        nullifier_variances=variances,
        polish_evaluations=polish_evals,
        polish_stop=polish_stop,
    )
