"""Tests for the evolution strategy and the synthesis drivers."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anwsim import (
    ESConfig,
    ETA_MAX,
    GAIN_LIMIT,
    OptimizationProblem,
    ParameterSpace,
    PumpProfile,
    cluster_problem,
    evolve,
    fitness_FC,
    fitness_FM,
    fitness_FP,
    graph_preset,
    nullifiers_for,
    optimize_vlf,
    propagator_exact,
    synthesize_cluster,
    synthesize_emulation,
    vlf_problem,
    vlf_values,
)
from anwsim.measurement import combination_variance

np.random.seed(42)


def sphere(x):
    return np.sum(x**2, axis=-1)


def free_space(n):
    return ParameterSpace(kinds=("free",) * n)


def serial_candidates(problem, config):
    """Every point the ES evaluates, drawn one candidate at a time."""
    rng = np.random.default_rng(config.seed)
    space = problem.space
    n = space.dimension
    mu, lam = config.parents, config.population
    tau_g = 1.0 / np.sqrt(2.0 * n)
    tau_c = 1.0 / np.sqrt(2.0 * np.sqrt(n))
    sigma0 = float(config.sigma0) * space.scales
    xs = np.array([space.clip(problem.x0 + sigma0 * rng.standard_normal(n)) for _ in range(mu)])
    ss = np.tile(sigma0, (mu, 1))
    seen = list(xs)
    for _ in range(config.max_generations):
        xm = xs.mean(axis=0)
        sm = np.exp(np.log(ss).mean(axis=0))
        cand_x, cand_s, cand_f = [], [], []
        for _ in range(lam):
            s = sm * np.exp(tau_g * rng.standard_normal() + tau_c * rng.standard_normal(n))
            s = np.clip(s, 1e-9, 2.0)
            x = space.clip(xm + s * rng.standard_normal(n))
            cand_x.append(x)
            cand_s.append(s)
            cand_f.append(problem.fitness(x))
        seen += cand_x
        idx = np.argsort(cand_f, kind="stable")[:mu]
        xs, ss = np.array(cand_x)[idx], np.array(cand_s)[idx]
    return np.array(seen)


class TestParameterSpace:
    """Typed parameter dimensions and their bounds."""

    def test_rejects_unknown_kind(self):
        """Only amplitude, angle, gain and free dimensions exist."""
        with pytest.raises(ValueError, match="unknown parameter kinds"):
            ParameterSpace(kinds=("amplitude", "power"))

    def test_dimension(self):
        """The dimension counts the kind tuple entries."""
        assert ParameterSpace(kinds=("angle",) * 7).dimension == 7

    def test_bounds_by_kind(self):
        """Amplitudes live in [0, eta_max], gains in +/- GAIN_LIMIT."""
        space = ParameterSpace(kinds=("amplitude", "angle", "gain", "free"))
        assert np.allclose(space.lower, [0.0, -np.inf, -GAIN_LIMIT, -np.inf])
        assert np.allclose(space.upper, [ETA_MAX, np.inf, GAIN_LIMIT, np.inf])

    def test_custom_eta_max(self):
        """The amplitude ceiling is configurable."""
        space = ParameterSpace(kinds=("amplitude",), eta_max=0.02)
        assert space.upper[0] == 0.02
        assert space.scales[0] == 0.02

    def test_clip(self):
        """Clipping respects the per-kind bounds."""
        space = ParameterSpace(kinds=("amplitude", "gain", "angle"))
        clipped = space.clip(np.array([0.5, -20.0, 9.0]))
        assert np.allclose(clipped, [ETA_MAX, -GAIN_LIMIT, 9.0])

    def test_wrap_angles_only(self):
        """Wrapping folds angles to (-pi, pi] and leaves the rest alone."""
        space = ParameterSpace(kinds=("angle", "gain", "angle"))
        wrapped = space.wrap(np.array([3.0 * np.pi, 5.0, -np.pi]))
        assert np.allclose(wrapped, [np.pi, 5.0, np.pi])
        assert np.all(wrapped[[0, 2]] > -np.pi)


class TestProblemAndConfig:
    """Container validation."""

    def test_x0_shape_checked(self):
        """The start point must match the space dimension."""
        with pytest.raises(ValueError, match="x0 has shape"):
            OptimizationProblem(sphere, free_space(3), np.zeros(4))

    def test_population_bounds(self):
        """The population must dominate the parent count."""
        with pytest.raises(ValueError, match="need population >= parents >= 1"):
            ESConfig(population=4, parents=5)
        with pytest.raises(ValueError, match="need population >= parents >= 1"):
            ESConfig(parents=0)

    def test_generation_count(self):
        """Negative generation budgets are rejected."""
        with pytest.raises(ValueError, match="max_generations must be nonnegative"):
            ESConfig(max_generations=-1)

    def test_sigma0_positive(self):
        """Initial step sizes must be strictly positive."""
        with pytest.raises(ValueError, match="sigma0 must be positive"):
            ESConfig(sigma0=0.0)
        with pytest.raises(ValueError, match="sigma0 must be positive"):
            ESConfig(sigma0=np.array([0.1, -0.1]))


class TestEvolve:
    """Self-adaptive (mu/mu, lambda) evolution strategy."""

    def test_sphere_converges(self):
        """The sphere function is minimized below 1e-6 in 200 generations."""
        problem = OptimizationProblem(sphere, free_space(5), np.full(5, 2.0))
        res = evolve(problem, ESConfig(max_generations=200, seed=1))
        assert res.fitness < 1e-6

    def test_deterministic(self):
        """Equal seeds give bit-identical runs."""
        problem = OptimizationProblem(sphere, free_space(4), np.ones(4))
        config = ESConfig(population=12, parents=3, max_generations=40, seed=9)
        a = evolve(problem, config)
        b = evolve(problem, config)
        assert np.array_equal(a.parameters, b.parameters)
        assert np.array_equal(a.trace, b.trace)
        assert a.fitness == b.fitness

    def test_seeds_differ(self):
        """Different seeds explore differently."""
        problem = OptimizationProblem(sphere, free_space(4), np.ones(4))
        a = evolve(problem, ESConfig(max_generations=10, seed=0))
        b = evolve(problem, ESConfig(max_generations=10, seed=1))
        assert a.fitness != b.fitness

    def test_trace_tracks_best_so_far(self):
        """The trace is non-increasing with one entry per generation."""
        problem = OptimizationProblem(sphere, free_space(3), np.full(3, 1.5))
        res = evolve(problem, ESConfig(max_generations=60, seed=3))
        assert res.trace.shape == (res.generations,)
        assert np.all(np.diff(res.trace) <= 0)
        assert res.trace[-1] == res.fitness

    def test_target_stops_early(self):
        """Reaching the target fitness ends the run."""
        problem = OptimizationProblem(sphere, free_space(3), np.full(3, 1.5))
        res = evolve(problem, ESConfig(max_generations=200, target=1e-3, seed=2))
        assert res.fitness <= 1e-3
        assert res.generations < 200

    def test_evaluation_count(self):
        """Evaluations equal the parents plus one population per generation."""
        problem = OptimizationProblem(sphere, free_space(2), np.zeros(2))
        config = ESConfig(population=10, parents=2, max_generations=7, seed=0)
        res = evolve(problem, config)
        assert res.generations == 7
        assert res.evaluations == 2 + 7 * 10

    def test_zero_generations(self):
        """A zero budget returns the best initial parent."""
        problem = OptimizationProblem(sphere, free_space(2), np.zeros(2))
        res = evolve(problem, ESConfig(parents=3, max_generations=0, seed=0))
        assert res.generations == 0
        assert res.evaluations == 3
        assert res.trace.size == 0

    def test_amplitudes_stay_bounded(self):
        """Maximizing an amplitude sum saturates at eta_max, not beyond."""
        space = ParameterSpace(kinds=("amplitude",) * 3)
        problem = OptimizationProblem(lambda x: -x.sum(axis=-1), space, np.zeros(3))
        res = evolve(problem, ESConfig(max_generations=60, seed=4))
        assert np.all(res.parameters <= ETA_MAX)
        assert np.all(res.parameters >= 0.0)
        assert np.allclose(res.parameters, ETA_MAX, atol=1e-6, rtol=0)

    def test_angles_reported_wrapped(self):
        """Angle parameters come back folded into (-pi, pi]."""
        space = ParameterSpace(kinds=("angle",) * 2)
        problem = OptimizationProblem(lambda x: -x.sum(axis=-1), space, np.zeros(2))
        res = evolve(problem, ESConfig(max_generations=40, seed=5))
        assert np.all(res.parameters > -np.pi)
        assert np.all(res.parameters <= np.pi)

    def test_vector_sigma0(self):
        """Per-dimension step sizes are accepted verbatim."""
        problem = OptimizationProblem(sphere, free_space(3), np.ones(3))
        res = evolve(
            problem,
            ESConfig(sigma0=np.array([0.5, 0.1, 0.01]), max_generations=50, seed=6),
        )
        assert res.fitness < 1e-2

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_batches_hold_serial_draws(self, seed):
        """One fitness call per generation sees exactly the candidates that
        a serial per-candidate loop of the ES draws, bit for bit."""
        space = ParameterSpace(kinds=("amplitude", "angle", "gain", "free") * 2)
        problem = OptimizationProblem(sphere, space, np.linspace(-0.3, 0.5, 8))
        config = ESConfig(population=9, parents=3, sigma0=0.8, max_generations=6, seed=seed)
        seen = []

        def recording(x):
            seen.append(x.copy())
            return sphere(x)

        evolve(OptimizationProblem(recording, space, problem.x0), config)
        assert [b.shape for b in seen] == [(3, 8)] + [(9, 8)] * 6
        assert np.array_equal(np.concatenate(seen), serial_candidates(problem, config))

    def test_scalar_fitness_of_batch_rejected(self):
        """A fitness that ignores the batch axis is an error, not a broadcast."""
        problem = OptimizationProblem(lambda x: 0.0, free_space(3), np.zeros(3))
        with pytest.raises(ValueError, match=r"returned shape \(\), expected \(5,\)"):
            evolve(problem, ESConfig(population=10, parents=5, max_generations=1))

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 2**32 - 1))
    def test_trace_monotone_any_seed(self, seed):
        """Best-so-far bookkeeping never regresses for any seed."""
        problem = OptimizationProblem(sphere, free_space(3), np.full(3, 2.0))
        res = evolve(
            problem,
            ESConfig(population=8, parents=2, max_generations=15, seed=seed),
        )
        assert np.all(np.diff(res.trace) <= 0)


class TestFitnessFunctions:
    """The three synthesis objectives."""

    def test_fm_sums_vlf(self, cfg5, flat_pump5):
        """F_M is the plain sum of the VLF combinations."""
        state = propagator_exact(cfg5, flat_pump5, 30.0)
        rng = np.random.default_rng(0)
        theta = rng.uniform(-np.pi, np.pi, 5)
        gains = rng.uniform(-2.0, 2.0, 5)
        assert np.isclose(
            fitness_FM(state, theta, gains),
            vlf_values(state, theta, gains).sum(),
            atol=1e-12,
            rtol=0,
        )

    def test_fc_sums_nullifier_variances(self, cfg5):
        """F_C is the summed nullifier variances after exact propagation."""
        rng = np.random.default_rng(1)
        amp = rng.uniform(0.0, 0.1, 5)
        phases = rng.uniform(-np.pi, np.pi, 5)
        theta = rng.uniform(-np.pi, np.pi, 5)
        graph = graph_preset("pentagon")
        state = propagator_exact(cfg5, PumpProfile(amp, phases), 30.0)
        direct = sum(
            combination_variance(state, c) for c in nullifiers_for(graph, theta)
        )
        assert np.isclose(
            fitness_FC(cfg5, 30.0, graph, amp, phases, theta), direct, atol=1e-12, rtol=0
        )

    def test_fp_length_checked(self, cfg5):
        """The packed F_P vector must carry 3N + N(N-1) entries."""
        with pytest.raises(ValueError, match="expected 35 parameters"):
            fitness_FP(cfg5, 30.0, graph_preset("star"), np.zeros(34))

    def test_fp_zero_pump_is_passive_distance(self, cfg5):
        """With no pump the distance compares S_C against the detection layer."""
        params = np.zeros(35)
        value = fitness_FP(cfg5, 30.0, graph_preset("linear"), params)
        assert value > 0.0
        assert np.isfinite(value)


class TestProblemBuilders:
    """Prebuilt optimization problems for the three objectives."""

    def test_vlf_problem_shape(self, cfg5, flat_pump5):
        """Detection search runs over N phases and N gains from zero."""
        state = propagator_exact(cfg5, flat_pump5, 30.0)
        problem = vlf_problem(state)
        assert problem.space.dimension == 10
        assert problem.space.kinds == ("angle",) * 5 + ("gain",) * 5
        assert np.array_equal(problem.x0, np.zeros(10))
        assert np.isclose(
            problem.fitness(np.zeros(10)),
            fitness_FM(state, np.zeros(5), np.zeros(5)),
            atol=1e-12,
            rtol=0,
        )

    def test_cluster_problem_shape(self, cfg5):
        """Cluster search runs over N amplitudes and 2N angles."""
        problem = cluster_problem(cfg5, 30.0, graph_preset("star"), eta_max=0.05)
        assert problem.space.dimension == 15
        assert problem.space.kinds[:5] == ("amplitude",) * 5
        assert np.all(problem.space.upper[:5] == 0.05)


class TestOptimizeVLF:
    """Flat-pump VLF driver consistency (small budgets)."""

    def test_detection_only_consistency(self, cfg5):
        """The reported rho values recompute from the returned setting."""
        opt = optimize_vlf(cfg5, 30.0, 0.015, seed=7, generations=30)
        assert np.array_equal(opt.pump.amplitudes, np.full(5, 0.015))
        state = propagator_exact(cfg5, opt.pump, 30.0)
        assert np.allclose(
            opt.rho,
            vlf_values(state, opt.lo_phases, opt.gains),
            atol=1e-12,
            rtol=0,
        )
        assert np.isclose(opt.optimization.fitness, opt.rho.sum(), atol=1e-10, rtol=0)

    def test_detection_only_improves_on_neutral(self, cfg5, flat_pump5):
        """The optimum beats the zero-phase, zero-gain starting point."""
        state = propagator_exact(cfg5, flat_pump5, 30.0)
        start = fitness_FM(state, np.zeros(5), np.zeros(5))
        opt = optimize_vlf(cfg5, 30.0, 0.015, seed=7, generations=30)
        assert opt.optimization.fitness < start

    def test_lost_symplecticity_raises(self, cfg5):
        """A best point whose propagator lost symplecticity is refused, not reported."""
        with pytest.raises(ValueError, match="matrix is not symplectic: deviation"):
            optimize_vlf(cfg5, 30.0, 0.4, seed=7, generations=5)

    def test_pump_phase_variant_consistency(self, cfg5):
        """Pump phases join the search with the first guide as reference."""
        opt = optimize_vlf(
            cfg5, 30.0, 0.015, optimize_pump_phases=True, seed=7,
            generations=10, restarts=2,
        )
        assert opt.pump.phases[0] == 0.0
        state = propagator_exact(cfg5, opt.pump, 30.0)
        assert np.allclose(
            opt.rho, vlf_values(state, opt.lo_phases, opt.gains), atol=1e-12, rtol=0
        )
        assert np.all(np.diff(opt.optimization.trace) <= 0)
        assert opt.optimization.generations == opt.optimization.trace.size


class TestRestartCount:
    """Every multi-start search needs at least one restart."""

    def test_vlf_pump_phases(self, cfg5):
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            optimize_vlf(cfg5, 30.0, 0.015, optimize_pump_phases=True, restarts=0)

    def test_cluster(self, cfg5):
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            synthesize_cluster(cfg5, 30.0, graph_preset("linear"), restarts=0)

    def test_emulation(self, cfg5):
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            synthesize_emulation(cfg5, 30.0, graph_preset("linear"), restarts=0)


class TestSynthesizeCluster:
    """Fixed-basis cluster synthesis driver (small budgets)."""

    def test_report_matches_fitness(self, cfg5):
        """The certified variances sum to the optimized fitness."""
        syn = synthesize_cluster(
            cfg5, 30.0, graph_preset("linear"), seed=41,
            restarts=1, generations=3, parents=4, population=16,
        )
        assert syn.graph == "linear"
        assert np.isclose(
            syn.total_variance, syn.optimization.fitness, atol=1e-10, rtol=0
        )
        assert np.allclose(
            syn.lo_phases, syn.optimization.parameters[10:], atol=1e-12, rtol=0
        )
        assert np.all(syn.pump.amplitudes <= ETA_MAX)
        assert syn.restarts_used == 1

    def test_target_short_circuits(self, cfg5):
        """A generous target stops after the first restart."""
        syn = synthesize_cluster(
            cfg5, 30.0, graph_preset("linear"), seed=41,
            restarts=3, generations=2, parents=4, population=16, target=1e3,
        )
        assert syn.restarts_used == 1

    def test_ghz_rides_on_star(self, cfg5):
        """GHZ synthesis reuses the star run with rotated detector phases."""
        kw = dict(seed=41, restarts=1, generations=3, parents=4, population=16)
        star = synthesize_cluster(cfg5, 30.0, graph_preset("star"), **kw)
        ghz = synthesize_cluster(cfg5, 30.0, graph_preset("ghz"), **kw)
        assert ghz.graph == "ghz"
        assert ghz.optimization.fitness == star.optimization.fitness
        assert np.array_equal(ghz.pump.amplitudes, star.pump.amplitudes)
        shift = star.lo_phases + np.where(np.arange(5) == 2, 0.0, np.pi / 2)
        shift = np.mod(shift + np.pi, 2 * np.pi) - np.pi
        shift[shift <= -np.pi] += 2 * np.pi
        assert np.allclose(ghz.lo_phases, shift, atol=1e-12, rtol=0)
        assert np.allclose(
            ghz.report.nullifier_variances,
            star.report.nullifier_variances,
            atol=1e-8,
            rtol=1e-8,
        )


class TestSynthesizeEmulation:
    """Measurement-based emulation driver (small budgets)."""

    def test_reported_vector_reproduces_fp(self, cfg5):
        """The packed parameter vector evaluates to the reported distance."""
        graph = graph_preset("linear")
        syn = synthesize_emulation(
            cfg5, 30.0, graph, seed=11, restarts=1, generations=3
        )
        assert syn.parameters.shape == (35,)
        assert np.isclose(
            fitness_FP(cfg5, 30.0, graph, syn.parameters),
            syn.fp,
            atol=1e-8,
            rtol=1e-6,
        )
        assert np.all(syn.lo_phases > -np.pi)
        assert np.all(syn.lo_phases <= np.pi)
        assert syn.nullifier_variances.shape == (5,)
        assert np.all(syn.nullifier_variances > 0)
        assert np.all(np.diff(syn.optimization.trace) <= 0)
