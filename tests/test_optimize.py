"""Tests for the evolution strategy and the synthesis drivers."""
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anwsim import (
    ArrayConfig,
    ESConfig,
    ETA_MAX,
    GAIN_LIMIT,
    SYMPLECTIC_TOL,
    GraphSpec,
    OptimizationProblem,
    ParameterSpace,
    PumpProfile,
    bloch_messiah,
    cluster_nullifier_variances,
    cluster_problem,
    euler_orthogonal,
    evolve,
    fitness_FC,
    fitness_FM,
    fitness_FP,
    graph_preset,
    nullifiers_for,
    optimize_vlf,
    propagator_exact,
    symplectic_error,
    synthesize_cluster,
    synthesize_emulation,
    vlf_problem,
    vlf_values,
)
import anwsim
from anwsim import optimize
from anwsim.measurement import combination_variance
from anwsim.optimize import _polish
from test_entanglement import check_against_oracle

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

    def test_bounds_built_once_and_read_only(self):
        """A space hands out the same bound and scale arrays on every call,
        and no caller can modify them."""
        space = ParameterSpace(kinds=("amplitude", "gain", "angle"))
        for name in ("lower", "upper", "scales"):
            assert getattr(space, name) is getattr(space, name)
            with pytest.raises(ValueError, match="read-only"):
                getattr(space, name)[0] = 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.sampled_from(("amplitude", "angle", "gain", "free")), min_size=1, max_size=12),
        st.floats(1e-3, 10.0),
        st.integers(0, 2**32 - 1),
    )
    def test_sample_within_bounds(self, kinds, eta_max, seed):
        """A random start lies within the space's bounds and its start ranges."""
        space = ParameterSpace(kinds=tuple(kinds), eta_max=eta_max)
        x = space.sample(np.random.default_rng(seed))
        assert x.shape == (space.dimension,)
        assert np.all((space.lower <= x) & (x <= space.upper))
        angles = np.array([k == "angle" for k in kinds])
        assert np.all((-np.pi <= x[angles]) & (x[angles] < np.pi))
        gains = np.array([k == "gain" for k in kinds])
        assert np.all((-2.0 <= x[gains]) & (x[gains] < 2.0))

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

    def test_detection_only_refuses_before_search(self, cfg5, monkeypatch):
        """Without pump phases the state is fixed, so a propagator that lost
        symplecticity is refused before any search runs."""

        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(optimize, "_multistart", no_search)
        with pytest.raises(ValueError, match="matrix is not symplectic: deviation"):
            optimize_vlf(cfg5, 30.0, 0.4, seed=7, generations=5)

    @pytest.mark.parametrize("amplitude", [8.0, 20.0])
    def test_pump_phase_search_overflow_refused(self, cfg5, amplitude):
        """A search batch whose propagators overflow is refused as not
        finite; numpy's overflow warnings (errors here) never fire."""
        with pytest.raises(ValueError, match="matrix is not symplectic: it is not finite"):
            optimize_vlf(
                cfg5, 30.0, amplitude, optimize_pump_phases=True, restarts=1, generations=2
            )

    @pytest.mark.parametrize("amplitude", [5.9, 5.91])
    def test_pump_phase_search_fitness_overflow_refused(self, cfg5, amplitude, monkeypatch):
        """Finite covariances whose VLF sums pass the float range are refused
        as a fitness that is not finite; numpy's overflow warning never fires.
        The ceiling probe refuses these amplitudes first, so it is bypassed
        to reach the batch check behind it."""
        monkeypatch.setattr(optimize, "_check_ceiling", lambda *args: None)
        with pytest.raises(ValueError, match=r"batch is not finite: \d+ of \d+ values"):
            optimize_vlf(
                cfg5, 30.0, amplitude, optimize_pump_phases=True, restarts=1, generations=2
            )

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


class TestRestartRule:
    """Each driver's restarts: start point, step size and ES seed, bit for
    bit against the rule written out with per-kind uniform draws."""

    @staticmethod
    def record(monkeypatch):
        """Every ES run's start, step and seed, whether its restarts ran
        one at a time or in lockstep."""
        runs = []
        real = optimize._evolve

        def spy(fitness, space, batch):
            for x0, config in batch:
                runs.append(
                    (np.array(x0, dtype=float), np.asarray(config.sigma0, dtype=float), config.seed)
                )
            return real(fitness, space, batch)

        monkeypatch.setattr(optimize, "_evolve", spy)
        return runs

    @staticmethod
    def check(runs, expected):
        assert len(runs) == len(expected)
        for (x0, sigma0, seed), (want_x0, want_sigma0, want_seed) in zip(runs, expected):
            assert x0.tobytes() == np.asarray(want_x0, dtype=float).tobytes()
            assert sigma0.tobytes() == np.asarray(want_sigma0, dtype=float).tobytes()
            assert seed == want_seed

    def test_vlf_pump_phases(self, cfg5, monkeypatch):
        runs = self.record(monkeypatch)
        optimize_vlf(
            cfg5, 30.0, 0.015, optimize_pump_phases=True, seed=7, generations=1,
            restarts=3, population=8, parents=2,
        )
        rng = np.random.default_rng(7)
        expected = [(np.zeros(14), 0.1, 7)]
        for r in (1, 2):
            x0 = np.concatenate(
                [rng.uniform(-np.pi, np.pi, 5), rng.uniform(-2.0, 2.0, 5),
                 rng.uniform(-np.pi, np.pi, 4)]
            )
            expected.append((x0, 5.0 * 0.1, 7 + 1000 * r))
        self.check(runs, expected)

    def test_vlf_detection_only(self, cfg5, monkeypatch):
        runs = self.record(monkeypatch)
        optimize_vlf(cfg5, 30.0, 0.015, seed=7, generations=1, restarts=3, population=8, parents=2)
        self.check(runs, [(np.zeros(10), 0.1, 7)])

    def test_cluster(self, cfg5, monkeypatch):
        runs = self.record(monkeypatch)
        graph = graph_preset("pentagon")
        synthesize_cluster(
            cfg5, 30.0, graph, seed=41, restarts=3, generations=1, parents=2, population=8
        )
        cells = np.zeros((120, 15))
        cells[:, :5] = np.repeat(np.linspace(ETA_MAX / 10.0, ETA_MAX, 10), 12)[:, None]
        cells[:, 5:10] = np.tile(np.linspace(-np.pi, np.pi, 12, endpoint=False), 10)[:, None]
        x_scan = cells[int(np.argmin(cluster_problem(cfg5, 30.0, graph).fitness(cells)))]
        rng = np.random.default_rng(41)
        expected = [(x_scan, np.concatenate([np.full(5, 0.005), np.full(10, 0.1)]), 41)]
        for r in (1, 2):
            x0 = np.concatenate([rng.uniform(0.0, ETA_MAX, 5), rng.uniform(-np.pi, np.pi, 10)])
            expected.append(
                (x0, np.concatenate([np.full(5, 0.02), np.full(10, 0.8)]), 41 + 1000 * r)
            )
        self.check(runs, expected)

    def test_emulation(self, cfg5, monkeypatch):
        runs = self.record(monkeypatch)
        monkeypatch.setattr(optimize, "_polish", lambda fitness, x0: (x0, np.inf, 0, "budget"))
        synthesize_emulation(
            cfg5, 30.0, graph_preset("star"), seed=11, restarts=2, generations=1,
            eta_max=0.05, population=8, parents=2,
        )
        rng = np.random.default_rng(11)
        sigma0 = np.concatenate([np.full(5, 0.02), np.full(15, 0.5)])
        expected = []
        for r in (0, 1):
            x0 = np.concatenate([rng.uniform(0.0, 0.05, 5), rng.uniform(-np.pi, np.pi, 15)])
            expected.append((x0, sigma0, 11 + 101 * r + 1))
        self.check(runs, expected)


class TestLockstepRestarts:
    """Restarts without a stop run in lockstep, one fitness batch per
    generation; a search with a stop runs them one at a time."""

    @settings(deadline=None, max_examples=40)
    @given(
        restarts=st.integers(1, 5),
        sizes=st.sampled_from([(1, 4), (2, 6), (3, 9), (5, 12), (10, 20)]),
        first=st.sampled_from([None, "scalar", "vector"]),
        target=st.sampled_from([None, 0.5, 0.05]),
        generations=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lockstep_equals_one_at_a_time(
        self, restarts, sizes, first, target, generations, seed
    ):
        """Merged results are bit-equal to the same search forced restart by
        restart, also when runs reach the in-run target at different
        generations."""
        space = ParameterSpace(kinds=("amplitude", "angle", "gain", "free") * 2)
        parents, population = sizes
        es = ESConfig(
            population=population, parents=parents, max_generations=generations, target=target
        )
        x0 = np.linspace(0.0, 0.8, 8)
        start = {
            None: None,
            "scalar": (x0, 0.3),
            "vector": (x0, np.linspace(0.01, 0.9, 8)),
        }[first]
        args = (sphere, space, start, 0.5, es, restarts, seed)
        a, used_a = optimize._multistart(*args)
        b, used_b = optimize._multistart(*args, stop=lambda best: False)
        assert a.parameters.tobytes() == b.parameters.tobytes()
        assert a.fitness == b.fitness
        assert a.trace.tobytes() == b.trace.tobytes()
        assert (a.evaluations, a.generations, a.seed) == (b.evaluations, b.generations, b.seed)
        assert used_a == used_b == restarts

    def test_fitness_batches(self):
        """Without a stop: one (R mu, d) batch, then one batch per generation
        holding lambda rows of each run still short of the target. With a
        stop: mu- and lambda-row batches one restart at a time."""
        space = free_space(3)
        mu, lam, seed = 2, 6, 3
        es = ESConfig(population=lam, parents=mu, max_generations=30, target=0.01)
        rng = np.random.default_rng(seed)
        gens = [
            evolve(
                OptimizationProblem(sphere, space, space.sample(rng)),
                replace(es, sigma0=1.0, seed=seed + 1000 * r),
            ).generations
            for r in range(3)
        ]
        assert len(set(gens)) == 3  # the runs drop out at different generations

        seen = []

        def fitness(x):
            seen.append(x.shape)
            return sphere(x)

        optimize._multistart(fitness, space, None, 1.0, es, 3, seed)
        assert seen == [(3 * mu, 3)] + [
            (lam * sum(g > k for g in gens), 3) for k in range(max(gens))
        ]
        seen.clear()
        optimize._multistart(fitness, space, None, 1.0, es, 3, seed, stop=lambda best: False)
        assert seen == [s for g in gens for s in [(mu, 3)] + [(lam, 3)] * g]


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

    def test_state_is_the_pumps_exact_state(self, cfg5):
        """The result carries the state it certified: the winner pump's
        propagator_exact, bit for bit."""
        syn = synthesize_cluster(
            cfg5, 30.0, graph_preset("linear"), seed=41,
            restarts=1, generations=3, parents=4, population=16,
        )
        exact = propagator_exact(cfg5, syn.pump, 30.0)
        assert np.array_equal(syn.state.propagator, exact.propagator)
        assert np.array_equal(syn.state.covariance, exact.covariance)

    def test_target_short_circuits(self, cfg5):
        """A generous target stops after the first restart."""
        syn = synthesize_cluster(
            cfg5, 30.0, graph_preset("linear"), seed=41,
            restarts=3, generations=2, parents=4, population=16, target=1e3,
        )
        assert syn.restarts_used == 1

    def test_relabeled_ghz_reports_its_fitness(self, cfg5):
        """A labeling that moves the GHZ centre moves the unshifted LO mode
        with it, so the certified variances sum to the search fitness."""
        graph = GraphSpec(graph_preset("ghz").adjacency, name="ghz", labeling=(3, 1, 2, 4, 5))
        syn = synthesize_cluster(
            cfg5, 30.0, graph, seed=41, restarts=1, generations=20, parents=10, population=100
        )
        assert np.isclose(syn.total_variance, syn.optimization.fitness, atol=0, rtol=1e-9)

    def test_custom_graph_certified_on_every_cut(self):
        """A custom 4-node path is searched and certified from its own
        nullifier rows, on the 3 cuts of its edges, as the enumeration over
        all 7 cuts finds."""
        chain = graph_preset("linear").adjacency[:4, :4]
        syn = synthesize_cluster(
            ArrayConfig(n=4, coupling=0.24, length=30.0), 30.0, GraphSpec(chain, name="chain"),
            seed=41, restarts=1, generations=3, parents=4, population=16,
        )
        assert syn.graph == "chain"
        assert len(syn.report.bipartitions) == len(syn.report.bounds) == 3
        check_against_oracle(syn.report, GraphSpec(chain, name="chain"))
        assert np.isclose(syn.total_variance, syn.optimization.fitness, atol=0, rtol=1e-9)

    @pytest.mark.parametrize("eta_max", [8.0, 20.0])
    def test_search_overflow_refused(self, cfg5, eta_max):
        """A search batch whose propagators overflow is refused as not
        finite; numpy's overflow warnings (errors here) never fire."""
        with pytest.raises(ValueError, match="matrix is not symplectic: it is not finite"):
            synthesize_cluster(
                cfg5, 30.0, graph_preset("pentagon"), eta_max=eta_max,
                restarts=1, generations=2,
            )

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
        # the carried state is the winner pump's propagator_exact, and the
        # variances are its Bloch-Messiah gains' with the reported mixing
        # angles, bit for bit
        exact = propagator_exact(cfg5, syn.pump, 30.0)
        assert np.array_equal(syn.state.propagator, exact.propagator)
        gains = bloch_messiah(exact.propagator).gains
        mixing = euler_orthogonal(syn.mixing_euler, 5)
        assert np.array_equal(
            syn.nullifier_variances, cluster_nullifier_variances(graph, gains, mixing)
        )

    @pytest.mark.parametrize("name", ["linear", "star"])
    def test_polish_kept_under_pump_ceiling(self, cfg5, name):
        """The unbounded polish may leave the pump ceiling (linear) or end on
        a negative amplitude (star); the reported pump never leaves
        [0, eta_max], and the reported vector is folded to amplitudes >= 0."""
        graph = graph_preset(name)
        syn = synthesize_emulation(
            cfg5, 30.0, graph, seed=11, restarts=1, generations=3, eta_max=0.05
        )
        assert syn.pump.amplitudes.max() <= 0.05
        assert np.all(syn.optimization.parameters[:5] >= 0.0)
        assert np.isclose(
            fitness_FP(cfg5, 30.0, graph, syn.parameters), syn.fp, atol=1e-8, rtol=1e-6
        )

    def test_lost_symplecticity_raises(self, cfg5):
        """A winner whose propagator lost symplecticity (a pump ceiling far
        above the working point) is refused, not reported."""
        with pytest.raises(ValueError, match="matrix is not symplectic"):
            synthesize_emulation(
                cfg5, 30.0, graph_preset("pentagon"), seed=11,
                restarts=1, generations=3, eta_max=1.0,
            )


class TestCeilingProbe:
    """A pump ceiling whose flat phase-0 pump loses symplecticity is
    refused before the first fitness batch, not after a whole search."""

    @pytest.mark.parametrize(
        "search, name",
        [
            (
                lambda cfg: synthesize_emulation(
                    cfg, 30.0, graph_preset("pentagon"), restarts=1, generations=3,
                    eta_max=1.0,
                ),
                "eta_max=1.0",
            ),
            (
                lambda cfg: synthesize_cluster(
                    cfg, 30.0, graph_preset("pentagon"), restarts=1, generations=2,
                    eta_max=3.0,
                ),
                "eta_max=3.0",
            ),
            (
                lambda cfg: optimize_vlf(
                    cfg, 30.0, 3.0, optimize_pump_phases=True, restarts=1, generations=2
                ),
                "amplitude=3.0",
            ),
        ],
        ids=["FP", "FC", "FM"],
    )
    def test_refused_before_search(self, cfg5, monkeypatch, search, name):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(optimize, "_multistart", no_search)
        monkeypatch.setattr(optimize, "_flat_scan", no_search)
        with pytest.raises(ValueError, match="matrix is not symplectic: deviation") as err:
            search(cfg5)
        assert f"{name}, z=30.0" in str(err.value)

    def test_default_ceiling_passes_with_margin(self, cfg5):
        """At the default ceiling the probe's defect is far under tolerance."""
        s = propagator_exact(cfg5, PumpProfile.flat(5, ETA_MAX), 30.0).propagator
        assert symplectic_error(s) < SYMPLECTIC_TOL / 10


def shifted_quadratic(d, condition=1e3, seed=5):
    """Quadratic with minimum 0 at a random shift and axis curvatures
    spread log-evenly over the given condition number."""
    rng = np.random.default_rng(seed)
    w = np.logspace(0.0, np.log10(condition), d)
    c = rng.uniform(-2.0, 2.0, d)

    def fit(x):
        return np.sum(w * (x - c) ** 2, axis=-1)

    return fit, c


class TestPolish:
    """The batched multi-directional search that polishes F_P."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 300))
    def test_budget_never_exceeded(self, d, extra):
        """Evaluations, counted by the fitness, stop within the budget."""
        budget = d + 1 + extra
        seen = []

        def fit(x):
            seen.append(len(x))
            return sphere(x - 1.0)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimize, "_POLISH_EVALS", budget)
            _, _, evals, stop = _polish(fit, np.full(d, 3.0))
        assert evals == sum(seen) <= budget
        if stop == "budget":
            assert evals + 2 * d > budget

    def test_batches_only(self):
        """The fitness sees (m, d) batches: the start simplex, the 2d
        reflections and expansions, or the d contractions."""
        fit, _ = shifted_quadratic(4)
        shapes = []

        def spy(x):
            shapes.append(np.shape(x))
            return fit(x)

        _polish(spy, np.zeros(4))
        assert shapes[0] == (5, 4)
        assert set(shapes[1:]) == {(8, 4), (4, 4)}

    def test_best_value_is_fitness_at_best_point(self):
        """The returned value is at most the start value and is the
        fitness of the returned point."""
        fit, _ = shifted_quadratic(5)
        x0 = np.full(5, 0.5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimize, "_POLISH_EVALS", 200)
            x, f, _, _ = _polish(fit, x0)
        assert f <= fit(x0[None])[0]
        assert f == fit(x[None])[0]

    def test_replays_bit_identically(self):
        """Two runs from the same start agree in every bit."""
        fit, _ = shifted_quadratic(6)
        a = _polish(fit, np.linspace(-1.0, 1.0, 6))
        b = _polish(fit, np.linspace(-1.0, 1.0, 6))
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1:] == b[1:]

    @pytest.mark.parametrize("x0", [np.zeros(4), np.ones(4)])
    def test_converges_on_ill_conditioned_quadratic(self, x0):
        """A quadratic of condition 1e3 is solved before the budget. (Its
        axes are the start simplex's edges; a rotated narrow valley takes
        the search far longer, since its simplex keeps its shape.)"""
        fit, c = shifted_quadratic(4)
        x, f, evals, stop = _polish(fit, x0)
        assert stop == "converged"
        assert evals < optimize._POLISH_EVALS
        assert np.allclose(x, c, atol=1e-6, rtol=0)
        assert f < 1e-12

    def test_keeps_best_point_seen_on_jumps(self):
        """On a fitness with plateaus and jumps the result is the best
        point evaluated, not the last one."""
        points, values = [], []

        def fit(x):
            f = np.floor(4.0 * np.abs(x - 0.3).sum(axis=-1)) + 0.1 * np.sin(7.0 * x[:, 0])
            points.append(x.copy())
            values.append(f)
            return f

        x, f, _, _ = _polish(fit, np.full(3, 2.0))
        points, values = np.concatenate(points), np.concatenate(values)
        k = int(np.argmin(values))
        assert f == values[k]
        assert np.array_equal(x, points[k])


def test_import_leaves_out_scipy_optimize():
    """Importing the package in a fresh interpreter loads no scipy.optimize."""
    src = str(Path(anwsim.__file__).resolve().parents[1])
    code = "import sys, anwsim; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
