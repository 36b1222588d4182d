"""Batched evaluation paths against their one-at-a-time counterparts."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from anwsim import (
    PRESETS,
    ArrayConfig,
    PumpProfile,
    QuadratureCombination,
    cluster_problem,
    combination_variance,
    d_lo,
    fitness_FC,
    fitness_FM,
    graph_preset,
    propagator_exact,
    propagators,
    vlf_problem,
)

CFG = ArrayConfig(n=5, coupling=0.24, length=30.0)
Z = 30.0


def random_pumps(rng, m, z=Z, n=5):
    """m pumps with eta * z <= 2 in every guide."""
    return rng.uniform(0.0, 2.0 / z, (m, n)), rng.uniform(-np.pi, np.pi, (m, n))


def assert_rel_close(batch, serial, rel):
    batch, serial = np.asarray(batch), np.asarray(serial)
    assert batch.shape == serial.shape
    assert np.all(np.abs(batch - serial) <= rel * np.abs(serial))


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.sampled_from(PRESETS))
def test_fc_batch_equals_public(seed, m, preset):
    """The F_C problem fitness of a batch matches fitness_FC row by row."""
    rng = np.random.default_rng(seed)
    amp, phases = random_pumps(rng, m)
    theta = rng.uniform(-np.pi, np.pi, (m, 5))
    graph = graph_preset(preset)
    batch = cluster_problem(CFG, Z, graph).fitness(np.concatenate([amp, phases, theta], axis=1))
    serial = [fitness_FC(CFG, Z, graph, amp[k], phases[k], theta[k]) for k in range(m)]
    assert_rel_close(batch, serial, 1e-12)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7))
def test_fm_batch_equals_public(seed, m):
    """The F_M problem fitness of a batch matches fitness_FM row by row."""
    rng = np.random.default_rng(seed)
    amp, phases = random_pumps(rng, 1)
    state = propagator_exact(CFG, PumpProfile(amp[0], phases[0]), Z)
    theta = rng.uniform(-np.pi, np.pi, (m, 5))
    gains = rng.uniform(-3.0, 3.0, (m, 5))
    batch = vlf_problem(state).fitness(np.concatenate([theta, gains], axis=1))
    serial = [fitness_FM(state, theta[k], gains[k]) for k in range(m)]
    assert_rel_close(batch, serial, 1e-12)


def test_single_vector_gives_scalar():
    """A single parameter vector evaluates to one value, as in a batch of one."""
    problem = cluster_problem(CFG, Z, graph_preset("linear"))
    x = np.linspace(0.01, 0.05, 15)
    single = problem.fitness(x)
    assert np.ndim(single) == 0
    assert single == problem.fitness(x[None, :])[0]


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 6))
def test_stacked_propagators_bit_equal(seed, m, n):
    """Each propagator of a (m, 2, ...) pump stack, and of one pump over an
    array of z, is propagator_exact's, bit for bit."""
    rng = np.random.default_rng(seed)
    cfg = ArrayConfig(n=n, coupling=rng.uniform(0.0, 0.5), length=10.0)
    z = rng.uniform(0.0, 10.0)
    amp, phases = random_pumps(rng, 2 * m, z=max(z, 1e-3), n=n)
    stack = propagators(cfg, amp.reshape(m, 2, n), phases.reshape(m, 2, n), z)
    assert stack.shape == (m, 2, 2 * n, 2 * n)
    flat = stack.reshape(2 * m, 2 * n, 2 * n)
    for k in range(2 * m):
        single = propagator_exact(cfg, PumpProfile(amp[k], phases[k]), z).propagator
        assert np.array_equal(flat[k], single)
    # one pump over an array of distances, as a z sweep evaluates it
    zs = np.append(rng.uniform(0.0, 10.0, m), 0.0)
    sweep = propagators(cfg, amp[0], phases[0], zs)
    assert sweep.shape == (m + 1, 2 * n, 2 * n)
    for k, zk in enumerate(zs):
        single = propagator_exact(cfg, PumpProfile(amp[0], phases[0]), zk).propagator
        assert np.array_equal(sweep[k], single)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_combination_variance_matches_dlo_form(seed, n):
    """The element-wise LO rotation equals the dense d_lo(theta) rotation."""
    rng = np.random.default_rng(seed)
    cfg = ArrayConfig(n=n, coupling=0.24, length=Z)
    amp, phases = random_pumps(rng, 1, n=n)
    v = propagator_exact(cfg, PumpProfile(amp[0], phases[0]), Z).covariance
    c = rng.uniform(-2.0, 2.0, 2 * n)
    theta = rng.uniform(-np.pi, np.pi, n)
    w = d_lo(theta).T @ c
    reference = w @ v @ w
    got = combination_variance(
        propagator_exact(cfg, PumpProfile(amp[0], phases[0]), Z),
        QuadratureCombination(c, theta),
    )
    assert abs(got - reference) <= 1e-12 * max(1.0, np.abs(v).max())
