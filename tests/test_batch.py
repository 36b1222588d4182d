"""Batched evaluation paths against their one-at-a-time counterparts."""
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anwsim import (
    PRESETS,
    ArrayConfig,
    PumpProfile,
    QuadratureCombination,
    bloch_messiah,
    cluster_problem,
    cluster_transform,
    combination_variance,
    d_lo,
    euler_orthogonal,
    fitness_FC,
    fitness_FM,
    graph_preset,
    optimize,
    propagator_exact,
    propagators,
    symplectic_error,
    synthesize_emulation,
    takagi,
    unitary_to_symplectic,
    vlf_problem,
)
from anwsim.optimize import _nearest_phase_rotation, _wrap_angle
from anwsim.symplectic import _passive_out, _takagi

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
    # one pump over an array of distances, as a z sweep evaluates it; the
    # pump keeps eta * z <= 2 up to the longest distance, 10
    zs = np.append(rng.uniform(0.0, 10.0, m), 0.0)
    amp, phases = random_pumps(rng, 1, z=10.0, n=n)
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


# ---------------------------------------------------------------------------
# F_P: stacked factorizations and the batched phase-rotation solve


class _Captured(Exception):
    pass


@cache
def reduced_fp(preset):
    """The reduced F_P fitness synthesize_emulation hands to the ES."""
    original = optimize.evolve

    def intercept(problem, *args, **kwargs):
        raise _Captured(problem.fitness)

    optimize.evolve = intercept
    try:
        synthesize_emulation(CFG, Z, graph_preset(preset), restarts=1, generations=0)
    except _Captured as got:
        return got.args[0]
    finally:
        optimize.evolve = original
    raise AssertionError("synthesize_emulation did not call evolve")


def fp_per_row(preset, p):
    """The per-row reduced F_P: Bloch-Messiah R1, Euler mixing, one
    single-matrix phase-rotation solve."""
    amp = p[:5]
    phases = _wrap_angle(p[5:10] + np.where(amp < 0, np.pi, 0.0))
    state = propagator_exact(CFG, PumpProfile(np.abs(amp), phases), Z)
    r1 = bloch_messiah(state.propagator).passive_out
    u1 = r1[:5, :5] + 1j * r1[5:, :5]
    w = cluster_transform(graph_preset(preset)).unitary @ euler_orthogonal(p[10:], 5) @ u1.conj().T
    return np.sqrt(2.0) * _nearest_phase_rotation(w)[2]


def fp_points(rng, m):
    """m reduced F_P vectors; amplitudes may be negative (a pi phase shift)."""
    return np.concatenate(
        [rng.uniform(-0.02, 2.0 / Z, (m, 5)), rng.uniform(-np.pi, np.pi, (m, 15))], axis=1
    )


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from(PRESETS))
def test_fp_batch_equals_per_row(seed, m, preset):
    """The batched reduced F_P matches the per-row formula, with an unpumped
    row (zero-space completion) and a flat-pump row (tied gains) mixed in."""
    rng = np.random.default_rng(seed)
    x = fp_points(rng, m + 2)
    x[m, :5] = 0.0
    x[m + 1, :10] = np.concatenate([np.full(5, 0.02), np.full(5, -np.pi / 2)])
    batch = reduced_fp(preset)(x)
    assert batch.shape == (m + 2,)
    assert_rel_close(batch, [fp_per_row(preset, row) for row in x], 1e-12)


def test_fp_single_vector_gives_float():
    """One F_P vector evaluates to a Python float equal to its batch row."""
    x = fp_points(np.random.default_rng(3), 4)
    fitness = reduced_fp("linear")
    single = fitness(x[2])
    assert type(single) is float
    assert single == fitness(x)[2]
    assert fitness(x.reshape(2, 2, -1)).shape == (2, 2)


def cap_row():
    """A unitary whose polar sweeps run into the _POLAR_SWEEPS cap."""
    rng = np.random.default_rng(94)
    amp, phases = rng.uniform(0.0, 2.0 / Z, 5), rng.uniform(-np.pi, np.pi, 5)
    r1 = bloch_messiah(propagator_exact(CFG, PumpProfile(amp, phases), Z).propagator).passive_out
    u1 = r1[:5, :5] + 1j * r1[5:, :5]
    o = euler_orthogonal(rng.uniform(-np.pi, np.pi, 10), 5)
    return cluster_transform(graph_preset("pentagon")).unitary @ o @ u1.conj().T


def test_phase_rotation_stack_equals_slices(monkeypatch):
    """A stack mixing a sweep-capped row, a degenerate (real orthogonal) row
    and fast rows solves each row as the single-matrix call does."""
    w_cap = cap_row()
    capped = _nearest_phase_rotation(w_cap)
    monkeypatch.setattr(optimize, "_POLAR_SWEEPS", optimize._POLAR_SWEEPS - 1)
    assert _nearest_phase_rotation(w_cap)[2] != capped[2], "row no longer hits the cap"
    monkeypatch.undo()

    rng = np.random.default_rng(1)
    fast = [np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
            for _ in range(3)]
    degenerate = euler_orthogonal(rng.uniform(-np.pi, np.pi, 10), 5).astype(complex)
    w = np.stack([fast[0], w_cap, fast[1], degenerate, fast[2]])
    p, theta, dist = _nearest_phase_rotation(w)
    assert p.shape == (5, 5, 5) and theta.shape == (5, 5) and dist.shape == (5,)
    for k in range(5):
        pk, tk, dk = _nearest_phase_rotation(w[k])
        assert isinstance(dk, float)
        assert np.array_equal(p[k], pk) and np.array_equal(theta[k], tk) and dist[k] == dk


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7))
def test_phase_rotation_recovers_product_form(seed, n):
    """W = P diag(exp(-i theta)) with P special orthogonal is at distance 0."""
    rng = np.random.default_rng(seed)
    p = euler_orthogonal(rng.uniform(-np.pi, np.pi, n * (n - 1) // 2), n)
    w = p * np.exp(-1j * rng.uniform(-np.pi, np.pi, n))[None, :]
    p_fit, _, dist = _nearest_phase_rotation(w)
    assert dist < 1e-12
    assert np.isclose(np.linalg.det(p_fit), 1.0, atol=1e-12, rtol=0)


def symmetric_stack(rng, m, n):
    """Random complex symmetric matrices, one of them zero and one of rank one."""
    w = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    w = w + np.swapaxes(w, -1, -2)
    w[0] = 0.0
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w[-1] = np.outer(v, v)
    return w


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 6))
def test_stacked_takagi_equals_slices(seed, m, n):
    """The stacked Takagi gives each slice's values and unitary, bit for bit,
    and the zero and rank-one slices still factorize with a unitary."""
    w = symmetric_stack(np.random.default_rng(seed), m, n)
    values, u = _takagi(w.reshape(m, 1, n, n))
    assert values.shape == (m, 1, n) and u.shape == (m, 1, n, n)
    for k in range(m):
        fac = takagi(w[k])
        assert np.array_equal(values[k, 0], fac.values)
        assert np.array_equal(u[k, 0], fac.unitary)
        assert np.allclose(fac.unitary @ fac.unitary.conj().T, np.eye(n), atol=1e-12, rtol=0)
        assert np.allclose(fac.reconstruct(), w[k], atol=1e-11, rtol=0)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_stacked_passive_out_equals_bloch_messiah(seed, m):
    """Stacked gains and R1 equal bloch_messiah's, slice by slice."""
    rng = np.random.default_rng(seed)
    amp, phases = random_pumps(rng, m)
    amp[0] = 0.0
    s = propagators(CFG, amp, phases, Z)
    gains, w_out = _passive_out(s)
    for k in range(m):
        bm = bloch_messiah(s[k])
        assert np.array_equal(gains[k], bm.gains)
        assert np.array_equal(unitary_to_symplectic(w_out[k]), bm.passive_out)


def test_stacked_symplecticity_check_per_slice():
    """Each slice keeps bloch_messiah's own tolerance, max(1e-8, 1e-10 max|S|^2):
    a defect of 2e-6 passes on a slice with max|S| = 1e3 and one of 2e-7
    fails on the identity, wherever they sit in the stack."""
    n = 5
    big = np.diag(np.concatenate([np.full(n, 1e3), np.full(n, 1e-3)]))
    small = np.eye(2 * n)
    # a uniform scale 1 + eps keeps E F^T symmetric and has defect 2 eps
    off_big, off_small = big * (1 + 1e-6), small * (1 + 1e-7)
    assert 1e-8 < symplectic_error(off_big) < 1e-4 and symplectic_error(off_small) > 1e-8
    for stack, ok in (([big, off_big], True), ([small, off_big], True),
                      ([off_small, big], False), ([big, small, off_small], False)):
        raised = []
        for s in stack:
            try:
                bloch_messiah(s)
            except ValueError as exc:
                raised.append(str(exc))
        assert bool(raised) != ok and all("not symplectic" in e for e in raised)
        if ok:
            _passive_out(np.stack(stack))
        else:
            with pytest.raises(ValueError, match="matrix is not symplectic"):
                _passive_out(np.stack(stack))


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 7))
def test_stacked_euler_equals_slices(seed, m, n):
    """A stack of Euler angle vectors gives each vector's matrix, bit for bit."""
    angles = np.random.default_rng(seed).uniform(-np.pi, np.pi, (m, 2, n * (n - 1) // 2))
    stack = euler_orthogonal(angles, n)
    assert stack.shape == (m, 2, n, n)
    for k in range(m):
        for j in range(2):
            assert np.array_equal(stack[k, j], euler_orthogonal(angles[k, j], n))
