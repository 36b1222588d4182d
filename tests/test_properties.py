"""Property tests: config round-trips, basis-change invariants, stacked
measurement and symplecticity paths that must agree with their one-item
counterparts bit for bit, and the powered RK4 against a step loop."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anwsim import (
    ArrayConfig,
    GaussianState,
    PumpProfile,
    bloch_messiah,
    change_basis,
    min_variance,
    min_variances,
    parse_config,
    propagators,
    propagator_exact,
    quad_generator,
    rk4_propagate_batch,
    squeezing_db,
    symplectic_error,
    unitary_to_symplectic,
)
from anwsim.config import PRESETS

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=1e-6, max_value=1e6)


def _floats(n):
    return st.lists(FINITE, min_size=n, max_size=n)


@st.composite
def scenarios(draw):
    """Plain dictionaries that pass the scenario schema, every section optional."""
    n = draw(st.integers(1, 6))
    array = {"n": n, "coupling": draw(FINITE), "length": draw(FINITE)}
    if draw(st.booleans()):
        array["profile"] = draw(_floats(n))
    d = {"array": array}
    if draw(st.booleans()):
        d["pump"] = {"amplitudes": draw(_floats(n))}
        if draw(st.booleans()):
            d["pump"]["phases_pi"] = draw(_floats(n))
    if draw(st.booleans()):
        d["measurement"] = {"lo_phases_pi": draw(_floats(n))}
        if draw(st.booleans()):
            d["measurement"]["gains"] = draw(_floats(n))
    if draw(st.booleans()):
        if n == 5 and draw(st.booleans()):
            d["graph"] = {"preset": draw(st.sampled_from(PRESETS))}
        else:
            row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
            d["graph"] = {
                "adjacency": draw(st.lists(row, min_size=n, max_size=n)),
                "name": draw(st.text(max_size=8)),
            }
        if draw(st.booleans()):
            d["graph"]["labeling"] = draw(st.permutations(range(1, n + 1)))
    if draw(st.booleans()):
        parents = draw(st.integers(1, 20))
        opt = {
            "fitness": draw(st.sampled_from(["FM", "FC", "FP"])),
            "parents": parents,
            "population": draw(st.integers(parents, 200)),
            "generations": draw(st.integers(0, 500)),
            "seed": draw(st.integers(-(2**40), 2**40)),
            "sigma0": draw(POSITIVE),
            "eta_max": draw(POSITIVE),
            "optimize_pump_phases": draw(st.booleans()),
        }
        if draw(st.booleans()):
            opt["restarts"] = draw(st.integers(1, 10))
        if draw(st.booleans()):
            opt["target"] = draw(FINITE)
        d["optimizer"] = opt
    if draw(st.booleans()):
        variable = draw(st.sampled_from(["z", "eta"]))
        if draw(st.booleans()):
            d["sweep"] = {"variable": variable, "values": draw(st.lists(FINITE, min_size=1, max_size=5))}
        else:
            start, stop = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))
            d["sweep"] = {"variable": variable, "start": start, "stop": stop,
                          "points": draw(st.integers(1, 7))}
    if draw(st.booleans()):
        d["output"] = {"directory": draw(st.text(max_size=12)),
                       "format": draw(st.sampled_from(["json", "csv"]))}
    return d


@settings(deadline=None, max_examples=200)
@given(scenarios())
def test_config_round_trip(data):
    """A parsed config echoes to a dictionary, and through JSON, that parses back to it."""
    cfg = parse_config(data)
    assert parse_config(cfg.to_dict()) == cfg
    assert parse_config(json.loads(json.dumps(cfg.to_dict()))) == cfg


def _random_state(rng, n):
    """State of a random pump with eta z <= 2, as in the acceptance random cases."""
    cfg = ArrayConfig(n=n, coupling=float(rng.uniform(0.0, 0.5)), length=30.0)
    pump = PumpProfile(rng.uniform(0.0, 2.0 / 30.0, n), rng.uniform(-np.pi, np.pi, n))
    return propagator_exact(cfg, pump, float(rng.uniform(0.0, 30.0)))


def _random_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_passive_basis_change_invariants(seed):
    """Photon number and Bloch-Messiah gains do not see a passive basis change."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    state = _random_state(rng, n)
    r = unitary_to_symplectic(_random_unitary(rng, n))
    rotated = change_basis(state, r, "linear_supermode")
    assert np.isclose(rotated.mean_photon_number, state.mean_photon_number, rtol=1e-10, atol=1e-12)
    assert np.allclose(
        bloch_messiah(rotated.propagator).gains,
        bloch_messiah(state.propagator).gains,
        rtol=0,
        atol=1e-9,
    )


def _sweep(seed):
    """Propagators and covariances of a z sweep from vacuum, plus its grid."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    cfg = ArrayConfig(n=n, coupling=float(rng.uniform(0.0, 0.5)), length=30.0)
    z = np.concatenate([[0.0], rng.uniform(0.0, 30.0, 6)])
    s = propagators(cfg, rng.uniform(0.0, 0.1, n), rng.uniform(-np.pi, np.pi, n), z)
    return z, s, s @ np.swapaxes(s, -1, -2)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_min_variances_bit_equal_min_variance(seed):
    """Every entry of the stacked per-mode minimum is the one-mode result, bit for bit."""
    z, s, cov = _sweep(seed)
    var, theta = min_variances(cov)
    assert var.shape == theta.shape == (len(z), s.shape[-1] // 2)
    for k in range(len(z)):
        state = GaussianState(float(z[k]), s[k], cov[k])
        for i in range(1, state.n + 1):
            assert (var[k, i - 1], theta[k, i - 1]) == min_variance(state, i)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_symplectic_error_is_worst_slice(seed):
    """The defect of a stack is the largest defect of its slices."""
    _, s, _ = _sweep(seed)
    rng = np.random.default_rng(seed)
    s[int(rng.integers(len(s)))] *= 1.0 + rng.uniform(0.0, 1e-6)
    assert symplectic_error(s) == max(symplectic_error(s_k) for s_k in s)
    assert symplectic_error(s[None, :2]) == symplectic_error(s[:2])


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=12))
def test_squeezing_db_elementwise(values):
    """Array dB equal the scalar ones; a zero entry anywhere is refused."""
    v = np.array(values)
    db = squeezing_db(v)
    assert isinstance(squeezing_db(values[0]), float)
    assert db.shape == v.shape
    assert all(db[i] == squeezing_db(x) for i, x in enumerate(values))
    with pytest.raises(ValueError, match="variance must be positive, got 0.0"):
        squeezing_db(np.insert(v, len(v) // 2, 0.0).reshape(-1, 1))


RK4_STEP = 1e-3
RK4_STEPS = st.one_of(
    st.integers(0, 5000), st.sampled_from([2**k + d for k in range(13) for d in (-1, 1)])
)


def _rk4_loop(q, steps, h):
    """Reference RK4, one step at a time."""
    s = np.eye(q.shape[0])
    for _ in range(steps):
        k1 = q @ s
        k2 = q @ (s + 0.5 * h * k1)
        k3 = q @ (s + 0.5 * h * k2)
        k4 = q @ (s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return s


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1), st.lists(RK4_STEPS, min_size=1, max_size=3))
def test_powered_rk4_equals_step_loop(seed, steps):
    """Powered RK4 rows agree with the step loop to 1e-12 max(1, max|S|), equal
    their one-row calls bit for bit, and are exactly I after zero steps."""
    rng = np.random.default_rng(seed)
    gens, zs = [], [k * RK4_STEP for k in steps]
    for z in zs:
        n = int(rng.integers(1, 6))
        cfg = ArrayConfig(n=n, coupling=float(rng.uniform(0.0, 0.5)), length=30.0)
        eta = rng.uniform(0.0, min(1.0, 2.0 / z) if z else 1.0, n)
        gens.append(quad_generator(cfg, PumpProfile(eta, rng.uniform(-np.pi, np.pi, n))))
    batch = rk4_propagate_batch(gens, np.array(zs), step=RK4_STEP)
    for q, z, k, s in zip(gens, zs, steps, batch):
        want = _rk4_loop(q, k, RK4_STEP)
        assert np.abs(s - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        assert np.array_equal(s, rk4_propagate_batch([q], np.array([z]), step=RK4_STEP)[0])
        if k == 0:
            assert np.array_equal(s, np.eye(q.shape[0]))
