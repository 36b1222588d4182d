"""Property tests: config round-trips, basis-change invariants, stacked
measurement, symplecticity and matrix-exponential paths that must agree
with their one-item counterparts bit for bit, and the powered RK4 against
a step loop."""
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.linalg._matfuncs_expm import pick_pade_structure

from anwsim import (
    ArrayConfig,
    GaussianState,
    PumpProfile,
    bloch_messiah,
    change_basis,
    mat_exp,
    min_variance,
    min_variances,
    omega,
    parse_config,
    propagators,
    propagator_exact,
    propagator_no_ordering,
    quad_generator,
    require_symplectic,
    rk4_propagate_batch,
    squeezing_db,
    symplectic_error,
    symplectic_to_bogoliubov,
    takagi,
    unitary_to_symplectic,
)
from anwsim.config import PRESETS
from anwsim.model import _no_ordering_propagators
from anwsim.symplectic import SYMPLECTIC_TOL, _defects, _squeezing_gains, _squeezing_product

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


def _general(rng, n, norm, band):
    """Integer pattern with entries above and below the diagonal, scaled to
    a 1-norm of at least ``norm`` by a whole factor (so it stays exact in
    an integer dtype); ``band`` keeps it tridiagonal."""
    g = rng.integers(-3, 4, (n, n))
    if band:
        g = np.triu(np.tril(g, 1), -1).clip(-1, 1)
    g[1, 0], g[0, 1] = 1, -1
    return g * max(1, int(np.ceil(norm / np.abs(g).sum(axis=0).max())))


BAND = {"diagonal": lambda g: np.diag(np.diag(g)), "upper": np.triu, "lower": np.tril}


def _slice(rng, n, kind, cplx):
    """One integer slice of ``kind``, or with ``cplx`` a complex one."""
    if kind == "zero":
        return np.zeros((n, n), dtype=int)
    if kind in BAND:
        # 1-norm from 0.1 to under 704, both parts together (_general
        # overshoots its norm by at most 3n): ||expm(a)|| <= exp(||a||_1)
        # stays finite, and so every real diagonal part is under 704; the
        # imaginary part keeps the real part's band
        top = 320.0 if cplx else 680.0
        a, b = (
            BAND[kind](_general(rng, n, 10.0 ** rng.uniform(-1, np.log10(top)), band=False))
            for _ in range(2)
        )
        return a + 1j * b if cplx else a
    if kind == "small":  # 1-norm at most 3: no squaring
        a = _general(rng, n, 0, band=True)
    elif kind == "large":  # 1-norm from 200 to under 709: 5 or more squarings, finite
        a = _general(rng, n, rng.uniform(200, 600), band=False)
    else:  # overflow: eigenvalue real parts 1000, exp passes the float range
        a = 1000 * np.eye(n, dtype=int) + np.eye(n, k=1, dtype=int) - np.eye(n, k=-1, dtype=int)
    return a + 1j * rng.permutation(a) if cplx else a


BANDED = ("zero", "diagonal", "upper", "lower")


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 8),
    st.sampled_from(["float64", "complex128", "int64"]),
    st.one_of(
        st.sampled_from(BANDED + ("small", "large", "overflow")).map(lambda k: [k]),
        st.lists(st.sampled_from(BANDED), min_size=3, max_size=3).map(
            lambda b: b + ["small", "large", "overflow"]
        ),
    ),
)
def test_mat_exp_bit_equal_to_expm(seed, n, dtype, kinds):
    """Each slice of a stack equals scipy.linalg.expm of that slice, bit for
    bit and nan for nan: zero, diagonal and triangular slices, slices from
    0 to 5 or more squarings, and an overflowed slice among finite ones.
    One kind gives a single matrix, six a (2, 3) stack in drawn order."""
    rng = np.random.default_rng(seed)
    slices = [_slice(rng, n, k, dtype == "complex128") for k in kinds]
    order = rng.permutation(len(kinds))
    stack = np.array([slices[i] for i in order]).astype(dtype)
    if len(kinds) > 1:
        work = np.zeros((2, 5, n, n), dtype=complex if dtype == "complex128" else float)
        work[:, 0] = [slices[kinds.index("small")], slices[kinds.index("large")]]
        small, large = (pick_pade_structure(w)[1] for w in work)
        assert small == 0 and large >= 5
        stack = stack.reshape(2, 3, n, n)
    else:
        stack = stack[0]
    out = mat_exp(stack)
    assert out.shape == stack.shape and out.dtype == expm(np.eye(2, dtype=dtype)).dtype
    flat, want = out.reshape(-1, n, n), stack.reshape(-1, n, n)
    for k, i in enumerate(order):
        with np.errstate(over="ignore", invalid="ignore"):
            ref = expm(want[k])
        assert np.array_equal(flat[k], ref, equal_nan=True), kinds[i]
        assert np.isfinite(ref).all() != (kinds[i] == "overflow")


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.floats(0.0, 3.0), st.booleans())
def test_propagator_gain_bound(seed, n, gain, flat):
    """||expm(Qz)||_2 <= exp(2 max_k a_k z): the symmetric part of Q is the
    pump term alone, with eigenvalues +-2 a_k. A zero pump gives an
    orthogonal S, which sits on the bound, hence the roundoff slack. The
    gain max_k a_k z runs to 3, the default ceiling 0.1/mm at 30 mm; near
    3.4 a flat pump's S already fails require_symplectic."""
    rng = np.random.default_rng(seed)
    cfg = ArrayConfig(n=n, coupling=float(rng.uniform(0.0, 0.5)), length=30.0)
    z = float(rng.uniform(0.1, 60.0))
    amplitudes = np.ones(n) if flat else rng.uniform(0.0, 1.0, n)
    amplitudes *= gain / (z * amplitudes.max())
    pump = PumpProfile(amplitudes, rng.uniform(-np.pi, np.pi, n))
    s = propagator_exact(cfg, pump, z).propagator
    assert np.linalg.norm(s, 2) <= np.exp(2.0 * amplitudes.max() * z) * (1.0 + 1e-12)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 8),
    st.floats(0.0, 3.0),
    st.sampled_from(["random", "flat", "zero"]),
    st.integers(1, 4),
)
def test_squeezing_gains_are_takagi_values(seed, n, gain, first, m):
    """The singular-value gains of a stack of propagators agree with
    arcsinh(2 takagi(E F^T).values)/2 within 64 eps max(1, sigma_max), are
    nonnegative and non-increasing, equal the one-matrix call and
    bloch_messiah's gains bit for bit on every slice, and are exactly 0
    for S = I. Where the reference reads exactly 0, takagi has put the
    value in its zero space (1e-13 max(1, sigma_max)), so a gain up to
    that threshold is admitted there. The first pump is random, flat
    (degenerate supermodes) or zero; the gain max_k a_k z runs to 3, as in
    test_propagator_gain_bound."""
    rng = np.random.default_rng(seed)
    cfg = ArrayConfig(n=n, coupling=float(rng.uniform(0.0, 0.5)), length=30.0)
    z = float(rng.uniform(0.1, 60.0))
    amplitudes = rng.uniform(0.0, 1.0, (m, n))
    if first == "flat":
        amplitudes[0] = 1.0
    # the first pump reaches the drawn gain, the others a fraction of it
    reach = np.append(gain, rng.uniform(0.0, gain, m - 1))
    amplitudes *= (reach / (z * amplitudes.max(axis=1)))[:, None]
    if first == "zero":
        amplitudes[0] = 0.0
    s = propagators(cfg, amplitudes, rng.uniform(-np.pi, np.pi, (m, n)), z)
    gains = _squeezing_gains(_squeezing_product(s))
    assert gains.shape == (m, n)
    assert np.all(gains >= 0.0) and np.all(np.diff(gains, axis=1) <= 0.0)
    for k in range(m):
        assert np.array_equal(gains[k], _squeezing_gains(_squeezing_product(s[k])))
        assert np.array_equal(gains[k], bloch_messiah(s[k]).gains)
        e, f = symplectic_to_bogoliubov(s[k])
        values = takagi(e @ f.T).values
        scale = max(1.0, values.max())
        bound = 64 * np.finfo(float).eps * scale + np.where(values == 0.0, 1e-13 * scale, 0.0)
        assert np.all(np.abs(gains[k] - np.arcsinh(2.0 * values) / 2.0) <= bound)
    identity = np.broadcast_to(np.eye(2 * n), (m, 2 * n, 2 * n))
    assert np.array_equal(_squeezing_gains(_squeezing_product(identity)), np.zeros((m, n)))


@settings(deadline=None, max_examples=40)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 8),
    st.sampled_from([(1,), (3,), (2, 2)]),
    st.sampled_from(["random", "flat", "zero"]),
)
def test_no_ordering_stack_equals_one_pump(seed, n, lead, first):
    """Each slice of a stacked no-ordering propagator equals
    propagator_no_ordering of its own pump, bit for bit, with a random,
    flat or zero first pump among random ones (gain max a_k z up to 3)."""
    rng = np.random.default_rng(seed)
    cfg = ArrayConfig(n=n, coupling=float(rng.uniform(0.0, 0.5)), length=30.0)
    z = float(rng.uniform(0.0, 60.0))
    amplitudes = rng.uniform(0.0, 3.0 / max(z, 1.0), lead + (n,))
    phases = rng.uniform(-np.pi, np.pi, lead + (n,))
    first_pump = (0,) * len(lead)
    if first == "flat":
        amplitudes[first_pump], phases[first_pump] = amplitudes[first_pump][0], phases[first_pump][0]
    elif first == "zero":
        amplitudes[first_pump] = 0.0
    s = _no_ordering_propagators(cfg, amplitudes, phases, z)
    assert s.shape == lead + (2 * n, 2 * n)
    for k in np.ndindex(lead):
        state = propagator_no_ordering(cfg, PumpProfile(amplitudes[k], phases[k]), z)
        assert np.array_equal(s[k], state.propagator)


def _matmul_defects(s):
    """The defects as S Omega S^T - Omega with Omega as a matrix product."""
    om = omega(s.shape[-1] // 2)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(s @ om @ np.swapaxes(s, -1, -2) - om).max(axis=(-2, -1))


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.integers(1, 3),
    st.sampled_from(["inf", "nan", "huge"]),
)
def test_defects_equal_matmul_form(seed, n, count, overflow):
    """_defects equals the S @ Omega @ S^T - Omega form bit for bit, on a
    stack of symplectic, perturbed and arbitrary slices and one overflowed
    slice (an inf or nan entry, or entries whose product overflows): that
    slice is non-finite in both forms and refused with the same message."""
    rng = np.random.default_rng(seed)
    d = 2 * n
    h = rng.normal(size=(count, d, d))
    sym = mat_exp(omega(n) @ (h + np.swapaxes(h, -1, -2)) * rng.uniform(0.0, 1.0))
    perturbed = sym * (1.0 + rng.uniform(0.0, 1e-6, (count, 1, 1)))
    arbitrary = rng.normal(size=(count, d, d)) * 10.0 ** rng.uniform(-3, 3, (count, 1, 1))
    bad = rng.normal(size=(d, d))
    if overflow == "huge":
        bad *= 1e200
    else:
        bad[tuple(rng.integers(d, size=2))] = rng.choice([-np.inf, np.inf, np.nan])
    stack = np.concatenate([sym, perturbed, arbitrary, bad[None]])
    order = rng.permutation(len(stack))
    stack = stack[order]
    new, old = _defects(stack), _matmul_defects(stack)
    assert np.array_equal(new, old, equal_nan=True)
    assert np.flatnonzero(~np.isfinite(new)).tolist() == [int(np.argmax(order))]
    for k, s_k in enumerate(stack):
        assert np.array_equal(_defects(s_k), new[k], equal_nan=True)
    with pytest.raises(ValueError, match="^matrix is not symplectic: it is not finite$"):
        require_symplectic(stack)
    finite = stack[np.isfinite(new)]
    err = _matmul_defects(finite)
    if err.max() > SYMPLECTIC_TOL:
        want = f"matrix is not symplectic: deviation {err.max():.3e} > {SYMPLECTIC_TOL:.1e}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            require_symplectic(finite)
    else:
        require_symplectic(finite)


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
