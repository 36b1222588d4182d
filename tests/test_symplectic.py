"""Unit tests for the symplectic linear-algebra kernel."""
import importlib.machinery
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anwsim
from anwsim import (
    SYMPLECTIC_TOL,
    ArrayConfig,
    PumpProfile,
    bloch_messiah,
    bogoliubov_to_symplectic,
    d_lo,
    euler_orthogonal,
    mat_exp,
    omega,
    orthogonal_to_euler,
    propagator_exact,
    propagators,
    require_symplectic,
    symplectic_error,
    symplectic_to_bogoliubov,
    takagi,
    unitary_to_symplectic,
)

np.random.seed(42)


def random_symplectic(rng, n, scale=0.4):
    """Symplectic matrix from a random quadratic Hamiltonian."""
    h = rng.standard_normal((2 * n, 2 * n))
    h = 0.5 * (h + h.T) * scale
    return mat_exp(omega(n) @ h)


def random_unitary(rng, n):
    """Haar-ish unitary from the QR of a complex Gaussian matrix."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestOmega:
    """Symplectic form construction and algebra."""

    def test_blocks(self):
        """Omega has the [[0, I], [-I, 0]] block layout."""
        n = 3
        om = omega(n)
        assert np.array_equal(om[:n, n:], np.eye(n))
        assert np.array_equal(om[n:, :n], -np.eye(n))
        assert np.array_equal(om[:n, :n], np.zeros((n, n)))

    def test_squares_to_minus_identity(self):
        """Omega^2 = -I for any mode count."""
        for n in (1, 2, 5):
            om = omega(n)
            assert np.array_equal(om @ om, -np.eye(2 * n))


class TestSymplecticCheck:
    """symplectic_error and require_symplectic."""

    def test_identity_is_symplectic(self):
        """The identity passes with zero error."""
        assert symplectic_error(np.eye(6)) == 0.0
        require_symplectic(np.eye(6))

    def test_scaled_identity_rejected(self):
        """Uniform scaling breaks the symplectic form."""
        with pytest.raises(ValueError, match="matrix is not symplectic"):
            require_symplectic(1.5 * np.eye(4))

    def test_odd_dimension_rejected(self):
        """Odd-dimensional input cannot be symplectic."""
        with pytest.raises(ValueError, match="even square matrix"):
            require_symplectic(np.eye(3))

    def test_overflowed_slice_rejected(self):
        """A stack holding one finite propagator and one overflowed one
        (NaN defect) is refused as not finite. The overflowed one comes
        from the unchecked stacked kernel: propagator_exact refuses it."""
        cfg = ArrayConfig(5, 0.24, 30.0)
        good = propagator_exact(cfg, PumpProfile.flat(5, 0.015), 30.0).propagator
        bad = propagators(cfg, np.full(5, 30.0), np.zeros(5), 30.0)
        assert np.isnan(symplectic_error(bad))
        require_symplectic(good)
        with pytest.raises(ValueError, match="not finite"):
            require_symplectic(np.stack([good, bad]))

    def test_random_symplectic_passes(self):
        """Exponentials of Hamiltonian generators pass the check."""
        rng = np.random.default_rng(7)
        for n in (1, 3, 8):
            s = random_symplectic(rng, n)
            assert symplectic_error(s) < SYMPLECTIC_TOL


class TestMatExp:
    """Matrix exponential wrapper."""

    def test_rotation_generator(self):
        """exp of the 2x2 rotation generator gives the rotation matrix."""
        t = 0.7
        g = np.array([[0.0, -t], [t, 0.0]])
        expected = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        assert np.allclose(mat_exp(g), expected, atol=1e-14, rtol=0)

    def test_non_square_rejected(self):
        """Rectangular input raises."""
        with pytest.raises(ValueError, match="matrix must be square"):
            mat_exp(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="matrix must be square"):
            mat_exp(np.zeros((4, 2, 3)))
        with pytest.raises(ValueError, match="matrix must be square"):
            mat_exp(np.zeros(3))

    def test_overflow_is_quiet_and_refused(self):
        """The unpumped 5-guide propagator over 1e20 mm overflows expm's
        squaring without a numpy warning (an error under this suite's
        filter), and the non-finite result is refused."""
        cfg = ArrayConfig(n=5, coupling=0.24, length=30.0)
        s = propagators(cfg, np.zeros(5), np.zeros(5), 1e20)
        assert not np.isfinite(s).all()
        with pytest.raises(ValueError, match="not finite"):
            require_symplectic(s)

    def test_stack_equals_slices(self):
        """A (..., m, m) stack exponentiates each slice bit for bit."""
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((3, 4, 6, 6)) * rng.uniform(0.1, 3.0, (3, 4, 1, 1))
        out = mat_exp(stack)
        assert out.shape == stack.shape
        for idx in np.ndindex(3, 4):
            assert np.array_equal(out[idx], mat_exp(stack[idx]))

    def test_propagation_leaves_out_scipy_linalg(self):
        """A fresh interpreter propagates a flat pump, alone and over a z
        sweep from 0, without importing scipy.linalg; imported afterwards,
        its expm still equals mat_exp bit for bit on a general and a
        diagonal stack."""
        src = str(Path(anwsim.__file__).resolve().parents[1])
        code = "\n".join([
            "import sys",
            "import numpy as np",
            "import anwsim",
            "cfg = anwsim.ArrayConfig(n=5, coupling=0.24, length=30.0)",
            "anwsim.propagator_exact(cfg, anwsim.PumpProfile.flat(5, 0.015), 30.0)",
            "anwsim.propagators(cfg, np.full(5, 0.015), np.zeros(5), np.linspace(0, 30, 7))",
            "print('scipy.linalg' in sys.modules, '_matfuncs_expm' in sys.modules)",
            "from scipy.linalg import expm",
            "rng = np.random.default_rng(0)",
            "general = rng.standard_normal((3, 6, 6))",
            "diagonal = np.einsum('ki,ij->kij', rng.standard_normal((3, 6)), np.eye(6))",
            "print(all(np.array_equal(anwsim.mat_exp(a), expm(a)) for a in (general, diagonal)))",
        ])
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
        )
        assert out.stdout.split() == ["False", "False", "True"]

    def test_missing_kernels_name_the_scipy_floor(self, monkeypatch):
        """If scipy's layout changes and the Pade kernel file is gone, the
        ImportError names the installed scipy and pyproject's floor."""
        import scipy

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        floor = re.search(r'"scipy>=([^"]+)"', pyproject.read_text()).group(1)
        find_spec = importlib.machinery.PathFinder.find_spec

        def no_kernels(name, path=None, target=None):
            return None if name == "_matfuncs_expm" else find_spec(name, path, target)

        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", no_kernels)
        with pytest.raises(ImportError, match="Pade kernels") as err:
            anwsim.symplectic._load_expm_kernels()
        assert f"scipy {scipy.__version__} is installed" in str(err.value)
        assert f"scipy>={floor}" in str(err.value)


class TestTakagi:
    """Autonne-Takagi factorization of complex symmetric matrices."""

    def test_square_validation(self):
        """Non-square input raises."""
        with pytest.raises(ValueError, match="matrix must be square"):
            takagi(np.zeros((4, 5)))

    def test_symmetric_validation(self):
        """Asymmetric input raises."""
        a = np.random.random((5, 5)) + 1j * np.random.random((5, 5))
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            takagi(a)

    @pytest.mark.parametrize("n", [1, 2, 6, 16])
    def test_random_reconstruction(self, n):
        """U^dag diag(values) U^* reproduces a random symmetric matrix."""
        rng = np.random.default_rng(n)
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = w + w.T
        fac = takagi(w)
        assert np.allclose(fac.reconstruct(), w, atol=1e-12 * max(1, n), rtol=0)
        assert np.allclose(fac.unitary @ fac.unitary.conj().T, np.eye(n), atol=1e-12, rtol=0)

    def test_values_real_nonnegative_descending(self):
        """Singular values come back sorted high to low and nonnegative."""
        rng = np.random.default_rng(5)
        w = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        w = w + w.T
        fac = takagi(w)
        assert np.all(fac.values >= 0)
        assert np.all(np.diff(fac.values) <= 0)
        assert np.allclose(fac.values, np.linalg.svd(w, compute_uv=False), atol=1e-12, rtol=0)

    def test_rank_deficient(self):
        """A rank-one symmetric matrix still factorizes with a unitary."""
        v = np.array([1.0, 1j, -0.5, 0.25])
        w = np.outer(v, v)
        fac = takagi(w)
        assert np.allclose(fac.reconstruct(), w, atol=1e-13, rtol=0)
        assert np.allclose(fac.unitary @ fac.unitary.conj().T, np.eye(4), atol=1e-13, rtol=0)
        assert np.sum(fac.values > 1e-12) == 1

    def test_degenerate_real(self):
        """Highly degenerate real symmetric input keeps the unitary unitary."""
        a = np.zeros((7, 7))
        # adjacency of a small balanced tree: degenerate spectrum
        for i, j in ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)):
            a[i, j] = a[j, i] = 1.0
        fac = takagi(a)
        assert np.allclose(fac.unitary @ fac.unitary.conj().T, np.eye(7), atol=1e-12, rtol=0)
        assert np.allclose(fac.reconstruct(), a, atol=1e-12, rtol=0)

    def test_zeros(self):
        """The zero matrix gives zero values and a unitary factor."""
        fac = takagi(np.zeros((4, 4)))
        assert np.allclose(fac.values, 0.0, atol=0, rtol=0)
        assert np.allclose(fac.unitary @ fac.unitary.conj().T, np.eye(4), atol=1e-14, rtol=0)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_reconstruction_property(self, seed, n):
        """Reconstruction holds for arbitrary random symmetric matrices."""
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = w + w.T
        fac = takagi(w)
        assert np.allclose(fac.reconstruct(), w, atol=1e-11, rtol=0)


class TestEulerOrthogonal:
    """Euler-angle parametrization of SO(N) and its inverse."""

    def test_angle_count_validation(self):
        """Wrong number of angles raises."""
        with pytest.raises(ValueError, match="expected 10 angles"):
            euler_orthogonal(np.zeros(9), 5)

    def test_zero_angles_identity(self):
        """All-zero angles give the identity rotation."""
        assert np.allclose(euler_orthogonal(np.zeros(10), 5), np.eye(5), atol=0, rtol=0)

    def test_special_orthogonal(self):
        """The parametrized matrix is orthogonal with determinant +1."""
        rng = np.random.default_rng(3)
        for n in (2, 4, 7):
            o = euler_orthogonal(rng.uniform(-np.pi, np.pi, n * (n - 1) // 2), n)
            assert np.allclose(o @ o.T, np.eye(n), atol=1e-12, rtol=0)
            assert np.isclose(np.linalg.det(o), 1.0, atol=1e-12, rtol=0)

    def test_round_trip(self):
        """orthogonal_to_euler inverts euler_orthogonal at the matrix level."""
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 8):
            o = euler_orthogonal(rng.uniform(-np.pi, np.pi, n * (n - 1) // 2), n)
            angles = orthogonal_to_euler(o)
            assert np.allclose(euler_orthogonal(angles, n), o, atol=1e-12, rtol=0)

    def test_reflection_rejected(self):
        """Determinant -1 input has no Euler-angle preimage."""
        o = np.eye(4)
        o[-1, -1] = -1.0
        with pytest.raises(ValueError, match="determinant -1"):
            orthogonal_to_euler(o)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 9))
    def test_round_trip_property(self, seed, n):
        """Random rotations survive the angle round trip."""
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        if np.linalg.det(q) < 0:
            q[:, -1] = -q[:, -1]
        angles = orthogonal_to_euler(q)
        assert np.allclose(euler_orthogonal(angles, n), q, atol=1e-11, rtol=0)


class TestDLo:
    """Local-oscillator phase rotations."""

    def test_zero_is_identity(self):
        """theta = 0 rotates nothing."""
        assert np.allclose(d_lo(np.zeros(4)), np.eye(8), atol=0, rtol=0)

    def test_composition(self):
        """Phase rotations compose additively."""
        rng = np.random.default_rng(2)
        a, b = rng.uniform(-np.pi, np.pi, (2, 3))
        assert np.allclose(d_lo(a) @ d_lo(b), d_lo(a + b), atol=1e-14, rtol=0)

    def test_rotated_quadrature_convention(self):
        """Row i of d_lo realizes x(theta) = cos(theta) x + sin(theta) y."""
        theta = np.array([0.3, -1.2])
        d = d_lo(theta)
        assert np.allclose(d[0, [0, 2]], [np.cos(0.3), np.sin(0.3)], atol=1e-15, rtol=0)
        assert np.allclose(d[2, [0, 2]], [-np.sin(0.3), np.cos(0.3)], atol=1e-15, rtol=0)

    def test_symplectic_orthogonal(self):
        """The rotation is both symplectic and orthogonal."""
        d = d_lo(np.array([0.4, 1.1, -2.0]))
        require_symplectic(d)
        assert np.allclose(d @ d.T, np.eye(6), atol=1e-14, rtol=0)

    def test_vector_validation(self):
        """Matrix-valued input raises."""
        with pytest.raises(ValueError, match="theta must be a vector"):
            d_lo(np.zeros((2, 2)))


class TestBogoliubov:
    """Conversions between quadrature and mode-operator pictures."""

    def test_unitary_embedding(self):
        """A unitary maps to an orthogonal symplectic matrix."""
        rng = np.random.default_rng(4)
        u = random_unitary(rng, 4)
        s = unitary_to_symplectic(u)
        require_symplectic(s)
        assert np.allclose(s @ s.T, np.eye(8), atol=1e-12, rtol=0)

    def test_round_trip(self):
        """symplectic -> (E, F) -> symplectic is the identity."""
        rng = np.random.default_rng(9)
        s = random_symplectic(rng, 3)
        e, f = symplectic_to_bogoliubov(s)
        assert np.allclose(bogoliubov_to_symplectic(e, f), s, atol=1e-12, rtol=0)

    def test_passive_has_no_anomalous_block(self):
        """Orthogonal symplectic matrices have F = 0."""
        u = random_unitary(np.random.default_rng(1), 3)
        e, f = symplectic_to_bogoliubov(unitary_to_symplectic(u))
        assert np.allclose(f, 0.0, atol=1e-14, rtol=0)
        assert np.allclose(e, u, atol=1e-14, rtol=0)

    def test_bogoliubov_identities(self):
        """E E^dag - F F^dag = I and E F^T symmetric for symplectic input."""
        s = random_symplectic(np.random.default_rng(12), 4)
        e, f = symplectic_to_bogoliubov(s)
        assert np.allclose(e @ e.conj().T - f @ f.conj().T, np.eye(4), atol=1e-11, rtol=0)
        assert np.allclose(e @ f.T, (e @ f.T).T, atol=1e-11, rtol=0)


class TestBlochMessiah:
    """Passive-squeezer-passive factorization."""

    def test_non_symplectic_rejected(self):
        """Input violating the symplectic form raises."""
        with pytest.raises(ValueError, match="matrix is not symplectic"):
            bloch_messiah(2.0 * np.eye(4))

    def test_overflowing_tolerance_refused(self):
        """A propagator whose largest entry squared overflows (a flat 8 mm^-1
        pump over 30 mm) is refused as not finite, without the tolerance's
        overflow warning (an error under this suite's filter)."""
        cfg = ArrayConfig(5, 0.24, 30.0)
        s = propagators(cfg, np.full(5, 8.0), np.zeros(5), 30.0)
        assert np.isfinite(s).all()
        assert np.abs(s).max() > np.sqrt(np.finfo(float).max)
        with pytest.raises(ValueError, match="matrix is not symplectic: it is not finite"):
            bloch_messiah(s)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_reconstruction(self, n):
        """passive_out @ squeezer @ passive_in reproduces the input."""
        rng = np.random.default_rng(n + 100)
        s = random_symplectic(rng, n)
        fac = bloch_messiah(s)
        assert np.allclose(fac.reconstruct(), s, atol=1e-10, rtol=0)

    def test_factors_are_orthogonal_symplectic(self):
        """Both passive factors are rotations in phase space."""
        s = random_symplectic(np.random.default_rng(21), 4)
        fac = bloch_messiah(s)
        for p in (fac.passive_out, fac.passive_in):
            require_symplectic(p)
            assert np.allclose(p @ p.T, np.eye(8), atol=1e-11, rtol=0)

    def test_squeezer_structure(self):
        """The middle factor is diag(e^r, e^-r) with descending gains."""
        s = random_symplectic(np.random.default_rng(33), 3)
        fac = bloch_messiah(s)
        k = fac.squeezer
        assert np.allclose(k, np.diag(np.concatenate([np.exp(fac.gains), np.exp(-fac.gains)])),
                           atol=1e-13, rtol=0)
        assert np.all(np.diff(fac.gains) <= 1e-12)
        assert np.all(fac.gains >= -1e-12)

    def test_passive_input_gains_vanish(self):
        """A passive transform decomposes with zero squeezing."""
        u = random_unitary(np.random.default_rng(2), 4)
        fac = bloch_messiah(unitary_to_symplectic(u))
        assert np.allclose(fac.gains, 0.0, atol=1e-12, rtol=0)

    def test_single_mode_squeezer(self):
        """diag(e^r, e^-r) recovers its own gain."""
        r = 0.8
        s = np.diag([np.exp(r), np.exp(-r)])
        fac = bloch_messiah(s)
        assert np.isclose(fac.gains[0], r, atol=1e-12, rtol=0)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_reconstruction_property(self, seed, n):
        """Factorization holds across random Gaussian transforms."""
        rng = np.random.default_rng(seed)
        s = random_symplectic(rng, n)
        fac = bloch_messiah(s)
        assert np.allclose(fac.reconstruct(), s, atol=1e-9, rtol=0)
