"""Unit tests for homodyne measurement statistics."""
import numpy as np
import pytest

from anwsim import (
    ArrayConfig,
    GaussianState,
    PumpProfile,
    QuadratureCombination,
    change_basis,
    combination_variance,
    linear_supermodes,
    max_variance,
    min_variance,
    propagator_exact,
    squeezing_db,
    unitary_to_symplectic,
    variance_at,
)

np.random.seed(7)


def squeezer_state(r, alpha=0.0):
    """Single-mode squeezer of gain r with its axes rotated by alpha."""
    k = np.diag([np.exp(r), np.exp(-r)])
    rot = np.array([[np.cos(alpha), np.sin(alpha)], [-np.sin(alpha), np.cos(alpha)]])
    return GaussianState.from_propagator(0.0, rot.T @ k, basis="individual")


def two_mode_squeezer(r):
    """Two-mode squeezed vacuum from back-to-back beamsplitter/squeezers."""
    bs = unitary_to_symplectic(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    k = np.diag([np.exp(r), np.exp(-r), np.exp(-r), np.exp(r)])
    return GaussianState.from_propagator(0.0, bs @ k, basis="individual")


class TestValidation:
    """Input checking for measurement containers."""

    def test_combination_needs_2n_coefficients(self):
        """Coefficient vectors pair x and y entries per mode."""
        with pytest.raises(ValueError, match="need 2N coefficients"):
            QuadratureCombination([1.0, 0.0, 0.0], [0.0, 0.0])

    def test_combination_rejects_all_zero(self):
        """An empty combination has no variance to measure."""
        with pytest.raises(ValueError, match="at least one nonzero coefficient"):
            QuadratureCombination([0.0, 0.0], [0.0])

    def test_mode_index_is_one_based(self):
        """Mode 0 and mode N+1 are out of range."""
        state = squeezer_state(0.5)
        with pytest.raises(IndexError, match="mode index 0 out of range"):
            variance_at(state, 0, 0.0)
        with pytest.raises(IndexError, match="mode index 2 out of range"):
            min_variance(state, 2)

    def test_change_basis_requires_symplectic(self):
        """Arbitrary matrices are not valid basis changes."""
        state = squeezer_state(0.1)
        with pytest.raises(ValueError, match="matrix is not symplectic"):
            change_basis(state, 2 * np.eye(2), "individual")


class TestVarianceAt:
    """Rotated-quadrature variances of single modes."""

    def test_squeezer_axes(self):
        """theta = 0 reads the antisqueezed x, theta = pi/2 the squeezed y."""
        r = 0.7
        state = squeezer_state(r)
        assert np.isclose(variance_at(state, 1, 0.0), np.exp(2 * r), atol=1e-13, rtol=0)
        assert np.isclose(variance_at(state, 1, np.pi / 2), np.exp(-2 * r), atol=1e-13, rtol=0)

    def test_vacuum_is_isotropic(self):
        """Vacuum has unit variance at every angle."""
        state = GaussianState.from_propagator(0.0, np.eye(4))
        for theta in np.linspace(-np.pi, np.pi, 9):
            assert np.isclose(variance_at(state, 2, theta), 1.0, atol=1e-15, rtol=0)

    def test_periodicity(self):
        """Variances are pi-periodic in the LO phase."""
        state = squeezer_state(0.4, alpha=0.3)
        for theta in (0.2, 1.1, -2.2):
            assert np.isclose(variance_at(state, 1, theta),
                              variance_at(state, 1, theta + np.pi), atol=1e-13, rtol=0)


class TestExtremalVariances:
    """Minimum and maximum over the LO phase."""

    def test_min_max_product_pure_state(self):
        """Pure single-mode states saturate the uncertainty product."""
        state = squeezer_state(0.9, alpha=-0.8)
        vmin, _ = min_variance(state, 1)
        vmax, _ = max_variance(state, 1)
        assert np.isclose(vmin * vmax, 1.0, atol=1e-12, rtol=0)

    def test_rotated_squeezer_angle(self):
        """Rotating the squeezer rotates the optimal LO phase with it."""
        r, alpha = 0.6, 0.35
        state = squeezer_state(r, alpha=alpha)
        vmin, theta = min_variance(state, 1)
        assert np.isclose(vmin, np.exp(-2 * r), atol=1e-12, rtol=0)
        # variance_at(theta) depends on theta - alpha, so the squeezed
        # direction pi/2 shifts to alpha + pi/2, folded into (-pi/2, pi/2]
        expected = alpha + np.pi / 2 - np.pi
        assert np.isclose(theta, expected, atol=1e-12, rtol=0)

    def test_angle_range_half_open(self):
        """The reported angle lives in (-pi/2, pi/2]."""
        cfg = ArrayConfig(n=5, coupling=0.24, length=30.0)
        state = propagator_exact(cfg, PumpProfile.flat(5, 0.015, -np.pi / 2), 30.0)
        for i in range(1, 6):
            _, theta = min_variance(state, i)
            assert -np.pi / 2 < theta <= np.pi / 2

    def test_isotropic_mode_reports_zero_angle(self):
        """A direction-free mode defaults to theta = 0."""
        state = GaussianState.from_propagator(0.0, np.eye(2))
        v, theta = min_variance(state, 1)
        assert v == 1.0 and theta == 0.0

    def test_extremes_bracket_samples(self):
        """No sampled angle beats the reported extrema."""
        state = squeezer_state(0.5, alpha=1.0)
        vmin, _ = min_variance(state, 1)
        vmax, _ = max_variance(state, 1)
        sampled = [variance_at(state, 1, t) for t in np.linspace(-np.pi / 2, np.pi / 2, 181)]
        assert vmin <= min(sampled) + 1e-12
        assert vmax >= max(sampled) - 1e-12


class TestCombinationVariance:
    """Multimode quadrature combinations."""

    def test_one_hot_matches_variance_at(self):
        """A single-coefficient combination is a rotated quadrature."""
        cfg = ArrayConfig(n=3, coupling=0.2, length=10.0)
        state = propagator_exact(cfg, PumpProfile([0.04, 0.01, 0.02], [0.3, -0.8, 1.2]), 10.0)
        theta = 0.77
        c = QuadratureCombination([0, 1, 0, 0, 0, 0], [0.0, theta, 0.0])
        assert np.isclose(combination_variance(state, c),
                          variance_at(state, 2, theta), atol=1e-13, rtol=0)

    def test_epr_correlations(self):
        """Two-mode squeezing suppresses x- and y+ joint quadratures."""
        r = 0.8
        state = two_mode_squeezer(r)
        xminus = QuadratureCombination([1, -1, 0, 0], [0.0, 0.0])
        yplus = QuadratureCombination([0, 0, 1, 1], [0.0, 0.0])
        assert np.isclose(combination_variance(state, xminus), 2 * np.exp(-2 * r),
                          atol=1e-12, rtol=0)
        assert np.isclose(combination_variance(state, yplus), 2 * np.exp(-2 * r),
                          atol=1e-12, rtol=0)

    def test_angles_shift_coefficient_frame(self):
        """Shifting every angle by pi/2 swaps x and y roles."""
        state = squeezer_state(0.6)
        cx = QuadratureCombination([1, 0], [0.0])
        cy = QuadratureCombination([1, 0], [np.pi / 2])
        assert np.isclose(combination_variance(state, cx), np.exp(1.2), atol=1e-12, rtol=0)
        assert np.isclose(combination_variance(state, cy), np.exp(-1.2), atol=1e-12, rtol=0)

    def test_mode_count_mismatch(self):
        """Combinations must match the state's mode count."""
        state = squeezer_state(0.2)
        c = QuadratureCombination([1, 0, 0, 0], [0.0, 0.0])
        with pytest.raises(ValueError, match="combination is over 2 modes"):
            combination_variance(state, c)


class TestChangeBasis:
    """Symplectic basis changes."""

    def test_supermode_rotation_reveals_squeezing(self):
        """Rotating a flat-pump state into supermodes decouples it."""
        cfg = ArrayConfig(n=5, coupling=0.24, length=30.0)
        state = propagator_exact(cfg, PumpProfile.flat(5, 0.015, -np.pi / 2), 30.0)
        t = linear_supermodes(cfg).to_supermode_basis()
        rotated = change_basis(state, t, "linear_supermode")
        assert rotated.basis == "linear_supermode"
        v, _ = min_variance(rotated, 3)
        assert np.isclose(v, np.exp(-4 * 0.015 * 30.0), atol=1e-12, rtol=0)

    def test_preserves_purity(self):
        """det V = 1 before and after any symplectic rotation."""
        cfg = ArrayConfig(n=3, coupling=0.2, length=10.0)
        state = propagator_exact(cfg, PumpProfile([0.05, 0.0, 0.03], [0.1, 0.0, -0.6]), 10.0)
        t = linear_supermodes(cfg).to_supermode_basis()
        rotated = change_basis(state, t, "linear_supermode")
        assert np.isclose(np.linalg.det(rotated.covariance), 1.0, atol=1e-10, rtol=0)


class TestSqueezingDb:
    """Decibel conversion."""

    def test_reference_levels(self):
        """Vacuum is 0 dB; a variance of 0.1 is -10 dB."""
        assert squeezing_db(1.0) == 0.0
        assert np.isclose(squeezing_db(0.1), -10.0, atol=1e-12, rtol=0)

    def test_positive_variance_required(self):
        """Zero or negative variances have no dB value."""
        with pytest.raises(ValueError, match="variance must be positive"):
            squeezing_db(0.0)
