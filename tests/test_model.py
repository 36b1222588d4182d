"""Unit tests for the waveguide-array propagation model."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from anwsim import (
    ArrayConfig,
    GaussianState,
    PumpProfile,
    coupling_tridiagonal,
    flat_pump_analytic,
    integrated_L,
    linear_supermodes,
    min_variance,
    propagator_exact,
    propagator_no_ordering,
    propagators,
    quad_generator,
    rk4_propagate,
    rk4_propagate_batch,
    symplectic_error,
    takagi,
    unitary_to_symplectic,
)

np.random.seed(137)


def supermode_rotation(cfg):
    """Orthogonal symplectic change of basis into the linear supermodes."""
    return linear_supermodes(cfg).to_supermode_basis()


class TestArrayConfig:
    """Geometry validation."""

    def test_defaults_homogeneous(self):
        """A missing profile means homogeneous coupling."""
        cfg = ArrayConfig(n=4, coupling=0.2, length=10.0)
        assert np.array_equal(cfg.profile, np.ones(3))

    def test_waveguide_count_validation(self):
        """Zero guides is rejected."""
        with pytest.raises(ValueError, match="waveguide count must be >= 1"):
            ArrayConfig(n=0, coupling=0.2, length=10.0)

    def test_negative_coupling_rejected(self):
        """Coupling strength must be nonnegative."""
        with pytest.raises(ValueError, match="coupling must be nonnegative"):
            ArrayConfig(n=3, coupling=-0.1, length=10.0)

    def test_nonpositive_length_rejected(self):
        """Device length must be positive."""
        with pytest.raises(ValueError, match="length must be positive"):
            ArrayConfig(n=3, coupling=0.1, length=0.0)

    def test_profile_length_validation(self):
        """The coupling profile needs one weight per gap."""
        with pytest.raises(ValueError, match="profile needs 2 weights"):
            ArrayConfig(n=3, coupling=0.1, length=10.0, profile=[1.0])

    def test_profile_sign_validation(self):
        """Negative profile weights are rejected."""
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ArrayConfig(n=3, coupling=0.1, length=10.0, profile=[1.0, -0.5])


class TestPumpProfile:
    """Pump amplitude/phase containers."""

    def test_flat_constructor(self):
        """flat() fills every guide with the same amplitude and phase."""
        pump = PumpProfile.flat(4, 0.02, 0.3)
        assert np.array_equal(pump.amplitudes, np.full(4, 0.02))
        assert np.array_equal(pump.phases, np.full(4, 0.3))

    def test_off_constructor(self):
        """off() is the zero pump."""
        pump = PumpProfile.off(3)
        assert np.array_equal(pump.amplitudes, np.zeros(3))

    def test_complex_amplitudes(self):
        """complex_amplitudes combines modulus and phase."""
        pump = PumpProfile([0.1, 0.2], [0.0, np.pi / 2])
        assert np.allclose(pump.complex_amplitudes, [0.1, 0.2j], atol=1e-16, rtol=0)

    def test_negative_amplitude_rejected(self):
        """Amplitudes are moduli and cannot be negative."""
        with pytest.raises(ValueError, match="finite and nonnegative"):
            PumpProfile([-0.1, 0.1], [0.0, 0.0])

    def test_length_mismatch_rejected(self):
        """Amplitude and phase vectors must pair up."""
        with pytest.raises(ValueError, match="equal-length vectors"):
            PumpProfile([0.1, 0.1], [0.0])


class TestLinearSupermodes:
    """Eigenbasis of the tridiagonal coupling matrix."""

    def test_tridiagonal_structure(self):
        """Only the first off-diagonals are populated."""
        cfg = ArrayConfig(n=4, coupling=0.3, length=10.0, profile=[1.0, 0.5, 2.0])
        c = coupling_tridiagonal(cfg)
        assert np.allclose(np.diag(c), 0.0, atol=0, rtol=0)
        assert np.allclose(np.diag(c, 1), [0.3, 0.15, 0.6], atol=1e-15, rtol=0)
        assert np.array_equal(c, c.T)
        assert c[0, 2] == 0.0 and c[0, 3] == 0.0

    def test_homogeneous_five_guides_spectrum(self):
        """N=5 homogeneous eigenvalues are 2 C0 cos(k pi / 6), descending."""
        cfg = ArrayConfig(n=5, coupling=0.24, length=30.0)
        lam = linear_supermodes(cfg).eigenvalues
        expected = 2 * 0.24 * np.cos(np.arange(1, 6) * np.pi / 6)
        assert np.allclose(lam, expected, atol=1e-13, rtol=0)

    def test_three_guides_spectrum(self):
        """N=3 homogeneous eigenvalues are (sqrt(2) C0, 0, -sqrt(2) C0)."""
        cfg = ArrayConfig(n=3, coupling=0.2, length=10.0)
        lam = linear_supermodes(cfg).eigenvalues
        assert np.allclose(lam, [np.sqrt(2) * 0.2, 0.0, -np.sqrt(2) * 0.2], atol=1e-15, rtol=0)

    def test_single_guide(self):
        """One guide has a single supermode with zero eigenvalue."""
        cfg = ArrayConfig(n=1, coupling=0.0, length=10.0)
        modes = linear_supermodes(cfg)
        assert np.allclose(modes.eigenvalues, [0.0], atol=0, rtol=0)
        assert np.allclose(modes.matrix, [[1.0]], atol=0, rtol=0)

    def test_matches_dense_eigensolver(self):
        """Supermodes diagonalize the coupling matrix."""
        cfg = ArrayConfig(n=6, coupling=0.31, length=10.0, profile=[1, 0.7, 1.3, 0.2, 1])
        modes = linear_supermodes(cfg)
        c = coupling_tridiagonal(cfg)
        m, lam = modes.matrix, modes.eigenvalues
        assert np.allclose(m @ c @ m.T, np.diag(lam), atol=1e-13, rtol=0)
        assert np.allclose(m @ m.T, np.eye(6), atol=1e-13, rtol=0)
        assert np.all(np.diff(lam) <= 1e-15)

    def test_sign_convention(self):
        """Each supermode's first significant entry is positive."""
        cfg = ArrayConfig(n=7, coupling=0.24, length=10.0)
        m = linear_supermodes(cfg).matrix
        for row in m:
            lead = row[np.abs(row) > 1e-12][0]
            assert lead > 0

    def test_supermode_basis_rotation(self):
        """to_supermode_basis gives an orthogonal symplectic rotation."""
        cfg = ArrayConfig(n=5, coupling=0.24, length=30.0)
        t = supermode_rotation(cfg)
        assert symplectic_error(t) < 1e-12
        assert np.allclose(t @ t.T, np.eye(10), atol=1e-13, rtol=0)


class TestQuadGenerator:
    """Quadrature-space generator of the coupled-mode equations."""

    def test_block_structure(self):
        """Blocks combine the coupler with pump sine/cosine diagonals."""
        cfg = ArrayConfig(n=3, coupling=0.2, length=10.0)
        pump = PumpProfile([0.05, 0.0, 0.02], [0.4, 0.0, -1.1])
        q = quad_generator(cfg, pump)
        c = coupling_tridiagonal(cfg)
        es = np.diag(pump.amplitudes * np.sin(pump.phases))
        ec = np.diag(pump.amplitudes * np.cos(pump.phases))
        assert np.allclose(q[:3, :3], -2 * es, atol=1e-15, rtol=0)
        assert np.allclose(q[:3, 3:], -c + 2 * ec, atol=1e-15, rtol=0)
        assert np.allclose(q[3:, :3], c + 2 * ec, atol=1e-15, rtol=0)
        assert np.allclose(q[3:, 3:], 2 * es, atol=1e-15, rtol=0)

    def test_pump_size_validation(self):
        """Pump and array sizes must agree."""
        cfg = ArrayConfig(n=3, coupling=0.2, length=10.0)
        with pytest.raises(ValueError, match="pump has 2 entries"):
            quad_generator(cfg, PumpProfile.off(2))


class TestPropagatorExact:
    """Constant-coefficient exponential solution."""

    def test_negative_distance_rejected(self):
        """z < 0 raises."""
        cfg = ArrayConfig(n=2, coupling=0.2, length=10.0)
        with pytest.raises(ValueError, match="z must be finite and nonnegative"):
            propagator_exact(cfg, PumpProfile.off(2), -1.0)

    @pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda cfg, z: propagator_exact(cfg, PumpProfile.flat(2, 0.01), z),
            lambda cfg, z: propagators(cfg, np.full(2, 0.01), np.zeros(2), np.array([1.0, z])),
            lambda cfg, z: propagator_no_ordering(cfg, PumpProfile.flat(2, 0.01), z),
            lambda cfg, z: flat_pump_analytic(cfg, 0.01, z),
        ],
        ids=["exact", "stacked", "no_ordering", "flat_analytic"],
    )
    def test_non_finite_distance_rejected(self, entry, z):
        """NaN and +-inf raise instead of returning NaN matrices."""
        cfg = ArrayConfig(n=2, coupling=0.2, length=10.0)
        with pytest.raises(ValueError, match="z must be finite and nonnegative"):
            entry(cfg, z)

    def test_zero_distance_identity(self):
        """z = 0 returns the identity transform on vacuum."""
        cfg = ArrayConfig(n=3, coupling=0.2, length=10.0)
        state = propagator_exact(cfg, PumpProfile.off(3), 0.0)
        assert np.allclose(state.propagator, np.eye(6), atol=0, rtol=0)
        assert np.allclose(state.covariance, np.eye(6), atol=0, rtol=0)

    def test_zero_pump_is_passive(self):
        """Without pump the coupler only rotates: covariance stays vacuum."""
        cfg = ArrayConfig(n=4, coupling=0.3, length=25.0)
        state = propagator_exact(cfg, PumpProfile.off(4), 25.0)
        s = state.propagator
        assert np.allclose(s @ s.T, np.eye(8), atol=1e-12, rtol=0)
        assert np.allclose(state.covariance, np.eye(8), atol=1e-12, rtol=0)
        assert state.mean_photon_number < 1e-13

    def test_symplectic(self):
        """The propagator preserves the symplectic form."""
        cfg = ArrayConfig(n=5, coupling=0.24, length=30.0)
        pump = PumpProfile([0.05, 0.01, 0.08, 0.0, 0.03], [0.2, -0.7, 1.4, 0.0, 2.9])
        state = propagator_exact(cfg, pump, 30.0)
        assert symplectic_error(state.propagator) < 1e-11

    @pytest.mark.parametrize(
        "amplitude, message",
        [(0.4, "matrix is not symplectic: deviation"), (30.0, "it is not finite")],
        ids=["roundoff", "overflow"],
    )
    def test_lost_symplecticity_refused(self, amplitude, message):
        """A propagator that lost symplecticity or overflowed is refused
        before any covariance is taken; the stacked kernel returns it."""
        cfg = ArrayConfig(n=5, coupling=0.24, length=30.0)
        pump = PumpProfile.flat(5, amplitude, -np.pi / 2)
        with pytest.raises(ValueError, match=message):
            propagator_exact(cfg, pump, 30.0)
        s = propagators(cfg, pump.amplitudes, pump.phases, 30.0)
        assert not symplectic_error(s) <= 1e-10

    def test_single_guide_squeezer(self):
        """One pumped guide at phase -pi/2 squeezes y by exp(-4 eta z)."""
        cfg = ArrayConfig(n=1, coupling=0.0, length=30.0)
        state = propagator_exact(cfg, PumpProfile([0.015], [-np.pi / 2]), 30.0)
        expected = np.exp(-4 * 0.015 * 30.0)
        assert np.isclose(state.covariance[1, 1], expected, atol=1e-12, rtol=0)
        assert np.isclose(state.covariance[0, 0], 1 / expected, atol=1e-12, rtol=0)
        v, theta = min_variance(state, 1)
        assert np.isclose(v, expected, atol=1e-12, rtol=0)
        assert np.isclose(abs(theta), np.pi / 2, atol=1e-12, rtol=0)

    def test_mean_photon_number_single_squeezer(self):
        """Mean photons of squeezed vacuum follow sinh^2(r)."""
        cfg = ArrayConfig(n=1, coupling=0.0, length=10.0)
        state = propagator_exact(cfg, PumpProfile([0.02], [-np.pi / 2]), 10.0)
        r = 2 * 0.02 * 10.0
        assert np.isclose(state.mean_photon_number, np.sinh(r) ** 2, atol=1e-12, rtol=0)

    def test_basis_validation(self):
        """Unknown basis tags are rejected."""
        with pytest.raises(ValueError, match="unknown basis"):
            GaussianState.from_propagator(0.0, np.eye(4), basis="fock")


def coupling_L(cfg, pump, modes, z):
    """Pump-mediated supermode coupling L(z), the integrand of integrated_L.

    L_{kk'}(z) = 2i sum_j |eta_j| M_kj M_k'j exp(i(phi_j - (lambda_k +
    lambda_k') z)).
    """
    m, lam = modes.matrix, modes.eigenvalues
    coef = 2j * (m * pump.complex_amplitudes) @ m.T
    return coef * np.exp(-1j * (lam[:, None] + lam[None, :]) * z)


class TestCouplingMatrixL:
    """Pump-mediated supermode coupling and its z integral."""

    def test_symmetric_complex(self):
        """The integrated coupling is complex symmetric."""
        cfg = ArrayConfig(n=5, coupling=0.24, length=30.0)
        pump = PumpProfile([0.03, 0.01, 0.04, 0.02, 0.05], [0.1, 0.9, -0.4, 2.2, -1.8])
        modes = linear_supermodes(cfg)
        l = integrated_L(cfg, pump, modes, 7.0)
        assert np.allclose(l, l.T, atol=1e-15, rtol=0)

    def test_sum_rule_at_origin(self):
        """The integral starts at zero with slope L(0) = 2i M diag(eta) M^T."""
        cfg = ArrayConfig(n=4, coupling=0.2, length=10.0)
        pump = PumpProfile([0.03, 0.0, 0.01, 0.02], [0.5, 0.0, -0.5, 1.0])
        modes = linear_supermodes(cfg)
        expected = 2j * (modes.matrix * pump.complex_amplitudes) @ modes.matrix.T
        assert np.array_equal(integrated_L(cfg, pump, modes, 0.0), np.zeros((4, 4)))
        # the kernel is z - i s z^2 / 2 + ..., so the slope is exact to O(s z)
        dz = 1e-7
        assert np.allclose(integrated_L(cfg, pump, modes, dz) / dz, expected,
                           atol=1e-8, rtol=0)

    def test_integral_matches_quadrature(self):
        """integrated_L equals element-wise numerical integration of L."""
        cfg = ArrayConfig(n=5, coupling=0.24, length=30.0)
        pump = PumpProfile([0.03, 0.01, 0.04, 0.02, 0.05], [0.1, 0.9, -0.4, 2.2, -1.8])
        modes = linear_supermodes(cfg)
        z = 11.0
        lint = integrated_L(cfg, pump, modes, z)
        for k in range(5):
            for kp in range(k, 5):
                re = quad(lambda t: coupling_L(cfg, pump, modes, t)[k, kp].real,
                          0.0, z, limit=200)[0]
                im = quad(lambda t: coupling_L(cfg, pump, modes, t)[k, kp].imag,
                          0.0, z, limit=200)[0]
                assert np.isclose(lint[k, kp], re + 1j * im, atol=1e-10, rtol=0)

    def test_degenerate_kernel_continuity(self):
        """The linear-in-z branch joins the oscillatory kernel smoothly."""
        # lambda_1 + lambda_3 = 0 exactly for a homogeneous N=3 array,
        # so the (1, 3) element takes the degenerate branch
        cfg = ArrayConfig(n=3, coupling=0.2, length=10.0)
        pump = PumpProfile([0.02, 0.01, 0.03], [0.0, 0.4, -0.2])
        modes = linear_supermodes(cfg)
        lint = integrated_L(cfg, pump, modes, 6.0)
        coef = 2j * (modes.matrix * pump.complex_amplitudes) @ modes.matrix.T
        assert np.isclose(lint[0, 2], coef[0, 2] * 6.0, atol=1e-15, rtol=0)

    def test_mode_count_validation(self):
        """A supermode basis of the wrong size is rejected."""
        cfg = ArrayConfig(n=3, coupling=0.2, length=10.0)
        wrong = linear_supermodes(ArrayConfig(n=4, coupling=0.2, length=10.0))
        with pytest.raises(ValueError, match="supermode basis has 4 modes"):
            integrated_L(cfg, PumpProfile.off(3), wrong, 1.0)


class TestNoOrdering:
    """Propagator neglecting space ordering."""

    def test_basis_tag(self):
        """The result is tagged as linear-supermode data."""
        cfg = ArrayConfig(n=3, coupling=0.2, length=10.0)
        state = propagator_no_ordering(cfg, PumpProfile.off(3), 5.0)
        assert state.basis == "linear_supermode"

    def test_zero_pump_is_bare_propagation(self):
        """Without pump each supermode only picks up its phase."""
        cfg = ArrayConfig(n=4, coupling=0.3, length=10.0)
        z = 8.0
        state = propagator_no_ordering(cfg, PumpProfile.off(4), z)
        lam = linear_supermodes(cfg).eigenvalues
        expected = unitary_to_symplectic(np.diag(np.exp(1j * lam * z)))
        assert np.allclose(state.propagator, expected, atol=1e-13, rtol=0)

    def test_low_gain_matches_exact(self):
        """At vanishing gain the ordering correction is negligible."""
        cfg = ArrayConfig(n=5, coupling=0.24, length=30.0)
        pump = PumpProfile.flat(5, 3e-6, -np.pi / 2)
        z = 30.0
        t = supermode_rotation(cfg)
        exact = t @ propagator_exact(cfg, pump, z).propagator @ t.T
        approx = propagator_no_ordering(cfg, pump, z).propagator
        assert np.abs(approx - exact).max() < 1e-8

    def test_symplectic_at_high_gain(self):
        """The approximation stays a valid Gaussian transform at any gain."""
        cfg = ArrayConfig(n=5, coupling=0.24, length=30.0)
        pump = PumpProfile([0.09, 0.02, 0.07, 0.01, 0.05], [1.0, -0.3, 0.6, 2.0, -2.4])
        state = propagator_no_ordering(cfg, pump, 30.0)
        assert symplectic_error(state.propagator) < 1e-10


class TestNonlinearSupermodes:
    """Decoupled squeezing basis: the Takagi factors of the integrated coupling."""

    def test_congruence_reconstruction(self):
        """Ups^dag diag(r) Ups^* rebuilds the integrated coupling matrix."""
        cfg = ArrayConfig(n=5, coupling=0.24, length=30.0)
        pump = PumpProfile([0.03, 0.01, 0.04, 0.02, 0.05], [0.1, 0.9, -0.4, 2.2, -1.8])
        lint = integrated_L(cfg, pump, linear_supermodes(cfg), 12.0)
        fac = takagi(lint)
        ups, rs = fac.unitary, fac.values
        assert np.allclose(ups.conj().T @ np.diag(rs) @ ups.conj(), lint, atol=1e-12, rtol=0)
        assert np.allclose(ups @ ups.conj().T, np.eye(5), atol=1e-12, rtol=0)
        assert np.all(np.diff(rs) <= 1e-15) and np.all(rs >= 0)

    def test_flat_pump_squeezing_parameters(self):
        """For a flat pump the middle supermode squeezes at 2 eta z."""
        cfg = ArrayConfig(n=5, coupling=0.24, length=30.0)
        eta, z = 0.015, 30.0
        lint = integrated_L(cfg, PumpProfile.flat(5, eta), linear_supermodes(cfg), z)
        assert np.isclose(takagi(lint).values[0], 2 * eta * z, atol=1e-12, rtol=0)


class TestFlatPumpAnalytic:
    """Closed-form flat-pump solution, exact at any gain."""

    def test_matches_exact_at_high_gain(self):
        """The analytic supermode propagator equals the exponential one."""
        cfg = ArrayConfig(n=5, coupling=0.24, length=30.0)
        eta, z = 0.015, 30.0
        pump = PumpProfile.flat(5, eta)
        sol = flat_pump_analytic(cfg, eta, z)
        t = supermode_rotation(cfg)
        exact = t @ propagator_exact(cfg, pump, z).propagator @ t.T
        assert np.abs(sol.state.propagator - exact).max() < 1e-12

    def test_matches_no_ordering(self):
        """Flat pumps make the no-ordering series exact."""
        cfg = ArrayConfig(n=5, coupling=0.24, length=30.0)
        eta = 0.015 * np.exp(0.35j)
        pump = PumpProfile.flat(5, 0.015, 0.35)
        sol = flat_pump_analytic(cfg, eta, 30.0)
        # space ordering commutes supermode-by-supermode only at low gain;
        # at this working point the residue is the known third-order term
        low = flat_pump_analytic(cfg, 3e-6, 30.0)
        approx = propagator_no_ordering(cfg, PumpProfile.flat(5, 3e-6), 30.0)
        assert np.abs(low.state.propagator - approx.propagator).max() < 1e-8
        assert symplectic_error(sol.state.propagator) < 1e-11

    def test_oscillation_lengths(self):
        """Below-threshold supermodes oscillate with period pi / (2 F_k)."""
        cfg = ArrayConfig(n=5, coupling=0.24, length=30.0)
        eta = 0.015
        sol = flat_pump_analytic(cfg, eta, 30.0)
        lam = linear_supermodes(cfg).eigenvalues
        expected = np.pi / (2 * np.sqrt(lam**2 - 4 * eta**2, where=lam**2 > 4 * eta**2,
                                        out=np.full(5, np.nan)))
        assert np.allclose(sol.oscillation_lengths[[0, 1, 3, 4]],
                           expected[[0, 1, 3, 4]], atol=1e-12, rtol=0)
        assert np.isinf(sol.oscillation_lengths[2])
        assert np.allclose(sol.oscillation_lengths[[0, 1]], [3.7888, 6.5969], atol=1e-3, rtol=0)

    def test_middle_supermode_is_degenerate_amplifier(self):
        """The lambda = 0 supermode squeezes like an uncoupled amplifier."""
        cfg = ArrayConfig(n=5, coupling=0.24, length=30.0)
        eta, z = 0.015, 30.0
        sol = flat_pump_analytic(cfg, eta * np.exp(-1j * np.pi / 2), z)
        state = sol.state
        v, _ = min_variance(state, 3)
        assert np.isclose(v, np.exp(-4 * eta * z), atol=1e-12, rtol=0)
        assert np.isclose(v, 0.1653, atol=5e-5, rtol=0)

    def test_supermode_degeneracy(self):
        """Mirror supermodes k and N+1-k squeeze identically."""
        cfg = ArrayConfig(n=5, coupling=0.24, length=30.0)
        sol = flat_pump_analytic(cfg, 0.015 * np.exp(-1j * np.pi / 2), 30.0)
        state = sol.state
        v = np.array([min_variance(state, k)[0] for k in range(1, 6)])
        assert abs(v[0] - v[4]) < 1e-10
        assert abs(v[1] - v[3]) < 1e-10

    def test_blocks_shape(self):
        """Per-supermode Bogoliubov blocks come out as (N, 2, 2)."""
        cfg = ArrayConfig(n=3, coupling=0.2, length=10.0)
        sol = flat_pump_analytic(cfg, 0.01, 5.0)
        assert sol.blocks.shape == (3, 2, 2)


class TestRK4:
    """Runge-Kutta cross-validation path."""

    def test_matches_exact(self):
        """Fixed-step integration reproduces the exponential solution."""
        cfg = ArrayConfig(n=5, coupling=0.24, length=30.0)
        pump = PumpProfile([0.05, 0.01, 0.08, 0.0, 0.03], [0.2, -0.7, 1.4, 0.0, 2.9])
        exact = propagator_exact(cfg, pump, 30.0).propagator
        num = rk4_propagate(cfg, pump, 30.0).propagator
        assert np.abs(exact - num).max() < 1e-10

    def test_remainder_step(self):
        """Distances off the step grid integrate through a partial step."""
        cfg = ArrayConfig(n=2, coupling=0.2, length=10.0)
        pump = PumpProfile([0.03, 0.01], [0.3, -0.9])
        exact = propagator_exact(cfg, pump, 1.0005).propagator
        num = rk4_propagate(cfg, pump, 1.0005, step=1e-3).propagator
        assert np.abs(exact - num).max() < 1e-12

    def test_batch_matches_serial(self):
        """The batched integrator equals one-at-a-time runs."""
        rng = np.random.default_rng(8)
        gens, zs, serial = [], [], []
        for n in (2, 3, 3, 5):
            cfg = ArrayConfig(n=n, coupling=0.2, length=10.0)
            pump = PumpProfile(rng.uniform(0, 0.05, n), rng.uniform(-np.pi, np.pi, n))
            z = float(rng.integers(1, 9))
            gens.append(quad_generator(cfg, pump))
            zs.append(z)
            serial.append(rk4_propagate(cfg, pump, z).propagator)
        batch = rk4_propagate_batch(gens, np.array(zs))
        for got, want in zip(batch, serial):
            assert np.abs(got - want).max() < 1e-13

    def test_batch_zero_distance(self):
        """Zero-distance entries come back as identities."""
        cfg = ArrayConfig(n=2, coupling=0.2, length=10.0)
        q = quad_generator(cfg, PumpProfile.flat(2, 0.02))
        out = rk4_propagate_batch([q, q], np.array([0.0, 2.0]))
        assert np.array_equal(out[0], np.eye(4))
        assert np.abs(out[1] - rk4_propagate(cfg, PumpProfile.flat(2, 0.02), 2.0).propagator).max() < 1e-13

    def test_batch_length_validation(self):
        """Mismatched generator and distance counts raise."""
        q = np.zeros((4, 4))
        with pytest.raises(ValueError, match="one distance per generator"):
            rk4_propagate_batch([q, q], np.array([1.0]))

    @pytest.mark.parametrize("z", [[-1.0, 2.0], [np.nan], [np.inf], [1.0, 1e20]])
    def test_batch_bad_distance_rejected(self, z):
        """One negative, non-finite or out-of-range distance refuses the whole
        batch, naming z."""
        q = np.zeros((4, 4))
        with pytest.raises(ValueError, match="z must be finite, nonnegative"):
            rk4_propagate_batch([q] * len(z), np.array(z))

    @pytest.mark.parametrize("z", [-1.0, np.nan, 1e20])
    def test_bad_distance_rejected(self, z):
        """A negative, NaN or over 2**53-step distance raises instead of integrating."""
        cfg = ArrayConfig(n=2, coupling=0.2, length=10.0)
        with pytest.raises(ValueError, match="z must be finite, nonnegative"):
            rk4_propagate(cfg, PumpProfile.off(2), z)

    @pytest.mark.parametrize("step", [-1e-3, 0.0, np.nan, np.inf])
    def test_bad_step_rejected(self, step):
        """A step that is not finite and positive raises a ValueError naming it."""
        cfg = ArrayConfig(n=2, coupling=0.2, length=10.0)
        with pytest.raises(ValueError, match="step must be finite and positive"):
            rk4_propagate(cfg, PumpProfile.off(2), 1.0, step=step)
        with pytest.raises(ValueError, match="step must be finite and positive"):
            rk4_propagate_batch([np.zeros((4, 4))], np.array([1.0]), step=step)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_propagator_symplectic_property(seed):
    """Random working points always yield symplectic propagators."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    cfg = ArrayConfig(n=n, coupling=float(rng.uniform(0, 0.5)), length=10.0)
    pump = PumpProfile(rng.uniform(0, 0.1, n), rng.uniform(-np.pi, np.pi, n))
    z = float(rng.uniform(0, 20.0))
    state = propagator_exact(cfg, pump, z)
    assert symplectic_error(state.propagator) < 1e-10
