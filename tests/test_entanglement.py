"""Tests for graph presets, nullifier certification and cluster transforms."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anwsim import (
    ArrayConfig,
    GaussianState,
    PumpProfile,
    PRESETS,
    QuadratureCombination,
    GraphSpec,
    certify,
    cluster_nullifier_variances,
    cluster_transform,
    combination_variance,
    d_lo,
    emulation_error,
    euler_orthogonal,
    graph_preset,
    nullifiers_for,
    omega,
    propagator_exact,
    vlf_values,
)
from anwsim.symplectic import bloch_messiah

np.random.seed(42)

# detection settings that prepare a certified linear cluster at the
# standard working point (N=5, C0=0.24/mm, z=30mm)
LINEAR_PUMP = PumpProfile(
    np.array([0.092, 0.089, 0.091, 0.091, 0.092]), np.full(5, -np.pi / 2)
)
LINEAR_VARS = np.array([0.20, 0.39, 0.37, 0.38, 0.20])


def vacuum(n):
    """Vacuum state on n modes."""
    return GaussianState.from_propagator(0.0, np.eye(2 * n))


def two_mode_squeezer(r):
    """Two-mode squeezed vacuum from a 50:50 splitter on +/- r squeezers."""
    k = np.diag(np.exp([r, -r, -r, r]))
    b = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    bs = np.block([[b, np.zeros((2, 2))], [np.zeros((2, 2)), b]])
    return GaussianState.from_propagator(0.0, bs @ k)


def s_lo(graph, state, euler):
    """LO-shaping transform S_C Obar(euler) R1^T, built from its factors."""
    o = euler_orthogonal(euler, 5)
    obar = np.block([[o, np.zeros((5, 5))], [np.zeros((5, 5)), o]])
    r1 = bloch_messiah(state.propagator).passive_out
    return cluster_transform(graph).matrix @ obar @ r1.T


@pytest.fixture
def linear_state(cfg5):
    return propagator_exact(cfg5, LINEAR_PUMP, 30.0)


class TestGraphSpec:
    """Adjacency and labeling validation plus preset structure."""

    def test_rejects_nonsquare(self):
        """Rectangular adjacency matrices raise an error."""
        with pytest.raises(ValueError, match="adjacency must be square"):
            GraphSpec(np.zeros((3, 4)))

    def test_rejects_asymmetric(self):
        """Directed edges raise an error."""
        j = np.zeros((3, 3))
        j[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric 0/1"):
            GraphSpec(j)

    def test_rejects_self_loop(self):
        """Nonzero diagonal raises an error."""
        with pytest.raises(ValueError, match="symmetric 0/1"):
            GraphSpec(np.eye(3))

    def test_rejects_weighted_edges(self):
        """Entries other than 0 and 1 raise an error."""
        j = np.zeros((2, 2))
        j[0, 1] = j[1, 0] = 0.5
        with pytest.raises(ValueError, match="symmetric 0/1"):
            GraphSpec(j)

    def test_rejects_bad_labeling(self):
        """The labeling must be a permutation of 1..n."""
        j = np.zeros((3, 3))
        with pytest.raises(ValueError, match="labeling must be a permutation"):
            GraphSpec(j, labeling=np.array([1, 2, 2]))

    def test_unknown_preset(self):
        """Unknown preset names raise an error."""
        with pytest.raises(ValueError, match="unknown preset"):
            graph_preset("ring")

    @pytest.mark.parametrize("name", PRESETS)
    def test_presets_are_valid_graphs(self, name):
        """Preset adjacencies are symmetric 0/1 with zero diagonal."""
        g = graph_preset(name)
        assert g.n == 5
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert not np.any(np.diag(g.adjacency))

    @pytest.mark.parametrize(
        "name, edges", [("linear", 4), ("pentagon", 5), ("star", 4), ("pyramid", 8), ("ghz", 4)]
    )
    def test_preset_edge_counts(self, name, edges):
        """Each preset has the expected number of edges."""
        g = graph_preset(name)
        assert g.adjacency.sum() == 2 * edges

    def test_linear_degrees(self):
        """A 5-node chain has end nodes of degree 1."""
        assert np.array_equal(graph_preset("linear").degrees, [1, 2, 2, 2, 1])

    def test_pyramid_degrees(self):
        """The pyramid apex (node 3) touches all four base corners."""
        assert np.array_equal(graph_preset("pyramid").degrees, [3, 3, 4, 3, 3])

    def test_ghz_shares_star_adjacency(self):
        """The GHZ preset is the star graph with substituted nullifiers."""
        assert np.array_equal(
            graph_preset("ghz").adjacency, graph_preset("star").adjacency
        )

    def test_default_labeling_identity(self):
        """Omitting the labeling assigns node k to mode k."""
        assert np.array_equal(graph_preset("pentagon").labeling, [1, 2, 3, 4, 5])


class TestNullifiers:
    """Normalized nullifier combinations."""

    @pytest.mark.parametrize("name", PRESETS)
    def test_vacuum_variance_is_one(self, name):
        """Normalized nullifiers have unit variance on the vacuum."""
        state = vacuum(5)
        for comb in nullifiers_for(graph_preset(name)):
            assert np.isclose(
                combination_variance(state, comb), 1.0, atol=1e-12, rtol=0
            )

    def test_linear_end_node_coefficients(self):
        """Node 1 of the chain measures (y1 - x2)/sqrt(2)."""
        comb = nullifiers_for(graph_preset("linear"))[0]
        expected = np.zeros(10)
        expected[1] = -1.0 / np.sqrt(2)
        expected[5] = 1.0 / np.sqrt(2)
        assert np.allclose(comb.coefficients, expected, atol=1e-12, rtol=0)

    def test_ghz_uses_quadrature_differences(self):
        """GHZ nullifiers are x_i - x_3 differences plus the total y sum."""
        combs = nullifiers_for(graph_preset("ghz"))
        expected = np.zeros(10)
        expected[0], expected[2] = 1.0 / np.sqrt(2), -1.0 / np.sqrt(2)
        assert np.allclose(combs[0].coefficients, expected, atol=1e-12, rtol=0)
        total_y = np.concatenate([np.zeros(5), np.full(5, 1.0 / np.sqrt(5))])
        assert np.allclose(combs[2].coefficients, total_y, atol=1e-12, rtol=0)

    def test_lo_phase_shape_validation(self):
        """The LO phase vector must match the node count."""
        with pytest.raises(ValueError, match="need 5 LO phases"):
            nullifiers_for(graph_preset("star"), np.zeros(4))

    def test_labeling_routes_coefficients(self):
        """Relabeled graphs route node coefficients to their modes."""
        j = graph_preset("linear").adjacency
        perm = np.array([3, 1, 4, 5, 2])
        combs = nullifiers_for(GraphSpec(j, labeling=perm))
        # node 1 (mode 3) measures (y3 - x1)/sqrt(2): node 2 sits on mode 1
        expected = np.zeros(10)
        expected[0] = -1.0 / np.sqrt(2)
        expected[7] = 1.0 / np.sqrt(2)
        assert np.allclose(combs[0].coefficients, expected, atol=1e-12, rtol=0)


class TestVLF:
    """Pairwise van Loock-Furusawa combinations."""

    def test_vacuum_saturates_bound(self):
        """With zero gains every vacuum combination equals 4 exactly."""
        state = vacuum(5)
        values = vlf_values(state, np.zeros(5), np.zeros(5))
        assert values.shape == (4,)
        assert np.allclose(values, 4.0, atol=1e-12, rtol=0)

    def test_vacuum_gain_penalty(self):
        """Auxiliary-mode gains add their squares on the vacuum."""
        state = vacuum(5)
        g = np.array([0.3, -0.2, 0.5, 0.1, -0.4])
        for i in range(1, 5):
            others = [k for k in range(5) if k not in (i - 1, i)]
            expected = 4.0 + np.sum(g[others] ** 2)
            assert np.isclose(
                vlf_values(state, np.zeros(5), g)[i - 1], expected, atol=1e-12, rtol=0
            )

    def test_two_mode_squeezing_violates_bound(self):
        """A two-mode squeezed pair gives rho = 4 exp(-2r)."""
        r = 0.7
        state = two_mode_squeezer(r)
        (rho,) = vlf_values(state, np.zeros(2), np.zeros(2))
        assert np.isclose(rho, 4.0 * np.exp(-2.0 * r), atol=1e-12, rtol=0)

    def test_vector_length_validation(self):
        """Phase and gain vectors must match the mode count."""
        state = vacuum(3)
        with pytest.raises(ValueError, match="lo_phases and gains must have length 3"):
            vlf_values(state, np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError, match="lo_phases and gains must have length 3"):
            vlf_values(state, np.zeros(3), np.zeros(4))

    def test_values_stack_rho(self):
        """rho_1 = V[x_1 - x_2] + V[y_1 + y_2] at the detector phases."""
        state = two_mode_squeezer(0.3)
        theta = np.array([0.1, -0.4])
        g = np.array([0.0, 0.0])
        values = vlf_values(state, theta, g)
        expected = combination_variance(
            state, QuadratureCombination([1.0, -1.0, 0.0, 0.0], theta)
        ) + combination_variance(state, QuadratureCombination([0.0, 0.0, 1.0, 1.0], theta))
        assert np.allclose(values, [expected], atol=1e-14, rtol=0)


class TestCertify:
    """Graph-state certification reports."""

    def test_linear_cluster_passes(self, linear_state):
        """The linear-cluster pump yields a fully certified report."""
        report = certify(linear_state, graph_preset("linear"), np.zeros(5))
        assert report.below_shot
        assert report.inseparable
        assert report.passed
        assert np.allclose(report.nullifier_variances, LINEAR_VARS, atol=0.05, rtol=0)

    def test_phase_error_breaks_certification(self, linear_state):
        """Rotating one detector by pi/2 swaps in the antisqueezed quadrature."""
        theta = np.zeros(5)
        theta[2] = np.pi / 2
        report = certify(linear_state, graph_preset("linear"), theta)
        assert not report.below_shot
        assert not report.passed

    def test_vacuum_sits_at_shot_noise(self):
        """Vacuum nullifier variances equal 1, which does not certify."""
        report = certify(vacuum(5), graph_preset("pentagon"), np.zeros(5))
        assert np.allclose(report.nullifier_variances, 1.0, atol=1e-12, rtol=0)
        assert not report.below_shot
        assert not report.passed

    def test_linear_bound_table(self, linear_state):
        """The chain bounds are sqrt(8/3) at the ends and 4/3 inside."""
        report = certify(linear_state, graph_preset("linear"), np.zeros(5))
        assert report.bound_pairs == ((1, 2), (2, 3), (3, 4), (4, 5))
        expected = [np.sqrt(8.0 / 3.0), 4.0 / 3.0, 4.0 / 3.0, np.sqrt(8.0 / 3.0)]
        assert np.allclose(report.bounds, expected, atol=1e-14, rtol=0)
        sums = report.nullifier_variances[[0, 1, 2, 3]] + report.nullifier_variances[
            [1, 2, 3, 4]
        ]
        assert np.allclose(report.bound_sums, sums, atol=1e-14, rtol=0)

    def test_star_bound_pairs_share_center(self):
        """Star bounds pair every leaf with the center node."""
        report = certify(vacuum(5), graph_preset("star"), np.zeros(5))
        assert report.bound_pairs == ((1, 3), (2, 3), (4, 3), (5, 3))
        assert np.allclose(report.bounds, np.sqrt(8.0 / 5.0), atol=1e-14, rtol=0)

    def test_custom_graph_needs_bounds(self):
        """Custom graphs have no preset bound table."""
        j = np.zeros((3, 3))
        j[0, 1] = j[1, 0] = j[1, 2] = j[2, 1] = 1.0
        with pytest.raises(ValueError, match="no inseparability bounds known"):
            certify(vacuum(3), GraphSpec(j), np.zeros(3))

    def test_custom_graph_with_explicit_bounds(self):
        """Explicit bounds make custom graphs certifiable."""
        j = np.zeros((3, 3))
        j[0, 1] = j[1, 0] = j[1, 2] = j[2, 1] = 1.0
        report = certify(
            vacuum(3), GraphSpec(j), np.zeros(3), bounds=(((1, 2), 1.0),)
        )
        assert report.bound_pairs == ((1, 2),)
        assert np.isclose(report.bound_sums[0], 2.0, atol=1e-12, rtol=0)
        assert not report.inseparable

    def test_report_carries_vlf(self, linear_state):
        """The report evaluates the VLF set at the same detector phases."""
        theta = np.zeros(5)
        g = np.array([0.1, 0.0, -0.2, 0.0, 0.3])
        report = certify(linear_state, graph_preset("linear"), theta, gains=g)
        assert np.allclose(
            report.vlf, vlf_values(linear_state, theta, g), atol=1e-14, rtol=0
        )

    def test_labeling_invariance(self, linear_state, cfg5):
        """Permuting modes and labeling together leaves variances unchanged."""
        perm = np.array([3, 1, 4, 5, 2])
        p = np.zeros((5, 5))
        p[perm - 1, np.arange(5)] = 1.0
        pbar = np.block([[p, np.zeros((5, 5))], [np.zeros((5, 5)), p]])
        permuted = GaussianState.from_propagator(
            linear_state.z, pbar @ linear_state.propagator
        )
        theta = np.linspace(-0.3, 0.4, 5)
        base = certify(linear_state, graph_preset("linear"), theta)
        # node k moves to mode perm[k], so its phase rides along: theta2 = P theta
        moved = certify(
            permuted,
            GraphSpec(graph_preset("linear").adjacency, name="linear", labeling=perm),
            p @ theta,
        )
        assert np.allclose(
            moved.nullifier_variances, base.nullifier_variances, atol=1e-12, rtol=0
        )
        assert np.allclose(moved.bound_sums, base.bound_sums, atol=1e-12, rtol=0)


class TestGhzStarEquivalence:
    """GHZ certification as a rotated star measurement."""

    def test_nullifier_variances_match(self, linear_state):
        """GHZ nullifiers equal star nullifiers under a pi/2 LO offset."""
        theta = np.linspace(-1.0, 1.0, 5)
        shifted = theta.copy()
        shifted[[0, 1, 3, 4]] += np.pi / 2
        star = certify(linear_state, graph_preset("star"), theta)
        ghz = certify(linear_state, graph_preset("ghz"), shifted)
        # antisqueezed settings reach ~1e4, so compare relatively
        assert np.allclose(
            ghz.nullifier_variances, star.nullifier_variances, atol=0, rtol=1e-10
        )
        assert np.allclose(ghz.bound_sums, star.bound_sums, atol=0, rtol=1e-10)
        assert np.allclose(ghz.bounds, star.bounds, atol=1e-14, rtol=0)


class TestClusterTransform:
    """Orthogonal-symplectic cluster preparation transform."""

    @pytest.mark.parametrize("name", PRESETS)
    def test_orthogonal_and_symplectic(self, name):
        """S_C preserves both the metric and the symplectic form."""
        m = cluster_transform(graph_preset(name)).matrix
        assert np.allclose(m @ m.T, np.eye(10), atol=1e-10, rtol=0)
        assert np.allclose(m @ omega(5) @ m.T, omega(5), atol=1e-10, rtol=0)

    @pytest.mark.parametrize("name", PRESETS)
    def test_unitary_representation(self, name):
        """X_s + i Y_s is a unitary N x N matrix."""
        u = cluster_transform(graph_preset(name)).unitary
        assert np.allclose(u @ u.conj().T, np.eye(5), atol=1e-10, rtol=0)

    def test_linear_closed_form_entries(self):
        """The 5-node chain transform has closed-form matrix entries."""
        ct = cluster_transform(graph_preset("linear"))
        assert np.isclose(
            ct.x_block[0, 0], (3.0 * np.sqrt(2.0) + 5.0) / 12.0, atol=1e-12, rtol=0
        )
        assert np.isclose(
            ct.y_block[0, 1], (np.sqrt(2.0) + 1.0) / 4.0, atol=1e-12, rtol=0
        )
        assert np.isclose(ct.x_block[0, 2], -1.0 / 6.0, atol=1e-12, rtol=0)
        assert np.isclose(ct.x_block[2, 2], 2.0 / 3.0, atol=1e-12, rtol=0)
        assert np.isclose(ct.y_block[1, 2], 0.5, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("name", PRESETS)
    def test_nullifier_identity(self, name):
        """[-J | I] S_C reduces to [0 | (J^2+I)^(1/2)]."""
        g = graph_preset(name)
        j = g.adjacency
        lhs = np.hstack([-j, np.eye(5)]) @ cluster_transform(g).matrix
        w, p = np.linalg.eigh(j @ j + np.eye(5))
        b = (p * np.sqrt(w)) @ p.T
        assert np.allclose(lhs[:, :5], 0.0, atol=1e-10, rtol=0)
        assert np.allclose(lhs[:, 5:], b, atol=1e-10, rtol=0)

    def test_blocks_satisfy_defining_relations(self):
        """X_s is (J^2+I)^(-1/2) and Y_s = J X_s."""
        g = graph_preset("pyramid")
        ct = cluster_transform(g)
        j = g.adjacency
        lhs = ct.x_block @ (j @ j + np.eye(5)) @ ct.x_block
        assert np.allclose(lhs, np.eye(5), atol=1e-10, rtol=0)
        assert np.allclose(ct.y_block, j @ ct.x_block, atol=1e-12, rtol=0)


class TestSLo:
    """LO-shaping transform and its measurable product form."""

    def test_orthogonal_symplectic(self, linear_state):
        """S_LO is orthogonal and symplectic for any Euler angles."""
        rng = np.random.default_rng(5)
        euler = rng.uniform(-np.pi, np.pi, 10)
        m = s_lo(graph_preset("pentagon"), linear_state, euler)
        assert np.allclose(m @ m.T, np.eye(10), atol=1e-10, rtol=0)
        assert np.allclose(m @ omega(5) @ m.T, omega(5), atol=1e-10, rtol=0)

    def test_emulation_error_matches_direct_norm(self, linear_state):
        """emulation_error equals the Frobenius distance computed by hand."""
        rng = np.random.default_rng(6)
        euler = rng.uniform(-np.pi, np.pi, 10)
        theta = rng.uniform(-np.pi, np.pi, 5)
        post = rng.uniform(-np.pi, np.pi, 10)
        g = graph_preset("star")
        o_post = euler_orthogonal(post, 5)
        obar = np.block(
            [[o_post, np.zeros((5, 5))], [np.zeros((5, 5)), o_post]]
        )
        direct = np.linalg.norm(s_lo(g, linear_state, euler) - obar @ d_lo(theta))
        assert np.isclose(
            emulation_error(g, linear_state, euler, theta, post),
            direct,
            atol=1e-12,
            rtol=0,
        )

    def test_lo_phase_validation(self, linear_state):
        """The LO phase vector must match the node count."""
        with pytest.raises(ValueError, match="need 5 LO phases"):
            emulation_error(
                graph_preset("star"), linear_state, np.zeros(10), np.zeros(4), np.zeros(10)
            )


class TestClusterNullifierVariances:
    """Closed-form nullifier variances of synthesized clusters."""

    @pytest.mark.parametrize("name", PRESETS)
    def test_zero_gain_gives_shot_noise(self, name):
        """Without squeezing every nullifier variance equals 1."""
        variances = cluster_nullifier_variances(
            graph_preset(name), np.zeros(5), np.eye(5)
        )
        assert np.allclose(variances, 1.0, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("name", PRESETS)
    def test_uniform_gain_scales_exponentially(self, name):
        """Uniform squeezing r rescales every variance by exp(-2r)."""
        r = 0.45
        variances = cluster_nullifier_variances(
            graph_preset(name), np.full(5, r), np.eye(5)
        )
        assert np.allclose(variances, np.exp(-2.0 * r), atol=1e-12, rtol=0)

    @pytest.mark.parametrize("name", ["linear", "pentagon", "star"])
    def test_matches_covariance_route(self, name, cfg5, linear_state):
        """The W-matrix shortcut agrees with transforming the covariance."""
        rng = np.random.default_rng(7)
        euler = rng.uniform(-np.pi, np.pi, 10)
        g = graph_preset(name)
        bm = bloch_messiah(linear_state.propagator)
        shortcut = cluster_nullifier_variances(
            g, bm.gains, euler_orthogonal(euler, 5)
        )
        slo = s_lo(g, linear_state, euler)
        vc = slo @ linear_state.covariance @ slo.T
        rows = np.hstack([-g.adjacency, np.eye(5)])
        rows /= np.sqrt(1.0 + g.degrees)[:, None]
        direct = np.einsum("ij,jk,ik->i", rows, vc, rows)
        assert np.allclose(shortcut, direct, atol=1e-10, rtol=0)

    def test_pyramid_substitution_matches_covariance_route(self, linear_state):
        """Pyramid base-diagonal nullifiers reduce to bare y differences."""
        rng = np.random.default_rng(8)
        euler = rng.uniform(-np.pi, np.pi, 10)
        g = graph_preset("pyramid")
        bm = bloch_messiah(linear_state.propagator)
        shortcut = cluster_nullifier_variances(
            g, bm.gains, euler_orthogonal(euler, 5)
        )
        slo = s_lo(g, linear_state, euler)
        vc = slo @ linear_state.covariance @ slo.T
        rows = np.hstack([-g.adjacency, np.eye(5)])
        rows /= np.sqrt(1.0 + g.degrees)[:, None]
        for i, ref in ((3, 0), (4, 1)):
            rows[i] = 0.0
            rows[i, 5 + i] = 1.0 / np.sqrt(2.0)
            rows[i, 5 + ref] = -1.0 / np.sqrt(2.0)
        direct = np.einsum("ij,jk,ik->i", rows, vc, rows)
        assert np.allclose(shortcut, direct, atol=1e-10, rtol=0)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_positive_for_random_gains(self, seed):
        """Variances stay strictly positive for any gains and mixing."""
        rng = np.random.default_rng(seed)
        gains = rng.uniform(0.0, 2.0, 5)
        euler = rng.uniform(-np.pi, np.pi, 10)
        variances = cluster_nullifier_variances(
            graph_preset("pentagon"), gains, euler_orthogonal(euler, 5)
        )
        assert np.all(variances > 0.0)
