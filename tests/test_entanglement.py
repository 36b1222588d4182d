"""Tests for graph presets, nullifier certification and cluster transforms."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

import anwsim.entanglement
from anwsim import (
    ETA_MAX,
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
    euler_orthogonal,
    fitness_FP,
    graph_preset,
    nullifier_rows,
    nullifiers_for,
    omega,
    propagator_exact,
    search_equivalent,
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

# the hand table of ((node_i, node_j), bound) entries that certification
# once read in place of the bounds derived from the nullifier rows
HAND_BOUNDS = {
    "linear": (
        ((1, 2), np.sqrt(8.0 / 3.0)),
        ((2, 3), 4.0 / 3.0),
        ((3, 4), 4.0 / 3.0),
        ((4, 5), np.sqrt(8.0 / 3.0)),
    ),
    "pentagon": tuple(((i, i + 1), 4.0 / 3.0) for i in range(1, 5)),
    "star": tuple(((i, 3), np.sqrt(8.0 / 5.0)) for i in (1, 2, 4, 5)),
    "pyramid": (((4, 3), np.sqrt(8.0 / 5.0)), ((5, 3), np.sqrt(8.0 / 5.0))),
}


def vacuum(n):
    """Vacuum state on n modes."""
    return GaussianState.from_propagator(0.0, np.eye(2 * n))


def path_graph(n):
    """Adjacency of the n-node path 1-2-...-n."""
    k = np.arange(n - 1)
    j = np.zeros((n, n))
    j[k, k + 1] = j[k + 1, k] = 1.0
    return j


def ring_graph(n):
    """Adjacency of the n-node ring: the path closed by the edge (n, 1)."""
    j = path_graph(n)
    j[0, -1] = j[-1, 0] = 1.0
    return j


def cz_graph_state(j, r):
    """Graph state of adjacency j built by CZ gates on modes whose p
    quadratures are squeezed by r (a scalar or one per node)."""
    n = len(j)
    r = np.broadcast_to(r, (n,))
    cz = np.block([[np.eye(n), np.zeros((n, n))], [j, np.eye(n)]])
    return GaussianState.from_propagator(0.0, cz @ np.diag(np.exp(np.concatenate([r, -r]))))


def two_mode_squeezer(r):
    """Two-mode squeezed vacuum from a 50:50 splitter on +/- r squeezers."""
    k = np.diag(np.exp([r, -r, -r, r]))
    b = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    bs = np.block([[b, np.zeros((2, 2))], [np.zeros((2, 2)), b]])
    return GaussianState.from_propagator(0.0, bs @ k)


def _separable_bounds(graph):
    """Enumeration oracle: 0-based node pairs i < j (P, 2, row-major), all
    cuts (K, n) and every pair's bound on every cut (P, K).

    Row b of the 0/1 cut matrix marks the nodes on the side of cut b that
    does not hold node 1, the set bits of 2(b + 1): the K = 2^(n-1) - 1
    cuts count in binary over nodes 2..n. A product state across a cut
    (A, B) has V(delta_i) + V(delta_j) >= 2(|sum_A c_k| + |sum_B c_k|),
    with c_k = x_i[k] p_j[k] - p_i[k] x_j[k] from the rows' coefficients
    and vacuum variance 1 (van Loock and Furusawa, PRA 67, 052315, 2003).
    """
    n = graph.n
    rows, k = anwsim.entanglement._node_rows(graph), np.arange(n)
    x, p = rows[:, :n], rows[:, n:]
    i, j = np.nonzero(k[:, None] < k)
    c = x[i] * p[j] - p[i] * x[j]
    far = (((2 * np.arange(1, 2 ** (n - 1)))[:, None] >> k) & 1).astype(float)
    bounds = 2.0 * (np.abs(c @ far.T) + np.abs(c @ (1 - far).T))
    return np.stack([i, j], axis=1), far, bounds


def cut_index(graph, cut):
    """Row of the oracle's cut matrix for a cut named by its 1-based modes."""
    return sum(2**k for k, m in enumerate(graph.labeling) if m in cut) // 2 - 1


def check_against_oracle(report, graph):
    """A report against the enumeration over all cuts: the same verdict,
    the same worst margin whenever it is positive, and on each reported
    cut the reported pair's bound, with no pair that bounds the cut at a
    larger margin. The cut of unjoined nodes has no pair that bounds it."""
    pairs, far, bounds = _separable_bounds(graph)
    var = report.nullifier_variances
    margins = bounds - var[pairs].sum(axis=1)[:, None]
    best = margins.max(axis=0)
    assert report.inseparable == bool(np.all(best > 0))
    if best.min() > 0:
        worst = np.min(report.bounds - report.bound_sums)
        assert np.isclose(worst, best.min(), atol=1e-12, rtol=0)
    row = {(i + 1, j + 1): r for r, (i, j) in enumerate(pairs.tolist())}
    for cut, pair, s, b in zip(
        report.bipartitions, report.bound_pairs, report.bound_sums, report.bounds
    ):
        k = cut_index(graph, cut)
        bounding = bounds[:, k] > 1e-9
        if pair == ():
            assert not bounding.any() and s == b == 0.0, cut
            continue
        assert np.isclose(b, bounds[row[pair], k], atol=1e-12, rtol=0), cut
        assert s == var[pair[0] - 1] + var[pair[1] - 1], cut
        assert b - s >= margins[bounding, k].max() - 1e-12, cut


def obar(euler, n):
    """Quadrature form diag(O, O) of the orthogonal O = euler_orthogonal(euler)."""
    o = euler_orthogonal(euler, n)
    return np.block([[o, np.zeros((n, n))], [np.zeros((n, n)), o]])


def s_lo(graph, state, euler):
    """LO-shaping transform S_C Obar(euler) R1^T, built from its factors."""
    r1 = bloch_messiah(state.propagator).passive_out
    return cluster_transform(graph).matrix @ obar(euler, graph.n) @ r1.T


def direct_fp(graph, state, euler, theta, post):
    """F_P = ||S_LO - Obar_post D_LO(theta)||_F from the 2N x 2N real factors."""
    return np.linalg.norm(s_lo(graph, state, euler) - obar(post, graph.n) @ d_lo(theta))


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

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one node"):
            GraphSpec(np.zeros((0, 0)))

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

    @pytest.mark.parametrize("name", ["pyramid", "ghz"])
    def test_preset_name_needs_preset_adjacency(self, name):
        """A preset's name keys its nullifiers, so another
        adjacency (a 5-node chain, or a 3-node path) may not take it."""
        chain = graph_preset("linear").adjacency
        path = chain[:3, :3]
        for j in (chain, path):
            with pytest.raises(ValueError, match=f"graph name '{name}' belongs to the preset"):
                GraphSpec(j, name=name)

    def test_custom_name_on_preset_adjacency(self):
        """A non-preset name on a preset's adjacency is an ordinary custom graph."""
        g = GraphSpec(graph_preset("star").adjacency, name="custom")
        assert g.name == "custom"

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

    def test_ghz_rows_pinned(self):
        """The GHZ rows derived from the star's equal the hand-written
        x_i - x_3 differences and total y sum, bit for bit."""
        rows = np.zeros((5, 10))
        for i in (0, 1, 3, 4):
            rows[i, i] = 1.0 / np.sqrt(2.0)
            rows[i, 2] = -1.0 / np.sqrt(2.0)
        rows[2, 5:] = 1.0 / np.sqrt(5.0)
        derived = nullifier_rows(graph_preset("ghz"))
        assert np.array_equal(derived, rows)
        assert derived.tobytes() == rows.tobytes()

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
        """The chain reports 4 cuts, one per edge, and on each the crossing
        edge with the largest margin, as the enumeration over all 15 cuts
        finds; an edge's bound is 4/sqrt((1+deg i)(1+deg j)), so sqrt(8/3)
        at the ends and 4/3 inside."""
        report = certify(linear_state, graph_preset("linear"), np.zeros(5))
        var = report.nullifier_variances
        bound = {(1, 2): np.sqrt(8.0 / 3.0), (2, 3): 4.0 / 3.0, (3, 4): 4.0 / 3.0,
                 (4, 5): np.sqrt(8.0 / 3.0)}
        assert len(report.bipartitions) == 4
        assert sorted(report.bound_pairs) == sorted(bound)
        check_against_oracle(report, graph_preset("linear"))
        for cut, pair, s, b in zip(
            report.bipartitions, report.bound_pairs, report.bound_sums, report.bounds
        ):
            crossing = [e for e in bound if (e[0] in cut) != (e[1] in cut)]
            margins = [bound[e] - var[e[0] - 1] - var[e[1] - 1] for e in crossing]
            assert pair == crossing[int(np.argmax(margins))], cut
            assert np.isclose(b, bound[pair], atol=1e-14, rtol=0)
            assert s == var[pair[0] - 1] + var[pair[1] - 1]

    def test_star_bound_pairs_share_center(self):
        """Leaf pairs bound no cut, so on the vacuum every cut keeps the
        first leaf the cut separates from the centre, at sqrt(8/5)."""
        report = certify(vacuum(5), graph_preset("star"), np.zeros(5))
        for cut, pair in zip(report.bipartitions, report.bound_pairs):
            leaf = min(k for k in (1, 2, 4, 5) if (k in cut) != (3 in cut))
            assert pair == tuple(sorted((leaf, 3))), cut
        assert np.allclose(report.bounds, np.sqrt(8.0 / 5.0), atol=1e-14, rtol=0)

    @pytest.mark.parametrize("name", ["linear", "pentagon", "star", "ghz", "pyramid"])
    def test_bounds_reproduce_hand_table(self, name):
        """The derived bounds reproduce the hand table they replaced: each
        entry is the minimum of its pair's bound over the cuts that separate
        the pair. The pyramid's two entries bound only the cuts that put
        node 1 (resp. 2) with the apex, and leave three cuts unbounded."""
        pairs, far, bounds = _separable_bounds(graph_preset(name))
        row = {(i + 1, j + 1): k for k, (i, j) in enumerate(pairs)}
        covered = np.zeros(len(far), dtype=bool)
        for (i, j), value in HAND_BOUNDS["star" if name == "ghz" else name]:
            b = bounds[row[min(i, j), max(i, j)]]
            separated = far[:, i - 1] != far[:, j - 1]
            if name != "pyramid":
                assert np.isclose(b[separated].min(), value, atol=1e-12, rtol=0)
            covered |= b >= value - 1e-12
        uncovered = [tuple(np.flatnonzero(r) + 1) for r in far[~covered]]
        assert uncovered == ([(3,), (2, 5), (2, 3, 5)] if name == "pyramid" else [])

    def test_custom_graph_certified_from_rows(self):
        """A custom 3-node path is certified from its own rows: 2 cuts, each
        bounded by the edge it cuts, as the enumeration over all 3 cuts
        finds, and vacuum is not inseparable."""
        j = path_graph(3)
        report = certify(vacuum(3), GraphSpec(j), np.zeros(3))
        assert report.bipartitions == ((2,), (3,))
        assert report.bound_pairs == ((1, 2), (2, 3))
        assert np.allclose(report.bounds, 4.0 / np.sqrt(6.0), atol=1e-14, rtol=0)
        assert np.allclose(report.bound_sums, 2.0, atol=1e-12, rtol=0)
        assert not report.inseparable
        check_against_oracle(report, GraphSpec(j))

    def test_custom_graph_squeezed_path_passes(self):
        """An ideal squeezed graph state on a custom 3-node path passes on
        every cut: CZ gates on p-squeezed modes leave each normalized
        nullifier at exp(-2r)/(1 + deg)."""
        j = path_graph(3)
        r = 1.0
        report = certify(cz_graph_state(j, r), GraphSpec(j), np.zeros(3))
        expected = np.exp(-2 * r) / np.array([2.0, 3.0, 2.0])
        assert np.allclose(report.nullifier_variances, expected, atol=1e-12, rtol=0)
        assert np.allclose(report.bound_sums, expected[0] + expected[1], atol=1e-12, rtol=0)
        assert report.inseparable
        assert report.passed

    def test_unjoined_nodes_fail_on_one_cut(self):
        """Two disjoint edges: each is reported on its own cut, and the
        nodes they leave unjoined get one cut with no pair, sum 0 and
        bound 0, so an ideal squeezed state on them is not inseparable."""
        j = np.zeros((4, 4))
        j[0, 1] = j[1, 0] = j[2, 3] = j[3, 2] = 1.0
        report = certify(cz_graph_state(j, 1.0), GraphSpec(j), np.zeros(4))
        assert report.bipartitions == ((2,), (4,), (3, 4))
        assert report.bound_pairs == ((1, 2), (3, 4), ())
        assert report.bound_sums[-1] == report.bounds[-1] == 0.0
        assert np.all(report.bound_sums[:2] < report.bounds[:2])
        assert report.below_shot and not report.inseparable
        check_against_oracle(report, GraphSpec(j))

    def test_pair_off_two_nodes_refused(self, monkeypatch):
        """Rows whose pair has c on three nodes break the structure every
        pair bound relies on, so certify refuses them and names the pair."""
        rows = np.zeros((3, 6))
        rows[0, 3:] = 1.0
        rows[1, :3] = [1.0, 1.0, -2.0]
        rows[2, 5] = 1.0
        monkeypatch.setattr(anwsim.entanglement, "_node_rows", lambda graph: rows)
        with pytest.raises(ValueError, match=r"graph 'custom': nullifier pair \(1, 2\)"):
            certify(vacuum(3), GraphSpec(path_graph(3)), np.zeros(3))

    @pytest.mark.parametrize("build", [path_graph, ring_graph])
    def test_ideal_graph_state_passes_at_32_nodes(self, build):
        """An ideal CZ-built graph state on the 32-node path or ring passes,
        with 31 reported cuts, each bounded by a graph edge at
        4/sqrt((1+deg i)(1+deg j))."""
        j = build(32)
        report = certify(cz_graph_state(j, 1.0), GraphSpec(j), np.zeros(32))
        assert report.passed
        assert len(report.bipartitions) == len(report.bounds) == 31
        edges = np.array(report.bound_pairs) - 1
        assert np.all(j[edges[:, 0], edges[:, 1]] == 1.0)
        deg = j.sum(axis=1)
        expected = 4.0 / np.sqrt((1 + deg[edges[:, 0]]) * (1 + deg[edges[:, 1]]))
        assert np.allclose(report.bounds, expected, atol=1e-14, rtol=0)

    def test_ideal_path_at_128_nodes_peaks_under_8_mb(self):
        """Each pair's c is formed only where one row's x support meets the
        other's p support, so certify's memory grows as N^2 on a path: one
        call on an ideal 128-node path state peaks under 8 MB (a dense
        (N, N, N) array of c alone takes 16.8 MB)."""
        j = path_graph(128)
        state, graph = cz_graph_state(j, 1.0), GraphSpec(j)
        tracemalloc.start()
        try:
            report = certify(state, graph, np.zeros(128))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 8e6

    def test_single_node_has_no_cut(self):
        """One node has no pair and no bipartition to certify."""
        report = certify(vacuum(1), GraphSpec(np.zeros((1, 1))), np.zeros(1))
        assert report.bipartitions == () and report.bound_pairs == ()
        assert report.bounds.shape == report.bound_sums.shape == (0,)

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


def random_symplectic(rng, m):
    """A random 2m x 2m symplectic O1 K O2, with passive O1, O2 from
    random unitaries and K squeezing each mode on its own."""

    def passive():
        u = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]
        return np.block([[u.real, -u.imag], [u.imag, u.real]])

    r = rng.uniform(-1.5, 1.5, m)
    return passive() @ np.diag(np.exp(np.concatenate([-r, r]))) @ passive()


def split_propagator(rng, n, sides):
    """A random propagator that acts on each side (0-based modes) alone,
    so its state is a product across the sides."""
    s = np.zeros((2 * n, 2 * n))
    for side in sides:
        idx = np.concatenate([side, n + side])
        s[np.ix_(idx, idx)] = random_symplectic(rng, len(side))
    return s


def random_graph(rng, n):
    """A random adjacency on n nodes, each edge present with probability 1/2."""
    j = np.triu(rng.integers(0, 2, (n, n)), 1)
    return (j + j.T).astype(float)


def mode_move(labeling):
    """The passive map that puts node k on mode labeling[k]."""
    n = len(labeling)
    move = np.zeros((n, n))
    move[np.asarray(labeling) - 1, np.arange(n)] = 1.0
    return np.block([[move, np.zeros((n, n))], [np.zeros((n, n)), move]])


def noisy_graph_state(rng, graph):
    """The CZ-built state of a graph at random squeezing per node, on the
    modes its labeling assigns, plus random Gaussian noise on the
    covariance: some certify every cut, some fail on a few or all."""
    n = graph.n
    ideal = cz_graph_state(graph.adjacency, rng.uniform(0.0, 1.5, n))
    s = mode_move(graph.labeling) @ ideal.propagator
    g = rng.normal(size=(2 * n, 2 * n)) * rng.uniform(0.0, 0.8) / np.sqrt(2 * n)
    return GaussianState(0.0, s, s @ s.T + g @ g.T)


def pt_min(covariance, modes):
    """Smallest symplectic eigenvalue of the partial transpose across a cut,
    given the 1-based modes of one side; below 1 only if the state is not
    PPT across the cut (Simon, PRL 84:2726, 2000)."""
    n = len(covariance) // 2
    flip = np.ones(2 * n)
    flip[n + np.asarray(modes, dtype=int) - 1] = -1.0
    transposed = covariance * flip[:, None] * flip
    return np.abs(np.linalg.eigvals(1j * omega(n) @ transposed)).min()


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1), st.sampled_from((2, 3, 4, 5, 6, 7, 8, "pyramid", "ghz")))
def test_tree_matches_enumeration(seed, size):
    """On noisy graph states of random graphs (or the pyramid and GHZ
    presets, whose pairs are not all their support edges) under random
    labelings and LO phases, certify agrees with the enumeration over all
    2^(N-1) - 1 cuts (check_against_oracle). It reports one cut per join,
    N - 1 on a connected graph, plus one cut without a pair when the graph
    leaves nodes unjoined."""
    rng = np.random.default_rng(seed)
    if isinstance(size, str):
        graph = GraphSpec(graph_preset(size).adjacency, name=size, labeling=rng.permutation(5) + 1)
    else:
        graph = GraphSpec(random_graph(rng, size), labeling=rng.permutation(size) + 1)
    report = certify(noisy_graph_state(rng, graph), graph, rng.normal(0.0, 0.2, graph.n))
    check_against_oracle(report, graph)
    components = connected_components(graph.adjacency)[0]
    assert len(report.bipartitions) == graph.n - components + (components > 1)
    assert (() in report.bound_pairs) == (components > 1)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7))
def test_certified_cuts_are_npt(seed, n):
    """Every reported cut whose sum is below its bound has a partial
    transpose with smallest symplectic eigenvalue below 1, and so does every
    one of the 2^(N-1) - 1 cuts when the report is inseparable: a state PPT
    across a cut obeys every pair bound there. This checks the pair bounds
    without the code that forms them."""
    rng = np.random.default_rng(seed)
    graph = GraphSpec(random_graph(rng, n), labeling=rng.permutation(n) + 1)
    state = noisy_graph_state(rng, graph)
    report = certify(state, graph, rng.normal(0.0, 0.2, n))
    for cut, s, b in zip(report.bipartitions, report.bound_sums, report.bounds):
        if s < b:
            assert pt_min(state.covariance, cut) < 1.0, cut
    if report.inseparable:
        for far in _separable_bounds(graph)[1].astype(bool):
            assert pt_min(state.covariance, graph.labeling[far]) < 1.0, far


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7))
def test_product_states_never_certified(seed, n):
    """On a random graph no cut of a random product of single-mode states,
    nor of the vacuum, is certified. Each reported bound is the
    enumeration's bound of its pair on its cut, and moving the product
    state with the labeling renames the cuts and keeps the pairs and
    bounds. Vacuum on an isolated edge sits exactly on its bound, hence
    the roundoff slack."""
    rng = np.random.default_rng(seed)
    j = random_graph(rng, n)
    perm = rng.permutation(n) + 1
    pairs, far, bounds = _separable_bounds(GraphSpec(j))
    row = {(i + 1, k + 1): m for m, (i, k) in enumerate(pairs.tolist())}
    each_mode = GaussianState.from_propagator(0.0, split_propagator(rng, n, np.arange(n)[:, None]))
    for state in (each_mode, vacuum(n)):
        theta = rng.uniform(-np.pi, np.pi, n)
        base = certify(state, GraphSpec(j), theta)
        moved_state = GaussianState.from_propagator(0.0, mode_move(perm) @ state.propagator)
        moved = certify(moved_state, GraphSpec(j, labeling=perm), theta[np.argsort(perm)])
        for report, graph in ((base, GraphSpec(j)), (moved, GraphSpec(j, labeling=perm))):
            assert np.all(report.bound_sums >= report.bounds - 1e-12)
            check_against_oracle(report, graph)
            for cut, pair, b in zip(report.bipartitions, report.bound_pairs, report.bounds):
                expected = bounds[row[pair], cut_index(graph, cut)] if pair else 0.0
                assert b == expected, cut
        if state is each_mode:
            # the vacuum ties margins, and roundoff may break the ties
            # differently once the modes move
            assert moved.bipartitions == tuple(
                tuple(sorted(perm[np.array(cut) - 1].tolist())) for cut in base.bipartitions
            )
            assert moved.bound_pairs == base.bound_pairs
            assert np.array_equal(moved.bounds, base.bounds)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7))
def test_state_product_across_a_cut_never_certifies_it(seed, n):
    """A state that is a product across a random cut of the nodes never
    certifies that cut, on a random graph under a random labeling: the
    enumeration finds no pair with a positive margin there, and the worst
    reported margin is no larger than the best of the pairs that bound it
    (with no such pair, the cut of unjoined nodes fails). Two such
    states: each side a random pure Gaussian state, and the cluster of the
    graph with its crossing edges removed, whose nullifiers away from the
    cut are squeezed, so that pairs on one side of the cut sum far below
    any bound they could have across it."""
    rng = np.random.default_rng(seed)
    j = random_graph(rng, n)
    labeling = rng.permutation(n) + 1
    graph = GraphSpec(j, labeling=labeling)
    nodes = rng.permutation(n)
    cut = int(rng.integers(1, n))
    near, far = (nodes[:cut], nodes[cut:]) if 0 in nodes[:cut] else (nodes[cut:], nodes[:cut])
    split = split_propagator(rng, n, (near, far))
    on_far = np.isin(np.arange(n), far)
    uncut = GraphSpec(j * (on_far[:, None] == on_far[None, :]))
    r = np.full(n, rng.uniform(0.5, 1.5))
    cluster = cluster_transform(uncut).matrix @ np.diag(np.exp(np.concatenate([r, -r])))
    pairs, _, bounds = _separable_bounds(graph)
    k = cut_index(graph, labeling[far])
    for s, theta in ((split, rng.uniform(-np.pi, np.pi, n)), (cluster, np.zeros(n))):
        state = GaussianState.from_propagator(0.0, mode_move(labeling) @ s)
        report = certify(state, graph, theta)
        margins = bounds[:, k] - report.nullifier_variances[pairs].sum(axis=1)
        assert margins.max() <= 1e-12
        bounding = bounds[:, k] > 1e-9
        if bounding.any():
            assert np.min(report.bounds - report.bound_sums) <= margins[bounding].max() + 1e-12
        else:
            assert () in report.bound_pairs
        check_against_oracle(report, graph)


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

    def test_labeling_moves_the_unshifted_mode(self, linear_state):
        """With the centre node on mode 2, mode 2 is the one left unshifted,
        and the GHZ variances at the shifted phases are the star's."""
        labeling = np.array([3, 1, 2, 4, 5])
        adjacency = graph_preset("ghz").adjacency
        ghz = GraphSpec(adjacency, name="ghz", labeling=labeling)
        star, shift = search_equivalent(ghz)
        assert star.name == "star"
        assert np.array_equal(star.labeling, labeling)
        assert np.array_equal(shift, np.where(np.arange(5) == 1, 0.0, np.pi / 2))
        theta = np.linspace(-1.0, 1.0, 5)
        base = certify(linear_state, star, theta)
        moved = certify(linear_state, ghz, theta + shift)
        assert np.allclose(
            moved.nullifier_variances, base.nullifier_variances, atol=0, rtol=1e-10
        )

    def test_other_graphs_search_as_themselves(self):
        """Only a shifted preset has a search equivalent other than itself."""
        g = graph_preset("pyramid")
        assert search_equivalent(g) == (g, None)


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

    def test_fitness_fp_matches_direct_norm(self, cfg5, linear_state):
        """fitness_FP equals the Frobenius distance computed by hand."""
        rng = np.random.default_rng(6)
        euler = rng.uniform(-np.pi, np.pi, 10)
        theta = rng.uniform(-np.pi, np.pi, 5)
        post = rng.uniform(-np.pi, np.pi, 10)
        g = graph_preset("star")
        params = np.concatenate(
            [LINEAR_PUMP.amplitudes, LINEAR_PUMP.phases, euler, theta, post]
        )
        assert np.isclose(
            fitness_FP(cfg5, 30.0, g, params),
            direct_fp(g, linear_state, euler, theta, post),
            atol=1e-12,
            rtol=0,
        )

    def test_lo_phase_validation(self, cfg5):
        """The LO phase block must match the node count: a vector one LO
        phase short has the wrong length."""
        params = np.zeros(5 + 5 + 10 + 4 + 10)
        with pytest.raises(ValueError, match="expected 35 parameters"):
            fitness_FP(cfg5, 30.0, graph_preset("star"), params)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_fitness_fp_matches_direct_norm_on_paths(self, n, seed):
        """On n-node path graphs, at random pumps inside ETA_MAX and random
        mixing, LO and postprocessing angles, fitness_FP equals the real
        2N x 2N distance built from bloch_messiah and np.block. Every
        factor is orthogonal, so each entry carries a few n ulps and the
        norm is at most 2 sqrt(2n) < 7: 1e-12 is a roundoff bound."""
        rng = np.random.default_rng(seed)
        na = n * (n - 1) // 2
        cfg = ArrayConfig(n, 0.24, 30.0)
        pump = PumpProfile(rng.uniform(0.0, ETA_MAX, n), rng.uniform(-np.pi, np.pi, n))
        euler, post = rng.uniform(-np.pi, np.pi, (2, na))
        theta = rng.uniform(-np.pi, np.pi, n)
        g = GraphSpec(path_graph(n))
        params = np.concatenate([pump.amplitudes, pump.phases, euler, theta, post])
        state = propagator_exact(cfg, pump, 30.0)
        assert np.isclose(
            fitness_FP(cfg, 30.0, g, params),
            direct_fp(g, state, euler, theta, post),
            atol=1e-12,
            rtol=0,
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
