"""Multipartite-entanglement certification and cluster-state machinery.

Two certification routes are implemented. The van Loock-Furusawa route
bounds pairwise combinations rho_i of rotated quadratures; full N-partite
inseparability is guaranteed when all N-1 values drop below 4. The
graph-state route checks the variances of normalized nullifiers
delta_i = (y_i - sum_j J_ij x_j)/sqrt(1 + n(i)) and the separability
bound of each pair of nullifier rows. Each pair bounds exactly the node
bipartitions across one support edge, by one value, so a maximum spanning
tree over the pairs' margins (Kruskal) decides every bipartition from
N - 1 of them: a cluster is certified when every variance is below shot
noise and every tree pair's variance sum violates its bound.

Graphs are specified by a 0/1 adjacency matrix over nodes plus a labeling
that assigns each node to a physical mode. The five built-in 5-node
presets are the only special cases, and each is stated once here: the
pyramid's substituted nullifiers, and the GHZ preset, which is the star
seen through a pi/2 LO shift on every mode but the centre's (its rows and
search derive from the star's). Every bound derives from the rows. A
graph keyed by a preset's name must have that preset's adjacency. The
cluster transform S_C is the target of F_P (``optimize.fitness_FP``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurement import QuadratureCombination, quadrature_variances
from .model import GaussianState

__all__ = [
    "PRESETS",
    "GraphSpec",
    "graph_preset",
    "search_equivalent",
    "CertificationReport",
    "ClusterTransform",
    "vlf_rows",
    "vlf_values",
    "vlf_values_batch",
    "nullifier_rows",
    "nullifiers_for",
    "certify",
    "cluster_transform",
    "cluster_nullifier_variances",
]

PRESETS = ("linear", "pentagon", "star", "pyramid", "ghz")

_PRESET_EDGES = {
    "linear": ((1, 2), (2, 3), (3, 4), (4, 5)),
    "pentagon": ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1)),
    "star": ((1, 3), (2, 3), (4, 3), (5, 3)),
    # square base 1-2-4-5 with apex 3 connected to every base corner
    "pyramid": ((1, 2), (2, 4), (4, 5), (5, 1), (1, 3), (2, 3), (4, 3), (5, 3)),
}

# presets that are another preset seen through a pi/2 LO shift on every
# node but the centre (the node joined to all others): they share its
# adjacency and search
_SHIFTED = {"ghz": "star"}

# opposite base corners of the pyramid share their neighbor set, so their
# nullifier differences reduce to bare y differences: (node, reference)
# pairs, 0-based, whose nullifiers are substituted
_SUBSTITUTED = {"pyramid": ((3, 0), (4, 1))}

def _preset_adjacency(name: str) -> np.ndarray:
    """The 5-node adjacency of a preset; a shifted one has its base's."""
    j = np.zeros((5, 5))
    for a, b in _PRESET_EDGES[_SHIFTED.get(name, name)]:
        j[a - 1, b - 1] = j[b - 1, a - 1] = 1.0
    return j


@dataclass(frozen=True)
class GraphSpec:
    """Unit-weight graph over nodes plus a node-to-mode assignment.

    ``adjacency`` is the symmetric 0/1 matrix J with zero diagonal;
    ``labeling`` maps node k (0-based position) to the 1-based physical
    mode labeling[k], identity by default. A preset's name selects its
    nullifiers, so it is refused on any other adjacency.
    """

    adjacency: np.ndarray
    name: str = "custom"
    labeling: np.ndarray | None = None

    def __post_init__(self):
        j = np.asarray(self.adjacency, dtype=float)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {j.shape}")
        if j.shape[0] == 0:
            raise ValueError("a graph needs at least one node, got an empty adjacency")
        if np.any(j != j.T) or np.any(np.diag(j) != 0) or not np.isin(j, (0.0, 1.0)).all():
            raise ValueError("adjacency must be symmetric 0/1 with zero diagonal")
        n = j.shape[0]
        lab = self.labeling
        lab = np.arange(1, n + 1) if lab is None else np.asarray(lab, dtype=int)
        if sorted(lab.tolist()) != list(range(1, n + 1)):
            raise ValueError(f"labeling must be a permutation of 1..{n}, got {lab}")
        if self.name in PRESETS and not np.array_equal(j, _preset_adjacency(self.name)):
            raise ValueError(
                f"graph name {self.name!r} belongs to the preset of that name; "
                "give a custom adjacency another name"
            )
        object.__setattr__(self, "adjacency", j)
        object.__setattr__(self, "labeling", lab)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)


def graph_preset(name: str) -> GraphSpec:
    """One of the five built-in 5-node graphs."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}, expected one of {PRESETS}")
    return GraphSpec(adjacency=_preset_adjacency(name), name=name)


def _shifted_nodes(graph: GraphSpec) -> np.ndarray:
    """Mask of the nodes a shifted preset sees through the pi/2 LO shift:
    all but the centre."""
    return np.arange(graph.n) != np.argmax(graph.degrees)


def search_equivalent(graph: GraphSpec) -> tuple[GraphSpec, np.ndarray | None]:
    """The graph a nullifier search minimizes in place of ``graph``, and the
    per-mode LO phase shift that carries its optimum's LO phases back.

    A shifted preset (GHZ) is searched as its base preset (the star) under
    the same labeling, and its LO phases are the base's plus pi/2 on every
    mode but the centre's. Any other graph is searched as itself, with no
    shift (None).
    """
    if graph.name not in _SHIFTED:
        return graph, None
    base = GraphSpec(graph.adjacency, name=_SHIFTED[graph.name], labeling=graph.labeling)
    shift = np.zeros(graph.n)
    shift[graph.labeling[_shifted_nodes(graph)] - 1] = np.pi / 2.0
    return base, shift


def _node_rows(graph: GraphSpec) -> np.ndarray:
    """Normalized nullifier coefficient rows in node ordering, (n, 2n)."""
    n = graph.n
    if graph.name in _SHIFTED:
        # the base preset's rows with the pi/2 LO shift pulled onto the
        # coefficients of each shifted node, (c_x, c_y) -> (c_y, -c_x): that
        # is c_x cos + c_y sin and c_y cos - c_x sin at the exact quarter turn
        x, y = np.hsplit(_node_rows(search_equivalent(graph)[0]), 2)
        s = _shifted_nodes(graph).astype(float)
        return np.concatenate([x * (1.0 - s) + y * s, y * (1.0 - s) - x * s], axis=1)
    rows = np.zeros((n, 2 * n))
    rows[:, :n] = -graph.adjacency
    rows[:, n:] = np.eye(n)
    rows /= np.sqrt(1.0 + graph.degrees)[:, None]
    for i, ref in _SUBSTITUTED.get(graph.name, ()):
        rows[i] = 0.0
        rows[i, n + i] = 1.0 / np.sqrt(2.0)
        rows[i, n + ref] = -1.0 / np.sqrt(2.0)
    return rows


def nullifier_rows(graph: GraphSpec) -> np.ndarray:
    """Normalized nullifier coefficient rows in mode ordering, (n, 2n).

    Row k is node k's nullifier; the labeling routes each node's
    coefficients to its physical mode.
    """
    n = graph.n
    node_rows = _node_rows(graph)
    modes = graph.labeling - 1
    rows = np.zeros_like(node_rows)
    rows[:, modes] = node_rows[:, :n]
    rows[:, n + modes] = node_rows[:, n:]
    return rows


def _lo_phases(n: int, lo_phases: np.ndarray | None) -> np.ndarray:
    theta = np.zeros(n) if lo_phases is None else np.asarray(lo_phases, dtype=float)
    if theta.shape != (n,):
        raise ValueError(f"need {n} LO phases, got shape {theta.shape}")
    return theta


def nullifiers_for(
    graph: GraphSpec, lo_phases: np.ndarray | None = None
) -> list[QuadratureCombination]:
    """Normalized nullifier combinations of a graph, over rotated quadratures.

    ``lo_phases`` are per-mode detector phases (zero if omitted). The list
    is ordered by node; the labeling routes each node's coefficients to
    its physical mode.
    """
    theta = _lo_phases(graph.n, lo_phases)
    return [QuadratureCombination(row, theta) for row in nullifier_rows(graph)]


def vlf_rows(gains: np.ndarray) -> np.ndarray:
    """Coefficient rows of the van Loock-Furusawa combinations.

    ``gains`` is (..., N); the result is (..., 2(N-1), 2N) with the N-1
    x rows x_i - x_{i+1} first, then the N-1 y rows
    y_i + y_{i+1} + sum_{i' != i,i+1} G_i' y_i'.
    """
    g = np.asarray(gains, dtype=float)
    n = g.shape[-1]
    i = np.arange(n - 1)
    rows = np.zeros(g.shape[:-1] + (2 * (n - 1), 2 * n))
    rows[..., i, i] = 1.0
    rows[..., i, i + 1] = -1.0
    rows[..., n - 1 :, n:] = g[..., None, :]
    rows[..., n - 1 + i, n + i] = 1.0
    rows[..., n - 1 + i, n + i + 1] = 1.0
    return rows


def vlf_values_batch(
    covariance: np.ndarray, lo_phases: np.ndarray, gains: np.ndarray
) -> np.ndarray:
    """The N-1 VLF values over stacks: (..., 2N, 2N) covariances with
    (..., N) LO phases and gains give (..., N-1)."""
    var = quadrature_variances(covariance, vlf_rows(gains), lo_phases)
    m = var.shape[-1] // 2
    return var[..., :m] + var[..., m:]


def vlf_values(
    state: GaussianState, lo_phases: np.ndarray, gains: np.ndarray
) -> np.ndarray:
    """All N-1 van Loock-Furusawa values for one detection setting."""
    n = state.n
    theta = np.asarray(lo_phases, dtype=float)
    g = np.asarray(gains, dtype=float)
    if theta.shape != (n,) or g.shape != (n,):
        raise ValueError(f"lo_phases and gains must have length {n}")
    return vlf_values_batch(state.covariance, theta, g)


def _pair_bounds(graph: GraphSpec, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0-based node pairs i < j with a nonzero c (P, 2, row-major), the
    support edge a < b of each (P, 2) and its one bound (P,), from the
    graph's nullifier rows in mode ordering.

    A product state across a cut (A, B) has V(delta_i) + V(delta_j) >=
    2(|sum_A c_k| + |sum_B c_k|), with c_k = x_i[k] p_j[k] - p_i[k] x_j[k]
    from the rows' coefficients on node k and vacuum variance 1 (van Loock
    and Furusawa, PRA 67, 052315, 2003). Every row set built here has c
    nonzero on exactly two nodes a, b with c_a + c_b = 0, so the pair
    bounds the cuts that separate a from b, each by 2(|c_a| + |c_b|), and
    no other cut; a pair that breaks this is refused.
    """
    n = graph.n
    # (row, x or p, node) coefficients; c is formed only for pairs where one
    # row's x support meets the other's p support (every other c is 0)
    xp = rows.reshape(n, 2, n)[:, :, graph.labeling - 1]
    support = (xp != 0).astype(float)
    meet = support[:, 0] @ support[:, 1].T
    k = np.arange(n)
    pairs = np.argwhere((meet + meet.T > 0) & (k[:, None] < k))
    row_i, row_j = xp[pairs[:, 0]], xp[pairs[:, 1]]
    c = row_i[:, 0] * row_j[:, 1] - row_i[:, 1] * row_j[:, 0]
    size = np.abs(c)
    nonzero = size > 1e-12
    count = nonzero.sum(axis=1)
    ok = ((count == 0) | (count == 2)) & (np.abs(c.sum(axis=1)) <= 1e-12)
    if not ok.all():
        first = np.argmin(ok)
        i, j = pairs[first] + 1
        raise ValueError(
            f"graph {graph.name!r}: nullifier pair ({i}, {j}) has c = {c[first]}, "
            "not two opposite nonzero entries"
        )
    keep = count == 2
    edges = np.nonzero(nonzero[keep])[1].reshape(-1, 2)
    return pairs[keep], edges, 2.0 * size[keep].sum(axis=1)


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of a graph-state certification measurement.

    The last four fields hold one entry per cut that ``certify`` reports,
    in merge order, named by the sorted 1-based modes on the side without
    node 1: the 1-based node pair i < j reported there (empty on the cut
    of unjoined nodes), its variance sum and its bound. A connected graph
    has N - 1 entries, the last the worst cut."""

    graph: str
    lo_phases: np.ndarray
    gains: np.ndarray
    nullifier_variances: np.ndarray
    vlf: np.ndarray
    bipartitions: tuple[tuple[int, ...], ...]
    bound_pairs: tuple[tuple[int, ...], ...]
    bound_sums: np.ndarray
    bounds: np.ndarray

    @property
    def below_shot(self) -> bool:
        return bool(np.all(self.nullifier_variances < 1.0))

    @property
    def inseparable(self) -> bool:
        return bool(np.all(self.bound_sums < self.bounds))

    @property
    def passed(self) -> bool:
        return self.below_shot and self.inseparable


def certify(
    state: GaussianState,
    graph: GraphSpec,
    lo_phases: np.ndarray,
    gains: np.ndarray | None = None,
) -> CertificationReport:
    """Evaluate nullifier variances and separability bounds on a state.

    Each pair of nullifier rows bounds exactly the cuts across its support
    edge, by one value (``_pair_bounds``). Kruskal's rule takes the pairs
    by margin (bound minus variance sum), largest first and in row-major
    order on ties, and keeps each pair that joins two components of the
    nodes. It is reported on the cut between the joined component of its
    support node b and the rest: any pair crossing that cut comes later,
    so none has a larger margin there. When the pairs join every node,
    every cut is crossed by some kept pair, whose margin is at least the
    last kept one, so that is the worst over all cuts of the best margin
    of the pairs crossing it. Nodes the pairs leave unjoined get one more
    cut, with an empty pair, sum 0 and bound 0, so the verdict fails. The
    report passes when every nullifier variance is below 1 and every
    reported sum is below its bound. The VLF values are evaluated at the
    same LO phases with the given gains (zero if omitted).
    """
    n = graph.n
    theta = _lo_phases(n, lo_phases)
    g = np.zeros(n) if gains is None else np.asarray(gains, dtype=float)
    rows = nullifier_rows(graph)
    variances = quadrature_variances(state.covariance, rows, theta)
    pairs, edges, bounds = _pair_bounds(graph, rows)
    sums = variances[pairs].sum(axis=1)
    margins = (bounds - sums).tolist()
    # member[k] names node k's component; parts[c] lists component c's nodes
    member, parts = list(range(n)), {k: [k] for k in range(n)}
    edge_list, pair_list = edges.tolist(), (pairs + 1).tolist()
    cuts = []  # (side, 1-based pair, sum, bound) per join
    # sorted keeps row-major order among equal margins, also in reverse
    for e in sorted(range(len(margins)), key=margins.__getitem__, reverse=True):
        a, b = edge_list[e]
        near, joined = member[a], member[b]
        if near != joined:
            cuts.append((parts[joined], tuple(pair_list[e]), sums[e], bounds[e]))
            for k in parts[joined]:
                member[k] = near
            parts[near] += parts.pop(joined)
    if len(parts) > 1:
        cuts.append((parts[member[0]], (), 0.0, 0.0))
    sides, cut_pairs, cut_sums, cut_bounds = zip(*cuts) if cuts else [()] * 4
    # each cut is named by the sorted 1-based modes on its side without node 1
    lab = graph.labeling.tolist()
    names = [
        tuple(sorted(m for k, m in enumerate(lab) if (k in side) != (0 in side)))
        for side in map(set, sides)
    ]
    return CertificationReport(
        graph=graph.name,
        lo_phases=theta,
        gains=g,
        nullifier_variances=variances,
        vlf=vlf_values(state, theta, g),
        bipartitions=tuple(names),
        bound_pairs=cut_pairs,
        bound_sums=np.array(cut_sums, dtype=float),
        bounds=np.array(cut_bounds, dtype=float),
    )


@dataclass(frozen=True)
class ClusterTransform:
    """Orthogonal-symplectic map from y-squeezed inputs to a cluster state."""

    x_block: np.ndarray
    y_block: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        xs, ys = self.x_block, self.y_block
        return np.block([[xs, -ys], [ys, xs]])

    @property
    def unitary(self) -> np.ndarray:
        """Complex N x N representation X_s + i Y_s of the transform."""
        return self.x_block + 1j * self.y_block


def _jj_eigh(graph: GraphSpec) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of J^2 + I."""
    j = graph.adjacency
    return np.linalg.eigh(j @ j + np.eye(graph.n))


def cluster_transform(graph: GraphSpec) -> ClusterTransform:
    """Symmetric cluster transform with X_s = (J^2 + I)^(-1/2), Y_s = J X_s."""
    w, p = _jj_eigh(graph)
    xs = (p / np.sqrt(w)) @ p.T
    return ClusterTransform(x_block=xs, y_block=graph.adjacency @ xs)


def cluster_nullifier_variances(
    graph: GraphSpec, gains: np.ndarray, mixing: np.ndarray
) -> np.ndarray:
    """Nullifier variances of the cluster built from given squeezers.

    The cluster covariance is S_C Obar K^2 Obar^T S_C^T for squeezing
    gains r and node mixing O; its nullifier rows satisfy
    [-J | I] S_C = [0 | (J^2+I)^(1/2)], so the variances depend only on
    W = B O exp(-2r) O^T B with B = (J^2+I)^(1/2), independent of the
    antisqueezed quadratures. Preset nullifier substitutions are applied
    through the same identity.
    """
    r = np.asarray(gains, dtype=float)
    o = np.asarray(mixing, dtype=float)
    wv, p = _jj_eigh(graph)
    b = (p * np.sqrt(wv)) @ p.T
    w = b @ o @ np.diag(np.exp(-2.0 * r)) @ o.T @ b
    var = np.diag(w) / (1.0 + graph.degrees)
    for i, ref in _SUBSTITUTED.get(graph.name, ()):
        var[i] = 0.5 * (w[i, i] + w[ref, ref] - 2.0 * w[i, ref])
    return var
