"""Multipartite-entanglement certification and cluster-state machinery.

Two certification routes are implemented. The van Loock-Furusawa route
bounds pairwise combinations rho_i of rotated quadratures; full N-partite
inseparability is guaranteed when all N-1 values drop below 4. The
graph-state route checks the variances of normalized nullifiers
delta_i = (y_i - sum_j J_ij x_j)/sqrt(1 + n(i)) together with sharp
pairwise bounds; a cluster is certified when every variance is below shot
noise and every bound pair is violated.

Graphs are specified by a 0/1 adjacency matrix over nodes plus a labeling
that assigns each node to a physical mode. The five built-in 5-node
presets carry hand-derived nullifier substitutions and bound tables; the
GHZ preset shares the star adjacency, its nullifiers being the star set
seen through a pi/2 LO rotation on every mode but the center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurement import QuadratureCombination, quadrature_variances
from .model import GaussianState
from .symplectic import bloch_messiah, d_lo, euler_orthogonal

__all__ = [
    "PRESETS",
    "GraphSpec",
    "graph_preset",
    "CertificationReport",
    "ClusterTransform",
    "vlf_rows",
    "vlf_values",
    "vlf_values_batch",
    "nullifier_rows",
    "nullifiers_for",
    "certify",
    "cluster_transform",
    "emulation_error",
    "cluster_nullifier_variances",
]

PRESETS = ("linear", "pentagon", "star", "pyramid", "ghz")

_PRESET_EDGES = {
    "linear": ((1, 2), (2, 3), (3, 4), (4, 5)),
    "pentagon": ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1)),
    "star": ((1, 3), (2, 3), (4, 3), (5, 3)),
    # square base 1-2-4-5 with apex 3 connected to every base corner
    "pyramid": ((1, 2), (2, 4), (4, 5), (5, 1), (1, 3), (2, 3), (4, 3), (5, 3)),
    "ghz": ((1, 3), (2, 3), (4, 3), (5, 3)),
}

# sharp inseparability bounds on V(d_i) + V(d_j) for the preset nullifiers,
# keyed by 1-based node pairs
_PRESET_BOUNDS = {
    "linear": (
        ((1, 2), np.sqrt(8.0 / 3.0)),
        ((2, 3), 4.0 / 3.0),
        ((3, 4), 4.0 / 3.0),
        ((4, 5), np.sqrt(8.0 / 3.0)),
    ),
    "pentagon": tuple(((i, i + 1), 4.0 / 3.0) for i in range(1, 5)),
    "star": tuple(((i, 3), np.sqrt(8.0 / 5.0)) for i in (1, 2, 4, 5)),
    "ghz": tuple(((i, 3), np.sqrt(8.0 / 5.0)) for i in (1, 2, 4, 5)),
    "pyramid": (((4, 3), np.sqrt(8.0 / 5.0)), ((5, 3), np.sqrt(8.0 / 5.0))),
}


@dataclass(frozen=True)
class GraphSpec:
    """Unit-weight graph over nodes plus a node-to-mode assignment.

    ``adjacency`` is the symmetric 0/1 matrix J with zero diagonal;
    ``labeling`` maps node k (0-based position) to the 1-based physical
    mode labeling[k], identity by default.
    """

    adjacency: np.ndarray
    name: str = "custom"
    labeling: np.ndarray | None = None

    def __post_init__(self):
        j = np.asarray(self.adjacency, dtype=float)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {j.shape}")
        if np.any(j != j.T) or np.any(np.diag(j) != 0) or not np.isin(j, (0.0, 1.0)).all():
            raise ValueError("adjacency must be symmetric 0/1 with zero diagonal")
        n = j.shape[0]
        lab = self.labeling
        lab = np.arange(1, n + 1) if lab is None else np.asarray(lab, dtype=int)
        if sorted(lab.tolist()) != list(range(1, n + 1)):
            raise ValueError(f"labeling must be a permutation of 1..{n}, got {lab}")
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
    j = np.zeros((5, 5))
    for a, b in _PRESET_EDGES[name]:
        j[a - 1, b - 1] = j[b - 1, a - 1] = 1.0
    return GraphSpec(adjacency=j, name=name)


def _node_rows(graph: GraphSpec) -> np.ndarray:
    """Normalized nullifier coefficient rows in node ordering, (n, 2n)."""
    j = graph.adjacency
    n = graph.n
    rows = np.zeros((n, 2 * n))
    rows[:, :n] = -j
    rows[:, n:] = np.eye(n)
    rows /= np.sqrt(1.0 + graph.degrees)[:, None]
    if graph.name == "pyramid":
        # opposite base corners share their neighbor set, so the nullifier
        # differences reduce to bare y differences
        for i, ref in ((3, 0), (4, 1)):
            rows[i] = 0.0
            rows[i, n + i] = 1.0 / np.sqrt(2.0)
            rows[i, n + ref] = -1.0 / np.sqrt(2.0)
    elif graph.name == "ghz":
        rows[:] = 0.0
        for i in (0, 1, 3, 4):
            rows[i, i] = 1.0 / np.sqrt(2.0)
            rows[i, 2] = -1.0 / np.sqrt(2.0)
        rows[2, n:] = 1.0 / np.sqrt(5.0)
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


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of a graph-state certification measurement."""

    graph: str
    lo_phases: np.ndarray
    gains: np.ndarray
    nullifier_variances: np.ndarray
    vlf: np.ndarray
    bound_pairs: tuple[tuple[int, int], ...]
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
    bounds: tuple[tuple[tuple[int, int], float], ...] | None = None,
) -> CertificationReport:
    """Evaluate nullifier variances and inseparability bounds on a state.

    ``bounds`` overrides the preset bound table as ((node_i, node_j),
    bound) pairs and is required for custom graphs. The report passes when
    every nullifier variance is below 1 and every pair sum is below its
    bound. The VLF values are evaluated at the same LO phases with the
    given gains (zero if omitted).
    """
    theta = _lo_phases(graph.n, lo_phases)
    g = np.zeros(graph.n) if gains is None else np.asarray(gains, dtype=float)
    if bounds is None:
        if graph.name not in _PRESET_BOUNDS:
            raise ValueError(
                f"no inseparability bounds known for graph {graph.name!r}; "
                "pass them explicitly"
            )
        bounds = _PRESET_BOUNDS[graph.name]
    variances = quadrature_variances(state.covariance, nullifier_rows(graph), theta)
    pairs = tuple(pair for pair, _ in bounds)
    sums = np.array([variances[a - 1] + variances[b - 1] for a, b in pairs])
    return CertificationReport(
        graph=graph.name,
        lo_phases=theta,
        gains=g,
        nullifier_variances=variances,
        vlf=vlf_values(state, theta, g),
        bound_pairs=pairs,
        bound_sums=sums,
        bounds=np.array([b for _, b in bounds]),
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


def cluster_transform(graph: GraphSpec) -> ClusterTransform:
    """Symmetric cluster transform with X_s = (J^2 + I)^(-1/2), Y_s = J X_s."""
    j = graph.adjacency
    w, p = np.linalg.eigh(j @ j + np.eye(graph.n))
    xs = (p / np.sqrt(w)) @ p.T
    return ClusterTransform(x_block=xs, y_block=j @ xs)


def emulation_error(
    graph: GraphSpec,
    state: GaussianState,
    euler: np.ndarray,
    lo_phases: np.ndarray,
    post_euler: np.ndarray,
) -> float:
    """Frobenius distance between S_LO and a measurable product form.

    S_LO = S_C Obar(euler) R1^T is the orthogonal-symplectic LO-shaping
    transform that maps the state's covariance to the cluster: R1 is the
    passive output factor of the state's Bloch-Messiah decomposition, and
    the Euler angles parametrize the orthogonal freedom of distributing
    squeezing among the cluster nodes. A fibered detection system
    realizes Obar_post(post_euler) D_LO(theta): per-mode LO phases
    followed by orthogonal postprocessing of the photocurrents. A small
    value certifies that S_LO is implementable by that detection layer.
    """
    n = graph.n
    theta = np.asarray(lo_phases, dtype=float)
    if theta.shape != (n,):
        raise ValueError(f"need {n} LO phases, got shape {theta.shape}")

    def obar(angles: np.ndarray) -> np.ndarray:
        o = euler_orthogonal(np.asarray(angles, dtype=float), n)
        return np.block([[o, np.zeros((n, n))], [np.zeros((n, n)), o]])

    r1 = bloch_messiah(state.propagator).passive_out
    target = cluster_transform(graph).matrix @ obar(euler) @ r1.T
    return float(np.linalg.norm(target - obar(post_euler) @ d_lo(theta)))


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
    j = graph.adjacency
    wv, p = np.linalg.eigh(j @ j + np.eye(graph.n))
    b = (p * np.sqrt(wv)) @ p.T
    w = b @ o @ np.diag(np.exp(-2.0 * r)) @ o.T @ b
    var = np.diag(w) / (1.0 + graph.degrees)
    if graph.name == "pyramid":
        for i, ref in ((3, 0), (4, 1)):
            var[i] = 0.5 * (w[i, i] + w[ref, ref] - 2.0 * w[i, ref])
    return var
