"""Electrical-network model of the opinion process.

A social graph with positive edge conductances plus a grounded
reference node (the opinion field) forms an electrical network.  Fixing
a leader node at potential 1 and the field at potential 0, the
potentials of the remaining nodes solve a grounded Laplacian system,
and the harmonic influence of the leader is one plus the sum of those
potentials.

The exact results of all leaders come from one factorization per
network, cached on it as O(n + m) floats; ``grounded_laplacian_solve`` is
the independent per-leader reference they are checked against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .graphs import Edge, MessageDigraph, UndirectedGraph, _csr_rows, _read_only, connected_components

# Bound on the backward error of every grounded solve A y = b: the
# residual ||A y - b||_1 over the size || |A| |y| ||_1 of the terms it sums.
RESIDUAL_RTOL = 1e-10


def _edge_conductances(g: UndirectedGraph, edge_conductance: Mapping[Edge, float]) -> dict[Edge, float]:
    """The conductances keyed by (u, v), u < v, checked to cover each edge of g exactly once."""
    cond: dict[Edge, float] = {}
    for e, c in edge_conductance.items():
        key = tuple(sorted(e))
        if key in cond:
            raise ValueError(f"edge {key[0]}-{key[1]} given twice")
        cond[key] = float(c)
    if set(cond) != set(g.edges):
        raise ValueError("edge conductances must cover exactly the graph's edges")
    return cond


@dataclass(frozen=True)
class ConductanceNetwork:
    """Conductances of the social graph plus per-node field conductances.

    ``edge_conductance`` maps each edge (u, v), u < v, to a positive
    value; ``field_conductance[i]`` couples node i to the grounded field
    node (zero means no field edge).  The extended graph including the
    field node must be connected, which also forces at least one
    positive field conductance.
    """

    graph: UndirectedGraph
    edge_conductance: Mapping[Edge, float]
    field_conductance: np.ndarray

    def __post_init__(self) -> None:
        g = self.graph
        cond = _edge_conductances(g, self.edge_conductance)
        for e, c in cond.items():
            if not 0.0 < c < np.inf:
                raise ValueError(f"conductance of edge {e} must be positive and finite, got {c}")
        gamma = np.asarray(self.field_conductance, dtype=np.float64)
        if gamma.shape != (g.node_count,):
            raise ValueError("field_conductance must have one entry per node")
        if not np.all((gamma >= 0.0) & (gamma < np.inf)):
            raise ValueError("field conductances must be nonnegative and finite")
        for comp in connected_components(g):
            if not any(gamma[i] > 0.0 for i in comp):
                raise ValueError(
                    "extended network is disconnected: component containing node "
                    f"{min(comp)} has no field conductance"
                )
        object.__setattr__(self, "edge_conductance", cond)
        object.__setattr__(self, "field_conductance", _read_only(gamma))

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    @functools.cached_property
    def arc_conductance(self) -> np.ndarray:
        """Conductance of every ordered arc, indexed by the graph's CSR entry."""
        g = self.graph
        # The CSR entries (u, v) with u < v are the edges in sorted order.
        upper = np.flatnonzero(g._rows < g._csr.indices)
        values = np.fromiter(map(self.edge_conductance.__getitem__, g.edges), dtype=np.float64, count=g.edge_count)
        arc_cond = np.empty(2 * g.edge_count)
        arc_cond[upper] = arc_cond[g._reverse[upper]] = values
        return _read_only(arc_cond)

    @functools.cached_property
    def _totals(self) -> np.ndarray:
        # Each row sums from 0.0 in ascending neighbor order, whatever the
        # order of the mapping; the field comes last.
        g = self.graph
        rows = np.bincount(g._rows, weights=self.arc_conductance, minlength=g.node_count)
        return _read_only(rows + self.field_conductance)

    @functools.cached_property
    def _exact(self) -> tuple[np.ndarray, np.ndarray]:
        """The influence of every node and the potential at every CSR entry.

        Entry p at row j and column i holds the potential of i with j as
        leader.  The n x n potential matrix they come from is dropped.
        """
        g = self.graph
        pot = _potential_matrix(self)
        return _read_only(pot.sum(axis=1)), _read_only(pot[g._rows, g._csr.indices])


def uniform_network(g: UndirectedGraph, gamma: float) -> ConductanceNetwork:
    """Network with conductance 1 on every edge and gamma to the field."""
    return ConductanceNetwork(
        graph=g,
        edge_conductance={e: 1.0 for e in g.edges},
        field_conductance=np.full(g.node_count, float(gamma)),
    )


@dataclass(frozen=True)
class InfluenceWeights:
    """Row-normalized trust weights derived from conductances.

    ``arc_trust[p]`` is how much j trusts neighbor i, p being the graph's
    CSR entry at row j and column i (the message (j, i)); ``field_trust[j]``
    is how much j trusts the opinion field.  Each row sums to one.
    """

    graph: UndirectedGraph
    arc_trust: np.ndarray
    field_trust: np.ndarray


def build_weights(net: ConductanceNetwork) -> InfluenceWeights:
    """Normalize conductances into trust weights, row by row; a trust that underflows to 0 is rejected."""
    g = net.graph
    denom = net._totals
    if not np.all(denom > 0.0):
        raise ValueError(f"node {np.argmin(denom > 0.0)} is isolated: zero total conductance")
    arc_trust = _read_only(net.arc_conductance / denom[g._rows])
    if not arc_trust.all():
        p = np.flatnonzero(arc_trust == 0.0)[0]
        j, i = int(g._rows[p]), int(g._csr.indices[p])
        raise ValueError(f"edge {min(i, j)}-{max(i, j)}: trust of node {j} in node {i} underflows to 0")
    return InfluenceWeights(graph=g, arc_trust=arc_trust, field_trust=_read_only(net.field_conductance / denom))


def _grounded_laplacian(net: ConductanceNetwork) -> scipy.sparse.csr_matrix:
    """M = L + diag(gamma): the Laplacian over the social nodes, field row/column dropped.

    Diagonal entries carry the full degree including the field edge, so
    removing the leader row/column gives the grounded system directly.
    The CSR rows keep their columns ascending.  M is symmetric bit for
    bit, so its transpose, the same arrays read as CSC, is M as well.
    """
    g = net.graph
    n = g.node_count
    nodes = np.arange(n)
    rows = np.concatenate((g._rows, nodes))
    cols = np.concatenate((g._csr.indices, nodes))
    values = np.concatenate((-net.arc_conductance, net._totals))
    order = np.lexsort((cols, rows))
    return _csr_rows(rows[order], cols[order], values[order], (n, n))


def _factor(m: scipy.sparse.csr_matrix, what: str) -> scipy.sparse.linalg.SuperLU:
    """Sparse LU of the symmetric matrix m, checked positive definite.

    Pivots stay on the diagonal in one symmetric order, so the factors are
    an LDL^T factorization and m is positive definite exactly when every
    pivot is positive.  A pivot computed as a_kk minus up to n products
    carries an error of about n * eps * a_kk, so one below that has
    cancelled to rounding level and counts as nonpositive.
    """
    try:
        lu = scipy.sparse.linalg.splu(
            m.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
        )
    except RuntimeError as exc:  # an exactly zero pivot
        raise ArithmeticError(f"{what} is not positive definite") from exc
    pivots = lu.U.diagonal()[lu.perm_c]  # pivot of node i sits at position perm_c[i]
    floor = m.shape[0] * np.finfo(np.float64).eps * np.abs(m.diagonal())
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(pivots > floor)):
        raise ArithmeticError(f"{what} is not positive definite")
    return lu


def _checked_potentials(values: np.ndarray) -> np.ndarray:
    # Potentials are convex combinations of the boundary values 0 and 1;
    # anything beyond roundoff distance from [0, 1] (or NaN) signals a bad system.
    if not (values.min() >= -1e-9 and values.max() <= 1.0 + 1e-9):
        raise ArithmeticError("potentials escaped [0, 1] beyond roundoff")
    np.clip(values, 0.0, 1.0, out=values)
    return _read_only(values)


def grounded_laplacian_solve(net: ConductanceNetwork, leader: int) -> np.ndarray:
    """Potentials of all nodes with the leader at 1 and the field grounded.

    Solves M_RR y_R = -M_{R,leader} where R excludes the leader, with a
    factorization of its own: the per-leader reference for
    ``harmonic_influence_exact`` and ``exact_message_potentials``, which
    it neither reads nor fills.
    """
    n = net.node_count
    if not 0 <= leader < n:
        raise ValueError(f"leader {leader} outside node range")
    if n == 1:
        return _checked_potentials(np.ones(1))

    m = _grounded_laplacian(net)
    keep = np.flatnonzero(np.arange(n) != leader)
    lrr = m[keep][:, keep]
    rhs = -m[leader].toarray()[0, keep]  # row leader is column leader: the conductances to the leader
    y_r = _factor(lrr, f"grounded Laplacian with leader {leader}").solve(rhs)

    residual = np.abs(lrr @ y_r - rhs).sum() / (abs(lrr) @ np.abs(y_r)).sum()
    if not residual <= RESIDUAL_RTOL:  # NaN fails too
        raise ArithmeticError(
            f"grounded solve residual {residual:.3e} exceeds tolerance for leader {leader}"
        )

    values = np.empty(n)
    values[keep] = y_r
    values[leader] = 1.0
    return _checked_potentials(values)


def _potential_matrix(net: ConductanceNetwork) -> np.ndarray:
    """Row l holds the potentials with leader l at 1 and the field grounded.

    Column l of X = M^-1, M = L + diag(gamma), is the response to a unit
    current injected at l; dividing it by X_ll puts the leader at 1.  M is
    factored once and one solve gives all n columns.  Every column passes
    the residual check ||M x_l - e_l||_1 <= RESIDUAL_RTOL * || |M| |x_l| ||_1.

    The solve is the transposed one, which M's symmetry makes the same
    system: SuperLU runs it column by column through level-2 kernels, on
    one thread.  The plain multi-column solve calls a level-3 BLAS
    triangular solve per supernode, which wakes a second OpenBLAS thread
    and was about 2.5 times slower on the n=300 pipeline graphs.
    """
    m = _grounded_laplacian(net)
    n = net.node_count
    x = _factor(m, "grounded Laplacian L + diag(gamma)").solve(np.eye(n), trans="T")
    # A sparse product copies X's columns into row order, so the residuals
    # run a block of columns at a time and no second n x n array joins X.
    col_abs = np.asarray(abs(m).sum(axis=0)).ravel()
    residual = np.empty(n)
    for start in range(0, n, 256):
        xb = x[:, start : start + 256]
        r = m @ xb
        cols = np.arange(r.shape[1])
        r[start + cols, cols] -= 1.0
        norms = np.abs(r, out=r).sum(axis=0)
        r = np.abs(xb, out=r)
        r *= col_abs[:, None]
        residual[start + cols] = norms / r.sum(axis=0)
    failed = np.flatnonzero(~(residual <= RESIDUAL_RTOL))  # NaN fails too
    if failed.size:
        leader = failed[0]
        raise ArithmeticError(
            f"grounded solve residual {residual[leader]:.3e} exceeds tolerance for leader {leader}"
        )
    pot = x.T  # row l is column l of X
    pot /= pot.diagonal().copy()[:, None]
    return _checked_potentials(pot)


def harmonic_influence_exact(net: ConductanceNetwork) -> np.ndarray:
    """Exact harmonic influence of every node: H(l) = (M^-1 1)_l / (M^-1)_ll,
    the sum of all potentials with l as leader, its own 1 included.

    The first exact call on a network factors M once for both exact
    results; later calls return the same read-only arrays.
    """
    return net._exact[0]


def exact_message_potentials(net: ConductanceNetwork, md: MessageDigraph) -> np.ndarray:
    """Exact counterpart of the converged potential messages, in message order.

    Entry for the message node (j, i) is the potential of i when j is
    the leader, (M^-1)_ij / (M^-1)_jj: what the message from i to j
    estimates.  Message p is CSR entry p of the graph, so this is the
    network's cached entry potentials; ``md`` must be built on its graph.
    """
    if md.base != net.graph:
        raise ValueError("network and message digraph cover different graphs")
    return net._exact[1]


def glue_leaders(
    g: UndirectedGraph,
    edge_conductance: Mapping[Edge, float],
    zero_leader_set: Sequence[int] | set[int],
) -> ConductanceNetwork:
    """Collapse a set of leaf nodes with fixed zero opinion into the field.

    Every member of ``zero_leader_set`` must be a leaf; its single edge
    becomes a field edge of the surviving neighbor, and parallel field
    edges are merged by summing conductances.  Surviving nodes are
    renumbered densely in ascending original order.
    """
    leaders = set(int(v) for v in zero_leader_set)
    if not leaders:
        raise ValueError("zero_leader_set must be nonempty")
    for v in leaders:
        if not 0 <= v < g.node_count:
            raise ValueError(f"leader {v} outside node range")
        if g.degree(v) != 1:
            raise ValueError(f"zero-opinion leader {v} is not a leaf (degree {g.degree(v)})")
    cond = _edge_conductances(g, edge_conductance)

    survivors = [v for v in range(g.node_count) if v not in leaders]
    if not survivors:
        raise ValueError("all nodes are zero-opinion leaders; nothing survives")
    new_id = {v: idx for idx, v in enumerate(survivors)}

    new_edges: list[Edge] = []
    new_cond: dict[Edge, float] = {}
    gamma = np.zeros(len(survivors))
    # Sorted edges put each survivor's glued leaves in ascending order, so
    # its field sums the same way whatever the order of the mapping.
    for (u, v), c in sorted(cond.items()):
        u_in, v_in = u in leaders, v in leaders
        if u_in and v_in:
            continue  # both endpoints collapse into the field node
        if u_in or v_in:
            keep = v if u_in else u
            gamma[new_id[keep]] += c
        else:
            e = (new_id[u], new_id[v]) if new_id[u] < new_id[v] else (new_id[v], new_id[u])
            new_edges.append(e)
            new_cond[e] = c
    new_graph = UndirectedGraph(len(survivors), tuple(new_edges))
    return ConductanceNetwork(graph=new_graph, edge_conductance=new_cond, field_conductance=gamma)
