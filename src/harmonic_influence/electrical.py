"""Electrical-network model of the opinion process.

A social graph with positive edge conductances plus a grounded
reference node (the opinion field) forms an electrical network.  Fixing
a leader node at potential 1 and the field at potential 0, the
potentials of the remaining nodes solve a grounded Laplacian system,
and the harmonic influence of the leader is one plus the sum of those
potentials.

The exact results of all leaders come from one factorization per network,
solved a block of leaders at a time into O(n + m) floats cached on it;
``grounded_laplacian_solve`` is the per-leader reference they are checked against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .graphs import MessageDigraph, UndirectedGraph, _csr_rows, _node_id, _read_only, _real

# Bound on the backward error of every grounded solve A y = b: the
# residual ||A y - b||_1 over the size || |A| |y| ||_1 of the terms it sums.
RESIDUAL_RTOL = 1e-10
# Leaders whose columns of M^-1 the exact layer solves and reduces at a time.
_SOLVE_BLOCK = 256


def _checked_edge_conductance(g: UndirectedGraph, values) -> np.ndarray:
    """The conductances as a float array, entry k that of ``g.edges[k]``;
    raises unless there is one per edge and each is positive and finite."""
    cond = np.asarray(values, dtype=np.float64)
    if cond.shape != (g.edge_count,):
        raise ValueError(f"edge_conductance must have one entry per edge, shape ({g.edge_count},), got {cond.shape}")
    bad = ~((cond > 0.0) & (cond < np.inf))  # NaN fails too
    if bad.any():
        k = int(np.argmax(bad))
        u, v = g.edges[k]
        raise ValueError(f"conductance of edge {u}-{v} must be positive and finite, got {cond[k]}")
    return cond


def _checked_field_conductance(g: UndirectedGraph, values) -> np.ndarray:
    """The field conductances as a float array; raises unless there is one per node and each is nonnegative and finite."""
    gamma = np.asarray(values, dtype=np.float64)
    if gamma.shape != (g.node_count,):
        raise ValueError("field_conductance must have one entry per node")
    ok = (gamma >= 0.0) & (gamma < np.inf)  # NaN fails too
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"field conductances must be nonnegative and finite, got {gamma[i]} at node {i}")
    return gamma


def _first_unfed(g: UndirectedGraph, field: np.ndarray) -> int | None:
    """The smallest node whose connected component has no positive entry of ``field``, or None."""
    unfed = np.flatnonzero(np.bincount(g._component_labels, weights=field > 0.0)[g._component_labels] == 0.0)
    return int(unfed[0]) if unfed.size else None


@dataclass(frozen=True)
class ConductanceNetwork:
    """Conductances of the social graph plus per-node field conductances.

    ``edge_conductance[k]`` is the positive conductance of ``graph.edges[k]``,
    in the sorted edge order; ``field_conductance[i]`` couples node i to the
    grounded field node (zero means no field edge).  The extended graph
    including the field node must be connected, which also forces at least
    one positive field conductance.
    """

    graph: UndirectedGraph
    edge_conductance: np.ndarray
    field_conductance: np.ndarray

    def __post_init__(self) -> None:
        g = self.graph
        cond = _checked_edge_conductance(g, self.edge_conductance)
        gamma = _checked_field_conductance(g, self.field_conductance)
        unfed = _first_unfed(g, gamma)
        if unfed is not None:
            raise ValueError(
                f"extended network is disconnected: component containing node {unfed} has no field conductance"
            )
        object.__setattr__(self, "edge_conductance", _read_only(cond))
        object.__setattr__(self, "field_conductance", _read_only(gamma))
        overflow = np.flatnonzero(self._totals == np.inf)
        if overflow.size:
            raise ValueError(f"total conductance of node {overflow[0]} overflows to inf")

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    @functools.cached_property
    def arc_conductance(self) -> np.ndarray:
        """Conductance of every ordered arc, indexed by the graph's CSR entry."""
        g = self.graph
        # The CSR entries (u, v) with u < v are the edges in sorted order.
        upper = np.flatnonzero(g._rows < g._csr.indices)
        arc_cond = np.empty(2 * g.edge_count)
        arc_cond[upper] = arc_cond[g._reverse[upper]] = self.edge_conductance
        return _read_only(arc_cond)

    @functools.cached_property
    def _totals(self) -> np.ndarray:
        # Each row sums from 0.0 in ascending neighbor order; the field comes last.
        g = self.graph
        rows = np.bincount(g._rows, weights=self.arc_conductance, minlength=g.node_count)
        with np.errstate(over="ignore"):  # __post_init__ rejects a total that overflows
            return _read_only(rows + self.field_conductance)

    @functools.cached_property
    def _exact(self) -> tuple[np.ndarray, np.ndarray]:
        """The influence of every node and the potential at every CSR entry.

        Entry p at row j and column i holds the potential of i with j as
        leader.  Column l of X = M^-1, M = L + diag(gamma), is the response
        to a unit current injected at l; dividing it by X_ll puts the leader
        at 1.  M is factored once, and the columns of X are solved, checked
        and reduced ``_SOLVE_BLOCK`` leaders at a time, so no n x n array
        is formed.  The CSR entries of a block's leaders are one slice.

        The solve is the transposed one, which M's symmetry makes the same
        system: SuperLU runs it column by column through level-2 kernels, on
        one thread.  The plain multi-column solve calls a level-3 BLAS
        triangular solve per supernode, which wakes a second OpenBLAS thread
        and was about 2.5 times slower on the n=300 pipeline graphs.
        """
        g = self.graph
        n, indptr = g.node_count, g._csr.indptr
        m = _grounded_laplacian(self)
        lu = _factor(m, "grounded Laplacian L + diag(gamma)")
        influence, entry_potentials = np.empty(n), np.empty(indptr[-1])
        for start in range(0, n, _SOLVE_BLOCK):
            leaders = np.arange(start, min(start + _SOLVE_BLOCK, n))
            rhs = np.zeros((n, len(leaders)), order="F")
            rhs[leaders, leaders - start] = 1.0
            x = lu.solve(rhs, trans="T")
            _check_residual(m, x, rhs, leaders)
            pot = x.T  # row l - start is column l of X
            pot /= pot[leaders - start, leaders][:, None]
            pot = _checked_potentials(pot)
            influence[leaders] = pot.sum(axis=1)
            entries = slice(indptr[start], indptr[leaders[-1] + 1])
            entry_potentials[entries] = pot[g._rows[entries] - start, g._csr.indices[entries]]
        return _read_only(influence), _read_only(entry_potentials)


def uniform_network(g: UndirectedGraph, gamma: float) -> ConductanceNetwork:
    """Network with conductance 1 on every edge and gamma to the field."""
    return ConductanceNetwork(
        graph=g,
        edge_conductance=np.ones(g.edge_count),
        field_conductance=np.full(g.node_count, _real(gamma, "gamma")),
    )


@dataclass(frozen=True)
class InfluenceWeights:
    """Row-normalized trust weights derived from conductances.

    ``arc_trust[p]`` is how much j trusts neighbor i, p being the graph's
    CSR entry at row j and column i (the message (j, i)); ``field_trust[j]``
    is how much j trusts the opinion field.  Construction checks the shapes,
    that arc trusts lie in (0, 1] and field trusts in [0, 1], and that each
    row sums to one within eps per term, and stores both as read-only float arrays.
    """

    graph: UndirectedGraph
    arc_trust: np.ndarray
    field_trust: np.ndarray

    def __post_init__(self) -> None:
        g = self.graph
        for name, size, above_low, bounds in (("arc_trust", 2 * g.edge_count, np.greater, "(0, 1]"),
                                              ("field_trust", g.node_count, np.greater_equal, "[0, 1]")):
            values = np.asarray(getattr(self, name), dtype=np.float64)
            if values.shape != (size,):
                raise ValueError(f"{name} must have shape ({size},), got {values.shape}")
            # NaN and inf fail the range test too.
            bad = ~(above_low(values, 0.0) & (values <= 1.0))
            if bad.any():
                p = int(np.argmax(bad))
                raise ValueError(f"{name}[{p}] is {values[p]}: a trust must be finite and lie in {bounds}")
            object.__setattr__(self, name, _read_only(values))
        # A row of degree + 1 terms may miss 1 by eps per term: build_weights sums the terms and
        # rounds each quotient, this sums again, and to first order that is (2 * degree + 1) * eps / 2.
        totals = np.bincount(g._rows, weights=self.arc_trust, minlength=g.node_count) + self.field_trust
        off = ~(np.abs(totals - 1.0) <= np.finfo(np.float64).eps * (np.diff(g._csr.indptr) + 1))
        if off.any():
            j = int(np.argmax(off))
            raise ValueError(f"trusts of node {j} sum to {float(totals[j])!r}, not to 1")


def build_weights(net: ConductanceNetwork) -> InfluenceWeights:
    """Normalize conductances into trust weights, row by row; an arc trust, or every field trust of a
    component, that underflows to 0 is rejected: message passing would divide by it, or run undriven."""
    # Every total is positive: edge conductances are, and a node without an edge is fed.
    g, denom = net.graph, net._totals
    arc_trust = _read_only(net.arc_conductance / denom[g._rows])
    if not arc_trust.all():
        p = np.flatnonzero(arc_trust == 0.0)[0]
        j, i = int(g._rows[p]), int(g._csr.indices[p])
        raise ValueError(f"edge {min(i, j)}-{max(i, j)}: trust of node {j} in node {i} underflows to 0")
    field_trust = _read_only(net.field_conductance / denom)
    unfed = _first_unfed(g, field_trust)
    if unfed is not None:
        raise ValueError(f"every field trust in the component containing node {unfed} underflows to 0")
    return InfluenceWeights(graph=g, arc_trust=arc_trust, field_trust=field_trust)


def _grounded_laplacian(net: ConductanceNetwork) -> scipy.sparse.csr_matrix:
    """M = L + diag(gamma): the Laplacian over the social nodes, field row/column dropped.

    Diagonal entries carry the full degree including the field edge, so
    removing the leader row/column gives the grounded system directly.
    The CSR rows keep their columns ascending.  M is symmetric bit for
    bit, so its transpose, the same arrays read as CSC, is M as well.
    """
    g, n = net.graph, net.node_count
    nodes = np.arange(n)
    rows = np.concatenate((g._rows, nodes))
    cols = np.concatenate((g._csr.indices, nodes))
    values = np.concatenate((-net.arc_conductance, net._totals))
    order = np.lexsort((cols, rows))
    return _csr_rows(rows[order], cols[order], values[order], (n, n))


def _splu(m: scipy.sparse.csr_matrix) -> tuple[scipy.sparse.linalg.SuperLU, np.ndarray]:
    """Sparse LU of the symmetric matrix m with pivots kept on the diagonal, and the pivot of each node.

    The pivots are NaN if SuperLU swapped rows after all.
    """
    lu = scipy.sparse.linalg.splu(
        m.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )
    pivots = lu.U.diagonal()[lu.perm_c]  # pivot of node i sits at position perm_c[i]
    return lu, pivots if np.array_equal(lu.perm_r, lu.perm_c) else np.full(len(pivots), np.nan)


def _factor(m: scipy.sparse.csr_matrix, what: str, nodes: np.ndarray | None = None) -> scipy.sparse.linalg.SuperLU:
    """Sparse LU of the symmetric matrix m, checked positive definite.

    Pivots stay on the diagonal in one symmetric order, so the factors are
    an LDL^T factorization and m is positive definite exactly when every
    pivot is positive.  A pivot computed as a_kk minus up to n products
    carries an error of about n * eps * a_kk, the floor, so a positive one
    at or below it has cancelled to rounding level: m is then numerically
    singular, and the message names the smallest such node, as
    ``nodes[k]`` for row k when ``nodes`` is given.  The floor is never
    below 1 / float64 max, for a smaller pivot's reciprocal overflows.

    SuperLU stops at an exactly zero pivot without saying where.  The
    elimination order depends on the pattern alone, so m with the floor
    added to its diagonal repeats it, and there the zero pivot rises to a
    few floors while sound ones stay about 1 / (n * eps) floors up: the
    node with the least pivot against its floor is the one named.
    """
    floor = np.maximum(m.shape[0] * np.finfo(np.float64).eps * np.abs(m.diagonal()), 1 / np.finfo(np.float64).max)
    try:
        lu, pivots = _splu(m)
        low = pivots <= floor
    except RuntimeError as exc:
        try:
            _, pivots = _splu(m + scipy.sparse.diags(floor))
        except RuntimeError:
            raise ArithmeticError(f"{what} is not positive definite") from exc
        low = np.arange(len(pivots)) == np.argmin(pivots / floor)  # one node, so this branch raises
    if not np.all(pivots > 0.0):
        raise ArithmeticError(f"{what} is not positive definite")
    if low.any():
        k = int(np.argmax(low))
        raise ArithmeticError(
            f"{what} is not positive definite to working precision: the pivot of node "
            f"{k if nodes is None else int(nodes[k])} fell to rounding level (numerically singular)"
        )
    return lu


def _check_residual(a: scipy.sparse.csr_matrix, y: np.ndarray, b: np.ndarray, leaders: Sequence[int]) -> None:
    """Raise unless column k of y, the solve for leaders[k], has backward error
    ||a y - b||_1 / || |a| |y| ||_1 at most RESIDUAL_RTOL; y and b may be vectors."""
    r = a @ y
    r -= b
    with np.errstate(invalid="ignore"):  # an overflowed solve gives inf / inf
        residual = np.atleast_1d(np.abs(r, out=r).sum(axis=0) / (abs(a) @ np.abs(y, out=r)).sum(axis=0))
    k = int(np.argmin(residual <= RESIDUAL_RTOL))  # the first failure, if any; NaN fails too
    if not residual[k] <= RESIDUAL_RTOL:
        raise ArithmeticError(f"grounded solve residual {residual[k]:.3e} exceeds tolerance for leader {leaders[k]}")


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
    n, leader = net.node_count, _node_id(leader, "leader")
    if not 0 <= leader < n:
        raise ValueError(f"leader {leader} outside node range")
    if n == 1:
        return _checked_potentials(np.ones(1))

    m = _grounded_laplacian(net)
    keep = np.flatnonzero(np.arange(n) != leader)
    lrr = m[keep][:, keep]
    rhs = -m[leader].toarray()[0, keep]  # row leader is column leader: the conductances to the leader
    y_r = _factor(lrr, f"grounded Laplacian with leader {leader}", keep).solve(rhs)

    _check_residual(lrr, y_r, rhs, (leader,))
    values = np.empty(n)
    values[keep] = y_r
    values[leader] = 1.0
    return _checked_potentials(values)


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
