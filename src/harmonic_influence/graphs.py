"""Graph containers and algorithms: undirected social graphs, digraphs,
random generation, spanning trees, the message digraph, and strongly
connected component / condensation analysis.

An undirected graph indexes its ordered arcs once, by its CSR adjacency
(``UndirectedGraph._csr``, columns ascending in every row): entry p, at
row j and column i, is the arc (j, i), and the messages and trust weights
are arrays indexed by p.  Connected components, strong components and
the diameter run in ``scipy.sparse.csgraph``.  Strong components come
from Pearce's algorithm, which labels each component when it finishes
it, so every arc between two components runs from a higher label to a
lower one; ``condensation`` checks that property on every call
(``AssertionError`` if it fails), then moves the sink components first,
keeping label order within sinks and within the rest.

All random operations take an explicit integer seed and use numpy's
PCG64 generator (``numpy.random.default_rng``), so identical seeds give
identical graphs on every platform.  Node ids are dense integers
``0..n-1``; graph objects are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

Edge = tuple[int, int]
Arc = tuple[int, int]


def _normalize_edges(node_count: int, edges: Iterable[Sequence[int]]) -> tuple[Edge, ...]:
    seen: set[Edge] = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise ValueError(f"self-loop {u}-{v} not allowed")
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise ValueError(f"edge {u}-{v} outside node range 0..{node_count - 1}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge {key[0]}-{key[1]}")
        seen.add(key)
    return tuple(sorted(seen))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _csr_rows(
    tails: np.ndarray, heads: np.ndarray, weights: np.ndarray, shape: tuple[int, int]
) -> scipy.sparse.csr_matrix:
    """CSR matrix whose row v holds the weighted arcs (v, w), in the given order.

    The arcs must come sorted by tail.  A CSR matvec starts every row at
    0.0 and adds the rounded products in storage order, so its sums run in
    arc order and are bitwise reproducible.
    """
    indptr = np.searchsorted(tails, np.arange(shape[0] + 1))
    return scipy.sparse.csr_matrix((weights, heads, indptr), shape=shape)


def _strong_components(adjacency: scipy.sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Strong component label of every node, and whether its component is nontrivial.

    A component is nontrivial when it has more than one node or a
    self-loop, that is, when it holds a directed cycle.
    """
    _, labels = scipy.sparse.csgraph.connected_components(adjacency, connection="strong")
    nontrivial = np.bincount(labels)[labels] > 1
    nontrivial[adjacency.diagonal() != 0] = True
    return labels, nontrivial


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph on nodes 0..node_count-1."""

    node_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        object.__setattr__(self, "edges", _normalize_edges(self.node_count, self.edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        indptr, cols = self._csr.indptr.tolist(), self._csr.indices.tolist()
        return tuple(tuple(cols[a:b]) for a, b in zip(indptr, indptr[1:]))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @functools.cached_property
    def _csr(self) -> scipy.sparse.csr_matrix:
        """Unit adjacency, both directions of every edge, columns ascending in every row."""
        ends = np.fromiter(itertools.chain.from_iterable(self.edges), dtype=np.intp, count=2 * self.edge_count)
        rows = np.concatenate((ends[0::2], ends[1::2]))
        cols = np.concatenate((ends[1::2], ends[0::2]))
        order = np.lexsort((cols, rows))
        return _csr_rows(rows[order], cols[order], np.ones(len(rows)), (self.node_count, self.node_count))

    @functools.cached_property
    def _rows(self) -> np.ndarray:
        return _read_only(np.repeat(np.arange(self.node_count), np.diff(self._csr.indptr)))

    @functools.cached_property
    def _reverse(self) -> np.ndarray:
        # The entries sorted by (column, row) are the reverses of the entries in order.
        return _read_only(np.lexsort((self._rows, self._csr.indices)))

    @functools.cached_property
    def _component_labels(self) -> np.ndarray:
        """Connected-component label of every node, searched once per graph."""
        return _read_only(scipy.sparse.csgraph.connected_components(self._csr, directed=False)[1])


@dataclass(frozen=True)
class Digraph:
    """Directed graph; self-loops allowed, duplicate arcs rejected.  Arc k of the
    sorted ``arcs`` is (tails[k], heads[k]) of ``_ends``, read once per digraph;
    a digraph built from those arrays derives ``arcs`` only when it is read."""

    node_count: int
    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        seen: set[Arc] = set()
        for a in self.arcs:
            v, w = int(a[0]), int(a[1])
            if not (0 <= v < self.node_count and 0 <= w < self.node_count):
                raise ValueError(f"arc {v}->{w} outside node range")
            if (v, w) in seen:
                raise ValueError(f"duplicate arc {v}->{w}")
            seen.add((v, w))
        object.__setattr__(self, "arcs", tuple(sorted(seen)))

    @classmethod
    def _from_sorted_ends(cls, node_count: int, tails: np.ndarray, heads: np.ndarray) -> Digraph:
        """A digraph from arcs already in range, unique and sorted, without re-checking them."""
        d = object.__new__(cls)
        object.__setattr__(d, "node_count", node_count)
        d.__dict__["_ends"] = (_read_only(tails), _read_only(heads))
        return d

    def __getattr__(self, name: str):
        # Called only for attributes not yet set: a digraph built from its
        # arrays derives the arcs tuple on first read.
        if name != "arcs" or "_ends" not in self.__dict__:
            raise AttributeError(name)
        arcs = tuple(zip(*(e.tolist() for e in self._ends)))
        object.__setattr__(self, "arcs", arcs)
        return arcs

    @functools.cached_property
    def _ends(self) -> tuple[np.ndarray, np.ndarray]:
        # fromiter reads the flat stream about three times faster than np.asarray(arcs)
        ends = np.fromiter(itertools.chain.from_iterable(self.arcs), dtype=np.intp, count=2 * len(self.arcs))
        ends.setflags(write=False)
        return ends[0::2], ends[1::2]


@dataclass(frozen=True)
class MessageDigraph:
    """Digraph of inter-message dependencies of an undirected graph.

    Each undirected edge {i, j} contributes two nodes: the ordered pairs
    (j, i) and (i, j).  The node (j, i) carries the message flowing from
    i to j, and has an arc to (i, k) for every neighbor k of i other
    than j (the messages it is computed from).  Message (j, i) is node p,
    the base graph's CSR entry at row j and column i, so nodes run in
    (receiver, sender) order; ``reverse[p]`` is the message (i, j) sent back.
    """

    base: UndirectedGraph
    dependencies: Digraph

    @property
    def size(self) -> int:
        return self.dependencies.node_count

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return self.dependencies.arcs

    @property
    def reverse(self) -> np.ndarray:
        return self.base._reverse

    @functools.cached_property
    def arc_nodes(self) -> tuple[Arc, ...]:
        return tuple(zip(self.receivers().tolist(), self.senders().tolist()))

    def receivers(self) -> np.ndarray:
        return self.base._rows

    def senders(self) -> np.ndarray:
        return self.base._csr.indices.astype(np.intp)

    def to_digraph(self) -> Digraph:
        return self.dependencies


@dataclass(frozen=True)
class CondensationDigraph:
    """Strongly connected components of a digraph and the acyclic quotient.

    Component ids form an acyclic ordering: every condensation arc
    (h, k) has k < h, and all sink components get the smallest ids.
    Within the sinks, and within the other components, ids follow
    ``scipy.sparse.csgraph``'s strong-component labels; callers should
    rely on the two rules only.
    """

    component_of: tuple[int, ...]
    components: tuple[frozenset[int], ...]
    nontrivial: tuple[bool, ...]
    arcs: frozenset[tuple[int, int]]

    def nontrivial_components(self) -> tuple[frozenset[int], ...]:
        return tuple(c for c, nt in zip(self.components, self.nontrivial) if nt)


def erdos_renyi(n: int, p: float, seed: int) -> UndirectedGraph:
    """G(n, p) random graph: each of the n(n-1)/2 pairs kept with probability p."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    # One draw per pair in row-major order (0, 1), (0, 2), ..., (n-2, n-1);
    # this order fixes each pair's draw, so seeded graphs never change.
    rows, cols = np.triu_indices(n, 1)
    keep = rng.random(len(rows)) < p
    return UndirectedGraph(n, tuple(zip(rows[keep].tolist(), cols[keep].tolist())))


def connected_components(g: UndirectedGraph) -> list[set[int]]:
    """Node sets of the connected components, listed by their smallest node."""
    # Scanning the nodes in ascending order meets each component first at its smallest node.
    comps: dict[int, set[int]] = {}
    for v, label in enumerate(g._component_labels.tolist()):
        comps.setdefault(label, set()).add(v)
    return list(comps.values())


def is_connected(g: UndirectedGraph) -> bool:
    return not g._component_labels.any()


def _require_connected(g: UndirectedGraph) -> None:
    comps = connected_components(g)
    if len(comps) > 1:
        u = min(comps[0])
        v = min(comps[1])
        raise ValueError(f"graph is disconnected: no path between nodes {u} and {v}")


def diameter(g: UndirectedGraph) -> int:
    """Longest shortest path, by all-pairs unweighted shortest paths.  Requires a connected graph."""
    _require_connected(g)
    return int(scipy.sparse.csgraph.shortest_path(g._csr, directed=False, unweighted=True).max())


def spanning_tree(g: UndirectedGraph, seed: int) -> UndirectedGraph:
    """Random spanning tree of a connected graph.

    Randomized BFS: start from a random root and visit neighbors in
    uniformly shuffled order, keeping the n-1 discovery edges.
    """
    _require_connected(g)
    rng = np.random.default_rng(seed)
    root = int(rng.integers(g.node_count))
    seen = [False] * g.node_count
    seen[root] = True
    queue = deque([root])
    edges: list[Edge] = []
    while queue:
        v = queue.popleft()
        nbrs = list(g.adjacency[v])
        rng.shuffle(nbrs)
        for w in nbrs:
            if not seen[w]:
                seen[w] = True
                edges.append((v, w))
                queue.append(w)
    return UndirectedGraph(g.node_count, tuple(edges))


def add_extra_edges(tree: UndirectedGraph, pool: UndirectedGraph, k: int, seed: int) -> UndirectedGraph:
    """Add k edges drawn uniformly without replacement from pool minus tree."""
    if tree.node_count != pool.node_count:
        raise ValueError("tree and pool must share the same node set")
    tree_edges = set(tree.edges)
    pool_edges = set(pool.edges)
    if not tree_edges <= pool_edges:
        raise ValueError("tree edges must be a subset of pool edges")
    candidates = sorted(pool_edges - tree_edges)
    if k < 0 or k > len(candidates):
        raise ValueError(f"k={k} exceeds the {len(candidates)} available extra edges")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(candidates), size=k, replace=False) if k else []
    extra = [candidates[int(c)] for c in chosen]
    return UndirectedGraph(tree.node_count, tree.edges + tuple(extra))


def message_digraph(g: UndirectedGraph) -> MessageDigraph:
    """Build the dependency digraph of the per-edge messages of g."""
    if g.edge_count == 0:
        raise ValueError("graph has no edges, so there are no messages to pass")
    indptr, senders = g._csr.indptr, g._csr.indices
    # Message p = (j, i) depends on the entries of row i, ascending, except reverse[p].
    starts, counts = indptr[senders], np.diff(indptr)[senders]
    tails = np.repeat(np.arange(len(senders)), counts)
    heads = np.arange(len(tails)) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    keep = heads != g._reverse[tails]
    return MessageDigraph(g, Digraph._from_sorted_ends(len(senders), tails[keep], heads[keep]))


def condensation(d: Digraph) -> CondensationDigraph:
    """Strongly connected components with a sinks-first acyclic numbering.

    Every condensation arc points to a smaller id and the sinks take the
    smallest ids.  The numbering starts from csgraph's strong-component
    labels, checks that every arc between components runs from a higher
    label to a lower one (``AssertionError`` if not), and stably moves
    the sink components first.
    """
    n = d.node_count
    tails, heads = d._ends
    labels, nontrivial = _strong_components(_csr_rows(tails, heads, np.ones(len(tails)), (n, n)))
    cross = labels[tails] != labels[heads]
    out_label, in_label = labels[tails[cross]], labels[heads[cross]]
    if np.any(out_label <= in_label):
        raise AssertionError("strong component labels are not in reverse topological order")
    count = int(labels.max()) + 1
    has_out = np.zeros(count, dtype=bool)
    has_out[out_label] = True
    new_id = np.empty(count, dtype=np.intp)
    new_id[np.argsort(has_out, kind="stable")] = np.arange(count)

    component_of = new_id[labels]
    members = np.argsort(component_of, kind="stable").tolist()
    bounds = np.cumsum(np.bincount(component_of, minlength=count)).tolist()
    flags = np.zeros(count, dtype=bool)
    flags[component_of] = nontrivial
    return CondensationDigraph(
        component_of=tuple(component_of.tolist()),
        components=tuple(frozenset(members[a:b]) for a, b in zip([0] + bounds, bounds)),
        nontrivial=tuple(flags.tolist()),
        arcs=frozenset(zip(new_id[out_label].tolist(), new_id[in_label].tolist())),
    )

