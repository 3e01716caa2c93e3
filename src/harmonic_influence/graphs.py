"""Graph containers and algorithms: undirected social graphs, digraphs,
random generation, spanning trees, the message digraph, and strongly
connected component / condensation analysis.

Both graph kinds are built from arrays: one pair check (``_checked_pairs``)
turns the edges or arcs into sorted end arrays, and the generators hand
over arrays too.  An undirected graph indexes its ordered arcs once, by
its CSR adjacency (``UndirectedGraph._csr``, columns ascending in every
row): entry p, at row j and column i, is the arc (j, i), and the messages
and trust weights are arrays indexed by p.  Every search runs in
``scipy.sparse.csgraph``, in O(n + m) memory.

All random operations take an explicit integer seed and use numpy's
PCG64 generator (``numpy.random.default_rng``), so identical seeds give
identical graphs on every platform.  Node ids are dense integers
``0..n-1``; graph objects are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

Edge = tuple[int, int]
Arc = tuple[int, int]
_INTEGER = (int, np.integer)  # the types of a node id
# Pairs drawn at once by erdos_renyi: 8 MB of draws, whole rows at a time.
_PAIR_CHUNK = 2**20


def _checked_pairs(node_count: int, pairs, undirected: bool) -> tuple[np.ndarray, np.ndarray]:
    """Node pairs, or an (m, 2) signed-integer array, as two read-only end arrays sorted by first end, then second.

    An undirected edge is stored as (smaller, larger).  Raises ``ValueError`` on the first offending
    pair in input order: one not of length two, with an end that is not an integer or lies outside
    0..node_count-1, repeating an earlier pair or, for an edge, a self-loop or an earlier edge reversed."""
    if node_count < 1:
        raise ValueError("node_count must be >= 1")
    if isinstance(pairs, np.ndarray) and pairs.shape[1:] == (2,) and np.issubdtype(pairs.dtype, np.signedinteger):
        ends, count = pairs.astype(np.intp).ravel(), len(pairs)
    else:
        pairs = tuple(pairs)
        # The pairs before the first of the wrong length are read as one flat stream.
        count = len(pairs) if set(map(len, pairs)) <= {2} else next(k for k, a in enumerate(pairs) if len(a) != 2)
        flat = tuple(itertools.chain.from_iterable(pairs[:count]))
        try:
            if not all(issubclass(t, _INTEGER) for t in set(map(type, flat))):
                raise TypeError  # fromiter would truncate 0.5 and parse "0"
            # fromiter reads the flat stream about three times faster than np.asarray(pairs)
            ends = np.fromiter(flat, dtype=np.intp, count=2 * count)
        except (TypeError, OverflowError):
            # An end that is not an integer, or lies beyond the index range, reads as one just outside the node range.
            ends = np.array([min(max(int(x), -1), node_count) if isinstance(x, _INTEGER) else -1 for x in flat], dtype=np.intp)
    first, second = ends[0::2], ends[1::2]
    if undirected:
        first, second = np.minimum(first, second), np.maximum(first, second)
    # A stable sort keeps equal pairs in input order, so each copy after the first is a duplicate.
    order = np.lexsort((second, first))
    first, second = first[order], second[order]
    bad = (np.minimum(first, second) < 0) | (np.maximum(first, second) >= node_count) | (undirected & (first == second))
    bad[1:] |= (first[1:] == first[:-1]) & (second[1:] == second[:-1])
    k = int(order[bad].min()) if bad.any() else count
    if k == len(pairs):
        return _read_only(first), _read_only(second)
    # The first offending pair's error, judged in the order of a per-pair check.
    if len(pairs[k]) != 2 or not all(isinstance(x, _INTEGER) for x in pairs[k]):
        what = "is not a pair of nodes" if len(pairs[k]) != 2 else "has a node id that is not an integer"
        raise ValueError(f"{'edge' if undirected else 'arc'} {pairs[k]!r} {what}")
    v, w = (int(x) for x in pairs[k])
    inside = 0 <= v < node_count and 0 <= w < node_count
    if not undirected:
        raise ValueError(f"arc {v}->{w} outside node range" if not inside else f"duplicate arc {v}->{w}")
    if v == w:
        raise ValueError(f"self-loop {v}-{w} not allowed")
    if not inside:
        raise ValueError(f"edge {v}-{w} outside node range 0..{node_count - 1}")
    raise ValueError(f"duplicate edge {min(v, w)}-{max(v, w)}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _csr_rows(
    tails: np.ndarray, heads: np.ndarray, weights: np.ndarray, shape: tuple[int, int]
) -> scipy.sparse.csr_matrix:
    """CSR matrix whose row v holds the weighted arcs (v, w), in the given order.

    The arcs must come sorted by tail.  The graph searches read this form;
    the per-step products of message passing use the CSC form that
    ``analysis._ArcGather`` builds from the same sorted arcs.
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
    """Simple undirected graph on nodes 0..node_count-1.  ``edges``, pairs or an (m, 2)
    array, is stored as the sorted tuple of pairs (u, v), u < v, and ``_ends`` as arrays."""

    node_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        ends = _checked_pairs(self.node_count, self.edges, undirected=True)
        object.__setattr__(self, "edges", tuple(zip(*(e.tolist() for e in ends))))
        self.__dict__["_ends"] = ends

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return int(self._csr.indptr[v + 1] - self._csr.indptr[v])

    @functools.cached_property
    def _csr(self) -> scipy.sparse.csr_matrix:
        """Unit adjacency, both directions of every edge, columns ascending in every row."""
        lo, hi = self._ends
        rows, cols = np.concatenate((lo, hi)), np.concatenate((hi, lo))
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
    sorted ``arcs`` is (tails[k], heads[k]) of ``_ends``, set at construction;
    every digraph derives the ``arcs`` tuple only when it is read."""

    node_count: int
    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        self.__dict__["_ends"] = _checked_pairs(self.node_count, self.arcs, undirected=False)
        del self.__dict__["arcs"]

    @classmethod
    def _from_sorted_ends(cls, node_count: int, tails: np.ndarray, heads: np.ndarray) -> Digraph:
        """A digraph from arcs already in range, unique and sorted, without re-checking them."""
        d = object.__new__(cls)
        object.__setattr__(d, "node_count", node_count)
        d.__dict__["_ends"] = (_read_only(tails), _read_only(heads))
        return d

    def __getattr__(self, name: str):
        # Called only for attributes not yet set: the arcs tuple is derived on first read.
        if name != "arcs" or "_ends" not in self.__dict__:
            raise AttributeError(name)
        arcs = tuple(zip(*(e.tolist() for e in self._ends)))
        object.__setattr__(self, "arcs", arcs)
        return arcs


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
    """G(n, p) random graph: each of the n(n-1)/2 pairs kept with probability p.

    One draw per pair in row-major order (0, 1), (0, 2), ..., (n-2, n-1), which fixes each pair's
    draw, so seeded graphs never change; the draws come in chunks of whole rows, in O(n + m) memory."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    row_ends = np.cumsum(np.arange(n - 1, 0, -1))  # pairs in rows 0..i
    kept, start, stop = [], 0, 0
    while stop < n - 1:
        # Rows stop..: as many as fit in _PAIR_CHUNK pairs, or one longer row.
        stop = max(stop + 1, int(np.searchsorted(row_ends, start + _PAIR_CHUNK, side="right")))
        kept.append(start + np.flatnonzero(rng.random(int(row_ends[stop - 1]) - start) < p))
        start = int(row_ends[stop - 1])
    pair = np.concatenate(kept) if kept else np.zeros(0, dtype=np.intp)
    row = np.searchsorted(row_ends, pair, side="right")
    # Row i holds the pairs (i, i + 1), ..., (i, n - 1), the last of them at row_ends[i] - 1.
    return UndirectedGraph(n, np.column_stack((row, pair - row_ends[row] + n)))


def is_connected(g: UndirectedGraph) -> bool:
    return not g._component_labels.any()


def _require_connected(g: UndirectedGraph) -> None:
    labels = g._component_labels
    if labels.any():
        # The first node outside node 0's component is the smallest node of the next component.
        v = int(np.argmax(labels != labels[0]))
        raise ValueError(f"graph is disconnected: no path between nodes 0 and {v}")


def _sweep(g: UndirectedGraph, source: int) -> tuple[int, int, memoryview]:
    """One BFS from source: a farthest node, the eccentricity of source, and the BFS predecessors.

    The last node of the BFS order is a farthest one; the eccentricity is
    the number of predecessor hops from it back to source.  The walk reads
    the predecessors through a memoryview, which yields Python ints at
a third of the cost of numpy scalars.
    """
    order, pred = scipy.sparse.csgraph.breadth_first_order(g._csr, source, directed=True, return_predecessors=True)
    pred = memoryview(pred)
    far = v = int(order[-1])
    ecc = 0
    while v != source:
        v = pred[v]
        ecc += 1
    return far, ecc, pred


def diameter(g: UndirectedGraph) -> int:
    """Longest shortest path, by iFUB from the midpoint of a double sweep.  Requires a connected graph.

    A double sweep (Magnien, Latapy & Habib 2009) gives a lower bound: a
    BFS from node 0 finds a far node a, a BFS from a gives the bound
    ecc(a), a farthest node b and a shortest path from b back to a.  iFUB
    (Crescenzi, Grossi, Habib, Lanzi & Marino 2013) starts from the
    midpoint u of that path, with i = ecc(u) and the BFS levels of u.  Any
    two nodes at levels up to i are at most 2i apart, and every node past
    level i has had its eccentricity taken, so the diameter is at most
    the larger of the bound and 2i.  While 2i exceeds the bound, the
    eccentricities of the nodes at level i raise it and i drops by one;
    the bound is then the diameter.

    Each eccentricity is one csgraph BFS, so memory is O(n + m).  There
    are at most n + 2 searches.  A tree takes 3 when its diameter is even
    and a few more when it is odd; the pipeline's n = 300 random graphs
    take about 200.  The worst shapes are vertex-transitive: a cycle walks
    half its levels, two BFS each, and the complete graph takes a BFS
    from every node.
    """
    _require_connected(g)
    a = _sweep(g, 0)[0]
    b, lower, pred = _sweep(g, a)
    u = b
    for _ in range(lower // 2):
        u = pred[u]
    levels = scipy.sparse.csgraph.shortest_path(g._csr, directed=True, unweighted=True, indices=u)
    i = int(levels.max())
    while 2 * i > lower:
        for v in np.flatnonzero(levels == i).tolist():
            lower = max(lower, _sweep(g, v)[1])
        i -= 1
    return lower


def spanning_tree(g: UndirectedGraph, seed: int) -> UndirectedGraph:
    """Random spanning tree of a connected graph.

    Randomized BFS: start from a random root and visit neighbors in
    uniformly shuffled order, keeping the n-1 discovery edges.
    """
    _require_connected(g)
    rng = np.random.default_rng(seed)
    indptr, indices = g._csr.indptr.tolist(), g._csr.indices
    order = [int(rng.integers(g.node_count))]  # the nodes in visiting order, from the root
    parent = {order[0]: order[0]}
    for v in order:
        nbrs = indices[indptr[v] : indptr[v + 1]].copy()
        rng.shuffle(nbrs)
        for w in nbrs.tolist():
            if w not in parent:
                parent[w] = v
                order.append(w)
    return UndirectedGraph(g.node_count, np.array([(parent[w], w) for w in order[1:]], dtype=np.intp).reshape(-1, 2))


def add_extra_edges(tree: UndirectedGraph, pool: UndirectedGraph, k: int, seed: int) -> UndirectedGraph:
    """Add k edges drawn uniformly without replacement from pool minus tree, as sorted keys u·n + v."""
    n = tree.node_count
    if n != pool.node_count:
        raise ValueError("tree and pool must share the same node set")
    tree_keys, pool_keys = (g._ends[0] * n + g._ends[1] for g in (tree, pool))
    if not np.isin(tree_keys, pool_keys).all():
        raise ValueError("tree edges must be a subset of pool edges")
    candidates = np.setdiff1d(pool_keys, tree_keys, assume_unique=True)
    if k < 0 or k > len(candidates):
        raise ValueError(f"k={k} exceeds the {len(candidates)} available extra edges")
    rng = np.random.default_rng(seed)
    chosen = candidates[rng.choice(len(candidates), size=k, replace=False)] if k else candidates[:0]
    keys = np.concatenate((tree_keys, chosen))
    return UndirectedGraph(n, np.column_stack((keys // n, keys % n)))


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
    labels (Pearce's algorithm labels a component when it finishes it),
    checks that every arc between components runs from a higher label to
    a lower one (``AssertionError`` if not), and stably moves the sinks first.
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

