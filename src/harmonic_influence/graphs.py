"""Graph containers and algorithms: undirected social graphs, digraphs,
random generation, spanning trees, the message digraph, and strongly
connected component / condensation analysis.

Connected components, strong components, reachability and the diameter
run in ``scipy.sparse.csgraph`` on one CSR form of the arcs
(``_csr_rows``).  Strong components come from Pearce's algorithm, which
labels each component when it finishes it, so every arc between two
components runs from a higher label to a lower one.  ``condensation``
checks that property on every call, raising ``AssertionError`` if it
fails, and then moves the sink components first, keeping label order
within sinks and within the rest.
An undirected graph's component labels are searched once and kept on the
graph, since scipy's per-call set-up outweighs the search on small graphs.

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
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

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


def _arc_ends(arcs: Sequence[Arc]) -> tuple[np.ndarray, np.ndarray]:
    """Tail and head index arrays of the arcs, in the given order."""
    # fromiter reads the flat stream about three times faster than np.asarray(arcs)
    ends = np.fromiter(itertools.chain.from_iterable(arcs), dtype=np.intp, count=2 * len(arcs))
    return ends[0::2], ends[1::2]


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


def _adjacency(node_count: int, arcs: Sequence[Arc]) -> scipy.sparse.csr_matrix:
    """Unit-weighted CSR adjacency of arcs sorted by tail, such as a graph's edges."""
    tails, heads = _arc_ends(arcs)
    return _csr_rows(tails, heads, np.ones(len(tails)), (node_count, node_count))


def _with_source(
    tails: np.ndarray, heads: np.ndarray, node_count: int, sources: Iterable[int], name: str
) -> scipy.sparse.csr_matrix:
    """CSR adjacency of the arcs plus a super-source, node ``node_count``, with an arc to every source.

    The super-source has no in-arcs, so the other nodes keep their strong
    components, and a search from it reaches exactly the nodes that some
    source reaches.
    """
    starts = sorted({int(v) for v in sources})
    for v in starts:
        if not 0 <= v < node_count:
            raise ValueError(f"{name} node {v} outside range")
    rows = np.concatenate((tails, np.full(len(starts), node_count)))
    cols = np.concatenate((heads, np.array(starts, dtype=np.intp)))
    order = np.argsort(rows, kind="stable")
    return _csr_rows(rows[order], cols[order], np.ones(len(rows)), (node_count + 1, node_count + 1))


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
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        object.__setattr__(self, "edges", _normalize_edges(self.node_count, self.edges))
        nbrs: list[list[int]] = [[] for _ in range(self.node_count)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        object.__setattr__(self, "adjacency", tuple(tuple(sorted(a)) for a in nbrs))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    @functools.cached_property
    def _component_labels(self) -> np.ndarray:
        """Connected-component label of every node, searched once per graph."""
        adjacency = _adjacency(self.node_count, self.edges)
        labels = scipy.sparse.csgraph.connected_components(adjacency, directed=False)[1]
        labels.setflags(write=False)
        return labels


@dataclass(frozen=True)
class Digraph:
    """Directed graph; self-loops allowed, duplicate arcs rejected."""

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
    def _from_sorted_arcs(cls, node_count: int, arcs: tuple[Arc, ...]) -> Digraph:
        """A digraph from arcs already in range, unique and sorted, without re-checking them."""
        if node_count < 1:
            raise ValueError("node_count must be >= 1")
        d = object.__new__(cls)
        object.__setattr__(d, "node_count", node_count)
        object.__setattr__(d, "arcs", arcs)
        return d


@dataclass(frozen=True)
class MessageDigraph:
    """Digraph of inter-message dependencies of an undirected graph.

    Each undirected edge {i, j} contributes two nodes: the ordered pairs
    (j, i) and (i, j).  The node (j, i) carries the message flowing from
    i to j, and has an arc to (i, k) for every neighbor k of i other
    than j (the messages it is computed from).  Nodes are indexed
    densely in lexicographic order of (receiver, sender).
    """

    base: UndirectedGraph
    arc_nodes: tuple[Arc, ...]          # lexicographic (receiver j, sender i)
    arc_id: Mapping[Arc, int]
    arcs: tuple[tuple[int, int], ...]   # dependency arcs between node ids

    @property
    def size(self) -> int:
        return len(self.arc_nodes)

    def receivers(self) -> np.ndarray:
        return np.array([j for j, _ in self.arc_nodes], dtype=np.intp)

    def senders(self) -> np.ndarray:
        return np.array([i for _, i in self.arc_nodes], dtype=np.intp)

    def to_digraph(self) -> Digraph:
        # message_digraph emits the arcs in range, unique and sorted.
        return Digraph._from_sorted_arcs(self.size, self.arcs)


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
    adjacency = _adjacency(g.node_count, g.edges)
    return int(scipy.sparse.csgraph.shortest_path(adjacency, directed=False, unweighted=True).max())


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
    nodes: list[Arc] = []
    for u, v in g.edges:
        nodes.append((u, v))
        nodes.append((v, u))
    nodes.sort()
    arc_id = {a: idx for idx, a in enumerate(nodes)}
    arcs: list[tuple[int, int]] = []
    for j, i in nodes:
        a = arc_id[(j, i)]
        for k in g.adjacency[i]:
            if k != j:
                arcs.append((a, arc_id[(i, k)]))
    return MessageDigraph(base=g, arc_nodes=tuple(nodes), arc_id=arc_id, arcs=tuple(arcs))


def condensation(d: Digraph) -> CondensationDigraph:
    """Strongly connected components with a sinks-first acyclic numbering.

    Every condensation arc points to a smaller id and the sinks take the
    smallest ids.  The numbering starts from csgraph's strong-component
    labels, checks that every arc between components runs from a higher
    label to a lower one (``AssertionError`` if not), and stably moves
    the sink components first.
    """
    n = d.node_count
    tails, heads = _arc_ends(d.arcs)
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


def reachable_set(d: Digraph, sources: Iterable[int]) -> frozenset[int]:
    """Nodes reachable from any source by a directed path of length >= 0."""
    tails, heads = _arc_ends(d.arcs)
    graph = _with_source(tails, heads, d.node_count, sources, "source")
    order = scipy.sparse.csgraph.breadth_first_order(graph, d.node_count, return_predecessors=False)
    # The search lists the super-source first.
    return frozenset(order[1:].tolist())
