"""Graph containers and algorithms: undirected social graphs, digraphs,
random generation, spanning trees, the message digraph, and strongly
connected component / condensation analysis.

All random operations take an explicit integer seed and use numpy's
PCG64 generator (``numpy.random.default_rng``), so identical seeds give
identical graphs on every platform.  Node ids are dense integers
``0..n-1``; graph objects are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Digraph:
    """Directed graph; self-loops allowed, duplicate arcs rejected."""

    node_count: int
    arcs: tuple[Arc, ...]
    successors: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

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
        succ: list[list[int]] = [[] for _ in range(self.node_count)]
        for v, w in self.arcs:
            succ[v].append(w)
        object.__setattr__(self, "successors", tuple(tuple(s) for s in succ))

    @classmethod
    def _from_sorted_arcs(cls, node_count: int, arcs: tuple[Arc, ...]) -> Digraph:
        """A digraph from arcs already in range, unique and sorted, without re-checking them."""
        if node_count < 1:
            raise ValueError("node_count must be >= 1")
        d = object.__new__(cls)
        object.__setattr__(d, "node_count", node_count)
        object.__setattr__(d, "arcs", arcs)
        tails, heads = _arc_ends(arcs)
        bounds = np.searchsorted(tails, np.arange(node_count + 1)).tolist()
        flat = heads.tolist()
        object.__setattr__(d, "successors", tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])))
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
    comps: list[set[int]] = []
    seen = [False] * g.node_count
    for root in range(g.node_count):
        if seen[root]:
            continue
        comp = {root}
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.add(w)
                    queue.append(w)
        comps.append(comp)
    return comps


def is_connected(g: UndirectedGraph) -> bool:
    return len(connected_components(g)) == 1


def _require_connected(g: UndirectedGraph) -> None:
    comps = connected_components(g)
    if len(comps) > 1:
        u = min(comps[0])
        v = min(comps[1])
        raise ValueError(f"graph is disconnected: no path between nodes {u} and {v}")


def bfs_distances(g: UndirectedGraph, source: int) -> np.ndarray:
    """Hop distances from source; -1 where unreachable."""
    dist = np.full(g.node_count, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in g.adjacency[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def diameter(g: UndirectedGraph) -> int:
    """Longest shortest path, by all-pairs unweighted shortest paths.  Requires a connected graph."""
    _require_connected(g)
    ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
    n = g.node_count
    adjacency = scipy.sparse.csr_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(n, n))
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


def _tarjan_scc(node_count: int, successors: Sequence[Sequence[int]]) -> list[list[int]]:
    """Iterative Tarjan; components are emitted in reverse topological order."""
    index = np.full(node_count, -1, dtype=np.int64)
    lowlink = np.zeros(node_count, dtype=np.int64)
    on_stack = np.zeros(node_count, dtype=bool)
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(node_count):
        if index[root] >= 0:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pos = work.pop()
            if pos == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            succ = successors[v]
            while pos < len(succ):
                w = succ[pos]
                pos += 1
                if index[w] < 0:
                    work.append((v, pos))
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return components


def condensation(d: Digraph) -> CondensationDigraph:
    """Strongly connected components with a sinks-first acyclic numbering."""
    raw = _tarjan_scc(d.node_count, d.successors)
    comp_of_raw = np.empty(d.node_count, dtype=np.int64)
    for cid, comp in enumerate(raw):
        for v in comp:
            comp_of_raw[v] = cid

    raw_arcs: set[tuple[int, int]] = set()
    for v, w in d.arcs:
        cv, cw = int(comp_of_raw[v]), int(comp_of_raw[w])
        if cv != cw:
            raw_arcs.add((cv, cw))

    # Renumber by peeling sinks layer by layer, so every arc points to a
    # strictly smaller id and all true sinks come first.
    s = len(raw)
    out_deg = [0] * s
    preds: list[list[int]] = [[] for _ in range(s)]
    for h, k in raw_arcs:
        out_deg[h] += 1
        preds[k].append(h)
    order: list[int] = []
    current = sorted(c for c in range(s) if out_deg[c] == 0)
    while current:
        order.extend(current)
        nxt: set[int] = set()
        for c in current:
            for pre in preds[c]:
                out_deg[pre] -= 1
                if out_deg[pre] == 0:
                    nxt.add(pre)
        current = sorted(nxt)
    if len(order) != s:
        raise AssertionError("condensation contained a directed cycle")
    new_id = [0] * s
    for pos, cid in enumerate(order):
        new_id[cid] = pos

    components = [frozenset()] * s
    for cid, comp in enumerate(raw):
        components[new_id[cid]] = frozenset(comp)
    component_of = tuple(new_id[int(comp_of_raw[v])] for v in range(d.node_count))
    has_self_loop = {v for v, w in d.arcs if v == w}
    nontrivial = tuple(
        len(comp) > 1 or next(iter(comp)) in has_self_loop for comp in components
    )
    arcs = frozenset((new_id[h], new_id[k]) for h, k in raw_arcs)
    return CondensationDigraph(
        component_of=component_of,
        components=tuple(components),
        nontrivial=nontrivial,
        arcs=arcs,
    )


def reachable_set(d: Digraph, sources: Iterable[int]) -> frozenset[int]:
    """Nodes reachable from any source by a directed path of length >= 0."""
    seen: set[int] = set()
    queue = deque()
    for v in sources:
        if v not in seen:
            seen.add(v)
            queue.append(v)
    while queue:
        v = queue.popleft()
        for w in d.successors[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)
