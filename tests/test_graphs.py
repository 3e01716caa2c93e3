import tracemalloc
from collections import deque

import numpy as np
import pytest
import scipy.sparse.csgraph
from hypothesis import given
from hypothesis import strategies as st

from harmonic_influence import graphs
from harmonic_influence.experiment import ExperimentConfig, generate_graphs
from harmonic_influence.graphs import (
    Digraph,
    UndirectedGraph,
    add_extra_edges,
    condensation,
    diameter,
    erdos_renyi,
    is_connected,
    message_digraph,
    spanning_tree,
)


def path_graph(n):
    return UndirectedGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n):
    return UndirectedGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def bfs_distances(g, source):
    """Hop distances from source; -1 where unreachable."""
    dist = np.full(g.node_count, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    indptr, cols = g._csr.indptr, g._csr.indices
    while queue:
        v = queue.popleft()
        for w in cols[indptr[v] : indptr[v + 1]].tolist():
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def random_connected_graph(n, p, seed):
    g = erdos_renyi(n, p, seed)
    while not is_connected(g):
        seed += 1
        g = erdos_renyi(n, p, seed)
    return g


# ---------------------------------------------------------------------------
# UndirectedGraph / Digraph containers
# ---------------------------------------------------------------------------

def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError):
        UndirectedGraph(3, ((0, 0),))
    with pytest.raises(ValueError):
        UndirectedGraph(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        UndirectedGraph(2, ((0, 5),))


@pytest.mark.parametrize("build, message", [
    # the ends used to be read as one flat stream, which loses the pair boundaries
    (lambda: Digraph(3, ((0, 1, 2), (1, 2, 0))), r"^arc \(0, 1, 2\) is not a pair of nodes$"),
    (lambda: Digraph(3, ((0, 1, 2),)), r"^arc \(0, 1, 2\) is not a pair of nodes$"),
    (lambda: Digraph(3, ((0, 1), [2])), r"^arc \[2\] is not a pair of nodes$"),
    (lambda: Digraph(3, ((0, 1), ())), r"^arc \(\) is not a pair of nodes$"),
    (lambda: UndirectedGraph(4, ((0, 1, 2), (2, 3, 0))), r"^edge \(0, 1, 2\) is not a pair of nodes$"),
    (lambda: UndirectedGraph(3, ((0,),)), r"^edge \(0,\) is not a pair of nodes$"),
    # node ids that are not integers used to be truncated or parsed, building edge 0-1 or 0-2
    (lambda: UndirectedGraph(3, ((0.5, 1.7),)), r"^edge \(0\.5, 1\.7\) has a node id that is not an integer$"),
    (lambda: Digraph(3, ((0.5, 1.7),)), r"^arc \(0\.5, 1\.7\) has a node id that is not an integer$"),
    (lambda: UndirectedGraph(3, np.array([[0.5, 1.7]])), r"^edge array\(\[0\.5, 1\.7\]\) has a node id that is not an integer$"),
    (lambda: UndirectedGraph(3, (("0", "2"),)), r"^edge \('0', '2'\) has a node id that is not an integer$"),
    # the first offending pair in input order, whatever is wrong with it
    (lambda: UndirectedGraph(3, ((0, 1), (1, 2.0), (0, 0))), r"^edge \(1, 2\.0\) has a node id that is not an integer$"),
    (lambda: Digraph(3, ((0, 5), (0.5, 1), (0, 1, 2))), r"^arc 0->5 outside node range$"),
    (lambda: Digraph(3, ((0, 1), (np.float64(0.0), 1))), r"^arc \(np\.float64\(0\.0\), 1\) has a node id"),
])
def test_graphs_reject_pairs_of_the_wrong_length(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_graph_normalizes_edge_order():
    g = UndirectedGraph(3, ((2, 0), (1, 0)))
    assert g.edges == ((0, 1), (0, 2))
    assert g._csr.indices[: g._csr.indptr[1]].tolist() == [1, 2]
    assert g.degree(0) == 2 and g.degree(1) == 1


def test_digraph_allows_self_loops_rejects_duplicates():
    d = Digraph(2, ((0, 0), (0, 1)))
    assert (0, 0) in d.arcs
    with pytest.raises(ValueError):
        Digraph(2, ((0, 1), (0, 1)))


def test_digraph_derives_its_arcs_tuple_when_read():
    d = Digraph(3, [(2, 1), (0, 2), (0, 1), (1, 1)])
    assert "arcs" not in vars(d)
    assert d.arcs == ((0, 1), (0, 2), (1, 1), (2, 1))
    assert vars(d)["arcs"] is d.arcs
    # Equality and hash read the arcs, whichever way the digraph was built.
    from_pairs = Digraph(3, ((2, 1), (0, 2)))
    from_arrays = Digraph._from_sorted_ends(3, np.array([0, 2]), np.array([2, 1]))
    assert from_pairs == from_arrays and hash(from_pairs) == hash(from_arrays)
    assert repr(from_pairs) == repr(from_arrays) == "Digraph(node_count=3, arcs=((0, 2), (2, 1)))"
    assert from_pairs != Digraph(3, ((0, 2),))


def per_arc_digraph_arcs(node_count, arcs):
    """Digraph's former per-arc checks: the sorted arcs, or the error of the first offending arc."""
    seen = set()
    for a in arcs:
        v, w = int(a[0]), int(a[1])
        if not (0 <= v < node_count and 0 <= w < node_count):
            raise ValueError(f"arc {v}->{w} outside node range")
        if (v, w) in seen:
            raise ValueError(f"duplicate arc {v}->{w}")
        seen.add((v, w))
    return tuple(sorted(seen))


def test_digraph_matches_per_arc_checks_on_random_arc_lists():
    rng = np.random.default_rng(71)
    outcomes = set()
    for trial in range(600):
        n = int(rng.integers(1, 9))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2)).tolist()
        pairs += [[v, v] for v in rng.integers(0, n, size=int(rng.integers(0, 3))).tolist()]
        if trial % 2:
            pairs = [list(a) for a in dict.fromkeys(map(tuple, pairs))]  # no duplicates
        if trial % 3 == 0 and pairs:
            pairs[int(rng.integers(len(pairs)))][int(rng.integers(2))] = [-3, -1, n, n + 2, 2**70, -(2**70)][int(rng.integers(6))]
        rng.shuffle(pairs)
        arcs = tuple(map(tuple, pairs))
        try:
            expected = per_arc_digraph_arcs(n, arcs)
        except ValueError as exc:
            outcomes.add(str(exc).split()[0])
            with pytest.raises(ValueError) as info:
                Digraph(n, arcs)
            assert str(info.value) == str(exc), arcs
            continue
        outcomes.add("ok")
        d = Digraph(n, arcs)
        assert d.arcs == expected and all(type(v) is int and type(w) is int for v, w in d.arcs)
        tails, heads = d._ends
        assert tails.tolist() == [v for v, _ in expected] and heads.tolist() == [w for _, w in expected]
        assert not (tails.flags.writeable or heads.flags.writeable)
    assert outcomes == {"ok", "arc", "duplicate"}
    # ends beyond the 64-bit range fail with the same first offending arc
    for arcs in (((0, 1), (1, 2**70), (0, 1)), ((0, 1), (0, 1), (-(2**70), 0)), ((2**70, 2**71), (2**70, 2**71))):
        with pytest.raises(ValueError) as info:
            Digraph(3, arcs)
        with pytest.raises(ValueError) as expected:
            per_arc_digraph_arcs(3, arcs)
        assert str(info.value) == str(expected.value)


def normalize_edges(node_count, edges):
    """UndirectedGraph's former per-edge checks: the sorted edges, or the error of the first offending edge."""
    seen = set()
    for e in edges:
        if len(e) != 2:
            raise ValueError(f"edge {e!r} is not a pair of nodes")
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


def test_undirected_graph_matches_per_edge_checks_on_random_edge_lists():
    rng = np.random.default_rng(72)
    outcomes = set()
    for trial in range(900):
        n = int(rng.integers(1, 9))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2)).tolist()
        if trial % 2:
            pairs = [list(e) for e in dict.fromkeys(tuple(sorted(e)) for e in pairs) if e[0] != e[1]]
            pairs = [e[::-1] if rng.random() < 0.5 else e for e in pairs]  # no duplicates, some reversed
        if trial % 3 == 0 and pairs:
            pairs[int(rng.integers(len(pairs)))][int(rng.integers(2))] = [-3, -1, n, n + 2, 2**70, -(2**70)][int(rng.integers(6))]
        if trial % 5 == 0:
            pairs.insert(int(rng.integers(len(pairs) + 1)), [[], [0], [0, 1, 2]][int(rng.integers(3))])
        rng.shuffle(pairs)
        edges = tuple(map(tuple, pairs))
        try:
            expected = normalize_edges(n, edges)
        except ValueError as exc:
            outcomes.add(str(exc).split()[0])
            with pytest.raises(ValueError) as info:
                UndirectedGraph(n, edges)
            assert str(info.value) == str(exc), edges
            continue
        outcomes.add("ok")
        g = UndirectedGraph(n, edges)
        assert g.edges == expected and all(type(u) is int and type(v) is int for u, v in g.edges)
        lo, hi = g._ends
        assert lo.tolist() == [u for u, _ in expected] and hi.tolist() == [v for _, v in expected]
        assert not (lo.flags.writeable or hi.flags.writeable)
        # the same edges as an (m, 2) array build the same graph
        assert UndirectedGraph(n, np.array(edges, dtype=np.int64).reshape(-1, 2)) == g
        assert [g.degree(v) for v in range(n)] == [sum(v in e for e in expected) for v in range(n)]
    assert outcomes == {"ok", "edge", "self-loop", "duplicate"}
    # ends beyond the 64-bit range fail with the same first offending edge
    for edges in (((0, 1), (1, 2**70), (1, 0)), ((0, 1), (1, 0), (-(2**70), 0)), ((2**70, 2**71), (2**70, 2**70))):
        with pytest.raises(ValueError) as expected:
            normalize_edges(3, edges)
        # as tuples, and as arrays that no signed 64-bit type holds
        for given in (edges, np.array(edges, dtype=object)):
            with pytest.raises(ValueError) as info:
                UndirectedGraph(3, given)
            assert str(info.value) == str(expected.value)
    for given in (np.array([[0, 1], [1, 2**64 - 1]], dtype=np.uint64), np.array([[0, 1], [1, 2**70]], dtype=object)):
        with pytest.raises(ValueError, match=r"^edge 1-\d+ outside node range 0\.\.2$"):
            UndirectedGraph(3, given)


def test_digraph_reports_the_first_offending_arc_in_input_order():
    # a pair of the wrong length no longer takes precedence over an earlier offending arc
    with pytest.raises(ValueError, match=r"^duplicate arc 0->1$"):
        Digraph(3, ((0, 1), (0, 1), (0, 1, 2)))
    with pytest.raises(ValueError, match=r"^arc 0->5 outside node range$"):
        Digraph(3, ((0, 5), (2,)))
    with pytest.raises(ValueError, match=r"^arc \(2,\) is not a pair of nodes$"):
        Digraph(3, ((0, 1), (2,), (0, 1)))


# ---------------------------------------------------------------------------
# erdos_renyi
# ---------------------------------------------------------------------------

def test_erdos_renyi_p_zero_is_empty():
    assert erdos_renyi(5, 0.0, seed=1).edge_count == 0


def test_erdos_renyi_p_one_is_complete():
    assert erdos_renyi(5, 1.0, seed=1).edge_count == 10


def test_erdos_renyi_deterministic_for_seed():
    a = erdos_renyi(30, 0.2, seed=77)
    b = erdos_renyi(30, 0.2, seed=77)
    c = erdos_renyi(30, 0.2, seed=78)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_erdos_renyi_matches_explicit_pair_enumeration():
    # One uniform draw per pair, pairs enumerated row by row: seeded graphs
    # must not change with the implementation.
    for n, p, seed in ((1, 0.5, 0), (2, 1.0, 3), (50, 0.1, 7), (120, 0.05, 11)):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        draws = np.random.default_rng(seed).random(len(pairs))
        expected = tuple(pair for pair, x in zip(pairs, draws) if x < p)
        assert erdos_renyi(n, p, seed).edges == expected, (n, p, seed)


def test_erdos_renyi_in_small_chunks_matches_explicit_pair_enumeration(monkeypatch):
    # 997 pairs a chunk: many short rows share a chunk, and a row longer
    # than that is drawn alone, so chunks end inside and across rows.
    cases = ((2, 1.0, 3), (50, 0.1, 7), (120, 0.05, 11), (1200, 0.01, 5))
    expected = {}
    for n, p, seed in cases:
        rows, cols = np.triu_indices(n, 1)
        keep = np.random.default_rng(seed).random(len(rows)) < p
        expected[n] = tuple(zip(rows[keep].tolist(), cols[keep].tolist()))
    sizes = []

    class RecordingGenerator:
        def __init__(self, seed):
            self.rng = np.random.Generator(np.random.PCG64(seed))

        def random(self, size):
            sizes.append(size)
            return self.rng.random(size)

    monkeypatch.setattr(graphs, "_PAIR_CHUNK", 997)
    monkeypatch.setattr(graphs.np.random, "default_rng", RecordingGenerator)
    for n, p, seed in cases:
        sizes.clear()
        assert erdos_renyi(n, p, seed).edges == expected[n], (n, p, seed)
        assert sum(sizes) == n * (n - 1) // 2
    # n = 1200: rows 0..201 hold more than 997 pairs each, the other 997 rows share chunks
    assert sizes[:202] == list(range(1199, 997, -1)) and len(sizes) < 1199 and max(sizes[202:]) <= 997


def test_erdos_renyi_memory_is_bounded_by_the_graph():
    # The n(n-1)/2 = 4.5M draws at once took 112.5 MB; a chunk of 2**20 draws is 8.4 MB.
    erdos_renyi(30, 0.1, 3)
    tracemalloc.start()
    try:
        g = erdos_renyi(3000, 10 / 3000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count == 14858
    assert peak < 16e6, peak


def test_erdos_renyi_edge_count_distribution():
    # n=50, p=0.1: expected 122.5 edges per draw; the mean over 40 seeds
    # has standard deviation ~1.7, so a +-6 band is a >3-sigma check.
    counts = [erdos_renyi(50, 0.1, seed).edge_count for seed in range(40)]
    assert 116.5 < np.mean(counts) < 128.5


# ---------------------------------------------------------------------------
# spanning_tree / add_extra_edges
# ---------------------------------------------------------------------------

def test_spanning_tree_of_tree_is_identity():
    tree = path_graph(6)
    assert spanning_tree(tree, seed=3).edges == tree.edges


def test_spanning_tree_of_triangle():
    tri = UndirectedGraph(3, ((0, 1), (1, 2), (0, 2)))
    st = spanning_tree(tri, seed=0)
    assert st.edge_count == 2
    assert is_connected(st)
    assert set(st.edges) <= set(tri.edges)


def test_spanning_tree_properties_random():
    for seed in range(10):
        g = random_connected_graph(50, 0.1, seed=100 + seed)
        st = spanning_tree(g, seed=seed)
        assert st.edge_count == 49
        assert is_connected(st)
        assert set(st.edges) <= set(g.edges)


def test_spanning_tree_disconnected_names_pair():
    g = UndirectedGraph(4, ((0, 1), (2, 3)))
    with pytest.raises(ValueError, match=r"no path between nodes 0 and 2"):
        spanning_tree(g, seed=0)


def test_add_extra_edges_zero_keeps_tree():
    g = random_connected_graph(20, 0.3, seed=5)
    st = spanning_tree(g, seed=5)
    assert add_extra_edges(st, g, 0, seed=1).edges == st.edges


def test_add_extra_edges_counts_and_nesting():
    g = random_connected_graph(50, 0.1, seed=11)
    st = spanning_tree(g, seed=11)
    fe = add_extra_edges(st, g, 10, seed=11)
    assert fe.edge_count == 59
    assert set(st.edges) < set(fe.edges) < set(g.edges)


def test_add_extra_edges_exhaustion_returns_pool():
    g = random_connected_graph(15, 0.4, seed=2)
    st = spanning_tree(g, seed=2)
    full = add_extra_edges(st, g, g.edge_count - st.edge_count, seed=9)
    assert set(full.edges) == set(g.edges)


def test_add_extra_edges_k_too_large():
    g = random_connected_graph(10, 0.5, seed=4)
    st = spanning_tree(g, seed=4)
    with pytest.raises(ValueError):
        add_extra_edges(st, g, g.edge_count, seed=0)


# ---------------------------------------------------------------------------
# message_digraph
# ---------------------------------------------------------------------------

def test_message_digraph_three_node_path():
    md = message_digraph(path_graph(3))
    assert set(md.arc_nodes) == {(0, 1), (1, 0), (1, 2), (2, 1)}
    arcs = {(md.arc_nodes[a], md.arc_nodes[b]) for a, b in md.arcs}
    assert arcs == {((0, 1), (1, 2)), ((2, 1), (1, 0))}


def test_message_digraph_single_edge():
    md = message_digraph(UndirectedGraph(2, ((0, 1),)))
    assert md.size == 2
    assert md.arcs == ()
    assert md.to_digraph() == Digraph(2, ())


def test_message_digraph_triangle_matches_enumeration():
    tri = UndirectedGraph(3, ((0, 1), (1, 2), (0, 2)))
    md = message_digraph(tri)
    nodes = set()
    for u, v in tri.edges:
        nodes.add((u, v))
        nodes.add((v, u))
    arcs = {
        (ji, hk)
        for ji in nodes
        for hk in nodes
        if hk[0] == ji[1] and hk[1] != ji[0]
    }
    assert set(md.arc_nodes) == nodes
    assert len(md.arc_nodes) == 6
    got = {(md.arc_nodes[a], md.arc_nodes[b]) for a, b in md.arcs}
    assert got == arcs
    assert len(got) == 6


def test_message_digraph_structural_invariants_random():
    for seed in range(12):
        g = random_connected_graph(25, 0.15, seed=300 + seed)
        md = message_digraph(g)
        assert md.size == 2 * g.edge_count
        assert md.receivers().tolist() == [j for j, _ in md.arc_nodes]
        for a, b in md.arcs:
            j, i = md.arc_nodes[a]
            h, k = md.arc_nodes[b]
            assert h == i and k != j
        assert all(a != b for a, b in md.arcs)
        # to_digraph skips Digraph's checks, so it must agree with them
        for m in (md, message_digraph(spanning_tree(g, seed))):
            d, checked = m.to_digraph(), Digraph(m.size, m.arcs)
            assert d == checked and d.arcs == checked.arcs
    for edgeless in (UndirectedGraph(1, ()), UndirectedGraph(3, ())):
        with pytest.raises(ValueError, match="graph has no edges"):
            message_digraph(edgeless)


# ---------------------------------------------------------------------------
# condensation
# ---------------------------------------------------------------------------

def brute_force_sccs(d):
    n = d.node_count
    reach = np.eye(n, dtype=bool)
    for v, w in d.arcs:
        reach[v, w] = True
    for k in range(n):
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    comps = set()
    for v in range(n):
        comps.add(frozenset(w for w in range(n) if reach[v, w] and reach[w, v]))
    return comps


def test_condensation_acyclic_all_trivial():
    d = Digraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    cond = condensation(d)
    assert len(cond.components) == 4
    assert not any(cond.nontrivial)


def test_condensation_self_loop_is_nontrivial():
    cond = condensation(Digraph(2, ((0, 0),)))
    flags = {min(c): nt for c, nt in zip(cond.components, cond.nontrivial)}
    assert flags[0] is True and flags[1] is False


def test_condensation_tree_message_digraph_trivial():
    for seed in range(5):
        g = spanning_tree(random_connected_graph(30, 0.15, seed=40 + seed), seed=seed)
        cond = condensation(message_digraph(g).to_digraph())
        assert not any(cond.nontrivial)


def test_condensation_cycle_counts():
    # one circuit -> two nontrivial components; more -> exactly one
    uni = cycle_graph(5)
    cond = condensation(message_digraph(uni).to_digraph())
    assert sum(cond.nontrivial) == 2
    multi = UndirectedGraph(5, uni.edges + ((0, 2),))
    cond = condensation(message_digraph(multi).to_digraph())
    assert sum(cond.nontrivial) == 1


def test_condensation_numbering_sinks_first_arcs_decreasing():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        arcs = {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(rng.integers(0, 2 * n))}
        d = Digraph(n, tuple(arcs))
        cond = condensation(d)
        for h, k in cond.arcs:
            assert k < h
        has_out = {h for h, _ in cond.arcs}
        sinks = [c for c in range(len(cond.components)) if c not in has_out]
        if sinks and len(sinks) < len(cond.components):
            assert max(sinks) < min(c for c in range(len(cond.components)) if c in has_out)


def test_condensation_components_match_brute_force():
    rng = np.random.default_rng(31)
    for trial in range(140):
        # 40 digraphs of 2-7 nodes, then 100 of up to 40 nodes with extra self-loops
        n = int(rng.integers(2, 8)) if trial < 40 else int(rng.integers(1, 41))
        arcs = {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(rng.integers(0, 3 * n))}
        if trial >= 40:
            arcs |= {(v, v) for v in range(n) if rng.random() < 0.1}
        d = Digraph(n, tuple(arcs))
        cond = condensation(d)
        assert set(cond.components) == brute_force_sccs(d)
        assert all(cond.component_of[v] == c for c, comp in enumerate(cond.components) for v in comp)
        assert cond.nontrivial == tuple(
            len(comp) > 1 or (min(comp), min(comp)) in arcs for comp in cond.components
        )
        # arc h->k present iff some arc of d crosses the components
        expected = set()
        for v, w in d.arcs:
            cv, cw = cond.component_of[v], cond.component_of[w]
            if cv != cw:
                expected.add((cv, cw))
        assert cond.arcs == expected
        assert all(k < h for h, k in cond.arcs)
        sinks = set(range(len(cond.components))) - {h for h, _ in cond.arcs}
        assert sinks == set(range(len(sinks))), trial


def test_condensation_rejects_labels_out_of_topological_order(monkeypatch):
    strong_components = scipy.sparse.csgraph.connected_components

    def reversed_labels(*args, **kwargs):
        count, labels = strong_components(*args, **kwargs)
        return count, count - 1 - labels

    d = Digraph(4, ((0, 1), (1, 0), (1, 2), (3, 2)))
    assert len(condensation(d).components) == 3
    monkeypatch.setattr(scipy.sparse.csgraph, "connected_components", reversed_labels)
    with pytest.raises(AssertionError, match="reverse topological order"):
        condensation(d)
    # without arcs between components any labelling is acceptable
    assert not condensation(Digraph(3, ((0, 1), (1, 0)))).arcs


def test_structure_law_on_scc_counts():
    # connected graph: tree -> 0 nontrivial, |E| = n -> 2, |E| > n -> 1
    rng = np.random.default_rng(77)
    for trial in range(30):
        g = random_connected_graph(20, 0.2, seed=500 + trial)
        st = spanning_tree(g, seed=trial)
        slack = g.edge_count - st.edge_count
        if slack < 2:
            continue
        for extra, expected in ((0, 0), (1, 2), (int(rng.integers(2, slack + 1)), 1)):
            graph = add_extra_edges(st, g, extra, seed=trial)
            cond = condensation(message_digraph(graph).to_digraph())
            assert sum(cond.nontrivial) == expected, (trial, extra)


# ---------------------------------------------------------------------------
# diameter
# ---------------------------------------------------------------------------

def test_diameter_path_and_cycle():
    assert diameter(path_graph(12)) == 11
    assert diameter(cycle_graph(8)) == 4


def test_diameter_matches_all_pairs_bfs():
    for seed in range(8):
        g = random_connected_graph(int(10 + 15 * seed), 0.15, seed=900 + seed)
        for graph in (g, spanning_tree(g, seed)):
            expected = max(int(bfs_distances(graph, v).max()) for v in range(graph.node_count))
            assert diameter(graph) == expected
    assert diameter(UndirectedGraph(1, ())) == 0


def bfs_diameter(g):
    return max(int(bfs_distances(g, v).max()) for v in range(g.node_count))


@st.composite
def connected_graphs(draw, max_nodes=80):
    """A random tree, each node hung from an earlier one, plus drawn extra edges."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    tree = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    extra = draw(st.lists(pair, max_size=n)) if n > 1 else []
    edges = {(min(e), max(e)) for e in tree + extra}
    return UndirectedGraph(n, tuple(edges))


@given(connected_graphs())
def test_diameter_matches_bfs_oracle_on_drawn_graphs(g):
    assert diameter(g) == bfs_diameter(g)


def counting_sweeps(monkeypatch):
    """Patch graphs._sweep to count its calls; returns the one-item count list."""
    calls, sweep = [0], graphs._sweep

    def counted(g, source):
        calls[0] += 1
        return sweep(g, source)

    monkeypatch.setattr(graphs, "_sweep", counted)
    return calls


def lollipop(clique, tail):
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    edges += [(v, v + 1) for v in range(clique - 1, clique + tail - 1)]
    return UndirectedGraph(clique + tail, tuple(edges))


@pytest.mark.parametrize(
    "g, expected, min_sweeps",
    [
        (UndirectedGraph(1, ()), 0, 2),
        (UndirectedGraph(2, ((0, 1),)), 1, 2),
        (path_graph(100), 99, 2),
        (cycle_graph(41), 20, 10),
        (cycle_graph(40), 20, 10),
        (UndirectedGraph(30, tuple((0, v) for v in range(1, 30))), 2, 2),
        (erdos_renyi(25, 1.0, seed=0), 1, 25),
        (lollipop(12, 9), 10, 2),
    ],
    ids=["n1", "n2", "path100", "cycle41", "cycle40", "star30", "complete25", "lollipop12_9"],
)
def test_diameter_named_shapes(monkeypatch, g, expected, min_sweeps):
    assert bfs_diameter(g) == expected
    calls = counting_sweeps(monkeypatch)
    assert diameter(g) == expected
    # cycles walk many BFS levels of the midpoint, the complete graph runs a BFS from every node
    assert calls[0] >= min_sweeps


def test_diameter_on_er_graph_where_the_fringe_needs_many_bfs(monkeypatch):
    g = random_connected_graph(300, 0.03, seed=3)
    calls = counting_sweeps(monkeypatch)
    assert diameter(g) == int(scipy.sparse.csgraph.shortest_path(g._csr, unweighted=True).max())
    assert calls[0] > 100


@pytest.mark.parametrize("name, expected", [("spanning_tree", 10), ("erdos_renyi", 6)])
def test_diameter_memory_is_bounded_by_the_graph(name, expected):
    # n=3000 pipeline graphs; an all-pairs distance matrix alone would take 72 MB
    g = generate_graphs(ExperimentConfig(n=3000, p=10 / 3000, extra_edges=300, seed=3))[0][name]
    tracemalloc.start()
    try:
        d = diameter(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == expected
    assert peak < 4 * 2**20, peak


def components(g):
    """Node sets of the connected components, by their labels, listed by smallest node."""
    labels = g._component_labels
    return [set(np.flatnonzero(labels == c).tolist()) for c in dict.fromkeys(labels.tolist())]


def test_connected_components_partition():
    g = UndirectedGraph(5, ((0, 1), (2, 3)))
    assert sorted(sorted(c) for c in components(g)) == [[0, 1], [2, 3], [4]]


def test_connected_components_match_bfs_oracle():
    for seed in range(60):
        n = 1 + seed % 40
        g = erdos_renyi(n, min(1.0, 1.5 / n), seed=700 + seed)
        expected = []
        for root in range(n):
            if not any(root in c for c in expected):
                expected.append(set(np.flatnonzero(bfs_distances(g, root) >= 0).tolist()))
        assert components(g) == expected, seed
        assert is_connected(g) == (len(expected) == 1)
        if len(expected) > 1:
            pair = f"no path between nodes {min(expected[0])} and {min(expected[1])}"
            with pytest.raises(ValueError, match=pair):
                diameter(g)
