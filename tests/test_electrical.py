import numpy as np
import pytest
import scipy.sparse.linalg

from harmonic_influence.electrical import (
    ConductanceNetwork,
    build_weights,
    exact_message_potentials,
    glue_leaders,
    grounded_laplacian_solve,
    harmonic_influence_exact,
    uniform_network,
)
from harmonic_influence.graphs import (
    UndirectedGraph,
    erdos_renyi,
    is_connected,
    message_digraph,
)

GAMMA = 0.04


def path_graph(n):
    return UndirectedGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def trust_by_arc(w):
    """``arc_trust`` keyed by the arc (j, i): how much j trusts its neighbor i."""
    return dict(zip(message_digraph(w.graph).arc_nodes, w.arc_trust.tolist()))


def cycle_graph(n):
    return UndirectedGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def random_network(n, p, seed, gamma=GAMMA):
    g = erdos_renyi(n, p, seed)
    while not is_connected(g):
        seed += 1
        g = erdos_renyi(n, p, seed)
    return uniform_network(g, gamma)


def two_node_network():
    return uniform_network(UndirectedGraph(2, ((0, 1),)), GAMMA)


# ---------------------------------------------------------------------------
# ConductanceNetwork validation
# ---------------------------------------------------------------------------

def test_network_rejects_nonpositive_edge_conductance():
    g = UndirectedGraph(2, ((0, 1),))
    with pytest.raises(ValueError):
        ConductanceNetwork(g, {(0, 1): 0.0}, np.array([0.1, 0.1]))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_network_rejects_non_finite_conductances(bad):
    g = UndirectedGraph(2, ((0, 1),))
    with pytest.raises(ValueError, match="finite"):
        ConductanceNetwork(g, {(0, 1): bad}, np.array([0.1, 0.1]))
    with pytest.raises(ValueError, match="finite"):
        ConductanceNetwork(g, {(0, 1): 1.0}, np.array([0.1, bad]))


def test_network_rejects_missing_or_extra_conductances():
    g = UndirectedGraph(3, ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        ConductanceNetwork(g, {(0, 1): 1.0}, np.full(3, 0.1))
    with pytest.raises(ValueError):
        ConductanceNetwork(g, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0}, np.full(3, 0.1))


def test_network_rejects_edge_given_twice():
    g = UndirectedGraph(3, ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="edge 0-1 given twice"):
        ConductanceNetwork(g, {(0, 1): 1.0, (1, 0): 5.0, (1, 2): 1.0}, np.full(3, 0.1))
    with pytest.raises(ValueError, match="edge 1-2 given twice"):
        ConductanceNetwork(g, {(2, 1): 1.0, (0, 1): 1.0, (1, 2): 1.0}, np.full(3, 0.1))


def test_network_rejects_all_zero_field():
    g = UndirectedGraph(2, ((0, 1),))
    with pytest.raises(ValueError, match="no field conductance"):
        uniform_network(g, 0.0)


def test_network_requires_field_in_every_component():
    g = UndirectedGraph(4, ((0, 1), (2, 3)))
    with pytest.raises(ValueError):
        ConductanceNetwork(
            g, {(0, 1): 1.0, (2, 3): 1.0}, np.array([GAMMA, 0.0, 0.0, 0.0])
        )
    # ok once the second component also touches the field
    net = ConductanceNetwork(
        g, {(0, 1): 1.0, (2, 3): 1.0}, np.array([GAMMA, 0.0, GAMMA, 0.0])
    )
    assert build_weights(net).field_trust[0] == GAMMA / (1.0 + GAMMA)


def test_network_error_names_first_component_without_field():
    # components by smallest node: {0, 5}, {1, 2, 6}, {3, 4}
    g = UndirectedGraph(7, ((1, 6), (0, 5), (3, 4), (2, 6)))
    cond = {e: 1.0 for e in g.edges}
    for fielded, k in (((5,), 1), ((5, 6), 3), ((2, 3), 0), ((4, 6), 0)):
        gamma = np.zeros(7)
        gamma[list(fielded)] = GAMMA
        message = f"extended network is disconnected: component containing node {k} has no field conductance"
        with pytest.raises(ValueError) as err:
            ConductanceNetwork(g, cond, gamma)
        assert str(err.value) == message, fielded


# ---------------------------------------------------------------------------
# build_weights
# ---------------------------------------------------------------------------

def test_weights_two_node_example():
    w = build_weights(two_node_network())
    assert w.arc_trust.tolist() == pytest.approx([1.0 / 1.04] * 2, abs=1e-15)  # entries (0, 1), (1, 0)
    assert w.field_trust[0] == pytest.approx(0.04 / 1.04, abs=1e-15)


def test_weights_reject_trust_that_underflows_to_zero():
    # each total is about 1e300, so every neighbor's trust 1e-300 / 1e300 rounds to 0
    path = UndirectedGraph(3, ((0, 1), (1, 2)))
    net = ConductanceNetwork(path, {(0, 1): 1e-300, (1, 2): 1e-300}, np.full(3, 1e300))
    with pytest.raises(ValueError, match="edge 0-1: trust of node 0 in node 1 underflows to 0"):
        build_weights(net)


def test_weights_rows_sum_to_one():
    for seed in range(8):
        net = random_network(20, 0.2, seed=900 + seed)
        w = build_weights(net)
        trust = trust_by_arc(w)
        for i in range(20):
            total = sum(trust[(i, j)] for j in net.graph.adjacency[i]) + w.field_trust[i]
            assert abs(total - 1.0) <= 1e-12


def test_weights_star_center_symmetric():
    # field only on the leaves keeps the center's row the pure 1/3 split
    star = UndirectedGraph(4, ((0, 1), (0, 2), (0, 3)))
    net = ConductanceNetwork(
        star,
        {e: 1.0 for e in star.edges},
        np.array([0.0, GAMMA, GAMMA, GAMMA]),
    )
    trust = trust_by_arc(build_weights(net))
    for leaf in (1, 2, 3):
        assert trust[(0, leaf)] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_weights_reciprocity_witness():
    for seed in range(5):
        net = random_network(15, 0.25, seed=40 + seed)
        trust = trust_by_arc(build_weights(net))
        total = net.field_conductance.copy()
        for (i, j), c in net.edge_conductance.items():
            total[[i, j]] += c
        for i, j in net.graph.edges:
            c = net.edge_conductance[(i, j)]
            assert trust[(i, j)] * total[i] == pytest.approx(c, rel=1e-12)
            assert trust[(j, i)] * total[j] == pytest.approx(c, rel=1e-12)


# ---------------------------------------------------------------------------
# grounded_laplacian_solve
# ---------------------------------------------------------------------------

def test_solve_two_node():
    pot = grounded_laplacian_solve(two_node_network(), leader=0)
    assert pot[0] == 1.0
    assert pot[1] == pytest.approx(1.0 / 1.04, abs=1e-14)


def test_solve_three_node_path_frozen_oracle():
    # independent dense solve of the hand-built 2x2 grounded system:
    #   [[2.04, -1.0], [-1.0, 1.04]] y = [1, 0]
    net = uniform_network(path_graph(3), GAMMA)
    pot = grounded_laplacian_solve(net, leader=0)
    assert pot[1] == pytest.approx(0.927246790299572, abs=1e-12)
    assert pot[2] == pytest.approx(0.8915834522111269, abs=1e-12)


def test_solve_potentials_within_unit_interval():
    for seed in range(6):
        net = random_network(25, 0.15, seed=700 + seed)
        for leader in (0, 7, 24):
            pot = grounded_laplacian_solve(net, leader)
            assert pot.min() >= 0.0
            assert pot.max() <= 1.0
            assert pot[leader] == 1.0


def test_grounded_matrix_is_positive_definite():
    for seed in range(4):
        net = random_network(15, 0.25, seed=60 + seed)
        from harmonic_influence.electrical import _grounded_laplacian

        lap = _grounded_laplacian(net).toarray()
        for leader in range(net.node_count):
            keep = [i for i in range(net.node_count) if i != leader]
            np.linalg.cholesky(lap[np.ix_(keep, keep)])  # raises if not PD


def random_conductance_network(n, seed):
    # non-uniform edge conductances; about a third of the nodes have no field edge
    rng = np.random.default_rng(seed)
    g = random_network(n, min(1.0, 4.0 / n), seed=seed).graph
    gamma = rng.uniform(0.01, 0.2, size=n) * (rng.random(n) < 0.67)
    gamma[rng.integers(n)] = 0.05
    cond = {e: float(c) for e, c in zip(g.edges, rng.uniform(0.2, 5.0, size=g.edge_count))}
    return ConductanceNetwork(g, cond, gamma)


def test_closed_form_matches_per_leader_solves():
    nets = [random_conductance_network(n, seed=300 + n) for n in (1, 2, 3, 9, 25, 40)]
    assert any(np.any(net.field_conductance == 0.0) for net in nets)
    for net in nets:
        oracle = np.array([grounded_laplacian_solve(net, l) for l in range(net.node_count)])
        np.testing.assert_allclose(harmonic_influence_exact(net), oracle.sum(axis=1), rtol=1e-12, atol=0)
        if net.graph.edge_count == 0:
            continue  # no messages
        md = message_digraph(net.graph)
        expected = [oracle[j, i] for j, i in md.arc_nodes]
        np.testing.assert_allclose(exact_message_potentials(net, md), expected, rtol=1e-12, atol=0)


class PerturbedSolve:
    """A sparse LU whose solves come back scaled by 1.001: accurate factors, inaccurate solutions."""

    def __init__(self, lu):
        self.lu = lu

    def __getattr__(self, name):
        return getattr(self.lu, name)

    def solve(self, b, **kwargs):
        return 1.001 * self.lu.solve(b, **kwargs)


def test_closed_form_checks_raise_arithmetic_error(monkeypatch):
    import harmonic_influence.electrical as electrical

    net = random_network(12, 0.3, seed=14)
    lap = electrical._grounded_laplacian(net)
    md = message_digraph(net.graph)
    exact_forms = (lambda: harmonic_influence_exact(net), lambda: exact_message_potentials(net, md))
    # flipping the off-diagonal signs keeps M positive definite and the
    # solves accurate, but M^-1 then has negative entries: potentials < 0
    flipped = abs(lap)
    accurate_splu = scipy.sparse.linalg.splu
    assert np.all(np.linalg.eigvalsh(flipped.toarray()) > 0.0)
    cases = [
        (lambda _net: flipped, None, "escaped"),
        (lambda _net: -lap, None, "not positive definite"),
        (None, lambda *args, **kw: PerturbedSolve(accurate_splu(*args, **kw)), "residual"),
    ]
    for laplacian, splu, message in cases:
        with monkeypatch.context() as patch:
            if laplacian is not None:
                patch.setattr(electrical, "_grounded_laplacian", laplacian)
            if splu is not None:
                patch.setattr(electrical.scipy.sparse.linalg, "splu", splu)
            for exact_form in exact_forms:
                with pytest.raises(ArithmeticError, match=message):
                    exact_form()


def test_solve_leader_out_of_range():
    with pytest.raises(ValueError):
        grounded_laplacian_solve(two_node_network(), leader=5)


def test_single_node_network():
    # a lone node coupled only to the field: leader potential 1, influence 1
    net = ConductanceNetwork(UndirectedGraph(1, ()), {}, np.array([0.5]))
    pot = grounded_laplacian_solve(net, 0)
    assert pot[0] == 1.0 and not pot.flags.writeable
    assert harmonic_influence_exact(net)[0] == 1.0


# ---------------------------------------------------------------------------
# harmonic_influence_exact
# ---------------------------------------------------------------------------

def test_influence_two_node():
    inf = harmonic_influence_exact(two_node_network())
    assert inf[0] == pytest.approx(1.0 + 1.0 / 1.04, abs=1e-14)
    assert inf[1] == pytest.approx(1.0 + 1.0 / 1.04, abs=1e-14)


def test_influence_three_node_path_frozen_oracle():
    inf = harmonic_influence_exact(uniform_network(path_graph(3), GAMMA))
    assert inf[0] == pytest.approx(2.818830242510699, abs=1e-12)
    assert inf[1] == pytest.approx(2.923076923076923, abs=1e-12)
    assert inf[2] == pytest.approx(2.818830242510699, abs=1e-12)


def test_influence_vertex_transitive_cycle_all_equal():
    inf = harmonic_influence_exact(uniform_network(cycle_graph(7), GAMMA))
    assert np.allclose(inf, inf[0], atol=1e-11)


def test_influence_bounds():
    for seed in range(5):
        net = random_network(20, 0.2, seed=810 + seed)
        inf = harmonic_influence_exact(net)
        assert np.all(inf >= 1.0)
        assert np.all(inf <= net.node_count)


def test_exact_results_do_not_depend_on_edge_order():
    rng = np.random.default_rng(77)
    for n in (3, 9, 25, 40):
        net = random_conductance_network(n, seed=500 + n)
        edges = list(net.edge_conductance.items())
        shuffled = ConductanceNetwork(
            net.graph,
            {edges[k][0][::-1]: edges[k][1] for k in rng.permutation(len(edges))},
            net.field_conductance,
        )
        md = message_digraph(net.graph)
        assert harmonic_influence_exact(shuffled).tobytes() == harmonic_influence_exact(net).tobytes()
        assert exact_message_potentials(shuffled, md).tobytes() == exact_message_potentials(net, md).tobytes()


def test_scaling_all_conductances_leaves_everything_unchanged():
    net = random_network(18, 0.2, seed=55)
    scale = 3.7
    scaled = ConductanceNetwork(
        net.graph,
        {e: scale * c for e, c in net.edge_conductance.items()},
        scale * net.field_conductance,
    )
    w0, w1 = build_weights(net), build_weights(scaled)
    assert w1.arc_trust.tolist() == pytest.approx(w0.arc_trust.tolist(), rel=1e-12)
    assert np.allclose(w0.field_trust, w1.field_trust, rtol=1e-12)
    assert np.allclose(
        harmonic_influence_exact(net),
        harmonic_influence_exact(scaled),
        rtol=1e-11,
    )
    assert np.allclose(
        grounded_laplacian_solve(net, 3),
        grounded_laplacian_solve(scaled, 3),
        atol=1e-11,
    )


def test_exact_message_potentials_reject_another_graphs_digraph():
    net = uniform_network(path_graph(4), GAMMA)
    with pytest.raises(ValueError, match="different graphs"):
        exact_message_potentials(net, message_digraph(UndirectedGraph(4, ((0, 2), (0, 3), (1, 3)))))
    assert exact_message_potentials(net, message_digraph(path_graph(4))).shape == (6,)


def test_exact_results_are_cached_per_network(monkeypatch):
    import harmonic_influence.electrical as electrical

    calls = []
    factor = electrical._factor
    monkeypatch.setattr(electrical, "_factor", lambda m, what: calls.append(what) or factor(m, what))
    net = random_network(20, 0.2, seed=5)
    md = message_digraph(net.graph)
    grounded_laplacian_solve(net, 0)  # the per-leader reference neither reads nor fills the cache
    assert len(calls) == 1
    h = harmonic_influence_exact(net)
    w = exact_message_potentials(net, md)
    assert len(calls) == 2
    assert harmonic_influence_exact(net) is h and exact_message_potentials(net, md) is w
    assert len(calls) == 2
    assert h.shape == (net.node_count,) and w.shape == (md.size,)
    assert not h.flags.writeable and not w.flags.writeable


def test_exact_message_potentials_match_per_leader_solves():
    net = random_network(12, 0.3, seed=14)
    md = message_digraph(net.graph)
    w_star = exact_message_potentials(net, md)
    for idx, (j, i) in enumerate(md.arc_nodes):
        assert w_star[idx] == pytest.approx(grounded_laplacian_solve(net, j)[i], rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# glue_leaders
# ---------------------------------------------------------------------------

def fig_style_graph():
    # nodes 0..6; 0, 5, 6 are leaf leaders with fixed zero opinion
    edges = ((0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6))
    cond = {
        (0, 1): 0.7,
        (1, 2): 1.1,
        (1, 3): 0.9,
        (2, 3): 1.3,
        (3, 4): 0.8,
        (4, 5): 0.6,
        (4, 6): 0.5,
    }
    return UndirectedGraph(7, edges), cond


def test_glue_parallel_field_edges_sum():
    g, cond = fig_style_graph()
    net = glue_leaders(g, cond, {0, 5, 6})
    # survivors 1,2,3,4 renumbered 0,1,2,3
    assert net.node_count == 4
    assert net.field_conductance[0] == pytest.approx(0.7)   # old node 1
    assert net.field_conductance[3] == pytest.approx(0.6 + 0.5)  # old node 4
    assert net.edge_conductance[(0, 1)] == pytest.approx(1.1)
    assert set(net.graph.edges) == {(0, 1), (0, 2), (1, 2), (2, 3)}


def test_glue_single_leaf():
    g = path_graph(3)
    net = glue_leaders(g, {(0, 1): 2.5, (1, 2): 1.0}, {2})
    assert net.node_count == 2
    assert net.field_conductance[1] == pytest.approx(1.0)
    assert net.field_conductance[0] == 0.0
    assert net.edge_conductance[(0, 1)] == pytest.approx(2.5)


def test_glue_field_sums_do_not_depend_on_edge_order():
    # the center 0 keeps leaf 4 and takes the field edges of leaves 1, 2, 3
    edges = [((0, 1), 0.1), ((0, 2), 0.2), ((0, 3), 0.3), ((0, 4), 1.0)]
    g = UndirectedGraph(5, tuple(e for e, _ in edges))
    rng = np.random.default_rng(5)
    orders = [edges, edges[::-1], edges[1:3] + edges[3:] + edges[:1]]
    orders += [[edges[k] for k in rng.permutation(len(edges))] for _ in range(6)]
    fields = []
    for order in orders:
        for reverse in (False, True):
            cond = {(e[::-1] if reverse else e): c for e, c in order}
            fields.append(glue_leaders(g, cond, {1, 2, 3}).field_conductance)
    assert all(f.tobytes() == fields[0].tobytes() for f in fields)
    assert fields[0][0] == 0.0 + 0.1 + 0.2 + 0.3  # ascending leaf order


def test_glue_rejects_non_leaf():
    g, cond = fig_style_graph()
    with pytest.raises(ValueError, match="not a leaf"):
        glue_leaders(g, cond, {3})
    with pytest.raises(ValueError):
        glue_leaders(g, cond, set())


def test_glue_rejects_edge_given_twice():
    g, cond = fig_style_graph()
    with pytest.raises(ValueError, match="edge 3-4 given twice"):
        glue_leaders(g, {**cond, (4, 3): 5.0}, {0, 5, 6})


def split_field(net):
    """Reverse of gluing: one fresh leaf leader per field edge."""
    n = net.node_count
    edges = list(net.graph.edges)
    cond = dict(net.edge_conductance)
    leaders = []
    nxt = n
    for i in range(n):
        c = float(net.field_conductance[i])
        if c > 0.0:
            edges.append((i, nxt))
            cond[(i, nxt)] = c
            leaders.append(nxt)
            nxt += 1
    return UndirectedGraph(nxt, tuple(edges)), cond, set(leaders)


def test_glue_round_trip_preserves_potentials_and_influence():
    for seed in range(4):
        net = random_network(12, 0.25, seed=210 + seed)
        expanded_graph, expanded_cond, leaders = split_field(net)
        glued = glue_leaders(expanded_graph, expanded_cond, leaders)
        # surviving nodes keep their original ids: leaders were appended last
        assert glued.graph.edges == net.graph.edges
        assert np.allclose(glued.field_conductance, net.field_conductance)
        for leader in (0, 5):
            a = grounded_laplacian_solve(net, leader)
            b = grounded_laplacian_solve(glued, leader)
            assert np.allclose(a, b, atol=1e-12)
        assert np.allclose(
            harmonic_influence_exact(net),
            harmonic_influence_exact(glued),
            atol=1e-11,
        )
