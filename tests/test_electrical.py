import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.sparse.linalg

from harmonic_influence import experiment
from harmonic_influence.electrical import (
    ConductanceNetwork,
    InfluenceWeights,
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
    # edges in sorted order: 0-3, 1-2, 2-3; the message names the first bad entry's edge
    g = UndirectedGraph(4, ((2, 3), (3, 0), (1, 2)))
    for bad in (0.0, -0.0, -1.5):
        with pytest.raises(ValueError, match=rf"^conductance of edge 1-2 must be positive and finite, got {bad}$"):
            ConductanceNetwork(g, np.array([1.0, bad, -1.0]), np.full(4, 0.1))
        for glue in (lambda cond: glue_leaders(g, cond, {0}), lambda cond: glue_leaders(g, cond, {1})):
            # a glued edge is checked like a kept one
            with pytest.raises(ValueError, match=r"^conductance of edge 0-3 must be positive"):
                glue(np.array([bad, 1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_network_rejects_non_finite_conductances(bad):
    g = UndirectedGraph(3, ((1, 2), (0, 1)))
    with pytest.raises(ValueError, match=rf"^conductance of edge 1-2 must be positive and finite, got {bad}$"):
        ConductanceNetwork(g, np.array([1.0, bad]), np.full(3, 0.1))
    with pytest.raises(ValueError, match="finite"):
        ConductanceNetwork(g, np.ones(2), np.array([0.1, bad, 0.1]))


def test_network_rejects_missing_or_extra_conductances():
    g = UndirectedGraph(3, ((0, 1), (1, 2)))
    for cond, shape in ((np.ones(1), r"\(1,\)"), (np.ones(3), r"\(3,\)"), (np.ones((2, 1)), r"\(2, 1\)"),
                        (1.0, r"\(\)"), ([], r"\(0,\)")):
        message = rf"^edge_conductance must have one entry per edge, shape \(2,\), got {shape}$"
        with pytest.raises(ValueError, match=message):
            ConductanceNetwork(g, cond, np.full(3, 0.1))
        with pytest.raises(ValueError, match=message):
            glue_leaders(g, cond, {0})
    # an array in the order of g.edges; a list of floats is read the same way
    net = ConductanceNetwork(g, [2.0, 3.0], np.full(3, 0.1))
    assert net.edge_conductance.tolist() == [2.0, 3.0] and not net.edge_conductance.flags.writeable


def test_network_rejects_all_zero_field():
    g = UndirectedGraph(2, ((0, 1),))
    with pytest.raises(ValueError, match="no field conductance"):
        uniform_network(g, 0.0)


def test_network_requires_field_in_every_component():
    g = UndirectedGraph(4, ((0, 1), (2, 3)))
    with pytest.raises(ValueError):
        ConductanceNetwork(g, np.ones(2), np.array([GAMMA, 0.0, 0.0, 0.0]))
    # ok once the second component also touches the field
    net = ConductanceNetwork(g, np.ones(2), np.array([GAMMA, 0.0, GAMMA, 0.0]))
    assert build_weights(net).field_trust[0] == GAMMA / (1.0 + GAMMA)


def test_network_error_names_first_component_without_field():
    # components by smallest node: {0, 5}, {1, 2, 6}, {3, 4}
    g = UndirectedGraph(7, ((1, 6), (0, 5), (3, 4), (2, 6)))
    cond = np.ones(g.edge_count)
    for fielded, k in (((5,), 1), ((5, 6), 3), ((2, 3), 0), ((4, 6), 0)):
        gamma = np.zeros(7)
        gamma[list(fielded)] = GAMMA
        message = f"extended network is disconnected: component containing node {k} has no field conductance"
        with pytest.raises(ValueError) as err:
            ConductanceNetwork(g, cond, gamma)
        assert str(err.value) == message, fielded


def test_network_rejects_node_total_that_overflows():
    # each edge is finite, but node 1's two conductances sum past the largest float
    path = path_graph(3)
    with pytest.raises(ValueError, match="total conductance of node 1 overflows to inf"):
        ConductanceNetwork(path, np.array([1e308, 1e308]), np.full(3, GAMMA))


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
    net = ConductanceNetwork(path, np.array([1e-300, 1e-300]), np.full(3, 1e300))
    with pytest.raises(ValueError, match="edge 0-1: trust of node 0 in node 1 underflows to 0"):
        build_weights(net)


@pytest.mark.parametrize("arc, field, message", [
    # trust 0 makes message passing divide 0 by 0; trust -1 sends every w to 2
    (np.zeros(4), None, r"arc_trust\[0\] is 0.0: a trust must be finite and lie in \(0, 1\]"),
    (np.full(4, -1.0), None, r"arc_trust\[0\] is -1.0: a trust must be finite and lie in \(0, 1\]"),
    (None, np.array([0.5, np.nan, 0.5]), r"field_trust\[1\] is nan: a trust must be finite and lie in \[0, 1\]"),
    (None, np.array([0.5, 0.5, 1.5]), r"field_trust\[2\] is 1.5"),
    (np.ones(3), None, r"arc_trust must have shape \(4,\), got \(3,\)"),
    (None, np.ones(2), r"field_trust must have shape \(3,\), got \(2,\)"),
])
def test_hand_built_weights_reject_bad_trust(arc, field, message):
    w = build_weights(uniform_network(path_graph(3), GAMMA))
    arc = w.arc_trust if arc is None else arc
    field = w.field_trust if field is None else field
    with pytest.raises(ValueError, match=message):
        InfluenceWeights(w.graph, arc, field)


@pytest.mark.parametrize("arc, field, message", [
    # run_mpa used to converge on the first to estimates [1.6, 2.0, 1.6], the influence of no network
    (np.ones(4), np.ones(3), r"^trusts of node 0 sum to 2\.0, not to 1$"),
    (None, np.zeros(3), r"^trusts of node 0 sum to 0\.9615384615384615, not to 1$"),
    (None, np.array([0.04 / 1.04, 0.04 / 2.04, 0.5]), r"^trusts of node 2 sum to 1\.4615384615384615, not to 1$"),
])
def test_hand_built_weights_reject_rows_that_do_not_sum_to_one(arc, field, message):
    w = build_weights(uniform_network(path_graph(3), GAMMA))
    arc = w.arc_trust if arc is None else arc
    with pytest.raises(ValueError, match=message):
        InfluenceWeights(w.graph, arc, field)


def test_weights_of_wide_conductance_ranges_pass_the_row_sum_check():
    # conductances e^N(0, sigma^2), sigma up to 100: the rows stay within the rounding bound
    rng = np.random.default_rng(71)
    checked = 0
    for k in range(60):
        g = random_network(int(rng.integers(3, 60)), 0.3, seed=1200 + k).graph
        sigma = (0.1, 1.0, 10.0, 100.0)[k % 4]
        conductance = np.exp(np.clip(rng.normal(0.0, sigma, g.edge_count), -690.0, 690.0))
        field = np.exp(np.clip(rng.normal(0.0, sigma, g.node_count), -690.0, 690.0))
        try:
            w = build_weights(ConductanceNetwork(g, conductance, field))
        except ValueError as e:
            # at sigma = 100 some trusts fall below the smallest float
            assert "underflows to 0" in str(e), e
            continue
        InfluenceWeights(w.graph, w.arc_trust.copy(), w.field_trust.copy())
        checked += 1
    assert checked >= 45, checked


def test_hand_built_weights_accept_isolated_node():
    # an isolated node trusts only the field
    w = InfluenceWeights(UndirectedGraph(1, ()), np.zeros(0), np.ones(1))
    assert w.field_trust.tolist() == [1.0]


def test_weights_rows_sum_to_one():
    for seed in range(8):
        net = random_network(20, 0.2, seed=900 + seed)
        w = build_weights(net)
        trust = trust_by_arc(w)
        for i in range(20):
            total = sum(t for (j, _), t in trust.items() if j == i) + w.field_trust[i]
            assert abs(total - 1.0) <= 1e-12


def test_weights_star_center_symmetric():
    # field only on the leaves keeps the center's row the pure 1/3 split
    star = UndirectedGraph(4, ((0, 1), (0, 2), (0, 3)))
    net = ConductanceNetwork(star, np.ones(3), np.array([0.0, GAMMA, GAMMA, GAMMA]))
    trust = trust_by_arc(build_weights(net))
    for leaf in (1, 2, 3):
        assert trust[(0, leaf)] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_weights_reciprocity_witness():
    for seed in range(5):
        net = random_network(15, 0.25, seed=40 + seed)
        trust = trust_by_arc(build_weights(net))
        total = net.field_conductance.copy()
        for (i, j), c in zip(net.graph.edges, net.edge_conductance):
            total[[i, j]] += c
        for (i, j), c in zip(net.graph.edges, net.edge_conductance):
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
    return ConductanceNetwork(g, rng.uniform(0.2, 5.0, size=g.edge_count), gamma)


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


def test_per_leader_solve_names_the_cancelled_pivot_by_node():
    # Conductance 1e308 on edge 1-2 swamps the rest of nodes 1 and 2: with
    # leader 0 grounded the pivot of node 1, row 0 of M_RR, cancels.
    net = ConductanceNetwork(UndirectedGraph(3, ((0, 1), (1, 2))), np.array([1.0, 1e308]), np.full(3, GAMMA))
    with pytest.raises(ArithmeticError, match=r"leader 0 is not positive definite to working precision: "
                       r"the pivot of node 1 fell to rounding level \(numerically singular\)$"):
        grounded_laplacian_solve(net, 0)


def mpmath_influence(g, gamma):
    """H(l) = (X 1)_l / X_ll with X = (L + gamma I)^-1 inverted at 60 digits, for unit conductances."""
    n = g.node_count
    with mpmath.workdps(60):
        m = mpmath.zeros(n, n)
        for i, j in g.edges:
            m[i, j] -= 1
            m[j, i] -= 1
            m[i, i] += 1
            m[j, j] += 1
        for i in range(n):
            m[i, i] += mpmath.mpf(gamma)
        x = m**-1
        return np.array([float(sum(x[k, l] for k in range(n)) / x[l, l]) for l in range(n)])


def test_exact_influence_across_gamma_against_a_60_digit_oracle():
    graphs = experiment.generate_graphs(experiment.ExperimentConfig(n=30, p=1 / 3, extra_edges=3, seed=3))[0]
    for name in ("spanning_tree", "erdos_renyi"):
        g = graphs[name]
        for gamma in (0.04, 1e-8, 1e-14):
            expected = mpmath_influence(g, gamma)
            got = harmonic_influence_exact(uniform_network(g, gamma))
            assert np.max(np.abs(got - expected) / expected) <= 1e-13, (name, gamma)
        # gamma vanishes in the diagonal sums: the stored M is singular
        for gamma in (1e-17, 1e-300):
            with pytest.raises(ArithmeticError, match=r"the pivot of node \d+ fell to rounding level"):
                harmonic_influence_exact(uniform_network(g, gamma))


def test_solve_leader_out_of_range():
    with pytest.raises(ValueError):
        grounded_laplacian_solve(two_node_network(), leader=5)


def test_single_node_network():
    # a lone node coupled only to the field: leader potential 1, influence 1
    net = ConductanceNetwork(UndirectedGraph(1, ()), np.zeros(0), np.array([0.5]))
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


def test_scaling_all_conductances_leaves_everything_unchanged():
    net = random_network(18, 0.2, seed=55)
    scale = 3.7
    scaled = ConductanceNetwork(net.graph, scale * net.edge_conductance, scale * net.field_conductance)
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
    monkeypatch.setattr(electrical, "_factor", lambda m, what, *nodes: calls.append(what) or factor(m, what, *nodes))
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


def test_exact_results_do_not_depend_on_the_solve_block(monkeypatch):
    import harmonic_influence.electrical as electrical

    config = experiment.ExperimentConfig(n=300, p=0.03, extra_edges=30, seed=5)  # the output fixture's run
    nets = [uniform_network(g, GAMMA) for g in experiment.generate_graphs(config)[0].values()]
    block = electrical._SOLVE_BLOCK
    nets += [random_conductance_network(n, seed=n) for n in (block - 1, block, block + 1)]

    def exact_bits(net):
        # A fresh copy, so that the cached results of another block size are not read.
        net = ConductanceNetwork(net.graph, net.edge_conductance, net.field_conductance)
        return harmonic_influence_exact(net).tobytes(), exact_message_potentials(net, message_digraph(net.graph)).tobytes()

    expected = [exact_bits(net) for net in nets]
    monkeypatch.setattr(electrical, "_SOLVE_BLOCK", 7)
    assert [exact_bits(net) for net in nets] == expected


def test_exact_results_of_a_path_need_no_n_by_n_array():
    net = uniform_network(path_graph(2000), GAMMA)
    tracemalloc.start()
    try:
        harmonic_influence_exact(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20  # one n x n array alone is 30.5 MiB


def test_residual_failure_names_the_leader_whose_column_failed(monkeypatch):
    import harmonic_influence.electrical as electrical

    class SpoiledColumn(PerturbedSolve):
        def solve(self, b, **kwargs):
            x = self.lu.solve(b, **kwargs)
            x[:, b[9] == 1.0] *= 1.001  # the column of leader 9, if this block holds it
            return x

    accurate_splu = scipy.sparse.linalg.splu
    monkeypatch.setattr(electrical.scipy.sparse.linalg, "splu", lambda *a, **kw: SpoiledColumn(accurate_splu(*a, **kw)))
    monkeypatch.setattr(electrical, "_SOLVE_BLOCK", 4)  # leader 9 lies in the third block
    with pytest.raises(ArithmeticError, match=r"exceeds tolerance for leader 9$"):
        harmonic_influence_exact(random_network(12, 0.3, seed=14))


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
    cond = np.array([0.7, 1.1, 0.9, 1.3, 0.8, 0.6, 0.5])
    return UndirectedGraph(7, edges), cond


def test_glue_parallel_field_edges_sum():
    g, cond = fig_style_graph()
    net = glue_leaders(g, cond, {0, 5, 6})
    # survivors 1,2,3,4 renumbered 0,1,2,3
    assert net.node_count == 4
    assert net.field_conductance[0] == pytest.approx(0.7)   # old node 1
    assert net.field_conductance[3] == pytest.approx(0.6 + 0.5)  # old node 4
    assert net.graph.edges == ((0, 1), (0, 2), (1, 2), (2, 3))
    assert net.edge_conductance.tolist() == [1.1, 0.9, 1.3, 0.8]


def test_glue_single_leaf():
    g = path_graph(3)
    net = glue_leaders(g, np.array([2.5, 1.0]), {2})
    assert net.node_count == 2
    assert net.field_conductance[1] == pytest.approx(1.0)
    assert net.field_conductance[0] == 0.0
    assert net.edge_conductance.tolist() == [2.5]


def glue_field_oracle(g, cond, leaders):
    """The field of every survivor by a loop over the edges in sorted order, each from 0.0."""
    survivors = [v for v in range(g.node_count) if v not in leaders]
    new_id = {v: k for k, v in enumerate(survivors)}
    gamma = np.zeros(len(survivors))
    for (u, v), c in sorted(zip(g.edges, cond.tolist())):
        if (u in leaders) != (v in leaders):
            gamma[new_id[v if u in leaders else u]] += c
    return gamma


def test_glue_field_sums_match_the_sorted_loop():
    # the center 0 keeps leaf 4 and takes the field edges of leaves 1, 2, 3
    g = UndirectedGraph(5, ((0, 4), (3, 0), (0, 2), (1, 0)))
    field = glue_leaders(g, np.array([0.1, 0.2, 0.3, 1.0]), {1, 2, 3}).field_conductance
    assert field[0] == 0.0 + 0.1 + 0.2 + 0.3  # ascending leaf order
    # random trees whose leaves, leaders or not, hang in bunches off a few survivors
    rng = np.random.default_rng(5)
    checked = 0
    for n in (6, 20, 60, 200):
        for _ in range(5):
            g = UndirectedGraph(n, tuple((int(rng.integers(max(1, v // 4))), v) for v in range(1, n)))
            leaves = [v for v in range(n) if g.degree(v) == 1]
            leaders = {v for v in leaves if rng.random() < 0.7} or {leaves[0]}
            if len(leaders) == n:
                continue
            cond = np.exp(rng.normal(0.0, 3.0, g.edge_count))
            glued = glue_leaders(g, cond, leaders)
            assert glued.field_conductance.tobytes() == glue_field_oracle(g, cond, leaders).tobytes()
            checked += 1
    assert checked >= 15, checked


def test_glue_rejects_non_leaf():
    g, cond = fig_style_graph()
    with pytest.raises(ValueError, match="not a leaf"):
        glue_leaders(g, cond, {3})
    with pytest.raises(ValueError):
        glue_leaders(g, cond, set())


def split_field(net):
    """Reverse of gluing: one fresh leaf leader per field edge."""
    n = net.node_count
    edges = list(net.graph.edges)
    cond = dict(zip(edges, net.edge_conductance.tolist()))
    leaders = []
    nxt = n
    for i in range(n):
        c = float(net.field_conductance[i])
        if c > 0.0:
            edges.append((i, nxt))
            cond[(i, nxt)] = c
            leaders.append(nxt)
            nxt += 1
    g = UndirectedGraph(nxt, tuple(edges))
    return g, np.array([cond[e] for e in g.edges]), set(leaders)


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
