import functools
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_influence import electrical, experiment
from harmonic_influence.electrical import (
    ConductanceNetwork,
    InfluenceWeights,
    build_weights,
    exact_message_potentials,
    grounded_laplacian_solve,
    harmonic_influence_exact,
    uniform_network,
)
from harmonic_influence.graphs import UndirectedGraph, message_digraph
from shared import GAMMA, cycle_graph, path_graph, random_connected


def random_network(n, p, seed):
    return uniform_network(random_connected(n, p, seed), GAMMA)


def trust_by_arc(w):
    """``arc_trust`` keyed by the arc (j, i): how much j trusts its neighbor i."""
    return dict(zip(message_digraph(w.graph).arc_nodes, w.arc_trust.tolist()))


def two_node_network():
    return uniform_network(UndirectedGraph(2, ((0, 1),)), GAMMA)


# ---------------------------------------------------------------------------
# ConductanceNetwork validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_network_rejects_non_finite_conductances(bad):
    g = UndirectedGraph(3, ((1, 2), (0, 1)))
    with pytest.raises(ValueError, match=rf"^conductance of edge 1-2 must be positive and finite, got {bad}$"):
        ConductanceNetwork(g, np.array([1.0, bad]), np.full(3, 0.1))
    with pytest.raises(ValueError, match=rf"^field conductances must be nonnegative and finite, got {bad} at node 1$"):
        ConductanceNetwork(g, np.ones(2), np.array([0.1, bad, 0.1]))


def test_network_reads_a_list_of_conductances_in_the_order_of_the_edges():
    g = UndirectedGraph(3, ((0, 1), (1, 2)))
    net = ConductanceNetwork(g, [2.0, 3.0], np.full(3, 0.1))
    assert net.edge_conductance.tolist() == [2.0, 3.0] and not net.edge_conductance.flags.writeable


def test_network_requires_field_in_every_component():
    # every component touches the field; BAD_CALLS holds the graph with the second one unfed
    g = UndirectedGraph(4, ((0, 1), (2, 3)))
    net = ConductanceNetwork(g, np.ones(2), np.array([GAMMA, 0.0, GAMMA, 0.0]))
    assert build_weights(net).field_trust[0] == GAMMA / (1.0 + GAMMA)


# ---------------------------------------------------------------------------
# build_weights
# ---------------------------------------------------------------------------

def test_weights_two_node_example():
    w = build_weights(two_node_network())
    assert w.arc_trust.tolist() == pytest.approx([1.0 / 1.04] * 2, abs=1e-15)  # entries (0, 1), (1, 0)
    assert w.field_trust[0] == pytest.approx(0.04 / 1.04, abs=1e-15)


@pytest.mark.parametrize("arc, field, message", [
    # trust 0 makes message passing divide 0 by 0; trust -1 sends every w to 2
    (np.zeros(4), None, r"arc_trust\[0\] is 0.0: a trust must be finite and lie in \(0, 1\]"),
    (np.full(4, -1.0), None, r"arc_trust\[0\] is -1.0: a trust must be finite and lie in \(0, 1\]"),
    (None, np.array([0.5, np.nan, 0.5]), r"field_trust\[1\] is nan: a trust must be finite and lie in \[0, 1\]"),
    (None, np.array([0.5, 0.5, 1.5]), r"field_trust\[2\] is 1.5: a trust must be finite and lie in \[0, 1\]"),
    (np.ones(3), None, r"arc_trust must have shape \(4,\), got \(3,\)"),
    (None, np.ones(2), r"field_trust must have shape \(3,\), got \(2,\)"),
])
def test_hand_built_weights_reject_bad_trust(arc, field, message):
    w = build_weights(uniform_network(path_graph(3), GAMMA))
    arc = w.arc_trust if arc is None else arc
    field = w.field_trust if field is None else field
    with pytest.raises(ValueError, match=f"^{message}$"):
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
        g = random_connected(int(rng.integers(3, 60)), 0.3, 1200 + k)
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
        lap = electrical._grounded_laplacian(net).toarray()
        for leader in range(net.node_count):
            keep = [i for i in range(net.node_count) if i != leader]
            np.linalg.cholesky(lap[np.ix_(keep, keep)])  # raises if not PD


def random_conductance_network(n, seed):
    # non-uniform edge conductances; about a third of the nodes have no field edge
    rng = np.random.default_rng(seed)
    g = random_connected(n, min(1.0, 4.0 / n), seed)
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


@functools.cache
def oracle_graphs():
    """The n=30 spanning tree and ER graph of the pipeline at seed 3."""
    return experiment.generate_graphs(experiment.ExperimentConfig(n=30, p=1 / 3, extra_edges=3, seed=3))[0]


def test_exact_influence_across_gamma_against_a_60_digit_oracle():
    for name in ("spanning_tree", "erdos_renyi"):
        g = oracle_graphs()[name]
        for gamma in (0.04, 1e-8, 1e-14):
            expected = mpmath_influence(g, gamma)
            got = harmonic_influence_exact(uniform_network(g, gamma))
            assert np.max(np.abs(got - expected) / expected) <= 1e-13, (name, gamma)
        # gamma vanishes in the diagonal sums: the stored M is singular
        for gamma in (1e-17, 1e-300):
            with pytest.raises(ArithmeticError, match=r"the pivot of node \d+ fell to rounding level"):
                harmonic_influence_exact(uniform_network(g, gamma))


@settings(max_examples=12)
@given(st.floats(min_value=-12, max_value=2), st.sampled_from(("spanning_tree", "erdos_renyi")))
def test_exact_influence_at_drawn_gamma_against_a_60_digit_oracle(u, name):
    g, gamma = oracle_graphs()[name], 10.0**u
    expected = mpmath_influence(g, gamma)
    got = harmonic_influence_exact(uniform_network(g, gamma))
    assert np.max(np.abs(got - expected) / expected) <= 1e-13


def test_solve_leader_must_be_an_integer_node_id():
    # True is node 1, as for graph ends, and a numpy integer is a node id
    net = uniform_network(path_graph(3), 0.1)
    assert grounded_laplacian_solve(net, True).tobytes() == grounded_laplacian_solve(net, 1).tobytes()
    assert grounded_laplacian_solve(net, np.int64(1)).tobytes() == grounded_laplacian_solve(net, 1).tobytes()


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


def test_influence_equal_on_each_symmetry_orbit_of_a_square_grid():
    # Node r * k + c of the 30 x 30 grid sits at row r, column c; the eight
    # symmetries of the square map the grid to itself, so H must be equal
    # on each orbit up to rounding, which spreads exact ties by a few eps.
    k = 30
    ids = np.arange(k * k).reshape(k, k)
    edges = np.concatenate((np.column_stack((ids[:, :-1].ravel(), ids[:, 1:].ravel())),
                            np.column_stack((ids[:-1].ravel(), ids[1:].ravel()))))
    grid = harmonic_influence_exact(uniform_network(UndirectedGraph(k * k, edges), GAMMA)).reshape(k, k)
    for image in (np.rot90(g, turns) for g in (grid, grid.T) for turns in range(4)):
        np.testing.assert_allclose(image, grid, rtol=1e-13, atol=0)


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


def test_exact_results_are_cached_per_network(monkeypatch):
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
