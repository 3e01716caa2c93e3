"""Property tests on drawn connected networks: the array forms of the
graph, message and weight code against the plain Python loops they
replaced, the exact layer against per-leader and dense solves, field
edges against the leaf leaders held at 0 that they stand for, the
one-sided bound of message passing, and the structural convergence
verdict."""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from harmonic_influence.analysis import check_convergence_hypothesis
from harmonic_influence.electrical import (
    ConductanceNetwork,
    _grounded_laplacian,
    build_weights,
    exact_message_potentials,
    grounded_laplacian_solve,
    harmonic_influence_exact,
)
from harmonic_influence.graphs import UndirectedGraph, message_digraph
from harmonic_influence.mpa import error_trace, initial_messages, run_mpa
from opinions import _trust_matrix
from shared import connected_networks, same_bits
from stepping import error_rows, influence_estimates, mpa_step, node_influence_estimate, stepped_run

def neighbor_lists(g):
    nbrs = [[] for _ in range(g.node_count)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return [sorted(a) for a in nbrs]


def message_digraph_oracle(g):
    """Messages in (receiver, sender) order and their dependency arcs, by loops."""
    nbrs = neighbor_lists(g)
    nodes = sorted([(u, v) for u, v in g.edges] + [(v, u) for u, v in g.edges])
    arc_id = {a: idx for idx, a in enumerate(nodes)}
    arcs = [(arc_id[(j, i)], arc_id[(i, k)]) for j, i in nodes for k in nbrs[i] if k != j]
    return tuple(nodes), tuple(arcs)


def build_weights_oracle(net):
    """Trust per ordered pair and field trust, each row summed from 0 in ascending neighbor order."""
    trust = {}
    field_trust = np.empty(net.node_count)
    cond_of = dict(zip(net.graph.edges, net.edge_conductance.tolist()))
    for i, nbrs in enumerate(neighbor_lists(net.graph)):
        cond = [cond_of[(min(i, j), max(i, j))] for j in nbrs]
        denom = sum(cond) + float(net.field_conductance[i])
        for j, c in zip(nbrs, cond):
            trust[(i, j)] = c / denom
        field_trust[i] = float(net.field_conductance[i]) / denom
    return trust, field_trust


def grounded_laplacian_oracle(net):
    """The grounded Laplacian by a loop over the edges in sorted order, field last."""
    n = net.node_count
    lap = np.zeros((n, n))
    for (u, v), c in zip(net.graph.edges, net.edge_conductance.tolist()):
        lap[u, v] -= c
        lap[v, u] -= c
        lap[u, u] += c
        lap[v, v] += c
    lap[np.diag_indices(n)] += net.field_conductance
    return lap


@given(connected_networks())
def test_message_digraph_matches_loop_oracle(net):
    g = net.graph
    md = message_digraph(g)
    nodes, arcs = message_digraph_oracle(g)
    indptr = g._csr.indptr
    assert [g._csr.indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])] == neighbor_lists(g)
    assert md.arc_nodes == nodes
    assert md.arcs == arcs
    assert md.to_digraph().arcs == arcs
    assert md.receivers().tolist() == [j for j, _ in nodes]
    assert md.senders().tolist() == [i for _, i in nodes]
    p = np.arange(md.size)
    assert np.array_equal(md.reverse[md.reverse], p)
    assert all(md.arc_nodes[md.reverse[q]] == (i, j) for q, (j, i) in enumerate(nodes))


@given(connected_networks())
def test_build_weights_matches_loop_oracle_bitwise(net):
    w = build_weights(net)
    trust, field_trust = build_weights_oracle(net)
    nodes, _ = message_digraph_oracle(net.graph)
    assert same_bits(w.arc_trust, [trust[a] for a in nodes])
    assert same_bits(w.field_trust, field_trust)
    q = np.zeros((net.node_count, net.node_count))
    for (i, j), val in trust.items():
        q[i, j] = val
    assert same_bits(_trust_matrix(w), q)


@given(connected_networks())
def test_grounded_laplacian_matches_sorted_loop_oracle_bitwise(net):
    lap = _grounded_laplacian(net).toarray()
    assert same_bits(lap, grounded_laplacian_oracle(net))


@given(connected_networks(), st.integers(min_value=0, max_value=6))
def test_node_estimate_matches_all_node_estimates_bitwise(net, steps):
    w = build_weights(net)
    state = initial_messages(message_digraph(net.graph), w)
    for _ in range(steps):
        state = mpa_step(state, w)
    each = [node_influence_estimate(state, v) for v in range(net.node_count)]
    assert same_bits(np.array(each, dtype=np.float64), influence_estimates(state, w))


@given(connected_networks(), st.integers(min_value=1, max_value=300))
def test_error_trace_matches_full_row_loop_bitwise(net, max_iter):
    w = build_weights(net)
    result = run_mpa(net.graph, w, tol=1e-10, max_iter=max_iter, trace=True)
    w_rows, est_rows, _ = stepped_run(net.graph, w, 1e-10, max_iter)
    expected = error_rows(w_rows, est_rows)
    got = error_trace(result)
    assert got.shape == expected.shape == (result.iterations, 2)
    assert same_bits(got, expected)
    assert same_bits(result.w_trace, w_rows[: len(result.w_trace)])
    assert np.all((result.w_trace > 0.0) & (result.w_trace <= 1.0))
    assert np.all(np.diff(result.w_trace, axis=0) <= 0.0)


def exact_rtol(net):
    """Relative accuracy of exact potentials and influence on net.

    Conductances 1e-3..1e3 with zero fields give cond(M) up to about 5e7.
    There the closed form, the per-leader solves and a dense LAPACK solve
    all stray from M's exact rational inverse by up to 0.4 eps cond(M),
    about 1e-10, so 1e-12 holds only while M is well conditioned.
    """
    m = _grounded_laplacian(net).toarray()
    return max(1e-12, 2.0 * np.finfo(np.float64).eps * np.linalg.cond(m))


@given(connected_networks())
def test_exact_results_match_per_leader_and_dense_solves(net):
    n = net.node_count
    per_leader = np.array([grounded_laplacian_solve(net, leader) for leader in range(n)])
    x = np.linalg.solve(_grounded_laplacian(net).toarray(), np.eye(n))
    dense = x.T / x.diagonal()[:, None]
    md = message_digraph(net.graph)
    rtol = exact_rtol(net)
    w_exact = exact_message_potentials(net, md)
    for pot in (per_leader, dense):
        np.testing.assert_allclose(harmonic_influence_exact(net), pot.sum(axis=1), rtol=rtol, atol=0)
        np.testing.assert_allclose(w_exact, pot[md.receivers(), md.senders()], rtol=rtol, atol=0)
    assert np.all((w_exact >= 0.0) & (w_exact <= 1.0))


@given(connected_networks())
def test_field_edges_act_as_leaf_leaders_held_at_zero(net):
    # A field edge acts like a leaf leader held at opinion 0: split each one
    # off as an edge to a fresh leaf, numbered after the nodes, and solve the
    # split graph's Laplacian densely with the leaves at 0 and the leader at 1.
    n = net.node_count
    fields = np.flatnonzero(net.field_conductance > 0.0).tolist()
    leaf_edges = {(i, n + k): float(net.field_conductance[i]) for k, i in enumerate(fields)}
    cond = {**dict(zip(net.graph.edges, net.edge_conductance.tolist())), **leaf_edges}
    size = n + len(fields)
    lap = np.zeros((size, size))
    for (u, v), c in cond.items():
        lap[[u, v], [v, u]] -= c
        lap[[u, v], [u, v]] += c
    rtol = exact_rtol(net)
    influence = harmonic_influence_exact(net)
    for leader in range(n):
        rest = [v for v in range(n) if v != leader]
        expected = np.ones(n)
        expected[rest] = np.linalg.solve(lap[np.ix_(rest, rest)], -lap[rest, leader])
        np.testing.assert_allclose(grounded_laplacian_solve(net, leader), expected, rtol=rtol, atol=0)
        np.testing.assert_allclose(influence[leader], expected.sum(), rtol=rtol, atol=0)


@given(connected_networks())
def test_mpa_bounds_exact_values_one_sided_and_is_exact_on_trees(net):
    g = net.graph
    result = run_mpa(g, build_weights(net), max_iter=20_000)
    exact = harmonic_influence_exact(net)
    w_exact = exact_message_potentials(net, result.md)
    rtol = exact_rtol(net)
    if g.edge_count == g.node_count - 1:
        assert result.converged
        np.testing.assert_allclose(result.h_estimates, exact, rtol=max(1e-9, rtol), atol=0)
        np.testing.assert_allclose(result.w_limits, w_exact, rtol=max(1e-9, rtol), atol=0)
    else:
        # The bounds hold for the limit.  Cycles with little field trust
        # contract too slowly to settle within the step cap; skip those.
        assume(result.converged)
        assert np.all(result.h_estimates >= exact * (1.0 - rtol))
        assert np.all(result.w_limits <= w_exact * (1.0 + rtol))


def convergence_violators(net):
    """Messages in nontrivial strong components of the message digraph that reach no message sent by a fed node."""
    md = message_digraph(net.graph)
    support = np.flatnonzero(net.field_conductance[md.senders()] > 0.0)
    return check_convergence_hypothesis(md.dependencies, support)


@given(connected_networks(), st.integers(min_value=0, max_value=13))
def test_convergence_hypothesis_holds_on_every_network_with_one_fed_node(net, fed):
    # A network is accepted only if every component has a fed node, and a
    # non-backtracking walk from any message on a cycle can leave the cycle
    # along a shortest path to that node: the hypothesis always holds.
    field = np.zeros(net.node_count)
    field[fed % net.node_count] = 1.0
    assert convergence_violators(ConductanceNetwork(net.graph, net.edge_conductance, field)) == frozenset()


def test_convergence_hypothesis_holds_on_a_disconnected_network_fed_once_per_component():
    # a triangle and a square with a chord, fed at node 0 and node 6
    g = UndirectedGraph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6), (3, 5)))
    field = np.zeros(7)
    field[[0, 6]] = 1.0
    assert convergence_violators(ConductanceNetwork(g, np.ones(g.edge_count), field)) == frozenset()
