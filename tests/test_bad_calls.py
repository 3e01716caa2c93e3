"""The library's bad-input contract: a call either returns checked, finite
output or raises ``ValueError`` or ``ArithmeticError`` with a message.

``BAD_CALLS`` holds one row per known bad call: the callable, its
arguments, and the exception type and full message it raises.  The fuzz
passes bad values to every function and validating constructor of
``harmonic_influence.__all__``, one argument at a time."""

import dataclasses
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harmonic_influence
from harmonic_influence import (
    ConductanceNetwork, Digraph, ExperimentConfig, GraphFile, InfluenceWeights, UndirectedGraph, add_extra_edges,
    build_weights, check_convergence_hypothesis, condensation, diameter, erdos_renyi, error_trace,
    exact_message_potentials, generate_graphs, grounded_laplacian_solve, harmonic_influence_exact,
    initial_generalized_state, initial_messages, is_connected, load_graph, message_digraph, run_experiment,
    run_generalized, run_mpa, save_graph, save_report, spanning_tree, spearman, spectral_radius_diagnostic,
    uniform_network
)
from opinions import initial_state, simulate_to_fixed_point
from shared import GAMMA, path_graph, random_connected


def call(f, *args, **kwargs):
    return f, args, kwargs


def fielded(n, nodes):
    """Field conductance GAMMA at the given nodes, 0 elsewhere."""
    gamma = np.zeros(n)
    gamma[list(nodes)] = GAMMA
    return gamma


def weights(g, edge_cond=None, field_cond=None):
    edge_cond = np.ones(g.edge_count) if edge_cond is None else edge_cond
    field_cond = np.full(g.node_count, GAMMA) if field_cond is None else field_cond
    return build_weights(ConductanceNetwork(g, edge_cond, field_cond))


PATH3, PATH4, PATH3_TRUSTS = path_graph(3), path_graph(4), weights(path_graph(3))
DISCONNECTED = UndirectedGraph(4, ((0, 1), (2, 3)))
TRIANGLE = UndirectedGraph(3, ((0, 1), (0, 2), (1, 2)))
CYCLE3, TWO_CYCLE = Digraph(3, ((0, 1), (1, 2), (2, 0))), Digraph(2, ((0, 1), (1, 0)))
# node 1 trusts node 0 about 1e-310, and the kernel divides by that trust
TINY_TRUST = weights(PATH3, np.array([1e-310, 1.0]))
TINY_TRUST_NO_FIELD = weights(PATH3, np.array([1e-310, 1.0]), np.array([0.0, 0.0, 0.04]))
# components by smallest node: {0, 5}, {1, 2, 6}, {3, 4}
SEVEN = UndirectedGraph(7, ((1, 6), (0, 5), (3, 4), (2, 6)))
# 19 edges, 10 of them outside its spanning trees
POOL = random_connected(10, 0.5, seed=4)


def generalized(alpha=(0.1, 0.1), beta=None, r=None, s=None, d=TWO_CYCLE, steps=0):
    """The state of the driven recursion after ``steps`` steps from the start; beta is 0 and r and s 1 unless given."""
    n = d.node_count
    beta, r, s = (np.zeros(n) if beta is None else beta), (np.ones(n) if r is None else r), (np.ones(n) if s is None else s)
    return run_generalized(initial_generalized_state(d, alpha, beta, r, s), steps)


# Each bad call: the callable and its arguments, the exception and its full message.
BAD_CALLS = {
    # graphs: node counts, pairs and node ids
    "graph-node-count-float": (call(UndirectedGraph, 3.0, ((0, 1),)), ValueError, "node_count must be an integer, got 3.0"),
    "digraph-node-count-float": (call(Digraph, 2.5, ((0, 1),)), ValueError, "node_count must be an integer, got 2.5"),
    "graph-self-loop": (call(UndirectedGraph, 3, ((0, 0),)), ValueError, "self-loop 0-0 not allowed"),
    "graph-edge-reversed": (call(UndirectedGraph, 3, ((0, 1), (1, 0))), ValueError, "duplicate edge 0-1"),
    "graph-edge-outside": (call(UndirectedGraph, 2, ((0, 5),)), ValueError, "edge 0-5 outside node range 0..1"),
    "digraph-duplicate-arc": (call(Digraph, 2, ((0, 1), (0, 1))), ValueError, "duplicate arc 0->1"),
    # a lone pair where the pairs go: each of its ends is read as a pair, and has no length
    "graph-one-pair-unwrapped": (call(UndirectedGraph, 2, (0, 1)), ValueError, "edge 0 is not a pair of nodes"),
    # the first offending pair in input order, whatever is wrong with it
    "digraph-duplicate-before-triple": (call(Digraph, 3, ((0, 1), (0, 1), (0, 1, 2))), ValueError, "duplicate arc 0->1"),
    "digraph-outside-before-single": (call(Digraph, 3, ((0, 5), (2,))), ValueError, "arc 0->5 outside node range"),
    "digraph-single-before-duplicate": (call(Digraph, 3, ((0, 1), (2,), (0, 1))), ValueError, "arc (2,) is not a pair of nodes"),
    # graphs: generators
    "er-n-float": (call(erdos_renyi, 2.5, 0.3, 1), ValueError, "n must be an integer, got 2.5"),
    "er-n-integral-float": (call(erdos_renyi, 10.0, 0.3, 1), ValueError, "n must be an integer, got 10.0"),
    "er-p-string": (call(erdos_renyi, 3, "0.5", 1), ValueError, "p must be a real number, got '0.5'"),
    "er-seed-float": (call(erdos_renyi, 10, 0.3, 1.5), ValueError, "seed must be an integer, got 1.5"),
    "spanning-tree-disconnected": (call(spanning_tree, DISCONNECTED, 0), ValueError,
                                   "graph is disconnected: no path between nodes 0 and 2"),
    "spanning-tree-seed-float": (call(spanning_tree, PATH3, 1.5), ValueError, "seed must be an integer, got 1.5"),
    "extra-edges-k-too-large": (call(add_extra_edges, spanning_tree(POOL, 4), POOL, POOL.edge_count, 0), ValueError,
                                "k=19 exceeds the 10 available extra edges"),
    "extra-edges-k-zero-float": (call(add_extra_edges, PATH3, TRIANGLE, 0.0, 1), ValueError, "k must be an integer, got 0.0"),
    "extra-edges-k-float": (call(add_extra_edges, PATH3, TRIANGLE, 1.5, 1), ValueError, "k must be an integer, got 1.5"),
    "extra-edges-seed-float": (call(add_extra_edges, PATH3, TRIANGLE, 1, 1.5), ValueError, "seed must be an integer, got 1.5"),
    "message-digraph-one-node": (call(message_digraph, UndirectedGraph(1, ())), ValueError,
                                 "graph has no edges, so there are no messages to pass"),
    "message-digraph-edgeless": (call(message_digraph, UndirectedGraph(3, ())), ValueError,
                                 "graph has no edges, so there are no messages to pass"),
    # electrical: networks; edges in sorted order 0-3, 1-2, 2-3, and the message names the first bad entry's edge
    **{f"network-conductance-{name}": (call(ConductanceNetwork, UndirectedGraph(4, ((2, 3), (3, 0), (1, 2))),
                                            np.array([1.0, bad, -1.0]), np.full(4, 0.1)), ValueError,
                                       f"conductance of edge 1-2 must be positive and finite, got {bad}")
       for name, bad in (("0", 0.0), ("minus-0", -0.0), ("negative", -1.5))},
    **{f"network-conductances-{name}": (call(ConductanceNetwork, PATH3, cond, np.full(3, 0.1)), ValueError,
                                        f"edge_conductance must have one entry per edge, shape (2,), got {shape}")
       for name, cond, shape in (("short", np.ones(1), "(1,)"), ("long", np.ones(3), "(3,)"),
                                 ("column", np.ones((2, 1)), "(2, 1)"), ("scalar", 1.0, "()"), ("empty", [], "(0,)"))},
    "network-fields-long": (call(ConductanceNetwork, UndirectedGraph(2, ((0, 1),)), np.ones(1), np.ones(3)), ValueError,
                            "field_conductance must have one entry per node"),
    "network-gamma-string": (call(uniform_network, PATH3, "0.04"), ValueError, "gamma must be a real number, got '0.04'"),
    "network-no-field": (call(uniform_network, UndirectedGraph(2, ((0, 1),)), 0.0), ValueError,
                         "extended network is disconnected: component containing node 0 has no field conductance"),
    "network-second-component-unfed": (call(ConductanceNetwork, DISCONNECTED, np.ones(2), fielded(4, (0,))), ValueError,
                                       "extended network is disconnected: component containing node 2 has no field conductance"),
    **{f"network-unfed-{k}-fields-at-{'-'.join(map(str, nodes))}": (
        call(ConductanceNetwork, SEVEN, np.ones(4), fielded(7, nodes)), ValueError,
        f"extended network is disconnected: component containing node {k} has no field conductance")
       for nodes, k in (((5,), 1), ((5, 6), 3), ((2, 3), 0), ((4, 6), 0))},
    # each edge is finite, but node 1's two conductances sum past the largest float
    "network-node-total-overflow": (call(ConductanceNetwork, PATH3, np.array([1e308, 1e308]), np.full(3, GAMMA)), ValueError,
                                    "total conductance of node 1 overflows to inf"),
    # electrical: trusts; each total is about 1e300, so every neighbor's trust 1e-300 / 1e300 rounds to 0
    "weights-trust-underflow": (call(build_weights, ConductanceNetwork(PATH3, np.array([1e-300, 1e-300]), np.full(3, 1e300))),
                                ValueError, "edge 0-1: trust of node 0 in node 1 underflows to 0"),
    # electrical: solves.  Conductance 1e308 on edge 1-2 swamps the rest of nodes 1 and 2:
    # with leader 0 grounded the pivot of node 1, row 0 of M_RR, cancels.
    "solve-cancelled-pivot": (call(grounded_laplacian_solve, ConductanceNetwork(PATH3, [1.0, 1e308], np.full(3, GAMMA)), 0),
                              ArithmeticError, "grounded Laplacian with leader 0 is not positive definite to working precision: "
                              "the pivot of node 1 fell to rounding level (numerically singular)"),
    "solve-leader-5": (call(grounded_laplacian_solve, uniform_network(UndirectedGraph(2, ((0, 1),)), GAMMA), 5), ValueError,
                       "leader 5 outside node range"),
    # a float or a string is no node id, even when int() could read it
    **{f"solve-leader-{name}": (call(grounded_laplacian_solve, uniform_network(PATH3, 0.1), bad), ValueError,
                                f"leader {bad!r} is not an integer node id")
       for name, bad in (("float", 1.0), ("fraction", 1.5), ("string", "1"))},
    "exact-potentials-other-graph": (call(exact_message_potentials, uniform_network(PATH4, GAMMA),
                                          message_digraph(UndirectedGraph(4, ((0, 2), (0, 3), (1, 3))))), ValueError,
                                     "network and message digraph cover different graphs"),
    # mpa
    "mpa-graph-and-weights-disagree": (call(run_mpa, UndirectedGraph(3, ((0, 1),)), PATH3_TRUSTS), ValueError,
                                       "graph and weights disagree"),
    "mpa-disconnected": (call(run_mpa, DISCONNECTED, weights(DISCONNECTED)), ValueError,
                         "message passing requires a connected graph"),
    "mpa-edgeless": (call(run_mpa, UndirectedGraph(1, ()), weights(UndirectedGraph(1, ()))), ValueError,
                     "graph has no edges, so there are no messages to pass"),
    "mpa-tol-string": (call(run_mpa, PATH3, PATH3_TRUSTS, tol="1"), ValueError, "tol must be a real number, got '1'"),
    "messages-weights-of-another-graph": (call(initial_messages, message_digraph(PATH4),
                                               weights(UndirectedGraph(4, ((0, 1), (0, 2), (0, 3))))),
                                          ValueError, "weights and message digraph cover different graphs"),
    # q_1 / trust[(1, 0)] and trust[(1, 2)] / trust[(1, 0)] overflow to inf; without a field at node 1 only the second
    "mpa-trust-quotient-overflow": (call(run_mpa, PATH3, TINY_TRUST), ValueError,
                                    "edge 0-1: trust of node 1 in node 0 is 9.62e-311, and dividing by it overflows to inf"),
    "messages-trust-quotient-overflow": (call(initial_messages, message_digraph(PATH3), TINY_TRUST), ValueError,
                                         "edge 0-1: trust of node 1 in node 0 is 9.62e-311, and dividing by it overflows to inf"),
    "mpa-trust-quotient-overflow-no-field": (
        call(run_mpa, PATH3, TINY_TRUST_NO_FIELD), ValueError,
        "edge 0-1: trust of node 1 in node 0 is 1e-310, and dividing by it overflows to inf"),
    "error-trace-without-traces": (call(error_trace, run_mpa(PATH4, weights(PATH4))), ValueError,
                                   "result carries no traces; rerun with trace=True"),
    # analysis: the driven recursion
    "generalized-r-s-not-reciprocal": (call(generalized, np.zeros(3), r=np.full(3, 2.0), s=np.full(3, 2.0), d=CYCLE3),
                                       ValueError, "scaling vectors must be reciprocal: r_v * s_v = 1"),
    "generalized-alpha-negative": (call(generalized, (0.1, -0.1, 0.1), d=CYCLE3), ValueError, "alpha must be nonnegative"),
    "generalized-alpha-inf": (call(generalized, (np.inf, 0.1)), ValueError, "alpha must be finite"),
    "generalized-alphas-long": (call(generalized, np.zeros(4), d=CYCLE3), ValueError,
                                "alpha must have one entry per digraph node"),
    "generalized-alpha-decreases": (call(run_generalized, generalized(lambda t: np.full(3, 1 / (t + 1)), d=CYCLE3, steps=1), 1),
                                    ValueError, "alpha decreased at t=1; the driving sequence must be non-decreasing"),
    "generalized-callable-beta-inf-at-3": (call(run_generalized, generalized(beta=lambda t: [0.0, np.inf if t == 3 else 0.0],
                                                                             steps=3), 1),
                                           ValueError, "beta(t) at t=3 must be finite"),
    # analysis: the convergence hypothesis; int() would read 0.7 as node 0, 2.9 as node 2 and "1" as node 1
    **{f"hypothesis-support-{name}": (call(check_convergence_hypothesis, CYCLE3, support), ValueError, message)
       for name, support, message in (("minus-1", {0, -1}, "support node -1 outside range"),
                                      ("3", {0, 3}, "support node 3 outside range"),
                                      ("numpy-3", [np.int64(3)], "support node 3 outside range"),
                                      ("float", [0.7], "support node 0.7 is not an integer node id"),
                                      ("float-above-2", [2.9], "support node 2.9 is not an integer node id"),
                                      ("string", ["1"], "support node '1' is not an integer node id"))},
    # analysis: the spectral radius
    **{f"radius-omega-{name}": (call(spectral_radius_diagnostic, CYCLE3, omega), ValueError, message)
       for name, omega, message in (
           ("zero", [0.5, 0.0, 0.5], "omega entries must lie in (0, 1]"),
           ("above-one", [0.5, 1.5, 0.5], "omega entries must lie in (0, 1]"),
           ("long", np.ones(4), "omega must have one entry per digraph node"))},
    # analysis: rank correlation
    "spearman-no-rank-variance": (call(spearman, [1.0, 1.0, 1.0], [1.0, 2.0, 3.0]), ValueError,
                                  "rank variance is zero; coefficient undefined"),
    "spearman-one-observation": (call(spearman, [1.0], [2.0]), ValueError, "need at least two observations"),
    "spearman-unequal-lengths": (call(spearman, [1.0, 2.0], [1.0, 2.0, 3.0]), ValueError, "inputs must be equal-length vectors"),
    # experiment: the config
    "config-n-1": (call(ExperimentConfig, n=1), ValueError, "n must be at least 2"),
    "config-p-above-one": (call(ExperimentConfig, p=1.5), ValueError, "p must lie in [0, 1]"),
    "config-gamma-0": (call(ExperimentConfig, gamma=0.0), ValueError,
                       "gamma must be positive and finite: every node trusts the field"),
    "config-gamma-inf": (call(ExperimentConfig, gamma=math.inf), ValueError,
                         "gamma must be positive and finite: every node trusts the field"),
    "config-extra-edges-negative": (call(ExperimentConfig, extra_edges=-1), ValueError, "extra_edges must be nonnegative"),
    "config-max-iter-0": (call(ExperimentConfig, max_iter=0), ValueError, "max_iter must be positive"),
    **{f"config-{name}-string": (call(ExperimentConfig, **{name: bad}), ValueError, f"{name} must be a real number, got {bad!r}")
       for name, bad in (("p", "0.1"), ("gamma", "0.04"), ("tol", "1e-10"))},
    "generate-no-connected-er": (call(generate_graphs, ExperimentConfig(n=5, p=0.0)), ValueError,
                                 "no connected Erdos-Renyi graph found in 100 attempts from seed 0"),
    "graph-file-no-field-no-fallback": (call(GraphFile(PATH3, np.ones(2), np.zeros(3)).network), ValueError,
                                        "file has no field edges and no fallback gamma given"),
    # a string is no number, even where float() could read it
    "graph-file-fallback-gamma-string": (call(GraphFile(PATH3, np.ones(2), np.zeros(3)).network, "0.04"), ValueError,
                                         "fallback_gamma must be a real number, got '0.04'"),
    # the opinion-dynamics oracle of the tests reads its leader as a node id
    "opinions-leader-float": (call(initial_state, 3, 1.0), ValueError, "leader 1.0 is not an integer node id"),
    "opinions-tol-0": (call(simulate_to_fixed_point, initial_state(2, leader=0), weights(UndirectedGraph(2, ((0, 1),))), tol=0.0),
                       ValueError, "tol must be positive"),
}


@pytest.mark.parametrize("bad_call, error, message", BAD_CALLS.values(), ids=list(BAD_CALLS))
def test_bad_call_raises(bad_call, error, message):
    f, args, kwargs = bad_call
    with pytest.raises(error) as info:
        f(*args, **kwargs)
    assert type(info.value) is error and str(info.value) == message

# ---------------------------------------------------------------------------
# the fuzz
# ---------------------------------------------------------------------------

# Results and states that the library builds and never validates.
CONTAINERS = {"CondensationDigraph", "ExperimentReport", "GeneralizedDynamicsState", "GraphRunReport",
              "MessageDigraph", "MessageState", "MpaResult"}
# A triangle with a tail: one cycle, so message passing is not exact at the diameter.
EDGES, ARCS = ((0, 1), (1, 2), (0, 2), (2, 3)), ((0, 1), (1, 0), (1, 1), (1, 2))
G4, D3 = UndirectedGraph(4, EDGES), Digraph(3, ARCS)
CONDUCTANCES = {"edge_cond": ("array", (1.0, 2.0, 0.5, 1.0)), "field_cond": ("array", (GAMMA, 0.0, GAMMA, 0.5))}
TRUSTS = weights(G4, *(valid for _, valid in CONDUCTANCES.values()))
STEPS = {**CONDUCTANCES, "tol": ("real", 1e-10), "max_iter": ("count", 60)}
CONFIG = {"n": ("count", 6), "p": ("real", 0.6), "extra_edges": ("count", 1), "gamma": ("real", GAMMA),
          "seed": ("seed", 0), "tol": ("real", 1e-10), "max_iter": ("count", 200)}
DRIVING = {"alpha": ("array", (0.1, 0.2)), "beta": ("array", (0.0, 0.5)), "r": ("array", (2.0, 0.5)),
           "s": ("array", (0.5, 2.0))}


def in_a_new_directory(write):
    """``write(directory)`` in a temporary directory, removed when it returns."""
    with tempfile.TemporaryDirectory() as directory:
        return write(Path(directory))


def load_lines(count, node, conductance):
    def write_and_load(directory):
        (directory / "g.edges").write_text(f"n {count}\n0 1 {conductance}\n{node} 2\n2 f 1\n")
        return load_graph(directory / "g.edges")
    return in_a_new_directory(write_and_load)


# Each public callable: a call that builds every argument from the slots,
# and the kind and a valid value of each slot.  A slot's kind picks the bad
# values the fuzz draws for it.
SPECS = {
    "UndirectedGraph": (UndirectedGraph, {"node_count": ("count", 4), "edges": ("pairs", EDGES)}),
    "Digraph": (Digraph, {"node_count": ("count", 3), "arcs": ("pairs", ARCS)}),
    "erdos_renyi": (erdos_renyi, {"n": ("count", 5), "p": ("real", 0.5), "seed": ("seed", 1)}),
    "spanning_tree": (lambda edges, seed: spanning_tree(UndirectedGraph(4, edges), seed),
                      {"edges": ("pairs", EDGES), "seed": ("seed", 2)}),
    "add_extra_edges": (lambda k, seed: add_extra_edges(UndirectedGraph(4, EDGES[1:]), G4, k, seed),
                        {"k": ("count", 1), "seed": ("seed", 3)}),
    **{f.__name__: (lambda edges, f=f: f(UndirectedGraph(4, edges)), {"edges": ("pairs", EDGES)})
       for f in (diameter, is_connected, message_digraph)},
    "condensation": (lambda arcs: condensation(Digraph(3, arcs)), {"arcs": ("pairs", ARCS)}),
    "check_convergence_hypothesis": (lambda support: check_convergence_hypothesis(D3, support),
                                     {"support": ("nodes", (0, 2))}),
    "initial_generalized_state": (lambda **a: initial_generalized_state(TWO_CYCLE, **a), DRIVING),
    "run_generalized": (generalized, {**DRIVING, "steps": ("count", 3)}),
    "spearman": (spearman, {"a": ("array", (1.0, 3.0, 2.0)), "b": ("array", (0.5, 2.0, 2.5))}),
    "spectral_radius_diagnostic": (lambda omega: spectral_radius_diagnostic(D3, omega), {"omega": ("array", (0.5, 0.7, 1.0))}),
    "ConductanceNetwork": (lambda **c: ConductanceNetwork(G4, *c.values()), CONDUCTANCES),
    "uniform_network": (lambda gamma: uniform_network(G4, gamma), {"gamma": ("real", GAMMA)}),
    **{f.__name__: (lambda f=f, **c: f(ConductanceNetwork(G4, *c.values())), CONDUCTANCES)
       for f in (build_weights, harmonic_influence_exact)},
    "InfluenceWeights": (lambda arc, field: InfluenceWeights(G4, arc, field),
                         {"arc": ("array", TRUSTS.arc_trust), "field": ("array", TRUSTS.field_trust)}),
    "exact_message_potentials": (lambda **c: exact_message_potentials(ConductanceNetwork(G4, *c.values()),
                                                                      message_digraph(G4)), CONDUCTANCES),
    "grounded_laplacian_solve": (lambda leader, **c: grounded_laplacian_solve(ConductanceNetwork(G4, *c.values()), leader),
                                 {**CONDUCTANCES, "leader": ("node", 1)}),
    "initial_messages": (lambda **c: initial_messages(message_digraph(G4), weights(G4, *c.values())), CONDUCTANCES),
    "run_mpa": (lambda edge_cond, field_cond, **limits: run_mpa(G4, weights(G4, edge_cond, field_cond), **limits), STEPS),
    "error_trace": (lambda edge_cond, field_cond, **limits: error_trace(
        run_mpa(G4, weights(G4, edge_cond, field_cond), trace=True, **limits)), STEPS),
    "ExperimentConfig": (ExperimentConfig, CONFIG),
    "generate_graphs": (lambda **f: generate_graphs(ExperimentConfig(**f)), CONFIG),
    "run_experiment": (lambda **f: run_experiment(ExperimentConfig(**f)), CONFIG),
    "save_report": (lambda **f: in_a_new_directory(lambda d: save_report(run_experiment(ExperimentConfig(**f)), d)), CONFIG),
    "save_graph": (lambda **c: in_a_new_directory(lambda d: save_graph(d / "g.edges", G4, *c.values())), CONDUCTANCES),
    "load_graph": (load_lines, {"count": ("count", 4), "node": ("node", 1), "conductance": ("real", 2.5)}),
    "GraphFile.network": (lambda fallback_gamma, **c: GraphFile(G4, *map(np.asarray, c.values())).network(fallback_gamma),
                          {**CONDUCTANCES, "fallback_gamma": ("real", GAMMA)}),
}

# NaN, infinities, zeros of both signs and subnormals; where integers go,
# bools, numpy integers, numbers that are not integers, and strings.
SPECIAL_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
                           st.floats(min_value=-2.2250738585072e-308, max_value=2.2250738585072e-308))
NOT_INTEGERS = st.one_of(SPECIAL_FLOATS, st.sampled_from([2.0, 2.5, np.float64(3.0), "2", "x"]))
INTEGERS = st.one_of(st.booleans(), st.integers(-3, 5), st.integers(-3, 5).map(np.int64),
                     st.integers(0, 5).map(np.uint8), NOT_INTEGERS)
BIG_INTEGERS = st.sampled_from([2**63, 2**70, -(2**70)])


def draw_bad(data, kind, valid):
    """A bad value for a slot of the given kind and valid value, drawn by ``data``."""
    if kind == "real":
        return data.draw(st.one_of(SPECIAL_FLOATS, st.sampled_from([True, "0.5", "x"])))
    integer = data.draw(INTEGERS if kind == "count" else st.one_of(INTEGERS, BIG_INTEGERS))
    if kind in ("count", "seed", "node"):
        return integer
    if kind == "nodes":
        return valid + (integer,)
    k = data.draw(st.integers(0, len(valid) - 1))
    if kind == "array":
        # one entry replaced; another length, empty, 2-D or strings; as an array or a list
        v = np.array(valid, dtype=np.float64)
        a = v.copy()
        a[k] = data.draw(SPECIAL_FLOATS)
        a = data.draw(st.sampled_from([a, v[:0], v[:-1], np.append(v, v[-1]), v[:, None], v.astype(str), np.full(len(v), "x")]))
        return a.tolist() if data.draw(st.booleans()) else a
    # pairs: one end replaced, one pair cut or lengthened, one pair alone, the ends flattened, float ends
    ends = [list(p) for p in valid]
    ends[k][data.draw(st.integers(0, 1))] = integer
    resized = (*valid[:k], tuple(range(data.draw(st.sampled_from([0, 1, 3])))), *valid[k + 1:])
    return data.draw(st.sampled_from([tuple(map(tuple, ends)), resized, valid[0], sum(valid, ()), np.array(valid, float)]))


def assert_finite(value):
    """Every float the value holds, in arrays, dataclasses and containers, is finite."""
    if isinstance(value, (float, np.floating)):
        assert math.isfinite(value)
    elif isinstance(value, np.ndarray):
        assert value.dtype.kind not in "fc" or np.isfinite(value).all()
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            if f.name != "spearman_h":  # NaN where the coefficient is undefined, as documented
                assert_finite(getattr(value, f.name))
    elif isinstance(value, (dict, tuple, list)):
        for v in value.values() if isinstance(value, dict) else value:
            assert_finite(v)


def test_every_public_callable_is_fuzzed():
    public = {name for name in harmonic_influence.__all__ if callable(getattr(harmonic_influence, name))}
    assert {name.split(".")[0] for name in SPECS} == public - CONTAINERS


@pytest.mark.parametrize("name", SPECS)
@settings(max_examples=25)  # the Tier-1 profile's other settings; the 32 callables take about 2 s
@given(data=st.data())
def test_a_bad_value_ends_in_checked_output_or_a_clean_error(name, data):
    build, slots = SPECS[name]
    arguments = {slot: valid for slot, (_, valid) in slots.items()}
    slot = data.draw(st.sampled_from(sorted(slots)), label="slot")
    arguments[slot] = draw_bad(data, *slots[slot])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = build(**arguments)
        except (ValueError, ArithmeticError) as exc:
            assert str(exc)
            return
    assert_finite(result)
