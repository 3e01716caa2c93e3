"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 3-5 share
one 20-seed pipeline fixture (seeds 0..19 of the documented seed
scheme).  Known red: criterion 4's per-seed floor; the README's "Known
red acceptance clause" section carries the measured analysis.
"""

import itertools
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from harmonic_influence.analysis import (
    check_convergence_hypothesis,
    initial_generalized_state,
    run_generalized,
    spectral_radius_diagnostic,
)
from harmonic_influence.electrical import (
    build_weights,
    exact_message_potentials,
    grounded_laplacian_solve,
    harmonic_influence_exact,
    uniform_network,
)
from harmonic_influence.experiment import ExperimentConfig, run_experiment
from harmonic_influence.graphs import (
    Digraph,
    UndirectedGraph,
    add_extra_edges,
    condensation,
    diameter,
    message_digraph,
    spanning_tree,
)
from harmonic_influence.mpa import initial_messages, run_mpa
from opinions import initial_state, simulate_to_fixed_point
from shared import GAMMA, brute_force_violations, random_connected, random_tree
from stepping import mpa_step

PIPELINE_SEEDS = range(20)


@contextmanager
def criterion(num, summary):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num}: FAIL - {summary}")
        raise
    print(f"\n[acceptance] criterion {num}: PASS - {summary}")


def snapshots_around(tree, weights, d):
    """Full message states at steps d-1, d, d+1."""
    state = initial_messages(message_digraph(tree), weights)
    out = {}
    for t in range(1, d + 2):
        state = mpa_step(state, weights)
        if t >= d - 1:
            out[t] = state
    return out


@pytest.fixture(scope="module")
def pipeline_reports():
    start = time.perf_counter()
    reports = [
        run_experiment(ExperimentConfig(n=50, p=0.1, extra_edges=10, gamma=GAMMA, seed=s))
        for s in PIPELINE_SEEDS
    ]
    elapsed = time.perf_counter() - start
    return reports, elapsed


# ---------------------------------------------------------------------------
# 1. Tree exactness and finite convergence
# ---------------------------------------------------------------------------

def test_criterion_1_tree_exactness():
    with criterion(1, "50 random trees: estimates exact to 1e-9, messages fixed at diameter"):
        start = time.perf_counter()
        sizes = np.linspace(10, 200, 50).round().astype(int)
        for idx, n in enumerate(sizes):
            tree = random_tree(int(n), seed=3000 + idx)
            net = uniform_network(tree, GAMMA)
            weights = build_weights(net)
            d = diameter(tree)

            result = run_mpa(tree, weights, tol=0.0, max_iter=10 * d + 10)
            exact = harmonic_influence_exact(net)
            assert np.abs(result.h_estimates - exact).max() <= 1e-9, n

            snaps = snapshots_around(tree, weights, d)
            assert np.array_equal(snaps[d].w_msgs, snaps[d + 1].w_msgs), n
            assert np.array_equal(snaps[d].h_msgs, snaps[d + 1].h_msgs), n
            assert not (
                np.array_equal(snaps[d - 1].w_msgs, snaps[d].w_msgs)
                and np.array_equal(snaps[d - 1].h_msgs, snaps[d].h_msgs)
            ), n
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
        print(f"  50 trees (n=10..200) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Fifty-node tree run
# ---------------------------------------------------------------------------

def diameter_11_tree():
    # path 0..11 plus 38 extra leaves hung off the middle keeps diameter 11
    edges = [(i, i + 1) for i in range(11)]
    anchors = itertools.cycle(range(3, 9))
    for extra in range(12, 50):
        edges.append((next(anchors), extra))
    return UndirectedGraph(50, tuple(edges))


def test_criterion_2_fifty_node_tree_run(pipeline_reports):
    with criterion(2, "50-node trees converge in exactly diameter steps (11 on the diameter-11 class)"):
        reports, _ = pipeline_reports
        for rep in reports:
            st = rep.graphs["spanning_tree"]
            # successive-difference detection observes the fixed point one
            # step after it is reached
            assert st.converged
            assert st.iterations == st.diameter + 1, rep.config.seed

        tree = diameter_11_tree()
        assert diameter(tree) == 11
        weights = build_weights(uniform_network(tree, GAMMA))
        result = run_mpa(tree, weights, tol=0.0, max_iter=100, trace=True)
        assert result.iterations == 12
        assert np.array_equal(result.w_trace[11], result.w_trace[12])
        assert not np.array_equal(result.w_trace[10], result.w_trace[11])
        print("  diameter-11 class: messages fixed at step 11, changing at step 10")


# ---------------------------------------------------------------------------
# 3. Convergence on cyclic graphs at the reference orders of magnitude
# ---------------------------------------------------------------------------

def test_criterion_3_cyclic_convergence(pipeline_reports):
    with criterion(3, "20 seeds converge at tol=1e-10; error negligibility within 10x reference counts"):
        reports, _ = pipeline_reports
        for rep in reports:
            seed = rep.config.seed
            for run in rep.graphs.values():
                assert run.converged, (seed, run.name)
                assert run.iterations <= 10**5
            fe = rep.graphs["few_extra_edges"]
            er = rep.graphs["erdos_renyi"]
            # reference counts: w-error negligible ~60 (FE), h-error ~400
            # (FE) and ~2500 (ER); order-of-magnitude = within 10x
            assert fe.w_negligible_iter is not None and fe.w_negligible_iter <= 600, seed
            assert fe.h_negligible_iter is not None and fe.h_negligible_iter <= 4000, seed
            assert er.h_negligible_iter is not None and er.h_negligible_iter <= 25000, seed
        fe_w = [r.graphs["few_extra_edges"].w_negligible_iter for r in reports]
        fe_h = [r.graphs["few_extra_edges"].h_negligible_iter for r in reports]
        er_h = [r.graphs["erdos_renyi"].h_negligible_iter for r in reports]
        print(f"  FE w<=1e-8 median {statistics.median(fe_w)} (reference 60); "
              f"FE h median {statistics.median(fe_h)} (reference 400); "
              f"ER h median {statistics.median(er_h)} (reference 2500)")


# ---------------------------------------------------------------------------
# 4. Rank preservation
# ---------------------------------------------------------------------------

def test_criterion_4_rank_preservation(pipeline_reports):
    with criterion(4, "median Spearman >= 0.98 and every seed >= 0.95 on FE and ER classes"):
        reports, elapsed = pipeline_reports
        fe = [r.graphs["few_extra_edges"].spearman_h for r in reports]
        er = [r.graphs["erdos_renyi"].spearman_h for r in reports]
        assert elapsed < 300.0, f"pipeline took {elapsed:.0f}s"
        print(f"  FE median {statistics.median(fe):.4f} min {min(fe):.4f}; "
              f"ER median {statistics.median(er):.4f} min {min(er):.4f}; "
              f"pipeline {elapsed:.0f}s")
        assert statistics.median(fe) >= 0.98
        assert statistics.median(er) >= 0.98
        low_fe = {s: round(v, 4) for s, v in zip(PIPELINE_SEEDS, fe) if v < 0.95}
        low_er = {s: round(v, 4) for s, v in zip(PIPELINE_SEEDS, er) if v < 0.95}
        assert not low_er, f"ER seeds below 0.95: {low_er}"
        # Known red clause: the FE instance distribution has a genuine tail
        # below 0.95 under every spanning-tree sampler tried (measured ~3-10%
        # of instances); the README carries the full analysis.
        assert not low_fe, (
            f"FE seeds below the 0.95 floor: {low_fe}; median clause holds - "
            "floor miscalibrated for the instance distribution (see README)"
        )


# ---------------------------------------------------------------------------
# 5. One-sided approximation
# ---------------------------------------------------------------------------

def test_criterion_5_one_sided_approximation(pipeline_reports):
    with criterion(5, "estimates above exact influence, potentials below exact, ER ratio <= 10"):
        reports, _ = pipeline_reports
        worst_ratio = 0.0
        for rep in reports:
            for run in rep.graphs.values():
                assert np.all(run.h_estimates >= run.h_exact - 1e-9), (rep.config.seed, run.name)
                assert np.all(run.w_limits <= run.w_exact + 1e-9), (rep.config.seed, run.name)
            ratio = rep.graphs["erdos_renyi"].max_h_ratio
            assert ratio <= 10.0, rep.config.seed
            worst_ratio = max(worst_ratio, ratio)
        print(f"  worst ER overestimation ratio {worst_ratio:.2f} (typically ~5, bound 10)")


# ---------------------------------------------------------------------------
# 6. Oracle equivalences
# ---------------------------------------------------------------------------

def test_criterion_6_oracle_equivalences():
    with criterion(6, "opinion fixed point == grounded solve; generalized dynamics bitwise; tree potentials"):
        # (a) opinion-dynamics oracle against the grounded Laplacian solve
        rng = np.random.default_rng(606)
        for trial in range(20):
            n = int(rng.integers(8, 30))
            g = random_connected(n, 0.25, seed=4000 + trial)
            net = uniform_network(g, GAMMA)
            weights = build_weights(net)
            leader = int(rng.integers(n))
            sim = simulate_to_fixed_point(initial_state(n, leader), weights, tol=1e-11)
            pot = grounded_laplacian_solve(net, leader)
            assert np.abs(sim.opinions - pot).max() <= 1e-8, trial

        # (b) generalized dynamics on the message digraph reproduces the
        # message updates bitwise for 100 steps on a 4-node cyclic fixture
        g = UndirectedGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2)))
        weights = build_weights(uniform_network(g, GAMMA))
        md = message_digraph(g)
        trust = dict(zip(md.arc_nodes, weights.arc_trust))
        alpha = np.array([weights.field_trust[i] / trust[(i, j)] for j, i in md.arc_nodes])
        gen = initial_generalized_state(
            md.to_digraph(), alpha, np.zeros(md.size), np.ones(md.size), np.ones(md.size)
        )
        msg = initial_messages(md, weights)
        for t in range(100):
            gen = run_generalized(gen, 1)
            msg = mpa_step(msg, weights)
            assert np.array_equal(gen.omega, msg.w_msgs), t
            assert np.array_equal(gen.eta, msg.h_msgs), t

        # (c) converged tree potential messages equal the electrical answer
        for trial in range(10):
            tree = random_tree(int(rng.integers(10, 120)), seed=5000 + trial)
            net = uniform_network(tree, GAMMA)
            result = run_mpa(tree, build_weights(net), tol=0.0, max_iter=1000)
            w_star = exact_message_potentials(net, result.md)
            assert np.abs(result.w_limits - w_star).max() <= 1e-9, trial


# ---------------------------------------------------------------------------
# 7. Structure laws of the message digraph
# ---------------------------------------------------------------------------

def test_criterion_7_structure_laws():
    with criterion(7, "tree/unicyclic/multicyclic -> 0/2/1 nontrivial components, 100 graphs"):
        rng = np.random.default_rng(707)
        for trial in range(100):
            n = 8 + trial % 25
            g = random_connected(n, min(1.0, 5.0 / n), seed=7000 + trial)
            st = spanning_tree(g, seed=trial)
            slack = g.edge_count - st.edge_count
            kind = trial % 3
            if kind == 0:
                graph, expected = st, 0
            elif kind == 1 and slack >= 1:
                graph, expected = add_extra_edges(st, g, 1, seed=trial), 2
            elif slack >= 2:
                graph, expected = add_extra_edges(st, g, int(rng.integers(2, slack + 1)), seed=trial), 1
            else:
                graph, expected = st, 0
            cond = condensation(message_digraph(graph).to_digraph())
            assert sum(cond.nontrivial) == expected, (trial, expected)


# ---------------------------------------------------------------------------
# 8. Convergence machinery of the digraph dynamics
# ---------------------------------------------------------------------------

def test_criterion_8_convergence_machinery():
    with criterion(8, "unbounded growth without driving; spectral radius < 1; checker agrees with brute force"):
        # negative control: 2-cycle with no driving grows linearly without bound
        two_cycle = Digraph(2, ((0, 1), (1, 0)))
        state = initial_generalized_state(two_cycle, np.zeros(2), np.zeros(2), np.ones(2), np.ones(2))
        state = run_generalized(state, 1_000_000)
        assert float(state.eta.max()) > 10**6
        assert np.all(state.omega == 1.0)

        # converged decay vector of a triangle's message digraph contracts
        tri = UndirectedGraph(3, ((0, 1), (1, 2), (0, 2)))
        weights = build_weights(uniform_network(tri, GAMMA))
        md = message_digraph(tri)
        msg = initial_messages(md, weights)
        for _ in range(2000):
            msg = mpa_step(msg, weights)
        comps = condensation(md.to_digraph()).nontrivial_components()
        assert len(comps) == 2
        for comp in comps:
            nodes = sorted(comp)
            relabel = {v: i for i, v in enumerate(nodes)}
            sub = Digraph(
                len(nodes),
                tuple((relabel[a], relabel[b]) for a, b in md.arcs if a in comp and b in comp),
            )
            rho = spectral_radius_diagnostic(sub, msg.w_msgs[nodes])
            assert rho < 1.0
        # whole message digraph too
        assert spectral_radius_diagnostic(md.to_digraph(), msg.w_msgs) < 1.0

        # checker vs brute force: exhaustive on <=3 nodes (all supports),
        # exhaustive arc sets on 4 nodes, randomized on 5 nodes
        for n in (1, 2, 3):
            pairs = [(v, w) for v in range(n) for w in range(n)]
            for mask in range(1 << len(pairs)):
                arcs = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
                d = Digraph(n, arcs)
                for smask in range(1 << n):
                    support = {v for v in range(n) if smask >> v & 1}
                    assert check_convergence_hypothesis(d, support) == brute_force_violations(d, support)

        rng = np.random.default_rng(808)
        pairs4 = [(v, w) for v in range(4) for w in range(4)]
        for mask in range(1 << 16):
            arcs = tuple(p for i, p in enumerate(pairs4) if mask >> i & 1)
            d = Digraph(4, arcs)
            support = {v for v in range(4) if rng.random() < 0.3}
            assert check_convergence_hypothesis(d, support) == brute_force_violations(d, support)

        for _ in range(12000):
            n = 5
            arcs = {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(int(rng.integers(0, 12)))}
            d = Digraph(n, tuple(arcs))
            support = {v for v in range(n) if rng.random() < 0.3}
            assert check_convergence_hypothesis(d, support) == brute_force_violations(d, support)
        print("  checker agreement: exhaustive <=3 nodes x all supports, "
              "exhaustive 4-node arc sets, 12000 random 5-node digraphs")
