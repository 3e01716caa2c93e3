"""Self-tests of the benchmark: oracles, statistics, span accounting, and
that the correctness checks do fail on perturbed results.

    python3 -m pytest bench/test_bench.py -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from harmonic_influence import electrical, graphs, mpa  # noqa: E402

PATH3 = np.array([[0, 1], [1, 2]])


# ---------------------------------------------------------------------------
# Reference solvers
# ---------------------------------------------------------------------------

def test_reference_solvers_match_hand_computed_path():
    # Path 0-1-2, unit conductances, gamma = 1.  Leader 0: v1 = 2/5,
    # v2 = 1/5, so H(0) = 1.6; leader 1: v0 = v2 = 1/2, so H(1) = 2.
    expected = [1.6, 2.0, 1.6]
    for sparse in (False, True):
        got = checks.reference_influence(3, PATH3, 1.0, [0, 1, 2], sparse=sparse)
        assert np.allclose(got, expected, rtol=1e-14, atol=0)
    assert np.allclose(checks.closed_form_influence(3, PATH3, 1.0), expected, rtol=1e-14, atol=0)


def _cycle_graph():
    edges = np.array([[0, 1], [1, 2], [2, 3], [0, 3], [1, 3], [3, 4]])
    g = graphs.UndirectedGraph(5, tuple(map(tuple, edges.tolist())))
    result = mpa.run_mpa(g, electrical.build_weights(electrical.uniform_network(g, 0.3)), tol=1e-13)
    return edges, result


def test_message_system_matches_package_message_digraph():
    edges, result = _cycle_graph()
    recv, send, arc_from, arc_to = checks.message_system(5, edges)
    assert np.column_stack([recv, send]).tolist() == [list(a) for a in result.md.arc_nodes]
    assert sorted(zip(arc_from.tolist(), arc_to.tolist())) == list(result.md.arcs)


def test_fixed_point_oracle_reproduces_converged_estimates():
    edges, result = _cycle_graph()
    fixed, problems = checks.fixed_point_estimates(5, edges, result.w_limits)
    assert problems == []
    assert checks.check_close(result.h_estimates, fixed, checks.FIXED_POINT_RTOL, "h") == []


# ---------------------------------------------------------------------------
# Perturbed results must be counted as failed
# ---------------------------------------------------------------------------

def test_estimate_below_exact_fails_one_sided_check():
    edges, result = _cycle_graph()
    exact = checks.closed_form_influence(5, edges, 0.3)
    assert checks.check_influence(result.h_estimates, exact, tree=False, what="h") == []
    low = result.h_estimates.copy()
    low[2] = exact[2] * (1.0 - 1e-9)
    assert checks.check_influence(low, exact, tree=False, what="h")
    fixed, _ = checks.fixed_point_estimates(5, edges, result.w_limits)
    assert checks.check_close(low, fixed, checks.FIXED_POINT_RTOL, "h")


def test_tree_estimate_off_by_more_than_tolerance_fails():
    exact = checks.closed_form_influence(3, PATH3, 1.0)
    assert checks.check_influence(exact, exact, tree=True, what="h") == []
    assert checks.check_influence(exact * (1 + 1e-7), exact, tree=True, what="h")
    assert checks.check_influence(exact[:2], exact, tree=True, what="h")


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.0 + 1e-12, math.nan, math.inf])
def test_potential_outside_unit_interval_fails(bad):
    w = np.full(6, 0.5)
    assert checks.check_potentials(w, "w") == []
    w[3] = bad
    assert checks.check_potentials(w, "w")


class _FakeWorkload:
    def __init__(self, raise_in_op=False, problems=()):
        self.raise_in_op = raise_in_op
        self.problems = list(problems)

    def op(self, k):
        if self.raise_in_op:
            raise ArithmeticError("no convergence")
        return k

    def check(self, k, output):
        return self.problems


def test_failed_ops_are_counted():
    ops = [run.run_op(_FakeWorkload(), 1),
           run.run_op(_FakeWorkload(raise_in_op=True), 2),
           run.run_op(_FakeWorkload(problems=["estimate below exact"]), 3)]
    assert [bool(r.problems) for r in ops] == [False, True, True]
    for r in ops:
        r.host_s = run.HostSpeed.REFERENCE_S
    assert run.end_to_end(1.0, run.HostSpeed.REFERENCE_S, ops)["ok_frac"] == pytest.approx(1 / 3)


def test_times_are_normalised_to_the_reference_host_speed():
    ref = run.HostSpeed.REFERENCE_S
    ops = [run.OpRecord(1, wall_s=2.0, cpu_s=3.0, traced=False, host_s=2 * ref),
           run.OpRecord(2, wall_s=1.0, cpu_s=1.0, traced=False, host_s=ref)]
    m = run.end_to_end(4.0, 4 * ref, ops)
    assert m["setup_s"] == pytest.approx(1.0)
    assert m["op_s_p50"] == pytest.approx(1.0)     # both ops take 1 s at reference speed
    assert m["ops_per_s"] == pytest.approx(1.0)
    assert m["cpu_s_per_op"] == pytest.approx(1.25)
    assert 0.0 < run.HostSpeed().sample() < 1.0


# ---------------------------------------------------------------------------
# Statistics and span accounting
# ---------------------------------------------------------------------------

def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, op=1)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("op", 0.0, 10.0, -1),
        _span("cli.main", 1.0, 9.0, 0),
        _span("mpa.run_mpa", 2.0, 5.0, 1),
        _span("graphs.message_digraph", 2.5, 3.0, 2),
        _span("mpa.error_trace", 4.0, 6.0, 1),   # overlaps its sibling: counted once
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 4.0, 2.5, 0.5, 2.0])


def test_op_metrics_from_synthetic_spans():
    spans = [
        _span("op", 0.0, 10.0, -1),
        _span("cli.main", 0.5, 9.5, 0),
        _span("electrical.harmonic_influence_exact", 1.0, 4.0, 1),
        _span("electrical.grounded_laplacian_solve", 1.0, 2.0, 2),
        _span("electrical.grounded_laplacian_solve", 2.0, 3.5, 2),
        _span("mpa.run_mpa", 4.0, 8.0, 1),
        _span("mpa.initial_messages", 4.0, 5.0, 5),
    ]
    m = tracing.op_metrics(spans, {"mpa.steps": 1000.0})
    assert m["electrical.exact_influence_s"] == pytest.approx(3.0)
    assert m["electrical.grounded_solves"] == 2
    assert m["mpa.run_s"] == pytest.approx(4.0)
    assert m["mpa.kernel_setup_s"] == pytest.approx(1.0)
    assert m["mpa.step_us"] == pytest.approx(3.0e6 / 1000)
    assert m["cli.self_s"] == pytest.approx(2.0)       # 9 s minus its 7 s of children
    assert m["bench.span_coverage"] == pytest.approx(0.9)   # (7 + 2) / 10
    assert m["analysis.check_s"] == 0.0


def test_instrument_wraps_every_lookup_site_and_restores_it():
    modules = run.import_package()
    exp, el = modules["experiment"], modules["electrical"]
    original = el.harmonic_influence_exact
    net = el.uniform_network(graphs.UndirectedGraph(3, ((0, 1), (1, 2))), 1.0)
    tr = tracing.Tracer()
    with tracing.instrument(tr, modules):
        assert exp.harmonic_influence_exact is el.harmonic_influence_exact
        assert exp.harmonic_influence_exact is not original
        with tr.op(7):
            values = exp.harmonic_influence_exact(net).values
        exp.harmonic_influence_exact(net)   # outside an op: no spans
    assert exp.harmonic_influence_exact is original and el.harmonic_influence_exact is original
    assert [s.name for s in tr.spans[7]] == (
        ["op", "electrical.harmonic_influence_exact"] + ["electrical.grounded_laplacian_solve"] * 3)
    assert [s.parent for s in tr.spans[7]] == [-1, 0, 1, 1, 1]
    assert np.allclose(values, [1.6, 2.0, 1.6], rtol=1e-14, atol=0)
