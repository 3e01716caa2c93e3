import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from harmonic_influence import mpa
from harmonic_influence.electrical import ConductanceNetwork, InfluenceWeights, build_weights, uniform_network
from harmonic_influence.graphs import UndirectedGraph, diameter, erdos_renyi, message_digraph
from harmonic_influence.mpa import BLOCK, ERROR_CHUNK, error_trace, initial_messages, run_mpa
from shared import GAMMA, connected_networks, path_graph, random_connected, random_tree, same_bits
from stepping import error_rows, influence_estimates, mpa_step, node_influence_estimate, stepped_run


def setup(g):
    net = uniform_network(g, GAMMA)
    return net, build_weights(net), message_digraph(g)


def square_with_chord():
    return UndirectedGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2)))


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_initialization_all_ones():
    _, w, md = setup(path_graph(4))
    state = initial_messages(md, w)
    assert np.all(state.w_msgs == 1.0)
    assert np.all(state.h_msgs == 1.0)
    assert state.t == 0


def test_leaf_message_constant_from_first_step():
    g = path_graph(4)
    _, w, md = setup(g)
    leaf_arc = md.arc_nodes.index((1, 0))  # message sent by leaf 0 to its neighbor 1
    expected = 1.0 / (1.0 + w.field_trust[0] / w.arc_trust[md.arc_nodes.index((0, 1))])
    state = initial_messages(md, w)
    for t in range(1, 6):
        state = mpa_step(state, w)
        assert state.w_msgs[leaf_arc] == expected, t


def test_two_node_messages():
    g = UndirectedGraph(2, ((0, 1),))
    _, w, md = setup(g)
    state = mpa_step(initial_messages(md, w), w)
    # q_i / Q_ij reduces to the conductance ratio 0.04, so W = 1/1.04
    assert state.w_msgs[md.arc_nodes.index((0, 1))] == pytest.approx(1.0 / 1.04, abs=1e-15)
    assert state.w_msgs[md.arc_nodes.index((1, 0))] == pytest.approx(1.0 / 1.04, abs=1e-15)
    assert node_influence_estimate(state, 0) == pytest.approx(1.0 + 1.0 / 1.04, abs=1e-14)


def test_estimate_at_t_zero_is_one_plus_degree():
    g = random_connected(12, 0.3, seed=6)
    _, w, md = setup(g)
    state = initial_messages(md, w)
    for v in range(g.node_count):
        assert node_influence_estimate(state, v) == 1.0 + g.degree(v)
    assert np.array_equal(
        influence_estimates(state, w),
        1.0 + np.array([g.degree(v) for v in range(g.node_count)]),
    )


def test_step_idempotent_at_fixed_point():
    g = random_connected(10, 0.35, seed=3)
    _, w, md = setup(g)
    state = initial_messages(md, w)
    for _ in range(4000):
        state = mpa_step(state, w)
    again = mpa_step(state, w)
    assert np.abs(again.w_msgs - state.w_msgs).max() <= 1e-15
    assert np.abs(again.h_msgs - state.h_msgs).max() <= 1e-15


def test_message_ranges_and_w_monotone():
    g = square_with_chord()
    _, w, md = setup(g)
    state = initial_messages(md, w)
    for _ in range(60):
        nxt = mpa_step(state, w)
        assert np.all(nxt.w_msgs > 0.0) and np.all(nxt.w_msgs <= 1.0)
        assert np.all(nxt.h_msgs >= 1.0)
        assert np.all(nxt.w_msgs <= state.w_msgs)
        assert np.any(nxt.w_msgs < state.w_msgs)  # strict somewhere while converging
        state = nxt


def test_node_estimate_matches_vectorized_estimates_bitwise():
    g = random_connected(15, 0.3, seed=26)
    _, w, md = setup(g)
    state = initial_messages(md, w)
    for _ in range(7):
        state = mpa_step(state, w)
    est = influence_estimates(state, w)
    for v in range(g.node_count):
        assert node_influence_estimate(state, v) == est[v]


def test_run_mpa_matches_manual_stepping():
    g = square_with_chord()
    _, w, md = setup(g)
    result = run_mpa(g, w, tol=1e-10)
    state = initial_messages(md, w)
    for _ in range(result.iterations):
        state = mpa_step(state, w)
    assert np.array_equal(result.w_limits, state.w_msgs)
    assert np.array_equal(result.h_estimates, influence_estimates(state, w))


def test_run_mpa_past_fixed_w_matches_bincount_reference_bitwise():
    """Runs cut at and around the blocks of fixed-w steps, with tol = 0, against the bincount loop."""
    rng = np.random.default_rng(43)
    runs_past_blocks = 0
    for n, p, seed in ((9, 0.4, 11), (40, 0.12, 12), (110, 0.05, 13)):
        g = random_connected(n, p, seed)
        conductance = rng.uniform(0.05, 5.0, size=g.edge_count)
        w = build_weights(ConductanceNetwork(g, conductance, rng.uniform(0.001, 0.8, size=n)))
        # with tol=0.0 a run stops at its first zero residual, if any
        ref = assert_run_matches_stepped_run(g, w, 0.0, 400)
        fixed = ref["w_fixed_step"]
        assert fixed + 4 * BLOCK < 400, n
        last = fixed + BLOCK - 1  # the last step of the first block of fixed-w steps
        for max_iter in (1, 2, fixed - 1, fixed, fixed + 1, last, last + 1, last + 2, last + BLOCK):
            assert_run_matches_stepped_run(g, w, 0.0, max_iter)
        runs_past_blocks += ref["iterations"] > last + BLOCK
    assert runs_past_blocks >= 2


# ---------------------------------------------------------------------------
# run_mpa
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("max_iter", [0, -3])
def test_run_rejects_nonpositive_max_iter(max_iter):
    g = path_graph(3)
    _, w, _ = setup(g)
    with pytest.raises(ValueError, match="^max_iter must be positive$"):
        run_mpa(g, w, max_iter=max_iter)


def test_steps_reject_weights_of_another_graph():
    # a path and a star on 4 nodes both have 6 messages
    path, star = path_graph(4), UndirectedGraph(4, ((0, 1), (0, 2), (0, 3)))
    _, w_path, md = setup(path)
    _, w_star, _ = setup(star)
    state = initial_messages(md, w_path)
    for update in (mpa_step, influence_estimates):
        with pytest.raises(ValueError, match="different graphs"):
            update(state, w_star)
    # new weights of the same graph rebuild the kernel
    _, w_again, _ = setup(path)
    assert same_bits(mpa_step(state, w_again).h_msgs, mpa_step(state, w_path).h_msgs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_raises_at_first_non_finite_residual(monkeypatch):
    # a NaN driving term makes one w NaN at step 1, while w still moves
    # (the kernel rejects the trusts that used to produce it, so it is planted)
    class NanAlphaKernel(mpa._Kernel):
        def __init__(self, md, weights):
            super().__init__(md, weights)
            self.alpha[0] = np.nan

    path = path_graph(3)
    with monkeypatch.context() as m:
        m.setattr(mpa, "_Kernel", NanAlphaKernel)
        with pytest.raises(ArithmeticError, match="residual is nan at step 1:"):
            run_mpa(path, build_weights(uniform_network(path, GAMMA)))
    # no field trust on K4: w is fixed at 1 from step 1 and h doubles each
    # step until it overflows inside a block of the fixed-w phase
    k4 = UndirectedGraph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
    growing = InfluenceWeights(k4, np.full(12, 1.0 / 3.0), np.zeros(4))
    finite = run_mpa(k4, growing, max_iter=1020)
    assert finite.w_fixed_step == 1 and np.isfinite(finite.residuals).all()
    with pytest.raises(ArithmeticError, match="residual is inf at step 1021:"):
        run_mpa(k4, growing, max_iter=5000)


def test_kernel_rejects_a_trust_whose_quotients_overflow():
    # node 1 trusts node 0 about 1e-310: the kernel divides by it, and both
    # q_1 / trust[(1, 0)] and trust[(1, 2)] / trust[(1, 0)] overflow to inf
    path = path_graph(3)
    message = r"^edge 0-1: trust of node 1 in node 0 is 9\.62e-311, and dividing by it overflows to inf$"
    weights = build_weights(ConductanceNetwork(path, np.array([1e-310, 1.0]), np.full(3, 0.04)))
    assert weights.arc_trust.min() > 0.0
    # run_mpa and initial_messages refuse it (BAD_CALLS); so does a step that rebuilds another network's kernel
    state = initial_messages(message_digraph(path), build_weights(uniform_network(path, GAMMA)))
    with pytest.raises(ValueError, match=message):
        mpa_step(state, weights)


def expected_result(g, weights, tol, max_iter):
    """The fields of run_mpa's result, read off the rows of the stepped oracle:
    the w rows are kept through the step at which w fixes."""
    w_rows, est_rows, residuals = stepped_run(g, weights, tol, max_iter)
    steps = len(residuals)
    w_fixed_step = next((t for t in range(1, steps + 1) if same_bits(w_rows[t], w_rows[t - 1])), None)
    return {
        "h_estimates": est_rows[-1],
        "w_limits": w_rows[-1],
        "iterations": steps,
        "converged": bool(residuals[-1] <= tol),
        "final_residual": float(residuals[-1]),
        "residuals": residuals,
        "h_trace": est_rows,
        "w_trace": w_rows[: (steps if w_fixed_step is None else w_fixed_step) + 1],
        "w_fixed_step": w_fixed_step,
    }


def assert_run_matches_stepped_run(g, weights, tol, max_iter):
    ref = expected_result(g, weights, tol, max_iter)
    traced = run_mpa(g, weights, tol=tol, max_iter=max_iter, trace=True)
    plain = run_mpa(g, weights, tol=tol, max_iter=max_iter)
    for name, expected in ref.items():
        assert same_bits(getattr(traced, name), expected), (g.node_count, max_iter, name)
        if not name.endswith("_trace"):
            assert same_bits(getattr(plain, name), expected), (g.node_count, max_iter, name)
    last_row = traced.iterations if traced.w_fixed_step is None else traced.w_fixed_step
    assert traced.w_trace.shape[0] == last_row + 1
    assert same_bits(traced.w_trace[-1], traced.w_limits)
    assert type(plain.iterations) is int and type(plain.final_residual) is float
    assert same_bits(plain.residuals[-1], plain.final_residual)
    assert not plain.residuals.flags.writeable
    return ref


def test_run_mpa_matches_full_step_loop_bitwise():
    rng = np.random.default_rng(606)
    fixed_in_run = 0
    for n, p, seed in ((8, 0.4, 1), (25, 0.2, 2), (60, 0.08, 3), (120, 0.04, 4)):
        g = random_connected(n, p, seed)
        conductance = rng.uniform(0.05, 5.0, size=g.edge_count)
        net = ConductanceNetwork(g, conductance, rng.uniform(0.001, 0.8, size=n))
        ref = assert_run_matches_stepped_run(g, build_weights(net), 1e-10, 10**5)
        assert ref["converged"]
        fixed = ref["w_fixed_step"]
        if fixed is not None and fixed < ref["iterations"]:
            fixed_in_run += 1
            assert len(ref["w_trace"]) == fixed + 1 < len(ref["h_trace"])
            # max_iter cut-offs before (every w row kept), at and after the
            # step at which w fixes, and at, after and past the last step
            # of the first block of fixed-w steps
            last = fixed + BLOCK - 1
            for max_iter in (fixed - 1, fixed, fixed + 1, fixed + 7, last, last + 1, last + 2):
                assert_run_matches_stepped_run(g, build_weights(net), 1e-10, max_iter)
            # a tol that the run first meets at that last step
            assert ref["iterations"] > last
            exact_stop = assert_run_matches_stepped_run(g, build_weights(net), ref["residuals"][last - 1], 10**5)
            assert exact_stop["converged"] and exact_stop["iterations"] == last
            # a tol that the run meets while w still moves
            tol = ref["residuals"][fixed - 3]
            early_stop = assert_run_matches_stepped_run(g, build_weights(net), tol, 10**5)
            first = 1 + int(np.argmax(ref["residuals"] <= tol))
            assert early_stop["converged"] and early_stop["iterations"] == first < fixed
            assert early_stop["w_fixed_step"] is None
    assert fixed_in_run >= 3


@given(connected_networks(), st.integers(min_value=1, max_value=300))
def test_run_mpa_matches_full_step_loop_on_drawn_networks(net, max_iter):
    assert_run_matches_stepped_run(net.graph, build_weights(net), 1e-10, max_iter)


def test_run_mpa_matches_full_step_loop_bitwise_on_trees():
    for seed in range(4):
        tree = random_tree(30, seed=700 + seed)
        _, w, _ = setup(tree)
        d = diameter(tree)
        ref = assert_run_matches_stepped_run(tree, w, 0.0, 1000)
        assert ref["w_fixed_step"] <= d + 1
        for max_iter in (d - 1, d, d + 1, d + 3):
            assert_run_matches_stepped_run(tree, w, 0.0, max_iter)


def test_tree_fixes_after_exactly_diameter_steps():
    for seed in range(6):
        tree = random_tree(30, seed=420 + seed)
        _, w, _ = setup(tree)
        d = diameter(tree)
        result = run_mpa(tree, w, tol=0.0, max_iter=1000, trace=True)
        assert result.converged
        assert result.iterations == d + 1  # detection costs one extra step
        assert np.array_equal(result.w_trace[d], result.w_trace[d + 1])
        assert not np.array_equal(result.w_trace[d - 1], result.w_trace[d])


def test_run_smallest_input_two_nodes():
    g = UndirectedGraph(2, ((0, 1),))
    _, w, _ = setup(g)
    result = run_mpa(g, w, tol=0.0, max_iter=10, trace=True)
    # single-edge tree has diameter 1: fixed from the first step
    assert np.array_equal(result.w_trace[1], result.w_trace[2])
    assert result.h_estimates[0] == pytest.approx(1.0 + 1.0 / 1.04, abs=1e-14)


def test_run_flags_non_convergence_without_raising():
    g = square_with_chord()
    _, w, _ = setup(g)
    result = run_mpa(g, w, tol=1e-12, max_iter=5)
    assert not result.converged
    assert result.iterations == 5
    assert result.final_residual > 1e-12


def test_max_iter_equal_diameter_still_returns_fixed_messages():
    tree = random_tree(30, seed=8)
    _, w, _ = setup(tree)
    d = diameter(tree)
    capped = run_mpa(tree, w, tol=0.0, max_iter=d)
    longer = run_mpa(tree, w, tol=0.0, max_iter=1000)
    assert not capped.converged  # it never got to observe a zero residual
    assert np.array_equal(capped.w_limits, longer.w_limits)
    assert np.array_equal(capped.h_estimates, longer.h_estimates)


# ---------------------------------------------------------------------------
# error traces
# ---------------------------------------------------------------------------

def test_error_trace_lengths_and_final_entry():
    g = square_with_chord()
    _, w, _ = setup(g)
    tol = 1e-10
    result = run_mpa(g, w, tol=tol, trace=True)
    errors = error_trace(result)
    assert errors.shape == (result.iterations, 2) and not errors.flags.writeable
    h_last, w_last = errors[-1]
    assert h_last <= tol and w_last <= tol


def test_error_trace_tree_zero_from_diameter():
    tree = random_tree(20, seed=5)
    _, w, _ = setup(tree)
    d = diameter(tree)
    result = run_mpa(tree, w, tol=0.0, max_iter=100, trace=True)
    errors = error_trace(result)
    for t, (h_err, w_err) in enumerate(errors):
        if t >= d:
            assert h_err == 0.0 and w_err == 0.0
        else:
            assert h_err > 0.0 or w_err > 0.0


# ---------------------------------------------------------------------------
# the trace buffer
# ---------------------------------------------------------------------------

def er_run_inputs(n, seed):
    g = random_connected(n, 10.0 / n, seed)
    return g, setup(g)[1]


def test_long_traced_run_matches_full_step_loop_bitwise():
    # thousands of trace rows: the buffer grows many times, in single rows and in blocks
    g, w = er_run_inputs(60, 3)
    ref = assert_run_matches_stepped_run(g, w, 1e-10, 10**5)
    assert ref["iterations"] >= 1800 and ref["w_fixed_step"] < ref["iterations"]
    traced = run_mpa(g, w, trace=True)
    for rows, count in ((traced.h_trace, traced.iterations + 1), (traced.w_trace, traced.w_fixed_step + 1)):
        assert rows.shape == (count, rows.shape[1])
        assert rows.flags.c_contiguous and rows.flags.owndata and rows.base is None


@pytest.mark.parametrize("set_hook", [sys.settrace, sys.setprofile], ids=["settrace", "setprofile"])
def test_traced_run_under_a_trace_or_profile_hook_matches_plain_run_bitwise(set_hook):
    # debuggers, coverage and cProfile hold extra references to the trace buffer while it grows
    g = erdos_renyi(50, 0.1, seed=4)
    w = setup(g)[1]
    plain = run_mpa(g, w, tol=1e-10, trace=True)
    assert plain.iterations >= 1800
    old = sys.gettrace() if set_hook is sys.settrace else sys.getprofile()
    set_hook(lambda *args: None)
    try:
        hooked = run_mpa(g, w, tol=1e-10, trace=True)
    finally:
        set_hook(old)
    assert hooked.iterations == plain.iterations
    for name in ("h_trace", "w_trace", "h_estimates", "w_limits"):
        assert same_bits(getattr(hooked, name), getattr(plain, name)), name


def test_error_trace_matches_per_row_oracle_across_chunks():
    g, w = er_run_inputs(60, 3)
    result = run_mpa(g, w, tol=1e-10, trace=True)
    assert result.iterations * g.node_count > 2 * ERROR_CHUNK
    w_rows, est_rows, _ = stepped_run(g, w, 1e-10, 10**5)
    assert same_bits(error_trace(result), error_rows(w_rows, est_rows))
    # a w trace longer than one chunk, which w fixing within a few dozen steps never gives
    rng = np.random.default_rng(5)
    h_rows, w_rows = rng.uniform(1.0, 9.0, size=(3001, 50)), rng.uniform(0.0, 1.0, size=(2501, 70))
    assert 3000 * 50 > ERROR_CHUNK and 2500 * 70 > ERROR_CHUNK
    errors = error_trace(replace(result, iterations=3000, h_trace=h_rows, w_trace=w_rows))
    for t in range(3000):
        assert same_bits(errors[t, 0], np.abs(h_rows[t] - h_rows[-1]).sum())
        expected_w = np.abs(w_rows[t] - w_rows[-1]).sum() if t < len(w_rows) - 1 else 0.0
        assert same_bits(errors[t, 1], expected_w)


def traced_peak(fn):
    """fn() and the peak, in bytes, of the memory it allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_traced_run_holds_its_trace_once():
    g, w = er_run_inputs(300, 3)
    gather = mpa._Kernel(message_digraph(g), w).gather
    held = (*gather.growth_pattern[:2], gather._columns, gather.decay.data, gather.decay.indices, gather.decay.indptr)
    kernel_bytes = sum(a.nbytes for a in held)
    result, peak = traced_peak(lambda: run_mpa(g, w, trace=True))
    assert result.iterations > 5000
    # the trace is held once, with at most a quarter of it as growth slack
    assert peak <= 1.3 * result.h_trace.nbytes + kernel_bytes, (peak, result.h_trace.nbytes)
    errors, peak = traced_peak(lambda: error_trace(result))
    assert peak <= 2 * 8 * ERROR_CHUNK, peak
