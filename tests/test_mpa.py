import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from harmonic_influence import mpa
from harmonic_influence.analysis import initial_generalized_state, run_generalized
from harmonic_influence.electrical import (
    ConductanceNetwork,
    InfluenceWeights,
    build_weights,
    exact_message_potentials,
    harmonic_influence_exact,
    uniform_network,
)
from harmonic_influence.graphs import (
    UndirectedGraph,
    diameter,
    erdos_renyi,
    is_connected,
    message_digraph,
    spanning_tree,
)
from harmonic_influence.mpa import (
    BLOCK,
    ERROR_CHUNK,
    error_trace,
    influence_estimates,
    initial_messages,
    mpa_step,
    run_mpa,
)
from test_properties import connected_networks, error_trace_oracle, node_influence_estimate

GAMMA = 0.04


def path_graph(n):
    return UndirectedGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def random_connected(n, p, seed):
    g = erdos_renyi(n, p, seed)
    while not is_connected(g):
        seed += 1
        g = erdos_renyi(n, p, seed)
    return g


def random_tree(n, seed):
    return spanning_tree(random_connected(n, min(1.0, 4.0 / n), seed), seed)


def setup(g, gamma=GAMMA):
    net = uniform_network(g, gamma)
    w = build_weights(net)
    md = message_digraph(g)
    return net, w, md


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


def bincount_reference_steps(md, weights, steps):
    """The message updates and estimates as per-arc bincount gathers, in arc order."""
    m, n = md.size, md.base.node_count
    trust = dict(zip(md.arc_nodes, weights.arc_trust))  # trust[(j, i)]: how much j trusts i
    sender_trust = np.array([trust[(i, j)] for j, i in md.arc_nodes])
    receiver_trust = np.array([trust[(j, i)] for j, i in md.arc_nodes])
    alpha = weights.field_trust[md.senders()] / sender_trust
    arc_from = np.array([a for a, _ in md.arcs], dtype=np.intp)
    arc_to = np.array([b for _, b in md.arcs], dtype=np.intp)
    coef = receiver_trust[arc_to] / sender_trust[arc_from]
    receivers = md.receivers()
    w, h = np.ones(m), np.ones(m)
    for _ in range(steps):
        contrib = np.bincount(arc_from, weights=coef * (1.0 - w)[arc_to], minlength=m)
        w, h = (
            1.0 / (1.0 + alpha + contrib),
            1.0 + np.bincount(arc_from, weights=(w * h)[arc_to], minlength=m),
        )
        yield w, h, 1.0 + np.bincount(receivers, weights=w * h, minlength=n)


def test_csr_kernel_matches_bincount_reference_bitwise():
    rng = np.random.default_rng(41)
    for n, p, seed in ((12, 0.3, 5), (40, 0.12, 6), (90, 0.06, 7)):
        g = random_connected(n, p, seed)
        conductance = rng.uniform(0.05, 5.0, size=g.edge_count)
        net = ConductanceNetwork(g, conductance, rng.uniform(0.001, 0.8, size=n))
        w = build_weights(net)
        md = message_digraph(g)
        state = initial_messages(md, w)
        for t, (w_ref, h_ref, est_ref) in enumerate(bincount_reference_steps(md, w, 200)):
            state = mpa_step(state, w)
            assert np.array_equal(state.w_msgs, w_ref), (n, t)
            assert np.array_equal(state.h_msgs, h_ref), (n, t)
            assert np.array_equal(influence_estimates(state, w), est_ref), (n, t)


def test_run_mpa_past_fixed_w_matches_bincount_reference_bitwise():
    """The folded fixed-w phase against the bincount loop, which shares no code with it."""
    rng = np.random.default_rng(43)
    runs_past_blocks = 0
    for n, p, seed in ((9, 0.4, 11), (40, 0.12, 12), (110, 0.05, 13)):
        g = random_connected(n, p, seed)
        conductance = rng.uniform(0.05, 5.0, size=g.edge_count)
        w = build_weights(ConductanceNetwork(g, conductance, rng.uniform(0.001, 0.8, size=n)))
        md = message_digraph(g)
        # (w, estimates) of steps 0 .. 400
        steps = [(np.ones(md.size), 1.0 + np.bincount(md.receivers(), weights=np.ones(md.size), minlength=n))]
        steps += [(w_t, est_t) for w_t, _, est_t in bincount_reference_steps(md, w, 400)]
        fixed = next(t for t in range(1, len(steps)) if same_bits(steps[t][0], steps[t - 1][0]))
        assert fixed + 4 * BLOCK < 400, n
        residuals = [
            float(np.abs(w_t - w_prev).sum() + np.abs(est_t - est_prev).sum())
            for (w_prev, est_prev), (w_t, est_t) in zip(steps, steps[1:])
        ]
        # with tol=0.0 a run stops at its first zero residual, if any
        zero = next((t for t, r in enumerate(residuals, 1) if r == 0.0), None)
        last = fixed + BLOCK - 1  # the last step of the first block of fixed-w steps
        for max_iter in (1, 2, fixed - 1, fixed, fixed + 1, last, last + 1, last + 2, last + BLOCK, 400):
            t = max_iter if zero is None else min(max_iter, zero)
            for traced in (True, False):
                result = run_mpa(g, w, tol=0.0, max_iter=max_iter, trace=traced)
                assert result.iterations == t and result.converged == (t == zero), (n, max_iter)
                assert same_bits(result.w_limits, steps[min(fixed, t)][0]), (n, max_iter)
                assert same_bits(result.h_estimates, steps[t][1]), (n, max_iter)
                assert same_bits(result.residuals, np.array(residuals[:t])), (n, max_iter)
                assert result.w_fixed_step == (fixed if t >= fixed else None), (n, max_iter)
                if traced:
                    assert same_bits(result.h_trace, np.array([e for _, e in steps[: t + 1]])), (n, max_iter)
                    assert same_bits(result.w_trace, np.array([w_t for w_t, _ in steps[: min(fixed, t) + 1]]))
        runs_past_blocks += zero is None or zero > last + BLOCK
    assert runs_past_blocks >= 2


# ---------------------------------------------------------------------------
# run_mpa
# ---------------------------------------------------------------------------

def test_run_requires_connected_graph_with_edges():
    _, w, _ = setup(path_graph(3))
    with pytest.raises(ValueError):
        run_mpa(UndirectedGraph(3, ((0, 1),)), w)
    g1 = UndirectedGraph(1, ())
    with pytest.raises(ValueError):
        net1 = uniform_network(g1, GAMMA)
        run_mpa(g1, build_weights(net1))


@pytest.mark.parametrize("max_iter", [0, -3])
def test_run_rejects_nonpositive_max_iter(max_iter):
    g = path_graph(3)
    _, w, _ = setup(g)
    with pytest.raises(ValueError, match="max_iter must be positive"):
        run_mpa(g, w, max_iter=max_iter)


def test_steps_reject_weights_of_another_graph():
    # a path and a star on 4 nodes both have 6 messages
    path, star = path_graph(4), UndirectedGraph(4, ((0, 1), (0, 2), (0, 3)))
    _, w_path, md = setup(path)
    _, w_star, _ = setup(star)
    with pytest.raises(ValueError, match="different graphs"):
        initial_messages(md, w_star)
    state = initial_messages(md, w_path)
    for update in (mpa_step, influence_estimates):
        with pytest.raises(ValueError, match="different graphs"):
            update(state, w_star)
    # new weights of the same graph rebuild the kernel
    _, w_again, _ = setup(path)
    assert same_bits(mpa_step(state, w_again).h_msgs, mpa_step(state, w_path).h_msgs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_raises_at_first_non_finite_residual(monkeypatch):
    # a NaN driving term makes one w NaN after step 1 of the full-step phase
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
    md = message_digraph(path)
    for call in (lambda: run_mpa(path, weights), lambda: initial_messages(md, weights)):
        with pytest.raises(ValueError, match=message):
            call()
    # trusts of another network's kernel are checked when a step rebuilds it
    state = initial_messages(md, build_weights(uniform_network(path, GAMMA)))
    with pytest.raises(ValueError, match=message):
        mpa_step(state, weights)
    # without a field at node 1 only the gather coefficient overflows
    no_field = build_weights(ConductanceNetwork(path, np.array([1e-310, 1.0]), np.array([0.0, 0.0, 0.04])))
    assert no_field.field_trust[1] == 0.0
    with pytest.raises(ValueError, match=r"^edge 0-1: trust of node 1 in node 0 is 1e-310, and dividing"):
        run_mpa(path, no_field)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def stepped_run(g, weights, tol, max_iter):
    """run_mpa as a plain loop of full mpa_step updates and influence_estimates,
    keeping the w rows through the step at which w fixes and every residual."""
    state = initial_messages(message_digraph(g), weights)
    est = influence_estimates(state, weights)
    w_rows, est_rows, residuals = [state.w_msgs], [est], []
    converged, residual, w_fixed_step = False, np.inf, None
    while state.t < max_iter:
        nxt = mpa_step(state, weights)
        est_new = influence_estimates(nxt, weights)
        residual = float(np.abs(nxt.w_msgs - state.w_msgs).sum() + np.abs(est_new - est).sum())
        residuals.append(residual)
        if w_fixed_step is None and same_bits(nxt.w_msgs, state.w_msgs):
            w_fixed_step = nxt.t
        state, est = nxt, est_new
        if w_fixed_step is None or w_fixed_step == state.t:
            w_rows.append(state.w_msgs)
        est_rows.append(est)
        if residual <= tol:
            converged = True
            break
    return {
        "h_estimates": est,
        "w_limits": state.w_msgs,
        "iterations": state.t,
        "converged": converged,
        "final_residual": residual,
        "residuals": np.array(residuals),
        "h_trace": np.array(est_rows),
        "w_trace": np.array(w_rows),
        "w_fixed_step": w_fixed_step,
    }


def assert_run_matches_stepped_run(g, weights, tol, max_iter):
    ref = stepped_run(g, weights, tol, max_iter)
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


def test_tree_messages_bitwise_fixed_including_h():
    tree = random_tree(25, seed=17)
    _, w, md = setup(tree)
    d = diameter(tree)
    state = initial_messages(md, w)
    snaps = {}
    for t in range(1, d + 2):
        state = mpa_step(state, w)
        if t >= d - 1:
            snaps[t] = state
    assert np.array_equal(snaps[d].w_msgs, snaps[d + 1].w_msgs)
    assert np.array_equal(snaps[d].h_msgs, snaps[d + 1].h_msgs)
    changed = not np.array_equal(snaps[d - 1].w_msgs, snaps[d].w_msgs) or not np.array_equal(
        snaps[d - 1].h_msgs, snaps[d].h_msgs
    )
    assert changed


def test_tree_estimates_match_exact_influence():
    for seed in range(5):
        tree = random_tree(40, seed=900 + seed)
        net, w, md = setup(tree)
        result = run_mpa(tree, w, tol=0.0, max_iter=1000)
        exact = harmonic_influence_exact(net)
        assert np.abs(result.h_estimates - exact).max() <= 1e-9


def test_tree_w_limits_match_exact_potentials():
    tree = random_tree(35, seed=31)
    net, w, md = setup(tree)
    result = run_mpa(tree, w, tol=0.0, max_iter=1000)
    w_star = exact_message_potentials(net, result.md)
    assert np.abs(result.w_limits - w_star).max() <= 1e-9


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


def test_overestimation_on_cyclic_graph():
    g = random_connected(30, 0.15, seed=55)
    net, w, _ = setup(g)
    result = run_mpa(g, w)
    exact = harmonic_influence_exact(net)
    w_star = exact_message_potentials(net, result.md)
    assert np.all(result.h_estimates >= exact - 1e-9)
    assert np.all(result.w_limits <= w_star + 1e-9)


# ---------------------------------------------------------------------------
# error traces
# ---------------------------------------------------------------------------

def test_error_trace_requires_traces():
    g = path_graph(4)
    _, w, _ = setup(g)
    with pytest.raises(ValueError):
        error_trace(run_mpa(g, w, trace=False))


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
    expected, _ = error_trace_oracle(g, w, 1e-10, 10**5)
    assert same_bits(error_trace(result), expected)
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
    kernel_bytes = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in (gather.growth, gather.decay))
    result, peak = traced_peak(lambda: run_mpa(g, w, trace=True))
    assert result.iterations > 5000
    # the trace is held once, with at most a quarter of it as growth slack
    assert peak <= 1.3 * result.h_trace.nbytes + kernel_bytes, (peak, result.h_trace.nbytes)
    errors, peak = traced_peak(lambda: error_trace(result))
    assert peak <= 2 * 8 * ERROR_CHUNK, peak


# ---------------------------------------------------------------------------
# equivalence with the generalized digraph dynamics
# ---------------------------------------------------------------------------

def test_generalized_dynamics_reproduces_messages_bitwise():
    g = square_with_chord()
    _, w, md = setup(g)
    m = md.size
    trust = dict(zip(md.arc_nodes, w.arc_trust))
    alpha = np.array([w.field_trust[i] / trust[(i, j)] for j, i in md.arc_nodes])
    # unit conductances: the per-message scaling is 1/C = C = 1
    r = np.ones(m)
    s = np.ones(m)
    gen = initial_generalized_state(md.to_digraph(), alpha, np.zeros(m), r, s)
    msg = initial_messages(md, w)
    for t in range(100):
        gen = run_generalized(gen, 1)
        msg = mpa_step(msg, w)
        assert np.array_equal(gen.omega, msg.w_msgs), t
        assert np.array_equal(gen.eta, msg.h_msgs), t
