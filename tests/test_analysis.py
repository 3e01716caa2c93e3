import itertools
from statistics import geometric_mean

import numpy as np
import pytest
import scipy.sparse
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from harmonic_influence import mpa
from harmonic_influence.analysis import (
    _fractional_ranks,
    _generalized_gather,
    check_convergence_hypothesis,
    initial_generalized_state,
    run_generalized,
    spearman,
    spectral_radius_diagnostic,
)
from harmonic_influence.electrical import (
    ConductanceNetwork,
    build_weights,
    exact_message_potentials,
    harmonic_influence_exact,
    uniform_network,
)
from harmonic_influence.graphs import Digraph, UndirectedGraph, add_extra_edges, condensation, message_digraph, spanning_tree
from harmonic_influence.mpa import run_mpa
from shared import bincount_steps, brute_force_violations, closure, cycle_graph, random_connected, same_bits
from stepping import estimates, message_recursion


def constant_state(d, alpha, beta=None):
    n = d.node_count
    beta = np.zeros(n) if beta is None else beta
    return initial_generalized_state(d, alpha, beta, np.ones(n), np.ones(n))


def directed_cycle(n):
    return Digraph(n, tuple((i, (i + 1) % n) for i in range(n)))


# ---------------------------------------------------------------------------
# generalized dynamics
# ---------------------------------------------------------------------------

def test_sink_node_update_formulas():
    d = Digraph(2, ((0, 1),))  # node 1 is a sink
    alpha = np.array([0.2, 0.5])
    beta = np.array([0.1, 0.3])
    state = run_generalized(constant_state(d, alpha, beta), 1)
    assert state.omega[1] == 1.0 / 1.5
    assert state.eta[1] == 1.3


def test_zero_alpha_keeps_omega_at_one():
    for d in (directed_cycle(4), Digraph(3, ((0, 1), (1, 2), (2, 0), (0, 2)))):
        state = constant_state(d, np.zeros(d.node_count))
        for _ in range(50):
            state = run_generalized(state, 1)
            assert np.all(state.omega == 1.0)


def test_nondecreasing_callable_alpha_accepted():
    d = directed_cycle(3)

    def alpha(t):
        return np.full(3, min(t, 4) / 4.0)

    state = initial_generalized_state(d, alpha, np.zeros(3), np.ones(3), np.ones(3))
    for _ in range(10):
        state = run_generalized(state, 1)
    assert np.all(state.omega < 1.0)


def all_dags(n):
    """Every labeled acyclic digraph on n nodes."""
    pairs = [(v, w) for v in range(n) for w in range(n) if v != w]
    for mask in itertools.product((False, True), repeat=len(pairs)):
        arcs = tuple(p for p, keep in zip(pairs, mask) if keep)
        d = Digraph(n, arcs)
        if not any(condensation(d).nontrivial):
            yield d


def test_acyclic_limit_characterization_exhaustive_small():
    # On an acyclic digraph the decay limit sits strictly below one exactly
    # for nodes that can reach the support of the driving sequence.
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        for d in all_dags(n):
            support = {int(v) for v in rng.integers(0, n, size=rng.integers(0, n + 1))}
            alpha = np.zeros(n)
            for v in support:
                alpha[v] = 0.5
            state = constant_state(d, alpha)
            omega_prev = state.omega
            for _ in range(n + 2):
                state = run_generalized(state, 1)
                assert np.all(state.omega <= omega_prev)
                omega_prev = state.omega
            again = run_generalized(state, 1)
            assert np.array_equal(again.omega, state.omega)  # settled exactly
            reaches = closure(d)[:, sorted(support)].any(axis=1)
            assert np.array_equal(state.omega < 1.0, reaches), (d.arcs, support)


def test_acyclic_limit_characterization_random_larger():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(5, 7))
        # orient arcs from high to low label: guaranteed acyclic
        arcs = tuple(
            (v, w) for v in range(n) for w in range(v) if rng.random() < 0.4
        )
        d = Digraph(n, arcs)
        support = {int(v) for v in rng.integers(0, n, size=rng.integers(0, 3))}
        alpha = np.zeros(n)
        for v in support:
            alpha[v] = 1.0
        state = run_generalized(constant_state(d, alpha), n + 2)
        assert np.array_equal(state.omega < 1.0, closure(d)[:, sorted(support)].any(axis=1))


def test_two_cycle_without_driving_growth_is_linear():
    state = constant_state(directed_cycle(2), np.zeros(2))
    state = run_generalized(state, 1000)
    assert np.all(state.omega == 1.0)
    assert np.all(state.eta == 1001.0)  # eta(t) = t + 1 exactly


def test_convergence_under_hypothesis_random_digraphs():
    rng = np.random.default_rng(23)
    for trial in range(10):
        n = int(rng.integers(3, 8))
        arcs = {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(3 * n)}
        d = Digraph(n, tuple(arcs))
        alpha = rng.uniform(0.05, 0.5, size=n)
        state = constant_state(d, alpha)
        prev_omega, prev_eta = state.omega, state.eta
        settled = False
        for _ in range(10**5):
            state = run_generalized(state, 1)
            assert np.all(state.omega <= prev_omega)
            diff = np.abs(state.omega - prev_omega).sum() + np.abs(state.eta - prev_eta).sum()
            prev_omega, prev_eta = state.omega, state.eta
            if diff <= 1e-10:
                settled = True
                break
        assert settled, trial


def random_digraph(rng, n, arc_count, self_loops):
    arcs = {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(arc_count)}
    arcs |= {(int(v), int(v)) for v in rng.integers(0, n, size=self_loops)}
    return Digraph(n, tuple(arcs))


def test_csr_kernel_matches_bincount_reference_bitwise():
    rng = np.random.default_rng(31)
    for n in (3, 17, 60):
        d = random_digraph(rng, n, 3 * n, self_loops=max(1, n // 5))
        r = rng.uniform(0.2, 5.0, size=n)
        s = 1.0 / r
        alpha = rng.uniform(0.01, 0.6, size=n)
        beta = rng.uniform(-0.2, 0.4, size=n)
        state = initial_generalized_state(d, alpha, beta, r, s)
        for t, (omega, eta) in enumerate(bincount_steps(d, lambda v, w: r[v] * s[w], alpha, beta, 200)):
            state = run_generalized(state, 1)
            assert np.array_equal(state.omega, omega), (n, t)
            assert np.array_equal(state.eta, eta), (n, t)


def stepped_generalized(state, steps):
    """run_generalized as a loop of single calls, each one step.

    Also returns the first step whose omega repeats the previous one bitwise.
    """
    omega_fixed_at = None
    for _ in range(steps):
        nxt = run_generalized(state, 1)
        if omega_fixed_at is None and same_bits(nxt.omega, state.omega):
            omega_fixed_at = nxt.t
        state = nxt
    return state, omega_fixed_at


def assert_same_state(got, expected):
    assert got.t == expected.t
    assert same_bits(got.omega, expected.omega)
    assert same_bits(got.eta, expected.eta)


def test_run_generalized_matches_single_step_loop_bitwise():
    rng = np.random.default_rng(515)
    for n in (4, 20, 70):
        # Node n has no driving and a self-loop as its only out-arc: its
        # omega stays 1 and its eta grows without bound.
        arcs = set(random_digraph(rng, n, 3 * n, self_loops=max(1, n // 6)).arcs)
        arcs |= {(n, n)} | {(int(v), n) for v in rng.integers(0, n, size=3)}
        d = Digraph(n + 1, tuple(arcs))
        r = rng.uniform(0.2, 5.0, size=n + 1)
        s = 1.0 / r
        alpha = np.append(rng.uniform(0.01, 0.6, size=n), 0.0)
        beta = rng.uniform(-0.2, 0.4, size=n + 1)
        for b in (beta, lambda t: beta / (1.0 + t)):
            start = initial_generalized_state(d, alpha, b, r, s)
            ref, fixed_at = stepped_generalized(start, 300)
            assert fixed_at is not None and fixed_at < 290, n
            assert_same_state(run_generalized(start, 300), ref)
            # a second call folds its own F from the state's omega and detects the fixed omega anew
            mid = run_generalized(start, fixed_at + 3)
            assert_same_state(run_generalized(mid, 300 - mid.t), ref)


def test_run_generalized_past_fixed_omega_matches_bincount_reference_bitwise():
    """The fixed-omega steps against the bincount loop, which shares no code with them."""
    rng = np.random.default_rng(517)
    for n in (2, 15, 80):
        d = random_digraph(rng, n, 3 * n, self_loops=max(1, n // 4))
        assert any(v == w for v, w in d.arcs)
        r = rng.uniform(0.2, 5.0, size=n)
        s = 1.0 / r
        alpha = rng.uniform(0.01, 0.6, size=n)
        beta = rng.uniform(-0.2, 0.4, size=n)
        for b in (beta, lambda t: beta / (1.0 + t)):
            ref = [(np.ones(n), np.ones(n))] + list(bincount_steps(d, lambda v, w: r[v] * s[w], alpha, b, 300))
            fixed = next(t for t in range(1, 301) if same_bits(ref[t][0], ref[t - 1][0]))
            assert fixed < 250, n
            start = initial_generalized_state(d, alpha, b, r, s)
            for steps in (fixed - 1, fixed, fixed + 1, fixed + 2, 300):
                state = run_generalized(start, steps)
                assert state.t == steps
                assert same_bits(state.omega, ref[steps][0]), (n, steps)
                assert same_bits(state.eta, ref[steps][1]), (n, steps)
            # split calls: each one detects the fixed omega anew
            state = start
            for steps in (fixed + 1, 7, 300 - fixed - 8):
                state = run_generalized(state, steps)
                assert same_bits(state.omega, ref[state.t][0]) and same_bits(state.eta, ref[state.t][1])


def test_fold_gives_the_growth_and_readout_sums_of_a_step_at_any_omega():
    """One step of the gather against one step of the bincount oracle, off the fixed point too:
    ``potentials`` gives its omega, and 1 + F * eta its eta above the readouts, with beta = 0, for
    F from ``fixed`` and for F from another omega refolded in place."""
    rng = np.random.default_rng(518)
    cases = []  # (gather, digraph and coefficient function of the oracle, message digraph or None)
    for n in (1, 9, 50):
        d = random_digraph(rng, n, 3 * n, self_loops=max(1, n // 4))
        r = rng.uniform(0.2, 5.0, size=n)
        s = 1.0 / r
        cases.append((_generalized_gather(d, r, s), d, lambda v, w, r=r, s=s: r[v] * s[w], None))
    for n, seed in ((2, 1), (12, 2), (40, 3)):
        g = random_connected(n, 0.3, seed, step=100)
        field = rng.uniform(0.0, 2.0, size=n) * (rng.uniform(size=n) < 0.6)
        field[0] = 0.5
        weights = build_weights(ConductanceNetwork(g, rng.uniform(0.01, 10.0, size=g.edge_count), field))
        md = message_digraph(g)
        d, coef, _ = message_recursion(md, weights)
        cases.append((mpa._Kernel(md, weights).gather, d, coef, md))
    for gather, d, coef, md in cases:
        size = gather.size
        refolded = gather.fixed(np.ones(size))
        for _ in range(5):
            omega = 1.0 - rng.uniform(size=size)  # in (0, 1]
            eta = rng.uniform(1.0, 100.0, size=size)
            alpha = rng.uniform(0.0, 1.0, size=size)
            omega_next, eta_next = next(bincount_steps(d, coef, alpha, 0.0, 1, start=(omega, eta)))
            readouts = [] if md is None else estimates(md, omega, eta)
            assert same_bits(gather.potentials(omega, alpha), omega_next)
            gather.refold(refolded, omega)
            for folded in (gather.fixed(omega), refolded):
                assert same_bits(1.0 + folded * eta, np.concatenate((eta_next, readouts)))


def test_gather_kernels_are_spmatrix_so_star_is_the_matrix_product():
    """The steps multiply with ``*``, which on a ``csc_array`` would be elementwise."""
    g = random_connected(12, 0.3, 2, step=100)
    d = directed_cycle(5)
    for gather in (_generalized_gather(d, np.ones(5), np.ones(5)),
                   mpa._Kernel(message_digraph(g), build_weights(uniform_network(g, 0.04))).gather):
        omega = np.linspace(0.2, 1.0, gather.size)
        for kernel in (gather.decay, gather.fixed(omega)):
            assert isinstance(kernel, scipy.sparse.spmatrix)
            assert same_bits(kernel * omega, kernel @ omega)


def test_one_state_stepped_twice_gives_the_same_bits_around_a_longer_call():
    """Each call folds its own F: a longer call from the same state, past the step at
    which omega fixes, leaves the next short call's bits as they were."""
    rng = np.random.default_rng(519)
    n = 20
    d = random_digraph(rng, n, 3 * n, self_loops=4)
    r = rng.uniform(0.2, 5.0, size=n)
    state = initial_generalized_state(d, rng.uniform(0.01, 0.6, size=n), rng.uniform(-0.2, 0.4, size=n), r, 1.0 / r)
    state = run_generalized(state, 3)
    first = run_generalized(state, 5)
    assert not same_bits(first.omega, run_generalized(first, 1).omega)  # omega still moves
    longer = run_generalized(state, 300)
    assert same_bits(longer.omega, run_generalized(longer, 1).omega)  # omega has fixed
    assert_same_state(run_generalized(state, 5), first)


def test_run_generalized_callable_alpha_takes_full_steps():
    rng = np.random.default_rng(516)
    n = 30
    d = random_digraph(rng, n, 3 * n, self_loops=5)
    r = rng.uniform(0.2, 5.0, size=n)
    base = rng.uniform(0.01, 0.6, size=n)

    def rising(t):
        return base if t < 150 else 1.5 * base

    def falling(t):
        return base if t < 150 else 0.5 * base

    # alpha is constant long enough for omega to repeat bitwise, then moves
    start = initial_generalized_state(d, rising, np.zeros(n), r, 1.0 / r)
    ref, fixed_at = stepped_generalized(start, 300)
    assert fixed_at < 150
    assert_same_state(run_generalized(start, 300), ref)
    start = initial_generalized_state(d, falling, np.zeros(n), r, 1.0 / r)
    with pytest.raises(ValueError, match="alpha decreased at t=150"):
        run_generalized(start, 300)


# ---------------------------------------------------------------------------
# convergence hypothesis checker
# ---------------------------------------------------------------------------

@st.composite
def digraphs_with_support(draw, max_nodes=12):
    """A digraph with self-loops allowed, and a support list that may be
    empty or name a node twice."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    node = st.integers(min_value=0, max_value=n - 1)
    arcs = draw(st.sets(st.tuples(node, node), max_size=3 * n))
    return Digraph(n, tuple(arcs)), draw(st.lists(node, max_size=n + 2))


@given(digraphs_with_support())
def test_hypothesis_matches_brute_force_on_drawn_digraphs(case):
    d, support = case
    violators = check_convergence_hypothesis(d, support)
    assert violators == brute_force_violations(d, support)
    assert all(type(v) is int for v in violators)


def test_hypothesis_acyclic_always_satisfied():
    d = Digraph(4, ((0, 1), (1, 2), (0, 3)))
    assert check_convergence_hypothesis(d, set()) == frozenset()
    assert check_convergence_hypothesis(d, {2}) == frozenset()


def test_hypothesis_two_cycle_empty_support_violates():
    d = directed_cycle(2)
    assert check_convergence_hypothesis(d, set()) == frozenset({0, 1})
    assert check_convergence_hypothesis(d, {0}) == frozenset()


def test_hypothesis_on_message_digraphs_with_full_field():
    for seed in range(10):
        md = message_digraph(random_connected(20, 0.15, 1000 + seed, step=100))
        # positive field trust everywhere: every message drives
        support = range(md.size)
        assert check_convergence_hypothesis(md.to_digraph(), support) == frozenset()


def test_hypothesis_matches_brute_force_random():
    rng = np.random.default_rng(77)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        arcs = {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(rng.integers(0, 2 * n + 1))}
        d = Digraph(n, tuple(arcs))
        support = {int(v) for v in rng.integers(0, n, size=rng.integers(0, n + 1))}
        assert check_convergence_hypothesis(d, support) == brute_force_violations(d, support)


def condensation_violations(d, support):
    """The hypothesis check as condensation plus reachability of the support."""
    suspects = [v for comp in condensation(d).nontrivial_components() for v in comp]
    can_reach_support = closure(d)[:, sorted(support)].any(axis=1)
    return frozenset(v for v in suspects if not can_reach_support[v])


def test_hypothesis_matches_condensation_form_random():
    rng = np.random.default_rng(91)
    partial = 0
    for trial in range(120):
        n = int(rng.integers(2, 60))
        d = random_digraph(rng, n, int(rng.integers(0, 2 * n)), self_loops=int(rng.integers(0, 4)))
        sparse = {int(v) for v in rng.integers(0, n, size=int(rng.integers(1, 4)))}
        results = []
        for support in (set(), set(range(n)), sparse):
            expected = condensation_violations(d, support)
            assert check_convergence_hypothesis(d, support) == expected, (trial, support)
            results.append(expected)
        suspects, _, sparse_violations = results
        partial += bool(sparse_violations) and sparse_violations != suspects
    assert partial >= 10  # sparse supports that leave some, but not all, suspects violating


def test_hypothesis_support_must_be_integer_node_ids():
    # numpy integers and any iterable of node ids; BAD_CALLS holds floats, strings and ids out of range
    d = directed_cycle(3)
    assert check_convergence_hypothesis(d, [np.int64(1)]) == frozenset()
    assert check_convergence_hypothesis(d, range(3)) == frozenset()
    assert check_convergence_hypothesis(Digraph(4, ((0, 1), (1, 0))), [np.int64(3)]) == frozenset({0, 1})


# ---------------------------------------------------------------------------
# spectral radius diagnostic
# ---------------------------------------------------------------------------

def test_spectral_radius_cycle_identity_omega():
    assert spectral_radius_diagnostic(directed_cycle(5), np.ones(5)) == pytest.approx(1.0, abs=1e-8)


def test_spectral_radius_cycle_scaled_omega():
    # On one directed k-cycle B^k = (prod omega) I: the radius is the geometric mean of omega.
    c = 0.63
    got = spectral_radius_diagnostic(directed_cycle(4), np.full(4, c))
    assert got == pytest.approx(c, abs=1e-8)
    for k in (200, 1000):
        omega = np.random.default_rng(0).uniform(0.3, 0.7, k)
        assert spectral_radius_diagnostic(directed_cycle(k), omega) == pytest.approx(geometric_mean(omega), rel=1e-12)
    # A 200-node ring, whose message digraph is two directed 200-cycles, one each way round.
    ring = cycle_graph(200)
    cond = np.random.default_rng(0).uniform(0.5, 2.0, ring.edge_count)
    result = run_mpa(ring, build_weights(ConductanceNetwork(ring, cond, np.full(200, 0.04))))
    md, w = result.md, result.w_limits
    forward = md.senders() == (md.receivers() + 1) % 200
    got = spectral_radius_diagnostic(md.dependencies, w)
    assert got == pytest.approx(max(geometric_mean(w[forward]), geometric_mean(w[~forward])), rel=1e-12)
    assert got < 1.0


def test_spectral_radius_matches_dense_eigvals():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        arcs = {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(2 * n)}
        d = Digraph(n, tuple(arcs))
        omega = rng.uniform(0.2, 1.0, size=n)
        mat = np.zeros((n, n))
        for v, w in d.arcs:
            mat[v, w] = omega[w]
        expected = float(np.max(np.abs(np.linalg.eigvals(mat))))
        got = spectral_radius_diagnostic(d, omega)
        assert got == pytest.approx(expected, abs=1e-6)


def test_spectral_radius_zero_on_acyclic_digraphs():
    # no nontrivial strong component, so nothing to iterate; on the whole
    # digraph, I + A diag(omega) would be a Jordan block for 1 and stall
    for d in (Digraph(3, ((0, 1),)), Digraph(3, ((0, 1), (1, 2)))):
        assert spectral_radius_diagnostic(d, np.full(3, 0.5)) == 0.0


def test_spectral_radius_iterates_each_strong_component_alone():
    # Iterated as a whole, neither digraph converges within the step cap:
    # two disjoint 2-cycles with radii 0.5 and 0.5001 leave the dominant
    # pair of eigenvalues of the shifted matrix too close, and a 3-cycle
    # with an arc into a 2-cycle of the same radius makes a Jordan block
    # for 1.5.  Each component alone converges.
    two_cycles = Digraph(4, ((0, 1), (1, 0), (2, 3), (3, 2)))
    assert spectral_radius_diagnostic(two_cycles, [0.5, 0.5, 0.5001, 0.5001]) == pytest.approx(0.5001, abs=1e-9)
    assert spectral_radius_diagnostic(two_cycles, [0.5, 0.5, 0.51, 0.51]) == pytest.approx(0.51, abs=1e-9)
    joined = Digraph(5, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)))
    assert spectral_radius_diagnostic(joined, np.full(5, 0.5)) == pytest.approx(0.5, abs=1e-9)


def test_spectral_radius_raises_when_power_iteration_stalls():
    # Two directed 200-cycles through node 0 make one strong component that
    # is not a cycle but has period 200: its eigenvalues of largest modulus
    # are rho e^(2 pi i k / 200), and after the shift the dominant one is too
    # close to its neighbours for the iteration to separate within its step cap.
    second = ((0, 200),) + tuple((i, i + 1) for i in range(200, 398)) + ((398, 0),)
    figure_eight = Digraph(399, directed_cycle(200).arcs + second)
    omega = np.random.default_rng(0).uniform(0.3, 0.7, 399)
    with pytest.raises(ArithmeticError, match=r"^power iteration did not converge in 10000 steps; last estimate"):
        spectral_radius_diagnostic(figure_eight, omega)


@pytest.mark.parametrize("omega", [[np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5], [-np.inf, 0.5]])
def test_spectral_radius_rejects_non_finite_omega_before_iterating(omega):
    # a NaN used to pass the range test and run every power step
    with pytest.raises(ValueError, match=r"^omega entries must lie in \(0, 1\]$"):
        spectral_radius_diagnostic(Digraph(2, ((0, 1), (1, 0))), omega)


@pytest.mark.parametrize("r, s, beta, message", [
    ([np.nan, 1.0], [np.nan, 1.0], [0.0, 0.0], "r and s must be finite"),
    ([1.0, 1.0], [1.0, np.nan], [0.0, 0.0], "r and s must be finite"),
    ([np.inf, 1.0], [0.5, 1.0], [0.0, 0.0], "r and s must be finite"),
    ([1.0, 1.0], [1.0, 1.0], [np.nan, 0.0], "beta must be finite"),
    ([1.0, 1.0], [1.0, 1.0], [0.0, np.inf], "beta must be finite"),
    ([1.0], [1.0, 1.0], [0.0, 0.0], "r and s must have one entry per digraph node"),
    ([-1.0, -1.0], [-1.0, -1.0], [0.0, 0.0], "r and s must be positive"),
])
def test_generalized_state_rejects_non_finite_inputs(r, s, beta, message):
    d = Digraph(2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        initial_generalized_state(d, [0.1, 0.1], beta, r, s)


# ---------------------------------------------------------------------------
# spearman and the scatter pairs
# ---------------------------------------------------------------------------

def test_spearman_identity_and_reversal():
    a = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
    assert spearman(a, a) == pytest.approx(1.0, abs=1e-15)
    assert spearman(a, -a) == pytest.approx(-1.0, abs=1e-15)


def test_spearman_monotone_transform_is_one():
    rng = np.random.default_rng(1)
    a = rng.random(40)
    assert spearman(a, np.exp(3.0 * a)) == pytest.approx(1.0, abs=1e-12)


def test_spearman_fractional_ties_hand_case():
    a = [1.0, 2.0, 2.0, 3.0]
    b = [10.0, 20.0, 20.0, 40.0]
    assert spearman(a, b) == pytest.approx(1.0, abs=1e-15)
    assert spearman(a, [4.0, 3.0, 3.0, 1.0]) == pytest.approx(-1.0, abs=1e-15)


def test_spearman_matches_scipy_with_ties():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.integers(0, 6, size=25).astype(float)
        b = rng.integers(0, 6, size=25).astype(float) + 0.5 * a
        expected = scipy.stats.spearmanr(a, b).statistic
        assert spearman(a, b) == pytest.approx(expected, abs=1e-12)


def test_sibling_leaves_rank_as_ties():
    # Leaves 1 and 10 hang off node 11, and 0, 3 and 5 off node 8: equal
    # influences in exact arithmetic, which the solvers may split by an ulp.
    tree = UndirectedGraph(12, ((0, 8), (1, 11), (2, 4), (3, 8), (4, 6), (5, 8),
                                (6, 7), (6, 9), (6, 11), (8, 9), (10, 11)))
    net = uniform_network(tree, 0.04)
    exact = harmonic_influence_exact(net)
    estimates = run_mpa(tree, build_weights(net), tol=0.0, max_iter=1000).h_estimates
    for h in (exact, estimates):
        ranks = _fractional_ranks(h)
        assert ranks[1] == ranks[10]
        assert ranks[0] == ranks[3] == ranks[5]
    assert spearman(exact, estimates) == 1.0


def test_spearman_ignores_a_one_ulp_move_within_a_tie():
    rng = np.random.default_rng(31)
    for trial in range(20):
        a = 0.1 * rng.integers(1, 7, size=25)
        b = 0.1 * rng.integers(1, 7, size=25) + 0.5 * a
        rho = spearman(a, b)
        for x in (a, b):
            i = next(i for i in range(25) if np.count_nonzero(x == x[i]) > 1)
            moved = x.copy()
            moved[i] = np.nextafter(x[i], np.inf if trial % 2 else -np.inf)
            assert spearman(*((moved, b) if x is a else (a, moved))) == rho


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spearman_rejects_non_finite_input(bad):
    for a, b in (([1.0, bad, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]), ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, bad, 3.0])):
        with pytest.raises(ValueError, match="^inputs must be finite$"):
            spearman(a, b)


def test_fractional_ranks_match_scipy_bitwise():
    rng = np.random.default_rng(29)
    for trial in range(300):
        n = int(rng.integers(1, 50))
        pools = (rng.random(n), rng.integers(-3, 4, n).astype(float), rng.choice([-0.0, 0.0, 1.0, -2.5], n))
        x = pools[trial % 3]
        assert _fractional_ranks(x).tobytes() == scipy.stats.rankdata(x).tobytes(), x


def test_scatter_pairs_on_tree_and_cyclic_fixtures():
    """The (exact, estimate) pairs of the report's scatter plots against the 45-degree line."""
    g = random_connected(25, 0.2, 90)
    tree = spanning_tree(g, seed=90)

    # tree: every point sits on the 45-degree line
    net = uniform_network(tree, 0.04)
    result = run_mpa(tree, build_weights(net), tol=0.0, max_iter=1000)
    for exact, approx in zip(harmonic_influence_exact(net), result.h_estimates):
        assert abs(exact - approx) <= 1e-9

    # cyclic: influence points above the line, potential points below it
    cyc = add_extra_edges(tree, g, 4, seed=90)
    net = uniform_network(cyc, 0.04)
    result = run_mpa(cyc, build_weights(net))
    for exact, approx in zip(harmonic_influence_exact(net), result.h_estimates):
        assert approx >= exact - 1e-9
    w_star = exact_message_potentials(net, result.md)
    for exact, approx in zip(w_star, result.w_limits):
        assert approx <= exact + 1e-9


@pytest.mark.parametrize("beta_t, message", [
    ([np.nan, 0.0], r"beta\(t\) at t=0 must be finite"),
    ([0.0], r"beta\(t\) at t=0 must have one entry per digraph node"),
    ([0.0, 0.0, 0.0], r"beta\(t\) at t=0 must have one entry per digraph node"),
])
def test_run_generalized_checks_each_value_of_a_callable_beta(beta_t, message):
    d = Digraph(2, ((0, 1), (1, 0)))
    state = initial_generalized_state(d, [0.1, 0.1], lambda t: beta_t, [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_generalized(state, 5)
