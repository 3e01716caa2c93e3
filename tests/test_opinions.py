import numpy as np
import pytest

from harmonic_influence.electrical import (
    build_weights,
    grounded_laplacian_solve,
    uniform_network,
)
from harmonic_influence.graphs import UndirectedGraph
from opinions import (
    NonConvergenceError,
    OpinionState,
    initial_state,
    simulate_to_fixed_point,
    step,
)
from shared import GAMMA, random_connected


def two_node():
    net = uniform_network(UndirectedGraph(2, ((0, 1),)), GAMMA)
    return net, build_weights(net)


def test_step_two_node_first_update():
    _, w = two_node()
    st = step(initial_state(2, leader=0), w)
    assert st.opinions[1] == pytest.approx(1.0 / 1.04, abs=1e-15)
    assert st.t == 1


@pytest.mark.parametrize("leader", [-1, 3])
def test_initial_state_rejects_leader_outside_range(leader):
    with pytest.raises(ValueError, match=f"^leader {leader} outside node range$"):
        initial_state(3, leader)


def test_initial_state_reads_its_leader_as_a_node_id():
    # as grounded_laplacian_solve does: True is node 1, and 1.0 is refused rather than truncated (BAD_CALLS)
    st = initial_state(3, True)
    assert type(st.leader) is int and st.opinions.tolist() == [0.0, 1.0, 0.0]
    st = step(st, build_weights(uniform_network(UndirectedGraph(3, ((0, 1), (1, 2))), GAMMA)))
    assert st.opinions[1] == 1.0 and st.opinions[0] == st.opinions[2] < 1.0


def test_leader_opinion_never_moves():
    net = uniform_network(random_connected(15, 0.25, 3), GAMMA)
    w = build_weights(net)
    st = initial_state(15, leader=4, regular_opinion=0.3)
    for _ in range(20):
        st = step(st, w)
        assert st.opinions[4] == 1.0


def test_fixed_point_is_fixed():
    net, w = two_node()
    fixed = simulate_to_fixed_point(initial_state(2, leader=0), w, tol=1e-14)
    again = step(fixed, w)
    assert np.abs(again.opinions - fixed.opinions).max() <= 1e-15


def test_two_node_limit():
    _, w = two_node()
    st = simulate_to_fixed_point(initial_state(2, leader=0), w, tol=1e-12)
    assert st.opinions[1] == pytest.approx(1.0 / 1.04, abs=1e-11)


def test_initial_condition_irrelevance():
    net = uniform_network(random_connected(12, 0.3, 8), GAMMA)
    w = build_weights(net)
    tol = 1e-12
    lo = simulate_to_fixed_point(initial_state(12, leader=2, regular_opinion=0.0), w, tol=tol)
    hi = simulate_to_fixed_point(initial_state(12, leader=2, regular_opinion=1.0), w, tol=tol)
    assert np.abs(lo.opinions - hi.opinions).sum() <= 2 * tol * 100


def test_limit_matches_grounded_solve():
    for seed in range(6):
        net = uniform_network(random_connected(14, 0.25, 120 + seed), 0.3)
        w = build_weights(net)
        leader = seed % 14
        st = simulate_to_fixed_point(initial_state(14, leader=leader), w, tol=1e-12)
        pot = grounded_laplacian_solve(net, leader)
        assert np.abs(st.opinions - pot).max() <= 1e-10


def test_opinions_stay_in_unit_interval():
    net = uniform_network(random_connected(20, 0.2, 42), GAMMA)
    w = build_weights(net)
    rng = np.random.default_rng(0)
    opinions = rng.random(20)
    opinions[1] = 1.0
    st = OpinionState(leader=1, leader_opinion=1.0, field_opinion=0.0, opinions=opinions)
    for _ in range(200):
        st = step(st, w)
        assert st.opinions.min() >= 0.0
        assert st.opinions.max() <= 1.0


def test_windowed_geometric_decay():
    # successive-difference 1-norm may wobble step to step, but over any
    # window of node-count steps it must not grow
    n = 20
    for seed in range(8):
        net = uniform_network(random_connected(n, 0.2, 600 + seed), GAMMA)
        w = build_weights(net)
        st = initial_state(n, leader=0)
        residuals = []
        prev = st.opinions
        for _ in range(150):
            st = step(st, w)
            residuals.append(float(np.abs(st.opinions - prev).sum()))
            prev = st.opinions
        for t in range(len(residuals) - n):
            assert residuals[t + n] <= residuals[t] or residuals[t] == 0.0


def test_max_iter_exceeded_raises_with_residual():
    net = uniform_network(random_connected(15, 0.2, 77), GAMMA)
    w = build_weights(net)
    with pytest.raises(NonConvergenceError) as err:
        simulate_to_fixed_point(initial_state(15, leader=0), w, tol=1e-15, max_iter=3)
    assert err.value.residual > 0.0
