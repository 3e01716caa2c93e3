"""Forward simulation of the leader-plus-field opinion dynamics.

One stubborn leader keeps a fixed opinion while every other agent
repeatedly averages its neighbors' opinions with the constant external
field, using the trust weights.  The iteration contracts to a unique
fixed point, which equals the electrical potentials from the grounded
Laplacian solve; this module exists mainly as an independent oracle for
that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from harmonic_influence.electrical import InfluenceWeights
from harmonic_influence.graphs import _node_id, _read_only

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10**6


@dataclass(frozen=True)
class OpinionState:
    leader: int
    leader_opinion: float
    field_opinion: float
    opinions: np.ndarray
    t: int = 0


class NonConvergenceError(RuntimeError):
    def __init__(self, max_iter: int, residual: float):
        super().__init__(
            f"opinions did not reach tolerance within {max_iter} iterations "
            f"(last residual {residual:.3e})"
        )
        self.residual = residual


def initial_state(
    n: int,
    leader: int,
    leader_opinion: float = 1.0,
    field_opinion: float = 0.0,
    regular_opinion: float = 0.0,
) -> OpinionState:
    """All regular agents start at regular_opinion; the leader at its fixed value.

    The leader is a node id checked as graph ends are, so ``True`` is node 1.
    """
    leader = _node_id(leader, "leader")
    if not 0 <= leader < n:
        raise ValueError(f"leader {leader} outside node range")
    opinions = np.full(n, float(regular_opinion))
    opinions[leader] = float(leader_opinion)
    return OpinionState(
        leader=leader,
        leader_opinion=float(leader_opinion),
        field_opinion=float(field_opinion),
        opinions=_read_only(opinions),
        t=0,
    )


def _trust_matrix(w: InfluenceWeights) -> np.ndarray:
    n = w.graph.node_count
    q = np.zeros((n, n))
    q[w.graph._rows, w.graph._csr.indices] = w.arc_trust
    return q


def step(state: OpinionState, w: InfluenceWeights) -> OpinionState:
    """One synchronous update; the leader's opinion never moves."""
    n = w.graph.node_count
    if state.opinions.shape != (n,):
        raise ValueError("state and weights cover different node sets")
    x = state.opinions
    new = _trust_matrix(w) @ x + w.field_trust * state.field_opinion
    new[state.leader] = state.leader_opinion
    return OpinionState(
        leader=state.leader,
        leader_opinion=state.leader_opinion,
        field_opinion=state.field_opinion,
        opinions=_read_only(new),
        t=state.t + 1,
    )


def simulate_to_fixed_point(
    state: OpinionState,
    w: InfluenceWeights,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> OpinionState:
    """Iterate until the 1-norm of successive differences drops to tol."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    n = w.graph.node_count
    if state.opinions.shape != (n,):
        raise ValueError("state and weights cover different node sets")
    q = _trust_matrix(w)
    drift = w.field_trust * state.field_opinion
    x = state.opinions.copy()
    t = state.t
    residual = np.inf
    for _ in range(max_iter):
        new = q @ x + drift
        new[state.leader] = state.leader_opinion
        t += 1
        residual = float(np.abs(new - x).sum())
        x = new
        if residual <= tol:
            return OpinionState(
                leader=state.leader,
                leader_opinion=state.leader_opinion,
                field_opinion=state.field_opinion,
                opinions=_read_only(x),
                t=t,
            )
    raise NonConvergenceError(max_iter, residual)
