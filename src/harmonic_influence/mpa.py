"""Synchronous message passing estimation of harmonic influence.

Every ordered arc (j, i) of the social graph carries two messages sent
from i to j: a potential message in (0, 1] and an influence message in
[1, inf).  All messages start at 1 and are updated synchronously from
the previous step's buffer.  On trees the messages fix exactly after
diameter-many steps and reproduce the grounded-Laplacian answer; on
cyclic graphs they converge asymptotically to an approximation.

The potential messages w are a closed recursion, w_{t+1} = f(w_t), and
settle within a few dozen steps, while the influence messages creep
towards their limit at the rate of rho(A diag(w)), close to 1, over
thousands.  ``run_mpa`` watches for the first step that returns w
bitwise equal to its input; every later w is then the same.  The
remaining steps fold w into one operator over h and the estimates, one
matvec a step, and check the residuals of ``BLOCK`` steps at a time.
The output is bitwise that of full steps checked one at a time.

Summation order inside every update is ascending neighbor index, so
runs are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse

from .analysis import _ArcGather, _same_bits
from .electrical import InfluenceWeights
from .graphs import MessageDigraph, UndirectedGraph, _read_only, is_connected, message_digraph

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10**5
BLOCK = 16  # steps whose residuals run_mpa checks at once after w is fixed


class _Kernel:
    """The message updates as the decay/growth step of ``analysis``.

    Message (j, i) gathers over its dependency arcs to the messages
    (i, k), k != j, with coefficient trust[(i, k)] / trust[(i, j)], is
    driven by alpha = q_i / trust[(i, j)], and its influence message has
    no driving term (beta = 0).  Message p and ``arc_trust[p]`` share the
    graph's CSR entry, so trust[(i, j)] is ``arc_trust[reverse[p]]``.
    """

    def __init__(self, md: MessageDigraph, weights: InfluenceWeights):
        self.weights = weights
        sender_trust = weights.arc_trust[md.reverse]
        self.alpha = weights.field_trust[md.senders()] / sender_trust
        # Arcs run by message, then ascending sender: every gather sums in ascending neighbor order.
        arc_from, arc_to = md.dependencies._ends
        coef = weights.arc_trust[arc_to] / sender_trust[arc_from]
        self.gather = _ArcGather(arc_from, arc_to, md.size, coef)
        # Row j sums the messages (j, i) to node j, ascending in i: the graph's CSR rows.
        self.receive = scipy.sparse.csr_matrix(
            (np.ones(md.size), np.arange(md.size), md.base._csr.indptr), shape=(md.base.node_count, md.size)
        )

    def estimates(self, w: np.ndarray, h: np.ndarray) -> np.ndarray:
        return 1.0 + self.receive @ (w * h)


@dataclass(frozen=True)
class MessageState:
    """Message values at one step, indexed by the message digraph's nodes."""

    md: MessageDigraph
    w_msgs: np.ndarray
    h_msgs: np.ndarray
    t: int = 0
    _kernel: Optional[_Kernel] = field(default=None, repr=False, compare=False)


def initial_messages(md: MessageDigraph, weights: InfluenceWeights) -> MessageState:
    """All messages start at one."""
    if weights.graph != md.base:
        raise ValueError("weights and message digraph cover different graphs")
    w, h = _read_only(np.ones(md.size)), _read_only(np.ones(md.size))
    return MessageState(md=md, w_msgs=w, h_msgs=h, t=0, _kernel=_Kernel(md, weights))


def _kernel_for(state: MessageState, weights: InfluenceWeights) -> _Kernel:
    k = state._kernel
    if k is not None and k.weights is weights:
        return k
    if weights.graph != state.md.base:
        raise ValueError("weights and message digraph cover different graphs")
    return _Kernel(state.md, weights)


def mpa_step(state: MessageState, weights: InfluenceWeights) -> MessageState:
    """One synchronous update of every message."""
    kernel = _kernel_for(state, weights)
    w_new, h_new = map(_read_only, kernel.gather.step(state.w_msgs, state.h_msgs, kernel.alpha, 0.0))
    return MessageState(md=state.md, w_msgs=w_new, h_msgs=h_new, t=state.t + 1, _kernel=kernel)


def node_influence_estimate(state: MessageState, node: int) -> float:
    """Influence estimate a node can form from its incoming messages."""
    md = state.md
    if not 0 <= node < md.base.node_count:
        raise ValueError(f"node {node} outside range")
    # Its incoming messages are CSR row node, ascending in the sender.
    lo, hi = md.base._csr.indptr[node : node + 2]
    acc = 0.0
    for p in range(lo, hi):
        acc += state.w_msgs[p] * state.h_msgs[p]
    return 1.0 + acc


def influence_estimates(state: MessageState, weights: InfluenceWeights) -> np.ndarray:
    """Influence estimates of all nodes at the current step."""
    return _kernel_for(state, weights).estimates(state.w_msgs, state.h_msgs)


@dataclass(frozen=True)
class MpaResult:
    """Outcome of a full message passing run.

    ``iterations`` counts the synchronous steps executed, ``residuals``
    holds the residual of each, ending in ``final_residual``.  When recorded,
    ``h_trace`` holds the estimates of every step, t=0 through
    t=iterations.  ``w_fixed_step`` is the first step whose potential
    messages equal the previous step's bit for bit, or None if they never
    did; every later w is that same array, so ``w_trace`` stops there:
    its rows are t=0 through t=w_fixed_step (through t=iterations if w
    never fixed), and its last row is bitwise ``w_limits``.
    """

    md: MessageDigraph
    h_estimates: np.ndarray
    w_limits: np.ndarray
    iterations: int
    converged: bool
    final_residual: float
    residuals: np.ndarray
    h_trace: Optional[np.ndarray] = None
    w_trace: Optional[np.ndarray] = None
    w_fixed_step: Optional[int] = None


def _finite(residuals: list[float], first_step: int) -> list[float]:
    """The residuals of steps first_step, first_step + 1, ...; raises at the first NaN or infinite one."""
    for k, r in enumerate(residuals):
        if not math.isfinite(r):
            raise ArithmeticError(f"message passing residual is {r} at step {first_step + k}: overflow or 0/0")
    return residuals


def run_mpa(
    g: UndirectedGraph,
    weights: InfluenceWeights,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    trace: bool = False,
) -> MpaResult:
    """Run the message passing updates until messages and estimates settle.

    Stops when the 1-norm of successive differences of the potential
    messages plus that of the node estimates drops to ``tol``.  Hitting
    ``max_iter`` first is reported through ``converged=False`` rather
    than raised; the caller decides.  A residual that is NaN or infinite
    raises ``ArithmeticError`` at its step.

    Once w is bitwise fixed, a step is one matvec of h by w folded into
    the growth rows with the receiver rows under them; the w term of the
    residual is then 0.0, and the residuals are checked ``BLOCK`` steps
    at a time.  Every output is bitwise that of full steps.
    """
    if g != weights.graph:
        raise ValueError("graph and weights disagree")
    md = message_digraph(g)
    if not is_connected(g):
        raise ValueError("message passing requires a connected graph")
    if not tol >= 0.0:
        raise ValueError("tol must be nonnegative")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")

    state = initial_messages(md, weights)
    kernel = state._kernel
    assert kernel is not None
    w, h = state.w_msgs, state.h_msgs
    est = kernel.estimates(w, h)
    w_rows = [w] if trace else []
    est_rows = [est] if trace else []
    residuals = []

    converged, steps, w_fixed_step = False, 0, None
    while steps < max_iter and not converged:
        w_new, h = kernel.gather.step(w, h, kernel.alpha, 0.0)
        if trace:
            w_rows.append(w_new)
        if _same_bits(w_new, w):
            # Step steps + 1 has its h but not yet its estimates.
            w_fixed_step = steps + 1
            break
        est_new = kernel.estimates(w_new, h)
        residuals += _finite([float(np.abs(w_new - w).sum() + np.abs(est_new - est).sum())], steps + 1)
        steps += 1
        w, est = w_new, est_new
        if trace:
            est_rows.append(est)
        converged = residuals[-1] <= tol

    if w_fixed_step is not None:
        # From here on h runs one step ahead: y = folded @ h_t + 1 holds
        # h_{t+1} over the messages and the estimates at step t below them.
        folded, m = kernel.gather.fixed(w, below=kernel.receive), md.size
        while steps < max_iter and not converged:
            block = np.empty((min(BLOCK, max_iter - steps) + 1, len(est)))
            block[0] = est
            for row in block[1:]:
                y = folded @ h
                y += 1.0
                h, row[:] = y[:m], y[m:]
            # Row-wise sums are bitwise the per-step 1-D sums; steps after the first within tol are discarded.
            block_residuals = np.abs(block[1:] - block[:-1]).sum(axis=1)
            hits = np.flatnonzero(block_residuals <= tol)
            converged = len(hits) > 0
            done = int(hits[0]) + 1 if converged else len(block_residuals)
            residuals += _finite(block_residuals[:done].tolist(), steps + 1)
            steps += done
            est = block[done]
            if trace:
                est_rows.extend(block[1 : done + 1])

    return MpaResult(
        md=md,
        h_estimates=_read_only(est),
        w_limits=_read_only(w),
        iterations=steps,
        converged=converged,
        final_residual=residuals[-1],
        residuals=_read_only(np.array(residuals)),
        h_trace=np.array(est_rows) if trace else None,
        w_trace=np.array(w_rows) if trace else None,
        w_fixed_step=w_fixed_step,
    )


def error_trace(result: MpaResult) -> list[tuple[int, float, float]]:
    """Distance of each recorded step to the final iterate, in 1-norm.

    The final iterate stands in for the unknown limit.  One entry per
    executed step, t = 0 .. iterations-1; the last entry is therefore
    bounded by the stopping tolerance whenever the run converged.  The
    w error is exactly 0.0 from ``w_fixed_step`` on, where ``w_trace``
    ends.
    """
    if result.h_trace is None or result.w_trace is None:
        raise ValueError("result carries no traces; rerun with trace=True")
    h_diff = result.h_trace[:-1] - result.h_trace[-1]
    h_err = np.abs(h_diff, out=h_diff).sum(axis=1)
    w_diff = result.w_trace[:-1] - result.w_trace[-1]
    w_err = np.zeros(result.iterations)
    w_err[: len(result.w_trace) - 1] = np.abs(w_diff, out=w_diff).sum(axis=1)
    return list(zip(range(result.iterations), h_err.tolist(), w_err.tolist()))
