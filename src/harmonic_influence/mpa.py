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
thousands.  The estimates, 1 + sum_i w_ji * h_ji at each node j, are
readout rows of the growth matrix, so a full step, estimates included,
is two matvecs: growth over w * h and decay over 1 - w.  ``run_mpa``
watches for the first step that returns w bitwise equal to its input;
every later w is then the same.  The remaining steps fold w into the
growth matrix's columns, so each is one matvec over h.  One loop runs
both kinds: each pass takes one full step, or up to ``BLOCK`` folded
steps, into a scratch block of estimate rows, and one scan of the pass's
residuals numbers the steps, raises at the first that is not finite and
stops at the first within tolerance.  The output is bitwise that of full
steps checked one at a time.

Every per-step product is a matvec of a matrix stored by columns (CSC):
each product goes to its own output row, so consecutive additions do
not wait on each other, and every row sums its terms in ascending
column order, which is ascending neighbor index, so runs are bitwise
reproducible.
A traced run appends each step's rows to one buffer that grows in
place, so the trace is held once.  ``error_trace`` reduces it to one
``(iterations, 2)`` array of h and w errors, a fixed number of floats
at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analysis import _ArcGather, _same_bits
from .electrical import InfluenceWeights
from .graphs import MessageDigraph, UndirectedGraph, _read_only, is_connected, message_digraph

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10**5
BLOCK = 16  # steps whose residuals run_mpa checks at once after w is fixed
ERROR_CHUNK = 2**17  # floats of a trace that error_trace reduces at once


class _Kernel:
    """The message updates as the decay/growth step of ``analysis``.

    Message (j, i) gathers over its dependency arcs to the messages
    (i, k), k != j, with coefficient trust[(i, k)] / trust[(i, j)], is
    driven by alpha = q_i / trust[(i, j)], and its influence message has
    no driving term (beta = 0); the gather's readout row j sums the
    messages (j, i), so each step also returns the estimates of the state
    it starts from.  Message p and ``arc_trust[p]`` share the graph's CSR
    entry, so trust[(i, j)] is ``arc_trust[reverse[p]]``.  A trust so
    small that one of these quotients overflows is rejected.
    """

    def __init__(self, md: MessageDigraph, weights: InfluenceWeights):
        if weights.graph != md.base:
            raise ValueError("weights and message digraph cover different graphs")
        self.weights = weights
        sender_trust = weights.arc_trust[md.reverse]
        # Arcs run by message, then ascending sender: every gather sums in ascending neighbor order.
        arc_from, arc_to = md.dependencies._ends
        with np.errstate(over="ignore"):
            self.alpha = weights.field_trust[md.senders()] / sender_trust
            coef = weights.arc_trust[arc_to] / sender_trust[arc_from]
        overflow = ~np.isfinite(self.alpha)
        overflow[arc_from[~np.isfinite(coef)]] = True
        if overflow.any():
            p = int(np.argmax(overflow))
            j, i = int(md.receivers()[p]), int(md.senders()[p])
            raise ValueError(
                f"edge {min(i, j)}-{max(i, j)}: trust of node {i} in node {j} is {sender_trust[p]:.3g}, "
                "and dividing by it overflows to inf"
            )
        # Readout row j sums the messages (j, i) in ascending p, which is ascending i.
        self.gather = _ArcGather(arc_from, arc_to, md.size, coef, md.receivers(), md.base.node_count)


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
    w, h = _read_only(np.ones(md.size)), _read_only(np.ones(md.size))
    return MessageState(md=md, w_msgs=w, h_msgs=h, t=0, _kernel=_Kernel(md, weights))


def _kernel_for(state: MessageState, weights: InfluenceWeights) -> _Kernel:
    k = state._kernel
    return k if k is not None and k.weights is weights else _Kernel(state.md, weights)


def mpa_step(state: MessageState, weights: InfluenceWeights) -> MessageState:
    """One synchronous update of every message."""
    kernel = _kernel_for(state, weights)
    w_new, h_new, _ = map(_read_only, kernel.gather.step(state.w_msgs, state.h_msgs, kernel.alpha, 0.0))
    return MessageState(md=state.md, w_msgs=w_new, h_msgs=h_new, t=state.t + 1, _kernel=kernel)


def influence_estimates(state: MessageState, weights: InfluenceWeights) -> np.ndarray:
    """Influence estimates of all nodes at the current step: the readouts of one step taken from it."""
    kernel = _kernel_for(state, weights)
    return kernel.gather.step(state.w_msgs, state.h_msgs, kernel.alpha, 0.0)[2]


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
    never fixed), and its last row is bitwise ``w_limits``.  Each trace is
    one C-contiguous array that owns its data and holds exactly its rows:
    the run appends to it in place and keeps no second copy.
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


class _Rows:
    """Equal-length rows appended to one buffer that grows in place.

    When the buffer is full, ``ndarray.resize`` grows it by at least a
    quarter.  For a large buffer realloc moves its pages rather than
    copying them, so the rows are held once, with at most a quarter of
    them as slack.  Both resizes pass ``refcheck=False``: numpy's reference
    count also counts the extra references that a ``sys.settrace`` or
    ``sys.setprofile`` hook (a debugger, coverage, cProfile) holds, and
    would refuse.  That is safe because no view of the buffer escapes
    before ``array()``, which is the last call on the object: ``add``
    copies the rows in, and only ``array()`` hands the buffer out.
    """

    def __init__(self, first: np.ndarray):
        self._buf = np.empty((BLOCK + 1, len(first)))
        self._buf[0] = first
        self._count = 1

    def add(self, rows: np.ndarray) -> None:
        """Append one row, or the rows of a 2-D array."""
        rows = np.atleast_2d(rows)
        end = self._count + len(rows)
        if end > len(self._buf):
            self._buf.resize((max(end, len(self._buf) * 5 // 4), self._buf.shape[1]), refcheck=False)
        self._buf[self._count : end] = rows
        self._count = end

    def array(self) -> np.ndarray:
        """The rows appended so far, in the buffer trimmed to them; it owns its data."""
        self._buf.resize((self._count, self._buf.shape[1]), refcheck=False)
        return self._buf


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

    A full step is two matvecs, whose readout rows give the estimates of
    the step it starts from.  Once w is bitwise fixed, a step is one
    matvec: h times the growth and readout rows with w folded in, and a
    pass of the loop takes up to ``BLOCK`` of them where it took one full
    step.  One scan checks the residuals of each pass; their w term is
    0.0 once w is folded.  Every output is bitwise that of full steps.
    With ``trace``, every step's estimates and potential messages go
    straight into the buffers that become ``h_trace`` and ``w_trace``
    (see ``_Rows``), so at the peak a run holds at most 1.25 times the
    final traces.
    A trust small enough that the kernel's quotients overflow raises
    ``ValueError`` before the first step.
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
    kernel, m = state._kernel, md.size
    # h runs one step ahead of the estimates: the product from step t gives
    # w and h of step t + 1 and the estimates of step t.  One scratch block
    # holds the estimates of a pass's steps below those of the step before
    # them, in row 0.
    block = np.empty((BLOCK + 1, g.node_count))
    w = state.w_msgs
    w_next, h, block[0] = kernel.gather.step(w, state.h_msgs, kernel.alpha, 0.0)
    w_rows, h_rows = (_Rows(w), _Rows(block[0])) if trace else (None, None)
    residuals = []

    converged, steps, w_fixed_step = False, 0, None
    while steps < max_iter and not converged:
        if w_fixed_step is None:
            if trace:
                w_rows.add(w_next)
            if _same_bits(w_next, w):
                w_fixed_step, folded = steps + 1, kernel.gather.fixed(w)
        if w_fixed_step is None:
            # One full step: rows 0-1 hold the estimates before and after it.
            rows, w_change = block[:2], np.abs(w_next - w).sum()
            w, (w_next, h, rows[1]) = w_next, kernel.gather.step(w_next, h, kernel.alpha, 0.0)
        else:
            # Up to BLOCK steps with w folded in: y = folded @ h_t + 1 holds
            # h_{t+1} over the messages and the estimates at step t below them.
            rows, w_change = block[: min(BLOCK, max_iter - steps) + 1], 0.0
            for row in rows[1:]:
                y = folded @ h
                y += 1.0
                h, row[:] = y[:m], y[m:]
        # Row-wise sums are bitwise the per-step 1-D sums; steps after the first within tol are discarded.
        for done, r in enumerate((w_change + np.abs(rows[1:] - rows[:-1]).sum(axis=1)).tolist(), 1):
            if not math.isfinite(r):
                raise ArithmeticError(f"message passing residual is {r} at step {steps + done}: overflow or 0/0")
            residuals.append(r)
            if r <= tol:
                converged = True
                break
        steps += done
        if trace:
            h_rows.add(rows[1 : done + 1])
        block[0] = rows[done]

    return MpaResult(
        md=md,
        h_estimates=_read_only(block[0].copy()),
        w_limits=_read_only(w),
        iterations=steps,
        converged=converged,
        final_residual=residuals[-1],
        residuals=_read_only(np.array(residuals)),
        h_trace=h_rows.array() if trace else None,
        w_trace=w_rows.array() if trace else None,
        w_fixed_step=w_fixed_step,
    )


def error_trace(result: MpaResult) -> np.ndarray:
    """Distance of each recorded step to the final iterate, in 1-norm.

    The final iterate stands in for the unknown limit.  A read-only
    ``(iterations, 2)`` array: row t, t = 0 .. iterations-1, holds the h
    error and the w error of step t, so the last row is bounded by the
    stopping tolerance whenever the run converged.  The w error is
    exactly 0.0 from ``w_fixed_step`` on, where ``w_trace`` ends.  The
    rows are reduced ``ERROR_CHUNK`` floats at a time, so the temporaries
    stay at that size however long the run, and the errors are bitwise
    those of whole-trace differences.
    """
    if result.h_trace is None or result.w_trace is None:
        raise ValueError("result carries no traces; rerun with trace=True")
    errors = np.zeros((result.iterations, 2))
    errors[:, 0] = _distances_to_last(result.h_trace)
    w_errors = _distances_to_last(result.w_trace)
    errors[: len(w_errors), 1] = w_errors
    return _read_only(errors)


def _distances_to_last(rows: np.ndarray) -> np.ndarray:
    """1-norm distance of every row but the last to the last, ``ERROR_CHUNK`` floats at a time.

    A sum along axis 1 reduces each row alike at any row count, so the
    chunks give the bits of one whole-array reduction.
    """
    count, width = len(rows) - 1, rows.shape[1]
    step = max(1, ERROR_CHUNK // width)
    out = np.empty(count)
    diff = np.empty((min(count, step), width))
    for lo in range(0, count, step):
        part = diff[: count - lo]
        np.subtract(rows[lo : lo + len(part)], rows[-1], out=part)
        out[lo : lo + len(part)] = np.abs(part, out=part).sum(axis=1)
    return out
