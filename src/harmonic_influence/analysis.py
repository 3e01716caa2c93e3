"""Convergence machinery for message-passing-like dynamics on digraphs.

The driven two-variable recursion here generalizes the message updates:
a decay vector in (0, 1] and a growth vector in [1, inf) evolve on an
arbitrary digraph under driving sequences alpha (non-decreasing) and
beta (convergent), with reciprocal scaling vectors r and s.  The module
also provides the structural convergence test (every node of a
nontrivial strongly connected component must reach the support of
alpha), a spectral radius diagnostic, and rank-order statistics for
comparing approximate against exact influence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np
import scipy.sparse

from .graphs import Digraph, _csr_rows, _strong_components

RS_TOL = 1e-12
ALPHA_MONOTONE_TOL = 1e-15
SPECTRAL_TOL = 1e-8
SPECTRAL_MAX_ITER = 10**4
# Neighbors in sorted order this close, relative to the larger magnitude,
# rank as one tie.  Values equal in exact arithmetic, such as the
# influences of leaves on one parent, come out of the solvers up to about
# 2 eps apart; two more eps keep such ties whole.
TIE_RTOL = 4.0 * np.finfo(np.float64).eps

DrivingSequence = Union[np.ndarray, Sequence[float], Callable[[int], np.ndarray]]


class _ArcGather:
    """The synchronous decay/growth step on a digraph's arcs, as two CSC matrices.

    Node v gathers from every w with an arc (v, w): the growth term sums
    omega_w * eta_w, the decay term sums coef * (1 - omega_w).  ``growth``
    holds the unit-weighted arcs in rows 0..size-1 and, given
    ``receivers``, ``readouts`` rows below them, where column w has one
    more entry at row size + receivers[w]; ``decay`` holds the
    ``coef``-weighted arcs.  A step is one matvec of each.

    Both are stored by columns (CSC), built from the arcs' CSR pattern,
    whose transpose lists each column's tails ascending.  A CSC matvec
    zeroes the output and scatters column w, in ascending w, into the rows
    of the arcs (v, w), so row v starts at 0.0 and adds its rounded
    products in ascending head order: the arc order, since arcs come
    sorted by (tail, head) without duplicates.  A CSR matvec would chain
    each row's additions; the scatter's go to different rows.

    Once omega stops changing, the decay sums are the same at every step,
    and ``fixed`` folds omega into the growth matrix: its stored entries
    are exactly 1.0, so ``fixed(omega) @ eta`` is bitwise ``growth @
    (omega * eta)`` without forming omega * eta.
    """

    def __init__(self, tails: np.ndarray, heads: np.ndarray, size: int, coef: np.ndarray, receivers=(), readouts=0):
        self.size = size
        # The readout arcs (size + receivers[w], w) follow the real ones with larger tails,
        # so the arcs stay sorted by tail.
        growth_tails = np.concatenate((tails, size + np.asarray(receivers, dtype=np.intp)))
        growth_heads = np.concatenate((heads, np.arange(len(receivers))))
        self.growth = _csr_rows(growth_tails, growth_heads, np.ones(len(growth_tails)), (size + readouts, size)).tocsc()
        self.decay = _csr_rows(tails, heads, coef, (size, size)).tocsc()

    def step(self, omega: np.ndarray, eta: np.ndarray, alpha, beta) -> tuple[np.ndarray, ...]:
        """From the step-t buffers: omega and eta of step t + 1, and the readouts (1 plus each row's sum) of step t."""
        sums = self.growth @ (omega * eta)
        omega_new = 1.0 / (1.0 + alpha + self.decay @ (1.0 - omega))
        return omega_new, 1.0 + beta + sums[: self.size], 1.0 + sums[self.size :]

    def fixed(self, omega: np.ndarray) -> scipy.sparse.csc_matrix:
        """The growth matrix with each entry multiplied by the fixed omega of its column."""
        indptr = self.growth.indptr
        scaled = np.repeat(omega, np.diff(indptr))
        return scipy.sparse.csc_matrix((scaled, self.growth.indices, indptr), shape=self.growth.shape)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality; unlike ==, it tells -0.0 from 0.0 and matches a NaN to itself."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _generalized_gather(d: Digraph, r: np.ndarray, s: np.ndarray) -> _ArcGather:
    tails, heads = d._ends
    return _ArcGather(tails, heads, d.node_count, r[tails] * s[heads])


def _driving(seq, size: int, name: str, nonnegative: bool = False, finite: bool = False) -> np.ndarray:
    arr = np.asarray(seq, dtype=np.float64)
    if arr.shape != (size,):
        raise ValueError(f"{name} must have one entry per digraph node")
    if nonnegative and not np.all(arr >= 0.0):
        raise ValueError(f"{name} must be nonnegative")
    if finite and not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class GeneralizedDynamicsState:
    """One step of the driven decay/growth recursion on a digraph.

    ``alpha`` and ``beta`` are constant arrays, checked once at the
    start, or callables of t, whose values are checked at every step:
    one entry per node, alpha nonnegative and beta finite.
    """

    d: Digraph
    omega: np.ndarray
    eta: np.ndarray
    alpha: DrivingSequence
    beta: DrivingSequence
    r: np.ndarray
    s: np.ndarray
    t: int = 0
    _last_alpha: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _gather: Optional[_ArcGather] = field(default=None, repr=False, compare=False)


def initial_generalized_state(
    d: Digraph,
    alpha: DrivingSequence,
    beta: DrivingSequence,
    r: Sequence[float],
    s: Sequence[float],
) -> GeneralizedDynamicsState:
    """Start the recursion at omega = eta = 1 and validate alpha and r = 1/s."""
    n = d.node_count
    if not callable(alpha):
        alpha = _driving(alpha, n, "alpha", nonnegative=True)
    if not callable(beta):
        beta = _driving(beta, n, "beta", finite=True)
    r_arr = np.asarray(r, dtype=np.float64)
    s_arr = np.asarray(s, dtype=np.float64)
    if r_arr.shape != (n,) or s_arr.shape != (n,):
        raise ValueError("r and s must have one entry per digraph node")
    # Each test states the good side, so a NaN fails it.
    if not (np.isfinite(r_arr).all() and np.isfinite(s_arr).all()):
        raise ValueError("r and s must be finite")
    if not (np.all(r_arr > 0.0) and np.all(s_arr > 0.0)):
        raise ValueError("r and s must be positive")
    if not np.all(np.abs(r_arr * s_arr - 1.0) <= RS_TOL):
        raise ValueError("scaling vectors must be reciprocal: r_v * s_v = 1")
    return GeneralizedDynamicsState(
        d=d,
        omega=np.ones(n),
        eta=np.ones(n),
        alpha=alpha,
        beta=beta,
        r=r_arr,
        s=s_arr,
        t=0,
        _last_alpha=None,
        _gather=_generalized_gather(d, r_arr, s_arr),
    )


def run_generalized(state: GeneralizedDynamicsState, steps: int) -> GeneralizedDynamicsState:
    """Apply ``steps`` updates.

    Under a constant alpha, once a step returns omega bitwise equal to its
    input, the later steps update eta alone through the growth rows with
    omega folded in (``_ArcGather.fixed``): the product, then the shift
    1 + beta added in place, the shift formed once at the fold for a
    constant beta.  The sum is that of a full step with its terms swapped,
    and IEEE addition commutes, so the result is bitwise that of full
    steps.  A callable alpha may change, so it always takes them.
    """
    gather = state._gather or _generalized_gather(state.d, state.r, state.s)
    alpha, beta = state.alpha, state.beta
    omega, eta, t, last_alpha = state.omega, state.eta, state.t, state._last_alpha
    folded = shift = None
    for _ in range(steps):
        alpha_t = alpha
        if callable(alpha):
            alpha_t = _driving(alpha(t), gather.size, "alpha(t)", nonnegative=True)
            if last_alpha is not None and np.any(alpha_t < last_alpha - ALPHA_MONOTONE_TOL):
                raise ValueError(f"alpha decreased at t={t}; the driving sequence must be non-decreasing")
        beta_t = _driving(beta(t), gather.size, f"beta(t) at t={t}", finite=True) if callable(beta) else beta
        if folded is not None:
            eta = folded @ eta
            eta += 1.0 + beta_t if shift is None else shift
        else:
            omega_new, eta, _ = gather.step(omega, eta, alpha_t, beta_t)
            # Under a constant alpha omega_{t+1} is a function of omega_t
            # alone, so once it repeats bit for bit it never changes again.
            if not callable(alpha) and _same_bits(omega_new, omega):
                folded = gather.fixed(omega)
                shift = None if callable(beta) else 1.0 + beta
            omega = omega_new
        last_alpha = alpha_t
        t += 1
    return replace(state, omega=omega, eta=eta, t=t, _last_alpha=last_alpha, _gather=gather)


def check_convergence_hypothesis(d: Digraph, alpha_support: Iterable[int]) -> frozenset[int]:
    """Nodes of nontrivial strongly connected components that cannot reach the support.

    An empty result means the structural convergence hypothesis holds:
    from every node of every nontrivial strongly connected component
    some node with a nonzero driving sequence is reachable.

    One strong-component labelling answers it, on d plus a hub node h
    with an arc s -> h from every support node s and an arc h -> v to
    every node v.  A node reaches the support exactly when it shares h's
    component: a shortest path into h enters it from a support node, and
    h reaches every node.  A node that cannot reach the support cannot
    reach h either, so it keeps the component it has in d.
    """
    n = d.node_count
    support = np.array(sorted({int(v) for v in alpha_support}), dtype=np.intp)
    outside = support[(support < 0) | (support >= n)]
    if len(outside):
        raise ValueError(f"support node {outside[0]} outside range")
    tails, heads = d._ends
    rows = np.concatenate((tails, support, np.full(n, n)))
    cols = np.concatenate((heads, np.full(len(support), n), np.arange(n)))
    order = np.argsort(rows, kind="stable")
    hub = _csr_rows(rows[order], cols[order], np.ones(len(rows)), (n + 1, n + 1))
    labels, nontrivial = _strong_components(hub)
    return frozenset(np.flatnonzero(nontrivial[:n] & (labels[:n] != labels[n])).tolist())


def spectral_radius_diagnostic(d: Digraph, omega: Sequence[float]) -> float:
    """Spectral radius of (adjacency matrix) * diag(omega), by power iteration.

    The iteration runs on the matrix plus the identity, which leaves the
    radius shifted by exactly one but makes it converge on periodic
    structures such as directed cycles.  Each product is one gather
    over the arcs; no dense matrix is formed.  A digraph without a cycle
    has radius 0, returned directly: there the shifted matrix is a
    nontrivial Jordan block for eigenvalue 1 and the iteration stalls.
    """
    n = d.node_count
    w = np.asarray(omega, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError("omega must have one entry per digraph node")
    if not np.all((w > 0.0) & (w <= 1.0)):
        raise ValueError("omega entries must lie in (0, 1]")
    tails, heads = d._ends
    adjacency = _csr_rows(tails, heads, np.ones(len(tails)), (n, n))
    if not _strong_components(adjacency)[1].any():
        return 0.0
    # The products gather by columns, like the arc-gather kernel.
    adjacency = adjacency.tocsc()

    x = np.ones(n) / np.sqrt(n)
    y = x + adjacency @ (w * x)
    estimate = 0.0
    for _ in range(SPECTRAL_MAX_ITER):
        x = y / float(np.linalg.norm(y))
        y = x + adjacency @ (w * x)
        estimate = float(x @ y)
        if float(np.linalg.norm(y - estimate * x)) <= SPECTRAL_TOL:
            return max(estimate - 1.0, 0.0)
    raise ArithmeticError(
        f"power iteration did not converge in {SPECTRAL_MAX_ITER} steps; last estimate {estimate - 1.0:.6e}"
    )


def _fractional_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks from 1; tied values share the mean of the ranks they span.

    Sorted neighbors within TIE_RTOL of each other are tied, so a chain of
    them forms one tie group.
    """
    order = np.argsort(x, kind="stable")
    s = x[order]
    # Each tie group of sorted values spans positions start .. end - 1.
    scale = np.maximum(np.abs(s[1:]), np.abs(s[:-1]))
    bounds = np.flatnonzero(s[1:] - s[:-1] > TIE_RTOL * scale) + 1
    start = np.concatenate(([0], bounds))
    end = np.concatenate((bounds, [len(x)]))
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(0.5 * (start + end - 1) + 1.0, end - start)
    return ranks


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Rank-order correlation: Pearson correlation of fractional ranks.

    Ties, values within TIE_RTOL of each other, receive the average of the
    ranks they span.  Raises on a NaN or infinite input, and if either
    input has no rank variance (the coefficient is undefined).
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    if len(x) < 2:
        raise ValueError("need at least two observations")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("inputs must be finite")
    rx = _fractional_ranks(x)
    ry = _fractional_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    vx = float(rx @ rx)
    vy = float(ry @ ry)
    if vx == 0.0 or vy == 0.0:
        raise ValueError("rank variance is zero; coefficient undefined")
    return float((rx @ ry) / np.sqrt(vx * vy))

