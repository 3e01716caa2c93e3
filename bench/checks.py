"""Correctness oracles and checks for the benchmark's outputs.

The oracles do not use the package: exact influence comes from the
benchmark's own NumPy/SciPy solves of the grounded matrix
M = L + diag(gamma) (unit edge conductances), and the message passing
fixed point from its own sparse solve of (I - A diag(w)) h = 1 on the
message dependency digraph.  Every check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl

TREE_RTOL = 1e-9          # trees: estimate equals exact influence
ONE_SIDED_SLACK = 1e-12   # cyclic graphs: estimate >= exact * (1 - slack)
EXACT_RTOL = 1e-9         # the program's exact influence against the oracle
FIXED_POINT_RTOL = 1e-8   # estimates against the fixed point at the returned w
MAX_REPORTED = 3


def grounded_matrix(n: int, edges: np.ndarray, gamma: float, sparse: bool = False):
    """M = L + diag(gamma) of the unit-conductance graph on nodes 0..n-1."""
    u, v = edges[:, 0], edges[:, 1]
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    rows = np.concatenate([u, v, np.arange(n)])
    cols = np.concatenate([v, u, np.arange(n)])
    vals = np.concatenate([-np.ones(2 * len(u)), deg + gamma])
    m = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
    return m if sparse else m.toarray()


def reference_influence(n: int, edges: np.ndarray, gamma: float, leaders, sparse: bool = False) -> np.ndarray:
    """H(l) for each leader l: one grounded solve with l held at potential 1."""
    m = grounded_matrix(n, edges, gamma, sparse=sparse)
    out = []
    for leader in leaders:
        keep = np.flatnonzero(np.arange(n) != leader)
        if sparse:
            rhs = -m[keep, :][:, [leader]].toarray().ravel()
            y = spl.spsolve(m[keep, :][:, keep], rhs)
        else:
            y = np.linalg.solve(m[np.ix_(keep, keep)], -m[keep, leader])
        out.append(1.0 + float(np.sum(y)))
    return np.array(out)


def closed_form_influence(n: int, edges: np.ndarray, gamma: float) -> np.ndarray:
    """H for every node at once: H(l) = (M^-1 1)_l / (M^-1)_ll."""
    inv = np.linalg.inv(grounded_matrix(n, edges, gamma))
    return inv.sum(axis=1) / np.diag(inv)


def message_system(n: int, edges: np.ndarray):
    """Messages (receiver j, sender i) in lexicographic order, and their dependency arcs.

    Message (j, i) is computed from every (i, k) with k != j.  Returns
    (receivers, senders, arc_from, arc_to).
    """
    recv = np.concatenate([edges[:, 1], edges[:, 0]])
    send = np.concatenate([edges[:, 0], edges[:, 1]])
    order = np.lexsort((send, recv))
    recv, send = recv[order], send[order]
    first = np.searchsorted(recv, np.arange(n + 1))      # (i, *) occupy first[i]:first[i+1]
    fan = first[send + 1] - first[send]
    arc_from = np.repeat(np.arange(len(recv)), fan)
    offsets = np.arange(len(arc_from)) - np.repeat(np.cumsum(fan) - fan, fan)
    arc_to = first[send][arc_from] + offsets
    keep = send[arc_to] != recv[arc_from]
    return recv, send, arc_from[keep], arc_to[keep]


def fixed_point_estimates(n: int, edges: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Influence estimates at the fixed point of the h messages for potentials w."""
    recv, _send, arc_from, arc_to = message_system(n, edges)
    size = len(recv)
    a = sp.csr_matrix((w[arc_to], (arc_from, arc_to)), shape=(size, size))
    system = (sp.identity(size, format="csr") - a).tocsr()
    ones = np.ones(size)
    h, info = spl.gmres(system, ones, rtol=1e-13, atol=0.0, restart=200, maxiter=1000)
    residual = float(np.abs(system @ h - ones).max())
    problems = []
    if info != 0 or residual > 1e-9:
        problems.append(f"fixed-point oracle did not converge (info={info}, residual={residual:.2e})")
    return 1.0 + np.bincount(recv, weights=w * h, minlength=n), problems


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _where(mask: np.ndarray) -> str:
    idx = np.flatnonzero(mask)
    shown = ", ".join(str(i) for i in idx[:MAX_REPORTED])
    return f"{len(idx)} entries (first: {shown})"


def check_influence(estimate: np.ndarray, exact: np.ndarray, tree: bool, what: str) -> list[str]:
    """Trees: estimate equals exact; cyclic graphs: estimate is an upper bound."""
    est = np.asarray(estimate, dtype=np.float64)
    ref = np.asarray(exact, dtype=np.float64)
    if est.shape != ref.shape:
        return [f"{what}: {est.shape[0] if est.ndim else 0} estimates for {ref.shape[0]} nodes"]
    if tree:
        bad = ~(np.abs(est - ref) <= TREE_RTOL * ref)
        rule = f"|estimate - exact| > {TREE_RTOL:g} * exact on a tree"
    else:
        bad = ~(est >= ref * (1.0 - ONE_SIDED_SLACK))
        rule = "estimate below exact influence"
    return [f"{what}: {rule} at {_where(bad)}"] if bad.any() else []


def check_close(actual, expected, rtol: float, what: str) -> list[str]:
    a = np.asarray(actual, dtype=np.float64)
    e = np.asarray(expected, dtype=np.float64)
    if a.shape != e.shape:
        return [f"{what}: shape {a.shape} != {e.shape}"]
    bad = ~(np.abs(a - e) <= rtol * np.abs(e))
    return [f"{what}: off by more than {rtol:g} relative at {_where(bad)}"] if bad.any() else []


def check_potentials(w: np.ndarray, what: str) -> list[str]:
    """Potential messages must lie in (0, 1]."""
    arr = np.asarray(w, dtype=np.float64)
    bad = ~((arr > 0.0) & (arr <= 1.0))
    return [f"{what}: potential outside (0, 1] at {_where(bad)}"] if bad.any() else []
