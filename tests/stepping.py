"""Message passing one synchronous step at a time: the test oracle for ``run_mpa``.

``mpa_step`` updates every message once and ``influence_estimates`` reads
the estimates of a state, both on the package's own gather kernel.
``stepped_run`` loops them as ``run_mpa`` would and keeps every row and
residual; ``error_rows`` forms ``error_trace`` from those rows.
``node_influence_estimate`` reads one node's estimate by a plain loop over
its incoming messages.
"""

import numpy as np

from harmonic_influence import mpa
from harmonic_influence.graphs import _read_only, message_digraph


def _kernel_for(state, weights):
    """The state's kernel if it was built for these weights, else a new one."""
    kernel = state._kernel
    return kernel if kernel is not None and kernel.weights is weights else mpa._Kernel(state.md, weights)


def mpa_step(state, weights):
    """One synchronous update of every message."""
    kernel = _kernel_for(state, weights)
    w_new, h_new, _ = map(_read_only, kernel.gather.step(state.w_msgs, state.h_msgs, kernel.alpha, 0.0))
    return mpa.MessageState(md=state.md, w_msgs=w_new, h_msgs=h_new, t=state.t + 1, _kernel=kernel)


def influence_estimates(state, weights):
    """Influence estimates of all nodes at the current step: the readouts of one step taken from it."""
    kernel = _kernel_for(state, weights)
    return kernel.gather.step(state.w_msgs, state.h_msgs, kernel.alpha, 0.0)[2]


def node_influence_estimate(state, node):
    """Influence estimate a node can form from its incoming messages, by a loop over them."""
    # Its incoming messages are CSR row node, ascending in the sender.
    lo, hi = state.md.base._csr.indptr[node : node + 2]
    acc = 0.0
    for p in range(lo, hi):
        acc += state.w_msgs[p] * state.h_msgs[p]
    return 1.0 + acc


def stepped_run(g, weights, tol, max_iter):
    """run_mpa as a plain loop of full steps, each one ``mpa_step`` and ``influence_estimates``.

    Returns the w rows and the estimate rows of steps 0 .. T, each stacked
    into one array, and the residuals of steps 1 .. T: the 1-norm of the w
    change plus that of the estimate change.  The run stops at the first
    residual within ``tol`` or at step ``max_iter``.
    """
    state = mpa.initial_messages(message_digraph(g), weights)
    est = influence_estimates(state, weights)
    w_rows, est_rows, residuals = [state.w_msgs], [est], []
    while state.t < max_iter:
        nxt = mpa_step(state, weights)
        est_new = influence_estimates(nxt, weights)
        residuals.append(float(np.abs(nxt.w_msgs - state.w_msgs).sum() + np.abs(est_new - est).sum()))
        state, est = nxt, est_new
        w_rows.append(state.w_msgs)
        est_rows.append(est)
        if residuals[-1] <= tol:
            break
    return np.array(w_rows), np.array(est_rows), np.array(residuals)


def error_rows(w_rows, est_rows):
    """``error_trace`` by a loop over the rows of a stepped run: row t holds
    the 1-norm distances of step t's estimates and w to the last step's."""
    errors = [[np.abs(e - est_rows[-1]).sum(), np.abs(w - w_rows[-1]).sum()]
              for w, e in zip(w_rows[:-1], est_rows[:-1])]
    return np.array(errors)
