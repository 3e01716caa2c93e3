"""Message passing one synchronous step at a time: the test oracle for ``run_mpa``.

Its arithmetic shares no code with the package's gather kernel.
``message_recursion`` reads the coefficients of the message updates off
the trusts by dictionary lookups; ``mpa_step`` takes one step of
``shared.bincount_steps`` on them, and ``influence_estimates`` reads the
estimates by one ``np.bincount`` over the receivers.  Both refuse weights
as the package does: a state's kernel is built anew, and so checked, for
weights it was not built for.  ``stepped_run`` runs ``bincount_steps`` as
``run_mpa`` would and keeps every row and residual; ``error_rows`` forms
``error_trace`` from those rows.  ``node_influence_estimate`` reads one
node's estimate by a plain loop over its incoming messages.
"""

import numpy as np

from harmonic_influence import mpa
from harmonic_influence.graphs import _read_only, message_digraph
from shared import bincount_steps


def message_recursion(md, weights):
    """The message updates as the decay/growth recursion of ``bincount_steps``:
    its digraph, coefficient function and alpha.

    Message (j, i) depends on the messages (i, k), k != j, with coefficient
    trust[(i, k)] / trust[(i, j)], and is driven by q_i / trust[(i, j)].
    """
    trust = dict(zip(md.arc_nodes, weights.arc_trust))  # trust[(j, i)]: how much j trusts i
    sender_trust = np.array([trust[(i, j)] for j, i in md.arc_nodes])
    receiver_trust = np.array([trust[(j, i)] for j, i in md.arc_nodes])
    alpha = weights.field_trust[md.senders()] / sender_trust
    return md.to_digraph(), lambda a, b: receiver_trust[b] / sender_trust[a], alpha


def _kernel_for(state, weights):
    """The state's kernel if it was built for these weights, else a new one, which checks them."""
    kernel = state._kernel
    return kernel if kernel is not None and kernel.weights is weights else mpa._Kernel(state.md, weights)


def estimates(md, w_msgs, h_msgs):
    """1 + sum_i w_ji * h_ji at every node j, summed in ascending message order."""
    return 1.0 + np.bincount(md.receivers(), weights=w_msgs * h_msgs, minlength=md.base.node_count)


def mpa_step(state, weights):
    """One synchronous update of every message."""
    kernel = _kernel_for(state, weights)
    d, coef, alpha = message_recursion(state.md, weights)
    w_new, h_new = next(bincount_steps(d, coef, alpha, 0.0, 1, start=(state.w_msgs, state.h_msgs)))
    return mpa.MessageState(md=state.md, w_msgs=_read_only(w_new), h_msgs=_read_only(h_new), t=state.t + 1,
                            _kernel=kernel)


def influence_estimates(state, weights):
    """Influence estimates of all nodes at the current step."""
    _kernel_for(state, weights)
    return estimates(state.md, state.w_msgs, state.h_msgs)


def node_influence_estimate(state, node):
    """Influence estimate a node can form from its incoming messages, by a loop over them."""
    # Its incoming messages are CSR row node, ascending in the sender.
    lo, hi = state.md.base._csr.indptr[node : node + 2]
    acc = 0.0
    for p in range(lo, hi):
        acc += state.w_msgs[p] * state.h_msgs[p]
    return 1.0 + acc


def stepped_run(g, weights, tol, max_iter):
    """run_mpa as a plain loop of ``bincount_steps``, with ``estimates`` read at every step.

    Returns the w rows and the estimate rows of steps 0 .. T, each stacked
    into one array, and the residuals of steps 1 .. T: the 1-norm of the w
    change plus that of the estimate change.  The run stops at the first
    residual within ``tol`` or at step ``max_iter``.
    """
    md = message_digraph(g)
    w = np.ones(md.size)
    w_rows, est_rows, residuals = [w], [estimates(md, w, w)], []
    for w, h in bincount_steps(*message_recursion(md, weights), 0.0, max_iter):
        est = estimates(md, w, h)
        residuals.append(float(np.abs(w - w_rows[-1]).sum() + np.abs(est - est_rows[-1]).sum()))
        w_rows.append(w)
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
