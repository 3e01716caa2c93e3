"""Builders and oracles that several test modules use, each defined once.

Graph builders: ``path_graph``, ``cycle_graph``, ``random_connected``
(the first connected G(n, p) of a seed sequence), ``random_tree`` and
the hypothesis strategy ``connected_networks``.  Oracles: ``same_bits``,
the reachability ``closure`` of a digraph and the convergence-hypothesis
verdict read off it (``brute_force_violations``), and ``bincount_steps``,
the decay/growth recursion as plain per-arc gathers, which shares no code
with the package's kernel.
"""

import numpy as np
from hypothesis import strategies as st

from harmonic_influence.electrical import ConductanceNetwork
from harmonic_influence.graphs import UndirectedGraph, erdos_renyi, is_connected, spanning_tree

GAMMA = 0.04


def path_graph(n):
    return UndirectedGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n):
    return UndirectedGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def random_connected(n, p, seed, step=1):
    """G(n, p) at ``seed``, or at the first connected one of seed + step, seed + 2 step, ..."""
    g = erdos_renyi(n, p, seed)
    while not is_connected(g):
        seed += step
        g = erdos_renyi(n, p, seed)
    return g


def random_tree(n, seed):
    return spanning_tree(random_connected(n, min(1.0, 4.0 / n), seed), seed)


conductances = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def connected_networks(draw, max_nodes=14):
    """A connected graph (a random tree plus extra edges), listed in drawn
    order and direction, with drawn edge conductances in the order of
    ``g.edges`` and drawn field conductances; fields may be zero except at
    one node."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    tree = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True))
    edges = draw(st.permutations(sorted(set(tree) | set(extra))))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    fields = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0))
    gamma = draw(st.lists(fields, min_size=n, max_size=n))
    gamma[draw(st.integers(min_value=0, max_value=n - 1))] = draw(conductances)
    g = UndirectedGraph(n, tuple(edges))
    cond = draw(st.lists(conductances, min_size=g.edge_count, max_size=g.edge_count))
    return ConductanceNetwork(g, np.array(cond), np.array(gamma))


def same_bits(a, b):
    """Equal dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def closure(d):
    """reach[v, w]: w is reachable from v by a directed path of length >= 0."""
    reach = np.eye(d.node_count, dtype=bool)
    for v, w in d.arcs:
        reach[v, w] = True
    for k in range(d.node_count):
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    return reach


def brute_force_violations(d, support):
    """Nodes on a cycle or with a self-loop that reach no support node."""
    n = d.node_count
    reach = closure(d)
    arcset = set(d.arcs)
    out = set()
    for v in range(n):
        in_cycle = any(reach[v, w] and reach[w, v] for w in range(n) if w != v)
        if not (in_cycle or (v, v) in arcset):
            continue
        if not any(reach[v, w] for w in support):
            out.add(v)
    return frozenset(out)


def bincount_steps(d, coef, alpha, beta, steps, start=None):
    """The decay/growth recursion as per-arc bincount gathers, in arc order:
    (omega, eta) of the ``steps`` steps after ``start``, a pair of arrays
    that defaults to omega = eta = 1.

    ``coef(tails, heads)`` gives the decay coefficient of each arc from the
    arrays of its ends; ``beta`` is an array or a function of the step.
    """
    n = d.node_count
    arc_from = np.array([v for v, _ in d.arcs], dtype=np.intp)
    arc_to = np.array([w for _, w in d.arcs], dtype=np.intp)
    scale = coef(arc_from, arc_to)
    omega, eta = (np.ones(n), np.ones(n)) if start is None else start
    for t in range(steps):
        beta_t = beta(t) if callable(beta) else beta
        contrib = np.bincount(arc_from, weights=scale * (1.0 - omega)[arc_to], minlength=n)
        omega, eta = (
            1.0 / (1.0 + alpha + contrib),
            1.0 + beta_t + np.bincount(arc_from, weights=(omega * eta)[arc_to], minlength=n),
        )
        yield omega, eta
