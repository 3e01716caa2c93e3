"""End-to-end experiment pipeline on nested random graphs.

Generates an Erdos-Renyi graph, extracts a spanning tree, reintroduces
a few of the removed edges, and on each of the three nested graphs
compares the exact harmonic influence (grounded Laplacian solves)
against the message passing estimate: convergence traces, scatter
pairs, rank correlation.  Also owns the edge-list file format, the
plot-ready CSV/JSON report files and the one CSV formatter, the CLI's too.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import analysis, electrical, mpa
from .electrical import ConductanceNetwork, build_weights, uniform_network
from .graphs import (
    UndirectedGraph,
    add_extra_edges,
    diameter,
    erdos_renyi,
    is_connected,
    spanning_tree,
)

NEGLIGIBLE_ERROR = 1e-8
TRACE_THIN_START = 10**4
TRACE_THIN_STRIDE = 10
_TREE_SEED_OFFSET = 10_007
_EXTRA_SEED_OFFSET = 20_011
GRAPH_NAMES = ("spanning_tree", "few_extra_edges", "erdos_renyi")


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 50
    p: float = 0.1
    extra_edges: int = 10
    gamma: float = 0.04
    seed: int = 0
    tol: float = mpa.DEFAULT_TOL
    max_iter: int = mpa.DEFAULT_MAX_ITER
    outputs: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.extra_edges < 0:
            raise ValueError("extra_edges must be nonnegative")
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive: every node trusts the field")
        if not self.tol >= 0.0:
            raise ValueError("tol must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass(frozen=True)
class GraphRunReport:
    """Exact-versus-estimate comparison on one graph of the pipeline."""

    name: str
    edge_count: int
    diameter: int
    iterations: int
    converged: bool
    final_residual: float
    spearman_h: float           # NaN when the coefficient is undefined
    max_h_ratio: float
    h_negligible_iter: Optional[int]
    w_negligible_iter: Optional[int]
    h_exact: np.ndarray
    h_estimates: np.ndarray
    w_exact: np.ndarray
    w_limits: np.ndarray
    arc_nodes: tuple[tuple[int, int], ...]
    errors: np.ndarray          # mpa.error_trace: row t holds the h and w errors of step t


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    er_seed_used: int
    graphs: dict[str, GraphRunReport]


def _run_one_graph(name: str, g: UndirectedGraph, cfg: ExperimentConfig) -> GraphRunReport:
    net = uniform_network(g, cfg.gamma)
    weights = build_weights(net)
    # The network factors M once; both exact calls read that one result.
    h_exact = electrical.harmonic_influence_exact(net)
    result = mpa.run_mpa(g, weights, tol=cfg.tol, max_iter=cfg.max_iter, trace=True)
    w_exact = electrical.exact_message_potentials(net, result.md)
    errors = mpa.error_trace(result)
    try:
        rho = analysis.spearman(h_exact, result.h_estimates)
    except ValueError:
        rho = math.nan
    hits = [np.flatnonzero(col <= NEGLIGIBLE_ERROR) for col in errors.T]
    h_negligible, w_negligible = (int(h[0]) if h.size else None for h in hits)
    return GraphRunReport(
        name=name,
        edge_count=g.edge_count,
        diameter=diameter(g),
        iterations=result.iterations,
        converged=result.converged,
        final_residual=result.final_residual,
        spearman_h=rho,
        max_h_ratio=float(np.max(result.h_estimates / h_exact)),
        h_negligible_iter=h_negligible,
        w_negligible_iter=w_negligible,
        h_exact=h_exact,
        h_estimates=result.h_estimates,
        w_exact=w_exact,
        w_limits=result.w_limits,
        arc_nodes=result.md.arc_nodes,
        errors=errors,
    )


def generate_graphs(cfg: ExperimentConfig) -> tuple[dict[str, UndirectedGraph], int]:
    """The three nested graphs, plus the Erdos-Renyi seed that produced a connected one."""
    er_seed = cfg.seed
    for _ in range(100):
        g_er = erdos_renyi(cfg.n, cfg.p, er_seed)
        if is_connected(g_er):
            break
        er_seed += 1
    else:
        raise RuntimeError(
            f"no connected Erdos-Renyi graph found in 100 attempts from seed {cfg.seed}"
        )
    g_st = spanning_tree(g_er, cfg.seed + _TREE_SEED_OFFSET)
    g_fe = add_extra_edges(g_st, g_er, cfg.extra_edges, cfg.seed + _EXTRA_SEED_OFFSET)
    return dict(zip(GRAPH_NAMES, (g_st, g_fe, g_er))), er_seed


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Full pipeline; writes report files when the config names an output directory."""
    graphs, er_seed = generate_graphs(cfg)
    runs = {name: _run_one_graph(name, g, cfg) for name, g in graphs.items()}
    report = ExperimentReport(config=cfg, er_seed_used=er_seed, graphs=runs)
    if cfg.outputs is not None:
        save_report(report, cfg.outputs)
    return report


# ---------------------------------------------------------------------------
# Edge-list file format
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphFile:
    """Parsed edge-list file: graph, edge conductances in the order of ``graph.edges``, field conductances."""

    graph: UndirectedGraph
    edge_conductance: np.ndarray
    field_conductance: np.ndarray

    def network(self, fallback_gamma: Optional[float] = None) -> ConductanceNetwork:
        """Build the electrical network, defaulting the field coupling if absent."""
        gamma = self.field_conductance
        if not gamma.any():  # a negative entry is the network's to reject
            if fallback_gamma is None:
                raise ValueError("file has no field edges and no fallback gamma given")
            gamma = np.full(self.graph.node_count, float(fallback_gamma))
        return ConductanceNetwork(graph=self.graph, edge_conductance=self.edge_conductance, field_conductance=gamma)


def save_graph(
    path: Path | str,
    graph: UndirectedGraph,
    edge_conductance: Optional[np.ndarray] = None,
    field_conductance: Optional[np.ndarray] = None,
) -> None:
    """Write the edge-list format; see load_graph for the grammar.  ``edge_conductance``,
    in the order of ``graph.edges``, is checked as a network checks it."""
    lines = [f"n {graph.node_count}"]
    if edge_conductance is None:
        lines += (f"{u} {v}" for u, v in graph.edges)
    else:
        # tolist gives Python floats, whose repr is the shortest text that reads back the same
        values = electrical._checked_edge_conductance(graph, edge_conductance).tolist()
        lines += (f"{u} {v} {c!r}" for (u, v), c in zip(graph.edges, values))
    if field_conductance is not None:
        for i, c in enumerate(field_conductance):
            if c > 0.0:
                lines.append(f"{i} f {float(c)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_graph(path: Path | str) -> GraphFile:
    """Parse an edge-list file.

    Grammar, one entry per line: ``n <count>`` (optional, at most once,
    declares the node count), ``u v`` (edge with conductance 1), ``u v <c>``
    (edge with conductance c), ``u f <c>`` (field conductance c >= 0 of node
    u; the lines of one node add up).  Node ids and the count are plain
    digits 0-9.  ``#`` starts a comment; blank lines are ignored.  Without an
    ``n`` line the node count is the largest mentioned id plus one.  The edges
    may come in any order, either end first; the conductances are returned
    in the order of ``graph.edges``.
    """
    declared_n: Optional[int] = None
    edges: dict[tuple[int, int], float] = {}
    field: dict[int, float] = {}
    max_node = -1

    def parse_node(tok: str, lineno: int) -> int:
        nonlocal max_node
        if not tok.isdigit():  # int() also reads "+1" and "1_0"; the text is ASCII, so these are 0-9
            raise ValueError(f"{path}:{lineno}: expected a node id of digits 0-9, got {tok!r}")
        v = int(tok)
        max_node = max(max_node, v)
        return v

    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        # The bytes before the first bad one are ASCII; number its line as splitlines would.
        lineno = len((exc.object[: exc.start].decode("ascii") + "?").splitlines())
        raise ValueError(f"{path}:{lineno}: expected ASCII text, got byte {exc.object[exc.start]:#04x}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ValueError(f"{path}:{lineno}: malformed node-count line {raw!r}")
            if declared_n is not None:
                raise ValueError(f"{path}:{lineno}: second node-count line {raw!r}")
            declared_n = int(tokens[1])
            continue
        if len(tokens) not in (2, 3):
            raise ValueError(f"{path}:{lineno}: malformed line {raw!r}")
        try:
            cond = float(tokens[2]) if len(tokens) == 3 else 1.0
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed conductance in {raw!r}") from None
        if not math.isfinite(cond):
            raise ValueError(f"{path}:{lineno}: conductance must be finite, got {tokens[2]!r}")
        if tokens[1] == "f":
            if cond < 0.0:
                raise ValueError(f"{path}:{lineno}: field conductance must be nonnegative, got {tokens[2]!r}")
            u = parse_node(tokens[0], lineno)
            field[u] = field.get(u, 0.0) + cond
            continue
        if tokens[0] == "f":
            raise ValueError(f"{path}:{lineno}: field lines must name the node first")
        u = parse_node(tokens[0], lineno)
        v = parse_node(tokens[1], lineno)
        if u == v:
            raise ValueError(f"{path}:{lineno}: self-loop {u}-{v}")
        key = (u, v) if u < v else (v, u)
        if key in edges:
            raise ValueError(f"{path}:{lineno}: duplicate edge {u}-{v}")
        edges[key] = cond

    n = declared_n if declared_n is not None else max_node + 1
    if n < 1:
        raise ValueError(f"{path}: no nodes declared")
    if max_node >= n:
        raise ValueError(f"{path}: node id {max_node} exceeds declared count {n}")
    graph = UndirectedGraph(n, tuple(edges))
    # The file order is not the sorted order of graph.edges.
    cond = np.fromiter(map(edges.__getitem__, graph.edges), dtype=np.float64, count=graph.edge_count)
    gamma = np.zeros(n)
    for i, c in field.items():
        gamma[i] = c
    return GraphFile(graph=graph, edge_conductance=cond, field_conductance=gamma)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def _csv_text(header: str, *columns) -> str:
    """A header, then one comma-joined row per entry of the columns; one ``%`` fills every row, and ``%s`` of a float is its repr."""
    columns = [np.asarray(c).tolist() for c in columns]
    rows = ("\n" + ",".join(["%s"] * len(columns))) * len(columns[0])
    return header + rows % tuple(x for row in zip(*columns) for x in row) + "\n"


def _write_trace_csv(path: Path, errors: np.ndarray) -> None:
    t = np.arange(len(errors))
    keep = (t <= TRACE_THIN_START) | (t % TRACE_THIN_STRIDE == 0)
    header = f"# rows beyond t={TRACE_THIN_START} keep every {TRACE_THIN_STRIDE}th step\nt,h_err_l1,w_err_l1"
    path.write_text(_csv_text(header, t[keep], errors[keep, 0], errors[keep, 1]), encoding="ascii")


def save_report(report: ExperimentReport, out_dir: Path | str) -> None:
    """Write report.json plus per-graph trace and scatter CSV files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "config": {k: v for k, v in asdict(report.config).items() if k != "outputs"},
        "er_seed_used": report.er_seed_used,
        "graphs": {},
    }
    for name, run in report.graphs.items():
        summary["graphs"][name] = {
            "edge_count": run.edge_count,
            "diameter": run.diameter,
            "iterations": run.iterations,
            "converged": run.converged,
            "final_residual": run.final_residual,
            "spearman_h": None if math.isnan(run.spearman_h) else run.spearman_h,
            "max_h_ratio": run.max_h_ratio,
            "h_negligible_iter": run.h_negligible_iter,
            "w_negligible_iter": run.w_negligible_iter,
        }
        _write_trace_csv(out / f"{name}_trace.csv", run.errors)
        scatter_h = _csv_text("node,exact,approx", np.arange(len(run.h_exact)), run.h_exact, run.h_estimates)
        (out / f"{name}_scatter_h.csv").write_text(scatter_h, encoding="ascii")
        scatter_w = _csv_text("arc,exact,approx", [f"{i}->{j}" for j, i in run.arc_nodes], run.w_exact, run.w_limits)
        (out / f"{name}_scatter_w.csv").write_text(scatter_w, encoding="ascii")
    (out / "report.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="ascii"
    )
