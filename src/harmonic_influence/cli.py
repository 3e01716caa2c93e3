"""Command line front end.

Subcommands: ``generate`` (emit the three nested graphs), ``exact``
(grounded-Laplacian influence for a graph file), ``mpa`` (message
passing run with traces), ``experiment`` (full pipeline), ``check``
(structural convergence verdict for a graph's message digraph).

Exit codes: 0 success, 1 input error, 2 non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import analysis, mpa
from .electrical import build_weights, harmonic_influence_exact
from .experiment import (
    ExperimentConfig,
    generate_graphs,
    load_graph,
    run_experiment,
    save_graph,
)
from .graphs import message_digraph

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; reserve 2 for non-convergence.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


def _add_pipeline_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=50, help="number of nodes")
    p.add_argument("--p", type=float, default=0.1, help="edge probability")
    p.add_argument("--extra-edges", type=int, default=10, help="edges added back to the tree")
    p.add_argument("--gamma", type=float, default=0.04, help="field conductance of every node")
    p.add_argument("--seed", type=int, default=0, help="random seed")


def _add_mpa_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-10, help="stopping tolerance (combined 1-norm)")
    p.add_argument("--max-iter", type=int, default=10**5, help="step limit")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="harmonic-influence", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="emit the three nested graphs")
    _add_pipeline_args(p_gen)
    p_gen.add_argument("--out", type=Path, required=True, help="output directory")

    p_exact = sub.add_parser("exact", help="exact influence of every node")
    p_exact.add_argument("graph", type=Path, help="edge-list file")
    p_exact.add_argument("--gamma", type=float, default=0.04,
                         help="field conductance when the file declares none")
    p_exact.add_argument("--out", type=Path, default=None, help="CSV output (default stdout)")

    p_mpa = sub.add_parser("mpa", help="message passing estimate with traces")
    p_mpa.add_argument("graph", type=Path, help="edge-list file")
    p_mpa.add_argument("--gamma", type=float, default=0.04,
                       help="field conductance when the file declares none")
    _add_mpa_args(p_mpa)
    p_mpa.add_argument("--out", type=Path, required=True, help="output directory")

    p_exp = sub.add_parser("experiment", help="full pipeline with report files")
    _add_pipeline_args(p_exp)
    _add_mpa_args(p_exp)
    p_exp.add_argument("--out", type=Path, required=True, help="output directory")

    p_check = sub.add_parser("check",
                             help="structural convergence verdict for the message digraph")
    p_check.add_argument("graph", type=Path, help="edge-list file")
    p_check.add_argument("--gamma", type=float, default=0.04,
                         help="field conductance when the file declares none")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(n=args.n, p=args.p, extra_edges=args.extra_edges,
                           gamma=args.gamma, seed=args.seed)
    graphs, er_seed = generate_graphs(cfg)
    args.out.mkdir(parents=True, exist_ok=True)
    gamma = np.full(cfg.n, cfg.gamma)
    for name, g in graphs.items():
        path = args.out / f"{name}.edges"
        save_graph(path, g, edge_conductance={e: 1.0 for e in g.edges}, field_conductance=gamma)
        print(f"{name}: {g.node_count} nodes, {g.edge_count} edges -> {path}")
    print(f"erdos_renyi seed used: {er_seed}")
    return EXIT_OK


def _cmd_exact(args: argparse.Namespace) -> int:
    gf = load_graph(args.graph)
    net = gf.network(fallback_gamma=args.gamma)
    influence = harmonic_influence_exact(net)
    lines = ["node,influence"]
    lines += [f"{i},{float(v)!r}" for i, v in enumerate(influence)]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="ascii")
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_mpa(args: argparse.Namespace) -> int:
    gf = load_graph(args.graph)
    net = gf.network(fallback_gamma=args.gamma)
    weights = build_weights(net)
    result = mpa.run_mpa(net.graph, weights, tol=args.tol, max_iter=args.max_iter, trace=True)
    args.out.mkdir(parents=True, exist_ok=True)
    est_lines = ["node,estimate"]
    est_lines += [f"{i},{float(v)!r}" for i, v in enumerate(result.h_estimates)]
    (args.out / "estimates.csv").write_text("\n".join(est_lines) + "\n", encoding="ascii")
    trace_lines = ["t,h_err_l1,w_err_l1"]
    trace_lines += [f"{t},{h!r},{w!r}" for t, h, w in mpa.error_trace(result)]
    (args.out / "trace.csv").write_text("\n".join(trace_lines) + "\n", encoding="ascii")
    print(f"iterations: {result.iterations}  converged: {result.converged}  "
          f"final residual: {result.final_residual:.3e}")
    if not result.converged:
        print("warning: tolerance not reached within max-iter", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(n=args.n, p=args.p, extra_edges=args.extra_edges,
                           gamma=args.gamma, seed=args.seed, tol=args.tol,
                           max_iter=args.max_iter, outputs=args.out)
    report = run_experiment(cfg)
    for name, run in report.graphs.items():
        rho = "undefined" if run.spearman_h != run.spearman_h else f"{run.spearman_h:.4f}"
        print(f"{name}: edges={run.edge_count} diameter={run.diameter} "
              f"iterations={run.iterations} converged={run.converged} spearman={rho}")
    print(f"report written to {args.out}")
    if not all(run.converged for run in report.graphs.values()):
        print("warning: at least one run did not converge", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    gf = load_graph(args.graph)
    net = gf.network(fallback_gamma=args.gamma)
    md = message_digraph(net.graph)
    support = np.flatnonzero(net.field_conductance[md.senders()] > 0.0)
    violating = analysis.check_convergence_hypothesis(md.to_digraph(), support)
    if not violating:
        print("satisfied: every message in a nontrivial component reaches the driving support")
    else:
        labels = sorted(f"{i}->{j}" for j, i in (md.arc_nodes[v] for v in violating))
        print(f"violated by {len(violating)} messages: {', '.join(labels)}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "generate": _cmd_generate,
        "exact": _cmd_exact,
        "mpa": _cmd_mpa,
        "experiment": _cmd_experiment,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
