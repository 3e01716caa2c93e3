"""Command line front end.

Subcommands: ``generate`` (emit the three nested graphs), ``exact``
(grounded-Laplacian influence for a graph file), ``mpa`` (message
passing run with traces) and ``experiment`` (full pipeline).

Exit codes: 0 success, 1 bad input, 2 non-convergence.  Every exit 1
ends stderr with exactly one line, ``error: <why>``; an argument error
prints the usage before it.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import mpa
from .electrical import ConductanceNetwork, build_weights, harmonic_influence_exact, uniform_network
from .experiment import (
    ExperimentConfig,
    _csv_text,
    generate_graphs,
    load_graph,
    run_experiment,
    save_graph,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; reserve 2 for non-convergence.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


_DEFAULTS = ExperimentConfig()


def _add_pipeline_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=_DEFAULTS.n, help="number of nodes")
    p.add_argument("--p", type=float, default=_DEFAULTS.p, help="edge probability")
    p.add_argument("--extra-edges", type=int, default=_DEFAULTS.extra_edges, help="edges added back to the tree")
    p.add_argument("--gamma", type=float, default=_DEFAULTS.gamma, help="field conductance of every node")
    p.add_argument("--seed", type=int, default=_DEFAULTS.seed, help="random seed")


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", type=Path, help="edge-list file")
    p.add_argument("--gamma", type=float, default=_DEFAULTS.gamma,
                   help="field conductance when the file declares none")


def _add_mpa_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=_DEFAULTS.tol, help="stopping tolerance (combined 1-norm)")
    p.add_argument("--max-iter", type=int, default=_DEFAULTS.max_iter, help="step limit")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="harmonic-influence", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="emit the three nested graphs")
    _add_pipeline_args(p_gen)
    p_gen.add_argument("--out", type=Path, required=True, help="output directory")

    p_exact = sub.add_parser("exact", help="exact influence of every node")
    _add_graph_args(p_exact)
    p_exact.add_argument("--out", type=Path, default=None, help="CSV output (default stdout)")

    p_mpa = sub.add_parser("mpa", help="message passing estimate with traces")
    _add_graph_args(p_mpa)
    _add_mpa_args(p_mpa)
    p_mpa.add_argument("--out", type=Path, required=True, help="output directory")

    p_exp = sub.add_parser("experiment", help="full pipeline with report files")
    _add_pipeline_args(p_exp)
    _add_mpa_args(p_exp)
    p_exp.add_argument("--out", type=Path, required=True, help="output directory")
    return parser


def _config(args: argparse.Namespace, **extra) -> ExperimentConfig:
    """The pipeline settings the command takes from its arguments; the rest keep their defaults."""
    names = ("n", "p", "extra_edges", "gamma", "seed", "tol", "max_iter")
    return ExperimentConfig(**{k: getattr(args, k) for k in names if hasattr(args, k)}, **extra)


def _network(args: argparse.Namespace) -> ConductanceNetwork:
    return load_graph(args.graph).network(fallback_gamma=args.gamma)


def _cmd_generate(args: argparse.Namespace) -> int:
    cfg = _config(args)
    graphs, er_seed = generate_graphs(cfg)
    args.out.mkdir(parents=True, exist_ok=True)
    for name, g in graphs.items():
        path = args.out / f"{name}.edges"
        net = uniform_network(g, cfg.gamma)
        save_graph(path, g, edge_conductance=net.edge_conductance, field_conductance=net.field_conductance)
        print(f"{name}: {g.node_count} nodes, {g.edge_count} edges -> {path}")
    print(f"erdos_renyi seed used: {er_seed}")
    return EXIT_OK


def _cmd_exact(args: argparse.Namespace) -> int:
    influence = harmonic_influence_exact(_network(args))
    text = _csv_text("node,influence", np.arange(len(influence)), influence)
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="ascii")
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_mpa(args: argparse.Namespace) -> int:
    net = _network(args)
    result = mpa.run_mpa(net.graph, build_weights(net), tol=args.tol, max_iter=args.max_iter, trace=True)
    args.out.mkdir(parents=True, exist_ok=True)
    h = result.h_estimates
    (args.out / "estimates.csv").write_text(_csv_text("node,estimate", np.arange(len(h)), h), encoding="ascii")
    errors = mpa.error_trace(result)
    trace = _csv_text("t,h_err_l1,w_err_l1", np.arange(len(errors)), errors[:, 0], errors[:, 1])
    (args.out / "trace.csv").write_text(trace, encoding="ascii")
    print(f"iterations: {result.iterations}  converged: {result.converged}  "
          f"final residual: {result.final_residual:.3e}")
    if not result.converged:
        print("warning: tolerance not reached within max-iter", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    report = run_experiment(_config(args, outputs=args.out))
    for name, run in report.graphs.items():
        rho = "undefined" if run.spearman_h != run.spearman_h else f"{run.spearman_h:.4f}"
        print(f"{name}: edges={run.edge_count} diameter={run.diameter} "
              f"iterations={run.iterations} converged={run.converged} spearman={rho}")
    print(f"report written to {args.out}")
    if not all(run.converged for run in report.graphs.values()):
        print("warning: at least one run did not converge", file=sys.stderr)
        return EXIT_NOT_CONVERGED
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
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
