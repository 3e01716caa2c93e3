"""The benchmark's workloads.

Each workload is a closed loop: one caller in one process issues its
next op only after the previous one returned.  A workload generates its
inputs from the seed in ``__init__`` (set-up), runs one op per ``op(k)``
call and checks an op's output with ``check(k, output)``, which returns
a list of problems.  Ops call into the package through module attributes
(``graphs.condensation(...)``), so the traced mode sees every call.

README.md says why each workload was chosen and which layer metric
should move which end-to-end metric on it.  ``opinions`` is a test
oracle on no user path, so no workload runs it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

import checks
from harmonic_influence import analysis, cli, electrical, experiment, graphs, mpa

TOL = 1e-10
GAMMA = 0.04
MAX_GRAPH_ATTEMPTS = 100


def connected_random_edges(n: int, m: int, seed: int) -> tuple[np.ndarray, list[int]]:
    """Edges of a connected uniform random graph G(n, m), drawn with the benchmark's own RNG.

    The edge count is fixed, rather than drawn as in G(n, p), so that the
    size of the message digraph, and with it the cost of an op, does not
    vary from seed to seed.  Attempt a draws from the RNG seeded with
    [seed, a], so that every workload seed has graphs of its own, until
    one is connected; returns its edges (sorted, u < v) and that RNG seed.
    """
    iu, ju = np.triu_indices(n, 1)
    for attempt in range(MAX_GRAPH_ATTEMPTS):
        graph_seed = [seed, attempt]
        pick = np.sort(np.random.default_rng(graph_seed).choice(iu.size, size=m, replace=False))
        edges = np.column_stack([iu[pick], ju[pick]])
        adj = sp.coo_matrix((np.ones(m), (edges[:, 0], edges[:, 1])), shape=(n, n))
        if csgraph.connected_components(adj, directed=False)[0] == 1:
            return edges, graph_seed
    raise RuntimeError(f"no connected G({n}, {m}) in {MAX_GRAPH_ATTEMPTS} attempts for seed {seed}")


def edges_of_messages(arc_nodes) -> np.ndarray:
    """Undirected edges (u < v) behind a list of (receiver, sender) messages."""
    arcs = np.asarray(arc_nodes, dtype=np.int64).reshape(-1, 2)
    return arcs[arcs[:, 0] < arcs[:, 1]]


def sample_leaders(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    return np.sort(rng.choice(n, size=k, replace=False))


class Workload:
    def __init__(self, seed: int, scratch: Path):
        self.scratch = scratch
        self.environment = {}   # inputs actually used, recorded with every result

    def op(self, k: int):
        raise NotImplementedError

    def check(self, k: int, output) -> list[str]:
        raise NotImplementedError


def _check_pipeline_graph(name: str, n: int, edges: np.ndarray, gamma: float,
                          h_exact, h_est, w_limits) -> list[str]:
    oracle = checks.closed_form_influence(n, edges, gamma)
    tree = len(edges) == n - 1
    return (checks.check_close(h_exact, oracle, checks.EXACT_RTOL, f"{name} exact influence")
            + checks.check_influence(h_est, oracle, tree, f"{name} estimates")
            + checks.check_potentials(w_limits, f"{name} potential messages"))


class ExperimentSeeds:
    """Experiment seeds drawn from the workload seed, one per op, as needed."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.drawn: list[int] = []

    def __getitem__(self, i: int) -> int:
        while len(self.drawn) <= i:
            self.drawn.append(int(self.rng.integers(2**31 - 1)))
        return self.drawn[i]


class PaperN50(Workload):
    """``harmonic-influence experiment`` at the paper's size, in process.

    Every op runs a new experiment seed, except that op 1 re-runs the
    warm-up op's seed, whose report files must come out byte-identical.
    """

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.seeds = ExperimentSeeds(seed)
        self.digests: dict[int, dict[str, str]] = {}
        self.environment = {"experiment_seeds": self.seeds.drawn}

    def _seed(self, k: int) -> int:
        return self.seeds[max(k - 1, 0)]

    def op(self, k: int) -> Path:
        out = self.scratch / f"op{k}"
        argv = ["experiment", "--n", "50", "--p", "0.1", "--extra-edges", "10",
                "--gamma", str(GAMMA), "--tol", str(TOL),
                "--seed", str(self._seed(k)), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"harmonic-influence experiment exited with {code}")
        return out

    def check(self, k: int, out: Path) -> list[str]:
        try:
            return self._check_files(k, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_files(self, k: int, out: Path) -> list[str]:
        summary = json.loads((out / "report.json").read_text())
        n, gamma = summary["config"]["n"], summary["config"]["gamma"]
        problems = []
        for name in experiment.GRAPH_NAMES:
            if not summary["graphs"][name]["converged"]:
                problems.append(f"{name}: message passing did not converge")
            h = np.loadtxt(out / f"{name}_scatter_h.csv", delimiter=",", skiprows=1, ndmin=2)
            w_rows = (out / f"{name}_scatter_w.csv").read_text().split("\n")[1:-1]
            arcs = [tuple(int(x) for x in row.split(",")[0].split("->"))[::-1] for row in w_rows]
            w_limits = np.array([float(row.split(",")[2]) for row in w_rows])
            problems += _check_pipeline_graph(name, n, edges_of_messages(arcs), gamma,
                                              h[:, 1], h[:, 2], w_limits)
        # Identical configs must give byte-identical reports.
        digest = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}
        first = self.digests.setdefault(self._seed(k), digest)
        if digest != first:
            changed = sorted(f for f in set(digest) | set(first) if digest.get(f) != first.get(f))
            problems.append(f"report files differ from an identical earlier run: {changed}")
        return problems


class PipelineN300(Workload):
    """``run_experiment(n=300, p=0.03, extra_edges=30)`` with report files
    written, on a new experiment seed for every op."""

    SAMPLED_LEADERS = 3

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.seeds = ExperimentSeeds(seed)
        self.leader_rng = np.random.default_rng([seed, 1])
        self.environment = {"experiment_seeds": self.seeds.drawn, "er_seeds_used": []}

    def op(self, k: int):
        cfg = experiment.ExperimentConfig(
            n=300, p=0.03, extra_edges=30, gamma=GAMMA, seed=self.seeds[k],
            tol=TOL, outputs=self.scratch / f"op{k}")
        return experiment.run_experiment(cfg)

    def check(self, k: int, report) -> list[str]:
        cfg = report.config
        self.environment["er_seeds_used"].append(report.er_seed_used)
        problems = [] if (cfg.outputs / "report.json").is_file() else ["report.json missing"]
        shutil.rmtree(cfg.outputs, ignore_errors=True)
        for name, run in report.graphs.items():
            if not run.converged:
                problems.append(f"{name}: message passing did not converge")
            edges = edges_of_messages(run.arc_nodes)
            problems += _check_pipeline_graph(name, cfg.n, edges, cfg.gamma,
                                              run.h_exact, run.h_estimates, run.w_limits)
            leaders = sample_leaders(self.leader_rng, cfg.n, self.SAMPLED_LEADERS)
            ref = checks.reference_influence(cfg.n, edges, cfg.gamma, leaders)
            problems += checks.check_close(run.h_exact[leaders], ref, checks.EXACT_RTOL,
                                           f"{name} exact influence of leaders {leaders.tolist()}")
        return problems


class MpaErN1000(Workload):
    """The CLI ``check`` path, then ``run_mpa`` without traces, on a random
    graph with 1000 nodes and the expected edge count of G(1000, 0.01)."""

    N, EDGES = 1000, 4995
    SAMPLED_LEADERS = 5

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.edges, graph_seed = connected_random_edges(self.N, self.EDGES, seed)
        self.path = scratch / "graph.edges"
        lines = [f"n {self.N}"] + [f"{u} {v}" for u, v in self.edges]
        self.path.write_text("\n".join(lines) + "\n", encoding="ascii")
        self.leaders = sample_leaders(np.random.default_rng(seed), self.N, self.SAMPLED_LEADERS)
        self.exact_leaders = checks.reference_influence(
            self.N, self.edges, GAMMA, self.leaders, sparse=True)
        self.environment = {"graph_seed_used": graph_seed, "edges": len(self.edges)}

    def op(self, k: int):
        gf = experiment.load_graph(self.path)
        net = gf.network(fallback_gamma=GAMMA)
        weights = electrical.build_weights(net)
        md = graphs.message_digraph(net.graph)
        support = [idx for idx, (_j, i) in enumerate(md.arc_nodes)
                   if net.field_conductance[i] > 0.0]
        violating = analysis.check_convergence_hypothesis(md.to_digraph(), support)
        result = mpa.run_mpa(net.graph, weights, tol=TOL)
        if not result.converged:
            raise RuntimeError(f"run_mpa did not converge in {result.iterations} steps")
        return violating, result

    def check(self, k: int, output) -> list[str]:
        violating, result = output
        problems = [f"convergence check flagged {len(violating)} messages"] if violating else []
        recv, send, _, _ = checks.message_system(self.N, self.edges)
        if not np.array_equal(np.asarray(result.md.arc_nodes), np.column_stack([recv, send])):
            return problems + ["message order differs from (receiver, sender) order"]
        problems += checks.check_potentials(result.w_limits, "potential messages")
        fixed, oracle_problems = checks.fixed_point_estimates(self.N, self.edges, result.w_limits)
        problems += oracle_problems
        problems += checks.check_close(result.h_estimates, fixed, checks.FIXED_POINT_RTOL,
                                       "estimates against the fixed point at the returned w")
        problems += checks.check_influence(result.h_estimates[self.leaders], self.exact_leaders,
                                           False, f"estimates of leaders {self.leaders.tolist()}")
        return problems


class DiagnosticsN300(Workload):
    """Condensation, the structural check, the generalized dynamics and the
    spectral radius on the message digraph of a connected random graph with
    300 nodes and the expected edge count of G(300, 0.03)."""

    N, EDGES = 300, 1346

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        edges, graph_seed = connected_random_edges(self.N, self.EDGES, seed)
        g = graphs.UndirectedGraph(self.N, tuple(map(tuple, edges.tolist())))
        weights = electrical.build_weights(electrical.uniform_network(g, GAMMA))
        md = graphs.message_digraph(g)
        self.digraph = md.to_digraph()
        self.receivers = md.receivers()
        # With unit conductances the potential recursion of message passing
        # is the generalized dynamics with alpha = gamma, beta = 0, r = s = 1.
        self.alpha = np.full(md.size, GAMMA)
        self.reference = mpa.run_mpa(g, weights, tol=TOL)
        if not self.reference.converged:
            raise RuntimeError("reference run_mpa did not converge")
        self.steps = self.reference.iterations
        self.environment = {"graph_seed_used": graph_seed, "edges": len(edges),
                            "messages": md.size, "steps": self.steps}

    def op(self, k: int):
        d = self.digraph
        size = d.node_count
        cond = graphs.condensation(d)
        violating = analysis.check_convergence_hypothesis(d, range(size))
        state = analysis.initial_generalized_state(d, self.alpha, np.zeros(size),
                                                   np.ones(size), np.ones(size))
        state = analysis.run_generalized(state, self.steps)
        radii = []
        for comp in cond.nontrivial_components():
            nodes = np.array(sorted(comp))
            local = {v: i for i, v in enumerate(nodes.tolist())}
            arcs = tuple((local[v], local[w]) for v, w in d.arcs if v in local and w in local)
            sub = graphs.Digraph(len(nodes), arcs)
            radii.append(analysis.spectral_radius_diagnostic(sub, state.omega[nodes]))
        radii.append(analysis.spectral_radius_diagnostic(d, state.omega))
        return violating, state, radii

    def check(self, k: int, output) -> list[str]:
        violating, state, radii = output
        problems = [f"convergence check flagged {len(violating)} messages"] if violating else []
        est = 1.0 + np.bincount(self.receivers, weights=state.omega * state.eta, minlength=self.N)
        if not np.array_equal(est, self.reference.h_estimates):
            problems.append("generalized dynamics differ from run_mpa at the same step count")
        problems += checks.check_potentials(state.omega, "omega")
        if not all(r < 1.0 for r in radii):
            problems.append(f"spectral radius not below 1: {radii}")
        return problems


WORKLOADS = {
    "paper_n50": PaperN50,
    "pipeline_n300": PipelineN300,
    "mpa_er_n1000": MpaErN1000,
    "diagnostics_n300": DiagnosticsN300,
}
