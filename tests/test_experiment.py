import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_influence import cli
from harmonic_influence.analysis import initial_generalized_state, run_generalized
from harmonic_influence.electrical import build_weights, harmonic_influence_exact, uniform_network
from harmonic_influence.experiment import (
    ExperimentConfig,
    _csv_text,
    _write_trace_csv,
    generate_graphs,
    load_graph,
    run_experiment,
    save_graph,
    save_report,
)
from harmonic_influence.graphs import Digraph, UndirectedGraph, erdos_renyi
from harmonic_influence.mpa import DEFAULT_MAX_ITER, DEFAULT_TOL, error_trace, run_mpa
from shared import same_bits

SMALL_CFG = dict(n=16, p=0.25, extra_edges=3, gamma=0.04, seed=7)
README = Path(__file__).resolve().parent.parent / "README.md"


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def _triangle_mpa(max_iter):
    g = UndirectedGraph(3, ((0, 1), (0, 2), (1, 2)))
    return run_mpa(g, build_weights(uniform_network(g, 0.04)), tol=0.0, max_iter=max_iter)


def _two_cycle_steps(steps):
    d = Digraph(2, ((0, 1), (1, 0)))
    return run_generalized(initial_generalized_state(d, [0.1, 0.1], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]), steps)


@pytest.mark.parametrize("call, value, message", [
    (_triangle_mpa, 37.5, "max_iter must be an integer, got 37.5"),
    (_triangle_mpa, "5", "max_iter must be an integer, got '5'"),
    (lambda v: ExperimentConfig(n=v), 50.0, "n must be an integer, got 50.0"),
    (lambda v: ExperimentConfig(extra_edges=v), 2.5, "extra_edges must be an integer, got 2.5"),
    (lambda v: ExperimentConfig(seed=v), 1.5, "seed must be an integer, got 1.5"),
    (lambda v: ExperimentConfig(max_iter=v), 100.5, "max_iter must be an integer, got 100.5"),
    (lambda v: ExperimentConfig(max_iter=v), np.float64(3.0), "max_iter must be an integer, got np.float64(3.0)"),
    (_two_cycle_steps, 2.5, "steps must be an integer, got 2.5"),
    (_two_cycle_steps, -3, "steps must be nonnegative"),
])
def test_counts_must_be_integers(call, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


def test_counts_take_numpy_integers_and_zero_steps_is_a_no_op(tmp_path):
    assert _triangle_mpa(np.int64(3)).iterations == 3
    counts = dict(n=np.int32(16), extra_edges=np.uint8(3), seed=np.int64(7))
    save_report(run_experiment(ExperimentConfig(**{**SMALL_CFG, **counts})), tmp_path)
    assert json.loads((tmp_path / "report.json").read_text())["config"]["n"] == 16
    assert _two_cycle_steps(np.int64(0)).t == 0
    assert _two_cycle_steps(0).omega.tolist() == [1.0, 1.0]
    # the real settings are stored as float, which the report's JSON encoder takes
    cfg = ExperimentConfig(p=np.float32(0.5), gamma=1, tol=np.float64(0.0))
    assert [type(v) for v in (cfg.p, cfg.gamma, cfg.tol)] == [float] * 3


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_negative_or_nan_tol_rejected(tol):
    with pytest.raises(ValueError, match="^tol must be nonnegative and finite$"):
        ExperimentConfig(tol=tol)
    g = UndirectedGraph(2, ((0, 1),))
    weights = build_weights(uniform_network(g, 0.04))
    with pytest.raises(ValueError, match="^tol must be nonnegative and finite$"):
        run_mpa(g, weights, tol=tol)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_generated_graphs_are_nested_with_exact_counts():
    cfg = ExperimentConfig(**SMALL_CFG)
    graphs, _ = generate_graphs(cfg)
    st, fe, er = graphs["spanning_tree"], graphs["few_extra_edges"], graphs["erdos_renyi"]
    assert st.edge_count == cfg.n - 1
    assert fe.edge_count == cfg.n - 1 + cfg.extra_edges
    assert set(st.edges) < set(fe.edges) <= set(er.edges)


def test_run_experiment_report_contents():
    report = run_experiment(ExperimentConfig(**SMALL_CFG))
    assert set(report.graphs) == {"spanning_tree", "few_extra_edges", "erdos_renyi"}
    tree = report.graphs["spanning_tree"]
    assert tree.converged
    assert tree.iterations == tree.diameter + 1
    assert np.abs(tree.h_estimates - tree.h_exact).max() <= 1e-9
    for run in report.graphs.values():
        assert run.converged
        assert np.all(run.h_estimates >= run.h_exact - 1e-9)
        assert np.all(run.w_limits <= run.w_exact + 1e-9)
        assert run.h_negligible_iter is not None
        assert run.w_negligible_iter is not None


def test_tree_spearman_is_one_up_to_solver_ties():
    # structurally equivalent nodes are exact mathematical ties that the
    # two computation routes split by ~1e-15; snapping to the 1e-9 solve
    # tolerance restores the tie structure, and the rankings then agree fully
    from harmonic_influence.analysis import spearman

    for seed in range(5):
        report = run_experiment(ExperimentConfig(n=50, p=0.1, extra_edges=10, seed=seed))
        st = report.graphs["spanning_tree"]
        assert spearman(np.round(st.h_exact, 9), np.round(st.h_estimates, 9)) == 1.0
        assert spearman(st.h_exact, st.h_estimates) > 0.99


def test_degenerate_complete_graph_run():
    # p=1, k=0: the few-extra graph IS the tree, and the complete graph's
    # influences are all equal, leaving the rank coefficient undefined
    cfg = ExperimentConfig(n=8, p=1.0, extra_edges=0, gamma=0.04, seed=2)
    report = run_experiment(cfg)
    st, fe, er = (report.graphs[k] for k in ("spanning_tree", "few_extra_edges", "erdos_renyi"))
    assert st.edge_count == fe.edge_count == 7
    assert er.edge_count == 28
    assert math.isnan(er.spearman_h)
    assert np.allclose(er.h_exact, er.h_exact[0], atol=1e-10)


def test_report_files_deterministic(tmp_path):
    cfg = ExperimentConfig(**SMALL_CFG)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    save_report(run_experiment(cfg), dir_a)
    save_report(run_experiment(cfg), dir_b)
    names = sorted(p.name for p in dir_a.iterdir())
    assert "report.json" in names
    assert "erdos_renyi_trace.csv" in names
    assert "spanning_tree_scatter_h.csv" in names
    assert "few_extra_edges_scatter_w.csv" in names
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_report_json_summary(tmp_path):
    cfg = ExperimentConfig(**SMALL_CFG, outputs=tmp_path / "out")
    report = run_experiment(cfg)
    data = json.loads((tmp_path / "out" / "report.json").read_text())
    assert data["config"]["n"] == cfg.n
    assert data["er_seed_used"] == report.er_seed_used
    for name, run in report.graphs.items():
        assert data["graphs"][name]["edge_count"] == run.edge_count
        assert data["graphs"][name]["iterations"] == run.iterations


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # The python block under "## Library example", run as written; it writes out/.
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"{README}: Library example", "exec"), {})
    assert (tmp_path / "out" / "report.json").exists()


def test_trace_csv_thinning(tmp_path):
    t = np.arange(10060)
    errors = np.column_stack((1.0 / (t + 1), 2.0 / (t + 1)))
    path = tmp_path / "trace.csv"
    _write_trace_csv(path, errors)
    kept = [line.split(",")[0] for line in path.read_text().splitlines()[2:]]
    ts = [int(t) for t in kept]
    assert all(t % 10 == 0 for t in ts if t > 10000)
    assert 10001 not in ts and 10010 in ts and 9999 in ts


def read_csv(path):
    """The header line and the columns of a table, numbers parsed back as floats."""
    header, *rows = path.read_text().splitlines()
    return header, np.array([[float(x) for x in row.split(",")] for row in rows]).T


TINY, HUGE = np.finfo(np.float64).smallest_subnormal, np.finfo(np.float64).max
edge_floats = st.sampled_from([TINY, 3 * TINY, np.finfo(np.float64).tiny, HUGE, np.nextafter(HUGE, 0.0), -0.0])


def test_csv_text_exact_text():
    floats = np.array([1e16, 1e-05, 5e-324, -0.0])
    text = _csv_text("a,b,c", ["x", "y->z", "w", "v"], np.arange(4), floats)
    assert text == "a,b,c\nx,0,1e+16\ny->z,1,1e-05\nw,2,5e-324\nv,3,-0.0\n"
    assert _csv_text("a,b", [], np.zeros(0)) == "a,b\n"


@given(st.lists(st.one_of(st.floats(allow_nan=False), edge_floats, edge_floats.map(lambda x: -x)), max_size=40))
def test_csv_float_fields_read_back_bitwise(values):
    values = np.array(values, dtype=np.float64)
    _, *rows = _csv_text("i,x", np.arange(len(values)), values).splitlines()
    assert [int(row.split(",")[0]) for row in rows] == list(range(len(values)))
    assert same_bits([float(row.split(",")[1]) for row in rows], values)


# ---------------------------------------------------------------------------
# edge-list files
# ---------------------------------------------------------------------------

def test_graph_file_round_trip(tmp_path):
    g = erdos_renyi(12, 0.3, seed=4)
    cond = 1.0 + 0.1 * np.arange(g.edge_count)
    gamma = np.zeros(12)
    gamma[3] = 0.25
    gamma[7] = 0.04
    path = tmp_path / "g.edges"
    save_graph(path, g, edge_conductance=cond, field_conductance=gamma)
    # numpy 2 writes repr(np.float64(2.5)) as "np.float64(2.5)"; the file holds the plain float text
    assert f"{g.edges[1][0]} {g.edges[1][1]} 1.1\n" in path.read_text()
    loaded = load_graph(path)
    assert loaded.graph == g
    assert same_bits(loaded.edge_conductance, cond)
    assert np.array_equal(loaded.field_conductance, gamma)


def test_save_graph_rejects_conductances_a_network_rejects(tmp_path):
    g = UndirectedGraph(3, ((0, 1), (1, 2)))
    path = tmp_path / "g.edges"
    # zip would silently drop the edges past a short array
    for cond, message in ((np.ones(1), r"one entry per edge, shape \(2,\), got \(1,\)"),
                          (np.ones(3), r"got \(3,\)"),
                          (np.array([1.0, 0.0]), "edge 1-2 must be positive and finite, got 0.0")):
        with pytest.raises(ValueError, match=message):
            save_graph(path, g, edge_conductance=cond)
        assert not path.exists()


def test_save_graph_rejects_field_conductances_a_network_rejects(tmp_path):
    # load_graph refuses inf; NaN, -1 and a short array would otherwise be dropped or cut off unnoticed
    g = UndirectedGraph(3, ((0, 1), (1, 2)))
    path = tmp_path / "g.edges"
    for gamma, message in (([np.inf, 0.5, 0.5], "^field conductances must be nonnegative and finite, got inf at node 0$"),
                           ([0.5, np.nan, 0.5], "nonnegative and finite, got nan at node 1$"),
                           ([0.5, 0.5, -1.0], "nonnegative and finite, got -1.0 at node 2$"),
                           ([0.5, -1.0, np.inf], "nonnegative and finite, got -1.0 at node 1$"),
                           ([0.5], "one entry per node")):
        with pytest.raises(ValueError, match=message):
            save_graph(path, g, field_conductance=np.array(gamma))
        assert not path.exists()


def test_load_graph_maps_each_conductance_to_its_own_edge(tmp_path):
    # edges out of sorted order, two of them reversed: sorted they are 0-1, 1-3, 2-3
    path = tmp_path / "g.edges"
    path.write_text("n 4\n3 2 3.0\n0 1 1.0\n3 1 2.0\n0 f 0.5\n")
    gf = load_graph(path)
    assert gf.graph.edges == ((0, 1), (1, 3), (2, 3))
    assert gf.edge_conductance.tolist() == [1.0, 2.0, 3.0]  # the file order is [3.0, 1.0, 2.0]
    assert gf.network().arc_conductance.tolist() == [1.0, 1.0, 2.0, 3.0, 2.0, 3.0]  # rows 0, 1, 1, 2, 3, 3
    # the committed fixture of the output digests, line by line
    fixture = Path(__file__).parent / "data" / "two_cycles.edges"
    gf = load_graph(fixture)
    cond = dict(zip(gf.graph.edges, gf.edge_conductance.tolist()))
    lines = [line.split() for line in fixture.read_text().splitlines() if line[:1].isdigit()]
    edge_lines = [(int(u), int(v), float(c)) for u, v, c in lines if v != "f"]
    assert len(edge_lines) == len(cond) == 13
    assert all(cond[min(u, v), max(u, v)] == c for u, v, c in edge_lines)
    assert len(set(cond.values())) == 13 and 1.0 not in cond.values()
    assert gf.field_conductance[4] == 0.125 + 0.375


def test_graph_file_round_trip_with_isolated_node(tmp_path):
    g = UndirectedGraph(4, ((0, 1),))  # nodes 2, 3 untouched by any line
    path = tmp_path / "g.edges"
    save_graph(path, g)
    assert load_graph(path).graph == g


def test_load_graph_line_forms(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# comment\nn 3\n0 1 2.5\n1 2\n0 f 0.04\n")
    gf = load_graph(path)
    assert gf.graph.edges == ((0, 1), (1, 2))
    assert gf.edge_conductance.tolist() == [2.5, 1.0]
    assert gf.field_conductance[0] == 0.04
    assert gf.field_conductance[1] == 0.0


# The last n line used to win, and int() read "1_0" as 10, "+1" as 1 and "-0" as 0;
# a negative field conductance used to be replaced by the fallback gamma.
MALFORMED_GRAPH_FILES = (
    ("0 1\nnot a line at all\n", ":2: malformed line 'not a line at all'$"),
    ("0 1\n1 2 abc\n", ":2: malformed conductance in '1 2 abc'$"),
    ("1 1\n", ":1: self-loop 1-1$"),
    ("n 2\n0 5\n", ": node id 5 exceeds declared count 2$"),
    ("n 3\n0 1\n1 2\n0 f -1\n", ":4: field conductance must be nonnegative, got '-1'$"),
    ("0 1\n0 f 0.5\n0 f -0.5\n", ":3: field conductance must be nonnegative, got '-0.5'$"),
    ("n 5\n0 1\n1 2\nn 3\n", ":4: second node-count line 'n 3'$"),
    ("0 1_0\n", ":1: expected a node id of digits 0-9, got '1_0'$"),
    ("n 2\n0 1\n0 f\n", ":3: malformed line '0 f'$"),  # only edge lines default to 1
    ("0 1\n+1 2\n", ":2: expected a node id of digits 0-9, got '\\+1'$"),
    ("1 -0\n", ":1: expected a node id of digits 0-9, got '-0'$"),
    ("0 1\n1_0 f 0.5\n", ":2: expected a node id of digits 0-9, got '1_0'$"),
    ("n +3\n0 1\n", ":1: malformed node-count line 'n \\+3'$"),
    ("n 1_0\n0 1\n", ":1: malformed node-count line 'n 1_0'$"),
    ("n 3\n0 1\n1 0\n", ":3: duplicate edge 1-0$"),
    ("n 3\nf 1 0.5\n", ":2: field lines must name the node first$"),
    ("# nothing\n\n", ": no nodes declared$"),
    # An Arabic-Indic digit, two bytes in UTF-8; lines end in \r alone, then in \n.
    ("n 3\r0 1\r1 \u0661\r", ":3: expected ASCII text, got byte 0xd9$"),
    ("n 3\n0 \u0661\n", ":2: expected ASCII text, got byte 0xd9$"),
)


def test_load_graph_malformed_lines_name_line_number(tmp_path):
    path = tmp_path / "bad.edges"
    for text, message in MALFORMED_GRAPH_FILES:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}{message}"):
            load_graph(path)


def test_graph_file_network_fallback_gamma(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n1 2\n")
    gf = load_graph(path)
    net = gf.network(fallback_gamma=0.04)
    assert np.allclose(net.field_conductance, 0.04)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_generate_and_exact(tmp_path, capsys):
    out = tmp_path / "graphs"
    rc = cli.main(["generate", "--n", "12", "--p", "0.3", "--extra-edges", "2",
                   "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert (out / "spanning_tree.edges").exists()
    assert (out / "erdos_renyi.edges").exists()
    capsys.readouterr()

    rc = cli.main(["exact", str(out / "spanning_tree.edges")])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "node,influence"
    assert len(lines) == 13
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(1.0 <= v <= 12.0 for v in values)


def test_cli_mpa_writes_traces(tmp_path, capsys):
    gdir = tmp_path / "graphs"
    cli.main(["generate", "--n", "10", "--p", "0.4", "--extra-edges", "2",
              "--seed", "5", "--out", str(gdir)])
    out = tmp_path / "mpa"
    rc = cli.main(["mpa", str(gdir / "few_extra_edges.edges"), "--out", str(out)])
    assert rc == 0
    net = load_graph(gdir / "few_extra_edges.edges").network()
    result = run_mpa(net.graph, build_weights(net), trace=True)
    header, (nodes, h) = read_csv(out / "estimates.csv")
    assert header == "node,estimate"
    assert nodes.tolist() == list(range(net.node_count))
    assert same_bits(h, result.h_estimates)
    header, (t, h_err, w_err) = read_csv(out / "trace.csv")
    assert header == "t,h_err_l1,w_err_l1"
    assert t.tolist() == list(range(result.iterations))
    assert same_bits(np.column_stack((h_err, w_err)), error_trace(result))


def test_cli_mpa_nonconvergence_exit_code(tmp_path, capsys):
    gdir = tmp_path / "graphs"
    cli.main(["generate", "--n", "10", "--p", "0.4", "--extra-edges", "3",
              "--seed", "6", "--out", str(gdir)])
    rc = cli.main(["mpa", str(gdir / "erdos_renyi.edges"), "--max-iter", "2",
                   "--out", str(tmp_path / "m")])
    assert rc == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_mpa_overflowing_decay_denominator_runs_without_warning(tmp_path, capsys):
    # Node 3 trusts node 1 about 1e-308, so the potential message (3, 1) has
    # alpha near 1e308 and 1 + alpha + its decay sum overflows: w is 0.
    src = tmp_path / "g.edges"
    src.write_text("0 1\n1 3 2e-308\n1 2\n0 3 2.5\n0 f 2.5\n3 f 2.5\n")
    assert cli.main(["mpa", str(src), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    _, (_, estimates) = read_csv(tmp_path / "out" / "estimates.csv")
    exact = harmonic_influence_exact(load_graph(src).network(fallback_gamma=0.04))
    np.testing.assert_allclose(estimates, exact, rtol=1e-14)


def test_cli_defaults_are_the_config_defaults():
    cfg = ExperimentConfig()
    assert (cfg.tol, cfg.max_iter) == (DEFAULT_TOL, DEFAULT_MAX_ITER)
    pipeline, stopping = ("n", "p", "extra_edges", "gamma", "seed"), ("tol", "max_iter")
    cases = [
        (["generate", "--out", "x"], pipeline),
        (["experiment", "--out", "x"], pipeline + stopping),
        (["exact", "g"], ("gamma",)),
        (["mpa", "g", "--out", "x"], ("gamma",) + stopping),
    ]
    parser = cli.build_parser()
    for argv, names in cases:
        args = parser.parse_args(argv)
        assert {k: getattr(args, k) for k in names} == {k: getattr(cfg, k) for k in names}, argv


def test_cli_experiment_smoke(tmp_path, capsys):
    out = tmp_path / "exp"
    rc = cli.main(["experiment", "--n", "12", "--p", "0.3", "--extra-edges", "2",
                   "--seed", "9", "--out", str(out)])
    assert rc == 0
    assert (out / "report.json").exists()
    assert "spanning_tree" in capsys.readouterr().out


def test_cli_experiment_not_converged_exits_two(tmp_path, capsys):
    # gamma = 1e-9: the tree's messages fix, but on the cyclic graphs h contracts too slowly to settle
    argv = ["experiment", "--n", "6", "--p", "1", "--extra-edges", "2", "--gamma", "1e-9",
            "--max-iter", "3000", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "warning: at least one run did not converge\n"
    runs = json.loads((tmp_path / "report.json").read_text())["graphs"]
    assert runs["spanning_tree"]["converged"]
    for name in ("few_extra_edges", "erdos_renyi"):
        assert not runs[name]["converged"] and runs[name]["iterations"] == 3000


@pytest.mark.parametrize("command", ["exact", "mpa"])
def test_cli_memory_error_exits_one_with_error_line(tmp_path, capsys, monkeypatch, command):
    # What numpy raises for an edge-list file declaring 10**11 nodes, without asking the host for it.
    def refuse(path):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,) and data type float64")

    monkeypatch.setattr(cli, "load_graph", refuse)
    huge = tmp_path / "huge.edges"
    huge.write_text("n 100000000000\n0 1\n")
    out = ["--out", str(tmp_path / "out")] if command == "mpa" else []
    assert cli.main([command, str(huge), *out]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "GiB" in captured.err and captured.err.count("\n") == 1
    assert captured.out == ""


PIVOT = ("error: grounded Laplacian L + diag(gamma) is not positive definite to working precision: "
         "the pivot of node {} fell to rounding level (numerically singular)")
CHOICES = "(choose from 'generate', 'exact', 'mpa', 'experiment')"
VALID = "0 1\n0 f 1\n"

# Each bad input: the edge-list text written to {graph} (None: no file), the
# command line, and the one error line that ends stderr.
BAD_INPUTS = {
    # argument errors, after the usage
    "generate-n-not-int": (None, "generate --n oops --out {out}", "error: argument --n: invalid int value: 'oops'"),
    "unknown-command": (None, "nonsense", f"error: argument command: invalid choice: 'nonsense' {CHOICES}"),
    "unknown-command-check": (VALID, "check {graph}", f"error: argument command: invalid choice: 'check' {CHOICES}"),
    # step limits, refused before any step
    "mpa-max-iter-0": (VALID, "mpa {graph} --max-iter 0 --out {out}", "error: max_iter must be positive"),
    "mpa-max-iter-negative": (VALID, "mpa {graph} --max-iter -3 --out {out}", "error: max_iter must be positive"),
    "experiment-max-iter-0": (None, "experiment --max-iter 0 --out {out}", "error: max_iter must be positive"),
    "experiment-max-iter-negative": (None, "experiment --max-iter -3 --out {out}", "error: max_iter must be positive"),
    # the pipeline's graphs
    "experiment-no-connected-er": (None, "experiment --n 5 --p 0 --out {out}",
                                   "error: no connected Erdos-Renyi graph found in 100 attempts from seed 0"),
    # gamma = 1e-17 rounds away in every diagonal sum degree + gamma: M is stored singular
    "experiment-gamma-1e-17": (None, "experiment --n 6 --p 1 --extra-edges 2 --gamma 1e-17 --out {out}", PIVOT.format(0)),
    # edge-list files
    "exact-missing-file": (None, "exact {graph}", "error: [Errno 2] No such file or directory: '{graph}'"),
    "exact-malformed-conductance": ("0 1 zap\n", "exact {graph}", "error: {graph}:1: malformed conductance in '0 1 zap'"),
    "exact-inf-conductance": ("0 1 inf\n", "exact {graph}", "error: {graph}:1: conductance must be finite, got 'inf'"),
    "exact-nan-field": ("0 1\n0 f nan\n", "exact {graph}", "error: {graph}:2: conductance must be finite, got 'nan'"),
    "exact-negative-field": ("n 3\n0 1\n1 2\n0 f -1\n", "exact {graph}",
                             "error: {graph}:4: field conductance must be nonnegative, got '-1'"),
    "mpa-negative-field": ("n 3\n0 1\n1 2\n0 f -1\n", "mpa {graph} --out {out}",
                           "error: {graph}:4: field conductance must be nonnegative, got '-1'"),
    "exact-negative-second-field-line": ("0 1\n0 f 0.5\n0 f -0.5\n", "exact {graph}",
                                         "error: {graph}:3: field conductance must be nonnegative, got '-0.5'"),
    "exact-second-n-line": ("n 5\n0 1\n1 2\nn 3\n", "exact {graph}", "error: {graph}:4: second node-count line 'n 3'"),
    "mpa-second-n-line": ("n 5\n0 1\n1 2\nn 3\n", "mpa {graph} --out {out}", "error: {graph}:4: second node-count line 'n 3'"),
    "exact-underscore-id": ("0 1_0\n", "exact {graph}", "error: {graph}:1: expected a node id of digits 0-9, got '1_0'"),
    "mpa-underscore-id": ("0 1_0\n", "mpa {graph} --out {out}", "error: {graph}:1: expected a node id of digits 0-9, got '1_0'"),
    "exact-bare-field-line": ("n 2\n0 1\n0 f\n", "exact {graph}", "error: {graph}:3: malformed line '0 f'"),
    "mpa-bare-field-line": ("n 2\n0 1\n0 f\n", "mpa {graph} --out {out}", "error: {graph}:3: malformed line '0 f'"),
    "exact-non-ascii-digit": ("n 3\n0 \u0661\n", "exact {graph}", "error: {graph}:2: expected ASCII text, got byte 0xd9"),
    "mpa-non-ascii-digit": ("n 3\n0 \u0661\n", "mpa {graph} --out {out}", "error: {graph}:2: expected ASCII text, got byte 0xd9"),
    # networks and the exact solve
    "exact-node-total-overflow": ("n 3\n0 1 1e308\n1 2 1e308\n", "exact {graph}",
                                  "error: total conductance of node 1 overflows to inf"),
    "exact-edge-and-field-overflow": ("0 1 1e308\n0 f 1e308\n", "exact {graph}",
                                      "error: total conductance of node 0 overflows to inf"),
    "exact-conductances-far-apart": ("0 1 1e308\n1 2 1e-300\n", "exact {graph}", PIVOT.format(1)),
    "exact-field-5e-324": ("0 f 5e-324\n", "exact {graph}", PIVOT.format(0)),
    "exact-field-1e-310": ("0 f 1e-310\n", "exact {graph}", PIVOT.format(0)),
    # message passing
    "mpa-underflowing-trust": ("n 3\n0 1 1e-300\n1 2 1e-300\n0 f 1e300\n1 f 1e300\n2 f 1e300\n", "mpa {graph} --out {out}",
                               "error: edge 0-1: trust of node 0 in node 1 underflows to 0"),
    "mpa-subnormal-trust": ("n 3\n0 1 1e-310\n1 2 1.0\n0 f 0.04\n1 f 0.04\n2 f 0.04\n", "mpa {graph} --out {out}",
                            "error: edge 0-1: trust of node 1 in node 0 is 9.62e-311, and dividing by it overflows to inf"),
    # every field trust of the component underflows to 0: message passing would run undriven
    "mpa-field-trust-5e-324": ("n 3\n0 1\n1 2\n0 2\n0 f 5e-324\n", "mpa {graph} --out {out}",
                               "error: every field trust in the component containing node 0 underflows to 0"),
    "mpa-field-trust-1e-300": ("n 3\n0 1 1e300\n1 2 1e300\n0 2 1e300\n0 f 1e-300\n", "mpa {graph} --out {out}",
                               "error: every field trust in the component containing node 0 underflows to 0"),
    "mpa-disconnected": ("0 1\n2 3\n0 f 1\n2 f 1\n", "mpa {graph} --out {out}",
                         "error: message passing requires a connected graph"),
    "mpa-edgeless": ("n 1\n0 f 0.1\n", "mpa {graph} --out {out}",
                     "error: graph has no edges, so there are no messages to pass"),
}


@pytest.mark.parametrize("text, argv, line", BAD_INPUTS.values(), ids=list(BAD_INPUTS))
def test_cli_bad_input_exits_one(tmp_path, capsys, text, argv, line):
    graph, out = tmp_path / "g.edges", tmp_path / "out"
    if text is not None:
        graph.write_text(text, encoding="utf-8")
    assert cli.main([arg.format(graph=graph, out=out) for arg in argv.split()]) == 1
    captured = capsys.readouterr()
    *before, last = captured.err.splitlines()
    assert last == line.format(graph=graph) and captured.err.endswith("\n")
    assert before == [] or before[0].startswith("usage: ")
    assert not any(earlier.startswith("error:") for earlier in before)
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == ([] if text is None else [graph])


# ---------------------------------------------------------------------------
# grammar fuzz and the README's command lines
# ---------------------------------------------------------------------------

# Edge-list files: an optional `n` line, distinct edges and field lines
# in drawn order, with signed zeros, subnormals and values at the edge of
# the float range among the conductances, and half of the time one
# hostile line: signs, underscores, hex and a non-ASCII digit in ids,
# nan and inf, a stray `f` or `n`, non-ASCII text, or a self-loop or a
# second `n` line drawn from the plain tokens.  Line ends are LF, CRLF or CR.
IDS = ("0", "1", "2", "3")
VALUES = ("1", "2.5", "0.04", "0", "-0", "-0.0", "5e-324", "2e-308", "1e-300", "1e300", "1e308")
HOSTILE = ("-0", "+1", "1_0", "0x1", "9", "٣", "-1", "-1e308", "nan", "inf", "-inf", "n", "f", "# é")
PAIRS = [(u, v) for u in IDS for v in IDS if u != v]
ids, values = st.sampled_from(IDS), st.sampled_from(VALUES)


@st.composite
def edge_list_texts(draw):
    lines = draw(st.lists(st.sampled_from(PAIRS), unique_by=frozenset, max_size=6))
    lines = [pair + draw(st.sampled_from(((), ("1",), ("2.5",))) | values.map(lambda c: (c,))) for pair in lines]
    lines += draw(st.lists(st.tuples(ids, st.just("f"), values), max_size=3))
    lines += draw(st.lists(st.tuples(st.just("n"), st.sampled_from(("4", "5"))), max_size=1))
    lines = [" ".join(line) for line in draw(st.permutations(lines))]
    if draw(st.booleans()):
        hostile = st.lists(st.sampled_from(IDS + VALUES + HOSTILE), min_size=1, max_size=4).map(" ".join)
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(hostile))
    return "".join(line + draw(st.sampled_from(("\n", "\r\n", "\r"))) for line in lines)


def non_finite_tokens(text):
    """The comma- or space-separated fields of text that read as a NaN or an infinity."""
    found = []
    for token in re.split(r"[\s,]+", text):
        try:
            value = float(token)
        except ValueError:
            continue
        if not math.isfinite(value):
            found.append(token)
    return found


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150)
@given(edge_list_texts())
def test_cli_on_drawn_edge_list_files_exits_cleanly(text):
    # No exception or warning escapes main; an exit 1 prints one error line
    # and nothing else, and a run that writes files writes finite numbers.
    with tempfile.TemporaryDirectory() as tmp:
        graph, out = Path(tmp) / "g.edges", Path(tmp) / "out"
        graph.write_text(text, encoding="utf-8", newline="")
        for argv, warning in (
            (["exact", str(graph), "--out", str(out / "exact.csv")], None),
            (["mpa", str(graph), "--max-iter", "50", "--out", str(out)], "warning: tolerance not reached within max-iter\n"),
        ):
            out.mkdir(exist_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            if code == 1:
                assert re.fullmatch(r"error: [^\n]*\n", stderr.getvalue()), (argv[0], stderr.getvalue())
                assert stdout.getvalue() == ""
                continue
            assert (code, stderr.getvalue()) in ((0, ""), (2, warning)), argv[0]
            written = stdout.getvalue() + "".join(p.read_text(encoding="ascii") for p in sorted(out.iterdir()))
            assert non_finite_tokens(written) == [], argv[0]


def test_readme_command_lines_parse():
    # Every command line in the README's code blocks names a command and
    # options that the parser takes.
    blocks = README.read_text(encoding="utf-8").split("```")[1::2]
    lines = [line.split() for block in blocks for line in block.splitlines()
             if line.startswith("harmonic-influence ")]
    assert len(lines) >= 4
    parser = cli.build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])
