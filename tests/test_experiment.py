import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from harmonic_influence import cli
from harmonic_influence.electrical import build_weights, uniform_network
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
from harmonic_influence.graphs import UndirectedGraph, erdos_renyi
from harmonic_influence.mpa import DEFAULT_MAX_ITER, DEFAULT_TOL, error_trace, run_mpa

SMALL_CFG = dict(n=16, p=0.25, extra_edges=3, gamma=0.04, seed=7)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ExperimentConfig(n=1)
    with pytest.raises(ValueError):
        ExperimentConfig(p=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(gamma=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(extra_edges=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(max_iter=0)


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_negative_or_nan_tol_rejected(tol):
    with pytest.raises(ValueError, match="tol"):
        ExperimentConfig(tol=tol)
    g = UndirectedGraph(2, ((0, 1),))
    weights = build_weights(uniform_network(g, 0.04))
    with pytest.raises(ValueError, match="tol"):
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


def test_trace_csv_thinning(tmp_path):
    t = np.arange(10060)
    errors = np.column_stack((1.0 / (t + 1), 2.0 / (t + 1)))
    path = tmp_path / "trace.csv"
    _write_trace_csv(path, errors)
    kept = [line.split(",")[0] for line in path.read_text().splitlines()[2:]]
    ts = [int(t) for t in kept]
    assert all(t % 10 == 0 for t in ts if t > 10000)
    assert 10001 not in ts and 10010 in ts and 9999 in ts


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def read_csv(path):
    """The header line and the columns of a table, numbers parsed back as floats."""
    header, *rows = path.read_text().splitlines()
    return header, np.array([[float(x) for x in row.split(",")] for row in rows]).T


TINY, HUGE = np.finfo(np.float64).smallest_subnormal, np.finfo(np.float64).max
edge_floats = st.sampled_from([TINY, 3 * TINY, np.finfo(np.float64).tiny, HUGE, np.nextafter(HUGE, 0.0), -0.0])


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


# The last n line used to win, and int() read "1_0" as 10, "+1" as 1 and "-0" as 0.
MALFORMED_GRAPH_FILES = (
    ("n 5\n0 1\n1 2\nn 3\n", ":4: second node-count line 'n 3'$"),
    ("0 1_0\n", ":1: expected a node id of digits 0-9, got '1_0'$"),
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
    path.write_text("0 1\nnot a line at all\n")
    with pytest.raises(ValueError, match=":2:"):
        load_graph(path)
    path.write_text("0 1\n1 2 abc\n")
    with pytest.raises(ValueError, match=":2:"):
        load_graph(path)
    path.write_text("1 1\n")
    with pytest.raises(ValueError, match="self-loop"):
        load_graph(path)
    path.write_text("n 2\n0 5\n")
    with pytest.raises(ValueError, match="exceeds"):
        load_graph(path)
    # a negative field conductance used to be replaced by the fallback gamma
    for text, line in (("n 3\n0 1\n1 2\n0 f -1\n", 4), ("0 1\n0 f 0.5\n0 f -0.5\n", 3)):
        path.write_text(text)
        with pytest.raises(ValueError, match=f":{line}: field conductance must be nonnegative"):
            load_graph(path)
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
    with pytest.raises(ValueError):
        gf.network()  # no field edges and no fallback


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


@pytest.mark.parametrize("command", ["mpa", "experiment"])
@pytest.mark.parametrize("max_iter", ["0", "-3"])
def test_cli_nonpositive_max_iter_exits_one_with_error_line(tmp_path, capsys, command, max_iter):
    gdir = tmp_path / "graphs"
    cli.main(["generate", "--n", "10", "--p", "0.4", "--extra-edges", "2",
              "--seed", "5", "--out", str(gdir)])
    capsys.readouterr()
    out = tmp_path / "out"
    source = [str(gdir / "few_extra_edges.edges")] if command == "mpa" else []
    rc = cli.main([command, *source, "--max-iter", max_iter, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: max_iter must be positive\n"
    assert captured.out == ""
    assert not out.exists()


def test_cli_mpa_underflowing_trust_exits_one_with_error_line(tmp_path, capsys):
    # trust 1e-300 / 1e300 underflows to 0; message passing would divide 0 by 0
    src = tmp_path / "underflow.edges"
    src.write_text("n 3\n0 1 1e-300\n1 2 1e-300\n0 f 1e300\n1 f 1e300\n2 f 1e300\n")
    out = tmp_path / "out"
    rc = cli.main(["mpa", str(src), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: edge 0-1: trust of node 0 in node 1 underflows to 0\n"
    assert captured.out == ""
    assert not out.exists()


def test_cli_mpa_subnormal_trust_exits_one_with_error_line(tmp_path, capsys):
    # node 1 trusts node 0 about 1e-310; message passing would divide by it and overflow
    src = tmp_path / "subnormal.edges"
    src.write_text("n 3\n0 1 1e-310\n1 2 1.0\n0 f 0.04\n1 f 0.04\n2 f 0.04\n")
    out = tmp_path / "out"
    rc = cli.main(["mpa", str(src), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: edge 0-1: trust of node 1 in node 0 is 9.62e-311, and dividing by it overflows to inf\n"
    assert captured.out == ""
    assert not out.exists()


def test_cli_exact_overflowing_node_total_exits_one_with_error_line(tmp_path, capsys):
    src = tmp_path / "overflow.edges"
    src.write_text("n 3\n0 1 1e308\n1 2 1e308\n")
    assert cli.main(["exact", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: total conductance of node 1 overflows to inf\n"
    assert captured.out == ""


def test_cli_defaults_are_the_config_defaults():
    cfg = ExperimentConfig()
    assert (cfg.tol, cfg.max_iter) == (DEFAULT_TOL, DEFAULT_MAX_ITER)
    pipeline, stopping = ("n", "p", "extra_edges", "gamma", "seed"), ("tol", "max_iter")
    cases = [
        (["generate", "--out", "x"], pipeline),
        (["experiment", "--out", "x"], pipeline + stopping),
        (["exact", "g"], ("gamma",)),
        (["mpa", "g", "--out", "x"], ("gamma",) + stopping),
        (["check", "g"], ("gamma",)),
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


def test_cli_experiment_without_connected_graph_exits_one(tmp_path, capsys):
    assert cli.main(["experiment", "--n", "5", "--p", "0", "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: no connected Erdos-Renyi graph found in 100 attempts from seed 0\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_cli_mpa_disconnected_graph_exits_one(tmp_path, capsys):
    two = tmp_path / "two.edges"
    two.write_text("0 1\n2 3\n0 f 1\n2 f 1\n")
    assert cli.main(["mpa", str(two), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: message passing requires a connected graph\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_cli_check_verdict(tmp_path, capsys):
    gdir = tmp_path / "graphs"
    cli.main(["generate", "--n", "10", "--p", "0.4", "--extra-edges", "2",
              "--seed", "8", "--out", str(gdir)])
    rc = cli.main(["check", str(gdir / "erdos_renyi.edges")])
    assert rc == 0
    assert "satisfied" in capsys.readouterr().out


def test_cli_check_edgeless_graph_exits_one_with_error_line(tmp_path, capsys):
    lone = tmp_path / "lone.edges"
    lone.write_text("n 1\n0 f 0.1\n")
    assert cli.main(["check", str(lone)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: graph has no edges, so there are no messages to pass\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["exact", "mpa", "check"])
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


def test_cli_input_errors_exit_one(tmp_path, capsys):
    assert cli.main(["exact", str(tmp_path / "missing.edges")]) == 1
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1 zap\n")
    assert cli.main(["exact", str(bad)]) == 1
    assert cli.main(["generate", "--n", "oops", "--out", str(tmp_path)]) == 1
    assert cli.main(["nonsense"]) == 1


@pytest.mark.parametrize("text, message", [
    ("0 1 inf\n", "conductance must be finite"),
    ("0 1\n0 f nan\n", "conductance must be finite"),
    ("n 3\n0 1\n1 2\n0 f -1\n", ":4: field conductance must be nonnegative, got '-1'"),
    ("0 1\n0 f 0.5\n0 f -0.5\n", ":3: field conductance must be nonnegative, got '-0.5'"),
    # conductances 300 orders of magnitude apart: the grounded matrix is
    # numerically indefinite and the solver raises ArithmeticError
    ("0 1 1e308\n1 2 1e-300\n", "not positive definite"),
])
def test_cli_bad_conductances_exit_one_with_error_line(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.edges"
    bad.write_text(text)
    assert cli.main(["exact", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.out == ""


def test_cli_gamma_below_rounding_level_names_the_pivot_node(tmp_path, capsys):
    # gamma = 1e-17 rounds away in every diagonal sum degree + gamma: M is stored singular
    argv = ["experiment", "--n", "6", "--p", "1", "--extra-edges", "2", "--gamma", "1e-17", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r"error: .* the pivot of node \d+ fell to rounding level \(numerically singular\)\n", captured.err)
    assert captured.out == ""


@pytest.mark.parametrize("text, message", MALFORMED_GRAPH_FILES[:2] + MALFORMED_GRAPH_FILES[-1:])
def test_cli_malformed_graph_file_exits_one_with_error_line(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.edges"
    bad.write_text(text, encoding="utf-8")
    for argv in (["exact"], ["mpa", "--out", str(tmp_path / "out")], ["check"]):
        assert cli.main(argv + [str(bad)]) == 1
        captured = capsys.readouterr()
        assert re.fullmatch(f"error: {re.escape(str(bad))}{message}\n", captured.err)
        assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_cli_negative_field_conductance_fails_every_command(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("n 3\n0 1\n1 2\n0 f -1\n")
    for argv in (["exact"], ["mpa", "--out", str(tmp_path / "out")], ["check"]):
        assert cli.main(argv + [str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}:4: field conductance must be nonnegative, got '-1'\n"
        assert captured.out == ""
