"""What the benchmark in ``bench/`` looks up in the package: the span
targets of ``bench/tracing.py``, and the calls its traced mode sees."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from harmonic_influence import analysis, cli, electrical, experiment, graphs, mpa


BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(monkeypatch, file_name, module_name):
    spec = importlib.util.spec_from_file_location(module_name, BENCH / file_name)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracing(monkeypatch):
    return load_bench_module(monkeypatch, "tracing.py", "bench_tracing")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    load_bench_module(monkeypatch, "checks.py", "checks")  # what ``import checks`` in workloads.py finds
    return load_bench_module(monkeypatch, "workloads.py", "bench_workloads")


def test_every_traced_function_exists(tracing):
    for module, function, _hook in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"harmonic_influence.{module}"), function, None)), function


def test_pipeline_takes_the_public_exact_path_with_one_factorization_per_graph(tracing, monkeypatch):
    tr = tracing.Tracer()
    monkeypatch.setattr(electrical, "_factor", tracing._wrap(tr, electrical._factor, "electrical._factor", None))
    modules = {"graphs": graphs, "electrical": electrical, "mpa": mpa, "analysis": analysis,
               "experiment": experiment, "cli": cli}
    with tracing.instrument(tr, modules), tr.op(0):
        experiment.run_experiment(experiment.ExperimentConfig(n=20, p=0.2, extra_edges=3, seed=1))
    spans = tr.spans[0]
    names = [s.name for s in spans]
    graph_count = len(experiment.GRAPH_NAMES)
    assert names.count("electrical.harmonic_influence_exact") == graph_count
    assert names.count("electrical.exact_message_potentials") == graph_count
    # Each network is factored once, inside its first exact call; the
    # second exact call reads the cached result.
    factor_parents = [spans[s.parent].name for s in spans if s.name == "electrical._factor"]
    assert factor_parents == ["electrical.harmonic_influence_exact"] * graph_count


def test_every_workload_sets_up_runs_and_checks_one_op(workloads, tmp_path):
    # The workloads also read, outside their traced calls, Digraph built from
    # tuple arcs, d.arcs, md.to_digraph(), md.arc_nodes and GraphFile.network.
    problems = {}
    for name, workload in workloads.WORKLOADS.items():
        scratch = tmp_path / name
        scratch.mkdir()
        work = workload(1, scratch)
        problems[name] = work.check(0, work.op(0))
    assert problems == {name: [] for name in workloads.WORKLOADS}
