"""Span tracing for the benchmark's traced mode.

The package itself is not changed.  ``instrument`` replaces the package's
public functions where they are looked up: every module attribute that is
the original function object (``experiment.harmonic_influence_exact``,
``electrical.grounded_laplacian_solve``, ``mpa.initial_messages`` ...)
gets a wrapper that records one span per call while an op is active.
Spans are kept in memory and turned into per-layer metrics at the end.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional

ROOT_SPAN = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index into the op's span list; -1 for the op's root span
    op: int


class Tracer:
    """Records spans and per-op counts ("facts") of the ops it is told about."""

    def __init__(self) -> None:
        self.spans: dict[int, list[Span]] = {}   # op id -> its spans, root first
        self.facts: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []
        self._op: Optional[int] = None

    @property
    def active(self) -> bool:
        return self._op is not None

    @contextmanager
    def op(self, op_id: int):
        self._op = op_id
        self.spans[op_id] = []
        self.facts[op_id] = {}
        try:
            with self.span(ROOT_SPAN):
                yield
        finally:
            self._op = None

    @contextmanager
    def span(self, name: str):
        spans = self.spans[self._op]
        idx = len(spans)
        parent = self._stack[-1] if self._stack else -1
        spans.append(Span(name, time.perf_counter(), math.nan, parent, self._op))
        self._stack.append(idx)
        try:
            yield
        finally:
            spans[idx].end = time.perf_counter()
            self._stack.pop()

    def add(self, fact: str, value: float) -> None:
        facts = self.facts[self._op]
        facts[fact] = facts.get(fact, 0.0) + value

    def peak(self, fact: str, value: float) -> None:
        facts = self.facts[self._op]
        facts[fact] = max(facts.get(fact, 0.0), value)


# ---------------------------------------------------------------------------
# Facts read from return values, at the same boundaries as the spans
# ---------------------------------------------------------------------------

def _mpa_facts(tr: Tracer, result, args, kwargs) -> None:
    tr.add("mpa.steps", result.iterations)
    nbytes = sum(t.nbytes for t in (result.h_trace, result.w_trace) if t is not None)
    tr.peak("mpa.trace_mb", nbytes / 1e6)


def _message_digraph_facts(tr: Tracer, md, args, kwargs) -> None:
    tr.peak("graphs.messages", md.size)
    tr.peak("graphs.dep_arcs", len(md.arcs))


def _generalized_facts(tr: Tracer, state, args, kwargs) -> None:
    start = args[0] if args else kwargs["state"]
    tr.add("analysis.generalized_steps", state.t - start.t)


def _report_facts(tr: Tracer, _result, args, kwargs) -> None:
    out = Path(args[1] if len(args) > 1 else kwargs["out_dir"])
    tr.add("experiment.report_bytes", sum(f.stat().st_size for f in out.iterdir() if f.is_file()))


# (module, function, fact hook); the span is named "<module>.<function>".
TARGETS: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("graphs", "erdos_renyi", None),
    ("graphs", "spanning_tree", None),
    ("graphs", "diameter", None),
    ("graphs", "message_digraph", _message_digraph_facts),
    ("graphs", "condensation", None),
    ("electrical", "build_weights", None),
    ("electrical", "harmonic_influence_exact", None),
    ("electrical", "exact_message_potentials", None),
    ("electrical", "grounded_laplacian_solve", None),
    ("mpa", "run_mpa", _mpa_facts),
    ("mpa", "initial_messages", None),
    ("mpa", "error_trace", None),
    ("analysis", "check_convergence_hypothesis", None),
    ("analysis", "run_generalized", _generalized_facts),
    ("analysis", "spectral_radius_diagnostic", None),
    ("analysis", "spearman", None),
    ("experiment", "generate_graphs", None),
    ("experiment", "load_graph", None),
    ("experiment", "save_report", _report_facts),
    ("experiment", "run_experiment", None),
    ("cli", "main", None),
)


def _wrap(tr: Tracer, fn: Callable, name: str, hook: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        with tr.span(name):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(tr, result, args, kwargs)
        return result

    return traced


@contextmanager
def instrument(tr: Tracer, modules: dict[str, object]):
    """Wrap every lookup site of every target function while the block runs."""
    undo: list[tuple[object, str, object]] = []
    try:
        for mod_name, fn_name, hook in TARGETS:
            original = getattr(modules[mod_name], fn_name)
            wrapper = _wrap(tr, original, f"{mod_name}.{fn_name}", hook)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)


# ---------------------------------------------------------------------------
# Spans -> per-layer metrics
# ---------------------------------------------------------------------------

def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for idx, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(idx)
    out = []
    for s, kids in zip(spans, children):
        covered = _union_length(
            (max(spans[k].start, s.start), min(spans[k].end, s.end)) for k in kids
        )
        out.append((s.end - s.start) - covered)
    return out


# metric -> span whose inclusive time per op it reports
INCLUSIVE_S = {
    "electrical.exact_influence_s": "electrical.harmonic_influence_exact",
    "electrical.exact_msg_potentials_s": "electrical.exact_message_potentials",
    "electrical.build_weights_s": "electrical.build_weights",
    "mpa.run_s": "mpa.run_mpa",
    "mpa.kernel_setup_s": "mpa.initial_messages",
    "mpa.error_trace_s": "mpa.error_trace",
    "graphs.erdos_renyi_s": "graphs.erdos_renyi",
    "graphs.spanning_tree_s": "graphs.spanning_tree",
    "graphs.diameter_s": "graphs.diameter",
    "graphs.message_digraph_s": "graphs.message_digraph",
    "graphs.condensation_s": "graphs.condensation",
    "analysis.check_s": "analysis.check_convergence_hypothesis",
    "analysis.spectral_radius_s": "analysis.spectral_radius_diagnostic",
    "analysis.spearman_s": "analysis.spearman",
    "experiment.generate_graphs_s": "experiment.generate_graphs",
    "experiment.load_graph_s": "experiment.load_graph",
    "experiment.save_report_s": "experiment.save_report",
}
# Spans that make up the named layer work of an op.  cli.main counts with
# its self time only (argument parsing, printing): its child is the
# pipeline, which is accounted for span by span.
LAYER_SPANS = frozenset(INCLUSIVE_S.values()) | {
    "electrical.grounded_laplacian_solve", "analysis.run_generalized",
}


def op_metrics(spans: list[Span], facts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one op from its spans (root first) and facts."""
    selfs = self_times(spans)
    incl: dict[str, float] = {}
    self_by: dict[str, float] = {}
    count: dict[str, int] = {}
    for s, own in zip(spans, selfs):
        incl[s.name] = incl.get(s.name, 0.0) + (s.end - s.start)
        self_by[s.name] = self_by.get(s.name, 0.0) + own
        count[s.name] = count.get(s.name, 0) + 1
    root = spans[0]
    wall = root.end - root.start

    m = {metric: incl.get(name, 0.0) for metric, name in INCLUSIVE_S.items()}
    m["electrical.grounded_solves"] = float(count.get("electrical.grounded_laplacian_solve", 0))
    steps = facts.get("mpa.steps", 0.0)
    m["mpa.steps"] = steps
    m["mpa.step_us"] = 1e6 * self_by.get("mpa.run_mpa", 0.0) / steps if steps else 0.0
    m["mpa.trace_mb"] = facts.get("mpa.trace_mb", 0.0)
    m["graphs.messages"] = facts.get("graphs.messages", 0.0)
    m["graphs.dep_arcs"] = facts.get("graphs.dep_arcs", 0.0)
    gsteps = facts.get("analysis.generalized_steps", 0.0)
    m["analysis.generalized_step_us"] = (
        1e6 * incl.get("analysis.run_generalized", 0.0) / gsteps if gsteps else 0.0
    )
    m["experiment.report_bytes"] = facts.get("experiment.report_bytes", 0.0)
    m["cli.self_s"] = self_by.get("cli.main", 0.0)
    layer = _union_length((s.start, s.end) for s in spans if s.name in LAYER_SPANS)
    m["bench.span_coverage"] = (layer + m["cli.self_s"]) / wall
    m["bench.traced_op_s"] = wall
    return m

