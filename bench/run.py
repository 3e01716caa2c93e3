"""Benchmark of harmonic-influence: runs one workload and prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there.  Set-up (imports, input generation and one warm-up op)
is timed as ``setup_s``; then ops run back to back, each checked for
correctness, until ``--seconds`` have passed.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` the ops alternate between traced and
untraced and the object holds the per-layer metrics instead.  Times in
the metrics are normalised to a reference host speed (see HostSpeed).
Earlier lines describe the run; the full record, raw times and spans
included, is written to ``.bench_out/``.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MIN_TIMED_OPS = 3


@dataclass
class OpRecord:
    op: int
    wall_s: float
    cpu_s: float
    traced: bool
    problems: list[str] = field(default_factory=list)
    host_s: float = math.nan   # HostSpeed.sample() around the op


class HostSpeed:
    """Times a fixed Python + NumPy kernel that does not touch the package.

    On a shared virtual machine the speed of the host drifts: this kernel's
    time varies by about +-20 % over a minute, and the package's ops slow
    down and speed up with it.  Dividing an op's time by the kernel's time
    around it, and multiplying by REFERENCE_S, gives the op's time on a host
    where the kernel takes REFERENCE_S.  The kernel is small enough to stay
    in the L2 cache, so an op's cache footprint does not leak into it.
    """

    REFERENCE_S = 0.004
    REPEATS = 5

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._index = rng.integers(0, 4096, 16384)
        self._weights = rng.random(16384)
        self._values = rng.random(4096)

    def sample(self) -> float:
        """Best of a few timings of the kernel, in seconds."""
        best = math.inf
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            acc = 0
            for i in range(40_000):
                acc += i * i
            for _ in range(20):
                self._np.bincount(self._index, weights=self._weights * self._values[self._index],
                                  minlength=4096)
            best = min(best, time.perf_counter() - t0)
        return best

    @classmethod
    def normalise(cls, seconds: float, host_s: float) -> float:
        return seconds * cls.REFERENCE_S / host_s


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def import_package():
    """Import harmonic_influence from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import harmonic_influence

    where = Path(harmonic_influence.__file__).resolve()
    if SRC not in where.parents:
        raise ImportError(f"harmonic_influence imported from {where}, not from {SRC}")
    from harmonic_influence import analysis, cli, electrical, experiment, graphs, mpa

    return {"graphs": graphs, "electrical": electrical, "mpa": mpa, "analysis": analysis,
            "experiment": experiment, "cli": cli}


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _openblas() -> list[dict]:
    """Build string and thread count of each OpenBLAS that numpy and scipy bundle."""
    import numpy
    import scipy

    found = []
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else []:
            lib = ctypes.CDLL(str(path))
            info = {"package": pkg.__name__, "library": path.name}
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    if config is not None and threads is not None:
                        config.restype = ctypes.c_char_p
                        threads.restype = ctypes.c_int
                        info["config"] = config().decode()
                        info["threads"] = threads()
            found.append(info)
    return found


def environment(args, work) -> dict:
    import numpy
    import scipy

    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": work.environment,
    }


def run_op(work, k: int, tracer=None, modules=None) -> OpRecord:
    """One op, timed; then its output is checked outside the timed interval."""
    scope = contextlib.ExitStack()
    if tracer is not None:
        scope.enter_context(tracing.instrument(tracer, modules))
        scope.enter_context(tracer.op(k))
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        with scope:
            output = work.op(k)
        error = None
    except Exception as exc:   # any failure of the program counts against the op
        error = f"op raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    record = OpRecord(k, wall, cpu, tracer is not None)
    if error is not None:
        record.problems.append(error)
        return record
    try:
        record.problems += work.check(k, output)
    except Exception as exc:   # a malformed output fails its check
        record.problems.append(f"check raised {type(exc).__name__}: {exc}")
    return record


def end_to_end(setup_s: float, setup_host_s: float, ops: list[OpRecord]) -> dict[str, float]:
    """End-to-end metrics; times are normalised to the reference host speed."""
    walls = [HostSpeed.normalise(r.wall_s, r.host_s) for r in ops]
    failed = sum(1 for r in ops if r.problems)
    return {
        "setup_s": HostSpeed.normalise(setup_s, setup_host_s),
        "op_s_p50": statistics.median(walls),
        "ops_per_s": len(ops) / sum(walls),
        "cpu_s_per_op": statistics.median(HostSpeed.normalise(r.cpu_s, r.host_s) for r in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / len(ops),
    }


def per_layer(tracer, ops: list[OpRecord], units: dict[str, str]) -> dict[str, float]:
    """Medians over the traced ops; times are normalised like the end-to-end ones."""
    traced = []
    for r in ops:
        if r.traced:
            m = tracing.op_metrics(tracer.spans[r.op], tracer.facts[r.op])
            traced.append({k: HostSpeed.normalise(v, r.host_s) if units.get(k) in ("s", "us") else v
                           for k, v in m.items()})
    out = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    untraced = statistics.median(HostSpeed.normalise(r.wall_s, r.host_s) for r in ops if not r.traced)
    out["bench.trace_overhead_frac"] = out["bench.traced_op_s"] / untraced - 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        modules = import_package()
    except ImportError as exc:
        print(f"error: cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 1
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 1

    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT_DIR / f"{run_name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    host = HostSpeed()
    host_at_start = host.sample()
    sampling_s = time.perf_counter() - t0   # not part of set-up
    try:
        work = workloads.WORKLOADS[args.workload](args.seed, scratch)
        warmup = run_op(work, 0)
        setup_s = time.perf_counter() - _PROCESS_T0 - sampling_s
        before = host.sample()
        setup_host_s = 0.5 * (host_at_start + before)

        tracer = tracing.Tracer() if args.trace else None
        ops: list[OpRecord] = []
        t_start = time.perf_counter()
        # At least three timed ops, so that the median is not the mean of
        # two when an op lasts a third of --seconds or more.  In traced mode
        # ops alternate traced /
        # untraced, so the overhead is measured in the same process.
        while time.perf_counter() - t_start < args.seconds or len(ops) < MIN_TIMED_OPS:
            trace_this = tracer is not None and len(ops) % 2 == 0
            record = run_op(work, len(ops) + 1, tracer if trace_this else None, modules)
            after = host.sample()
            record.host_s = 0.5 * (before + after)
            before = after
            ops.append(record)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env = environment(args, work)
    failed = sum(1 for r in ops if r.problems)
    correct = failed == 0 and not warmup.problems
    values = (per_layer(tracer, ops, units) if args.trace
              else end_to_end(setup_s, setup_host_s, ops))
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    record = {"environment": env, "setup_s": setup_s, "setup_host_s": setup_host_s,
              "warmup": asdict(warmup),
              "ops": [asdict(r) for r in ops], "metrics": metrics}
    if tracer is not None:
        record["spans"] = {op: [asdict(s) for s in spans] for op, spans in tracer.spans.items()}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{run_name}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(env, sort_keys=True))
    walls = sorted(r.wall_s for r in ops)
    print(f"ops {len(ops)} (warm-up excluded), wall s min {walls[0]:.4f} "
          f"p50 {statistics.median(walls):.4f} max {walls[-1]:.4f}; setup {setup_s:.4f} s")
    for r in [warmup] + ops:
        for problem in r.problems:
            print(f"FAILED op {r.op}: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
