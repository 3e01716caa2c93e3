"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/repeat.py --seeds 1-10 [--trace 0|1] [--out bench/baseline.json]

Runs ``bench/run.py`` once per (workload, seed) for every workload in
BENCHMARK.json, at its ``run_seconds``, one process at a time, from the
root of the checkout.  For each workload and metric it reports the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, and flags every end-to-end metric whose
spread exceeds its bound in BENCHMARK.json; the exit code is then 1.
With ``--out`` the summary is stored in that file under "end_to_end" or
"per_layer", keeping the other section.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(l[len("environment "):]) for l in lines if l.startswith("environment "))
    return {"seed": seed, "environment": env, "result": json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary, runs, ok = {}, {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = [run_once(workload, s, spec["run_seconds"], args.trace) for s in seeds]
        results = [r["result"] for r in runs[workload]]
        per_metric = {}
        for name, first in results[0]["metrics"].items():
            per_metric[name] = summarise([r["metrics"][name]["value"] for r in results])
            per_metric[name]["unit"] = first["unit"]
        summary[workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "inputs": {r["seed"]: r["environment"]["inputs"] for r in runs[workload]},
            "metrics": per_metric,
        }
        ok &= summary[workload]["correct"]
        for name, s in per_metric.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] > bound:
                flag, ok = "  SPREAD ABOVE BOUND", False
            elif bound is not None and s["spread"] > bound / 3:
                flag = "  spread above a third of the bound"
            print(f"{workload:18s} {name:36s} median {s['median']:12.6g} {s['unit']:5s} "
                  f"spread {s['spread']:.4f}{flag}")
        print(f"{workload:18s} correct={summary[workload]['correct']} "
              f"attempted={summary[workload]['attempted']} failed={summary[workload]['failed']}",
              flush=True)

    if args.out is not None:
        record = json.loads(args.out.read_text()) if args.out.is_file() else {}
        record["per_layer" if args.trace else "end_to_end"] = {
            "seeds": seeds,
            "seconds": spec["run_seconds"],
            "environment": runs[next(iter(runs))][0]["environment"],
            "workloads": summary,
        }
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
