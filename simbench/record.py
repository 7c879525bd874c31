"""Record the benchmark baseline: every workload over several seeds.

    python3 simbench/record.py [--seeds 10] [--workloads ...] [--out simbench/baseline.json]

Runs the ``BENCHMARK.json`` command once per (workload, seed), each in
a fresh process with tracing off, and writes per workload the
median of every end-to-end metric, its quartile spread as a share of
the median (``statistics.quantiles(values, n=4)``), the operations
attempted and failed, and the host's CPU count.  The ring4096 /
ring4096-shard2 wall ratio is recorded as information only; it is not
a gated metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values) if med else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    report = {
        "nproc": os.cpu_count(),
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for name in names:
        runs = []
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            runs.append(result)
            vals = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed={seed}: {vals} failed {result['failed']}/"
                  f"{result['attempted']} correct={result['correct']}", flush=True)
        row = {"runs": len(runs),
               "attempted": sum(r["attempted"] for r in runs),
               "failed": sum(r["failed"] for r in runs),
               "correct": all(r["correct"] for r in runs),
               "metrics": {}}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            row["metrics"][metric] = {
                "median": statistics.median(values),
                "unit": runs[0]["metrics"][metric]["unit"],
                "spread": spread(values),
                "bound": bounds.get(metric),
            }
            s = row["metrics"][metric]["spread"]
            flag = "" if metric == "setup_s" or s < bounds[metric] / 3 else "  <-- above bound/3"
            print(f"  {name} {metric}: median {statistics.median(values):.4g}"
                  f" spread {s:.3f} (bound {bounds[metric]}){flag}", flush=True)
        report["workloads"][name] = row
    w = report["workloads"]
    if "ring4096" in w and "ring4096-shard2" in w:
        report["info_ring_over_shard2_wall"] = (
            w["ring4096"]["metrics"]["wall_s"]["median"]
            / w["ring4096-shard2"]["metrics"]["wall_s"]["median"]
        )
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
