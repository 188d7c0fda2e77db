"""Record the benchmark baseline into bench/baseline.json.

Usage, from the repository root:

    python3 bench/record.py --runs 10 --seconds 20

For each workload this runs ``bench/run.py`` untraced once per seed
1..runs and keeps each end-to-end metric's median, quartiles and spread
(interquartile distance over median).  Beside that baseline it records,
ungated, one single-BLAS-thread reference run per workload
(``OPENBLAS_NUM_THREADS=1`` in the child processes only) and one traced
run per workload with every per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload: str, seed: int, seconds: float, trace: int, extra: list[str] = ()) -> tuple[dict, dict]:
    """(provenance, result) of one ``run.py`` invocation."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), *extra]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    prov = next(json.loads(line.split(" ", 1)[1]) for line in out if line.startswith("provenance "))
    res = json.loads(out[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} commands failed")
    print(f"{workload} seed={seed} trace={trace} {' '.join(extra)}: "
          + ", ".join(f"{k}={v['value']:.4g}" for k, v in list(res["metrics"].items())[:6]), flush=True)
    return prov, res


def summarize(results: list[dict]) -> dict:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": first["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", default=os.path.join(BENCH_DIR, "baseline.json"))
    args = parser.parse_args()

    doc = {"runs_per_workload": args.runs, "seeds": list(range(1, args.runs + 1)), "seconds": args.seconds,
           "workloads": {}}
    for workload in WORKLOADS:
        results = []
        for seed in doc["seeds"]:
            prov, res = run(workload, seed, args.seconds, 0)
            results.append(res)
        _, ref = run(workload, 1, args.seconds, 0, ["--blas-threads", "1"])
        _, traced = run(workload, 1, args.seconds, 1)
        prov.pop("seed")
        prov.pop("workload")
        doc["provenance"] = prov
        doc["workloads"][workload] = {
            "end_to_end": summarize(results),
            "reference_one_blas_thread": {k: v["value"] for k, v in ref["metrics"].items()},
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(args.out, "w") as fp:
        json.dump(doc, fp, indent=1)
        fp.write("\n")
    for workload, w in doc["workloads"].items():
        for name, s in w["end_to_end"].items():
            print(f"{workload:8s} {name:12s} median {s['median']:10.4f} {s['unit']:3s} spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
