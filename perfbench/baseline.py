"""Measure the baseline: every workload on several seeds, plus traced runs.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py [--seeds 10] [--trace-seeds 3] [--out perfbench/baseline.json]

Runs ``run.py`` once per seed and workload with the ``run_seconds`` of
BENCHMARK.json, then ``--trace-seeds`` traced runs per workload. Writes, per
workload and metric, the median, the quartiles and the spread (quartile
distance over median) of the runs, the environment, and the ROADMAP targets
mapped onto metric names.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

import run
import workloads

ROADMAP = {
    "NED predict p50 <= 250 us": "filter.predict_us_p50 on ned-sparse-gnss (per-layer, traced)",
    "30 s CLI run <= 1.5 s": "setup_s + run_s on ned-sparse-gnss (a 30 s, 100 Hz NED run)",
    "criterion 7 under 20 s": "run_s on monte-carlo (4 members; criterion 7 runs 200 of 60 s)",
    "telemetry overhead under 2 %": "run_s on every workload, against this baseline",
}


def one_run(workload, seed, seconds, trace):
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(argv, capture_output=True, text=True, check=True).stdout.splitlines()
    record = json.loads(next(l for l in lines if l.startswith("record "))[len("record "):])
    return json.loads(lines[-1]), record


def summary(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "unit": results[0]["metrics"][name]["unit"],
            "values": values,
        }
    return out


def predictions(traced):
    """The layer-share predictions, checked on the traced runs."""
    def med(workload, key, name):
        return statistics.median(r["shares"][key].get(name, 0.0) for r in traced[workload])

    ned_self = {k: med("ned-sparse-gnss", "self_s", k) for k in traced["ned-sparse-gnss"][0]["shares"]["self_s"]}
    run_s = statistics.median(r["shares"]["traced_run_s"] for r in traced["ned-sparse-gnss"])
    return {
        "ned-sparse-gnss: filter.predict inclusive share of traced run_s":
            med("ned-sparse-gnss", "inclusive_s", "filter.predict") / run_s,
        "ned-sparse-gnss: largest self-time span": max(ned_self, key=ned_self.get),
        "ecef-dense-gnss: update + smoother + metrics + serialize inclusive share of traced run_s":
            statistics.median(r["shares"]["back_end_share"] for r in traced["ecef-dense-gnss"]),
        "monte-carlo: cli.mc_member_wait_s":
            statistics.median(r["layer"]["cli.mc_member_wait_s"] for r in traced["monte-carlo"]),
    }


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace-seeds", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=str(run.HERE / "baseline.json"))
    args = parser.parse_args()

    doc = {
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {
                k: v
                for k, v in np.show_config(mode="dicts")["Build Dependencies"]["blas"].items()
                if k in ("name", "version", "openblas configuration")
            },
            "load_average_at_start": os.getloadavg(),
            "run_seconds": args.seconds,
            "seeds": list(range(1, args.seeds + 1)),
        },
        "roadmap_targets": ROADMAP,
        "end_to_end": {},
        "per_layer": {},
    }
    traced = {}
    for workload in workloads.WORKLOADS:
        results = []
        for seed in doc["environment"]["seeds"]:
            result, record = one_run(workload, seed, args.seconds, 0)
            results.append(result)
            if record["mc_workers"]:
                doc["environment"]["mc_default_workers"] = record["mc_workers"]
            print(workload, seed, result["correct"], json.dumps(
                {k: v["value"] for k, v in result["metrics"].items()}), flush=True)
        doc["end_to_end"][workload] = summary(results)
        doc["end_to_end"][workload]["failed"] = sum(r["failed"] for r in results)
        doc["end_to_end"][workload]["attempted"] = sum(r["attempted"] for r in results)
        if args.trace_seeds:
            layer = []
            for seed in range(1, args.trace_seeds + 1):
                result, record = one_run(workload, seed, args.seconds, 1)
                record["layer"] = {k: v["value"] for k, v in result["metrics"].items()}
                traced.setdefault(workload, []).append(record)
                layer.append(result)
            doc["per_layer"][workload] = {
                k: {"median": v["median"], "unit": v["unit"], "values": v["values"]}
                for k, v in summary(layer).items()
            }
    if len(traced) == len(workloads.WORKLOADS):
        doc["predictions"] = predictions(traced)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, metrics in doc["end_to_end"].items():
        for name, m in metrics.items():
            if isinstance(m, dict):
                print(f"{workload:16s} {name:16s} median {m['median']:.6g} spread {m['spread']:.4f}")


if __name__ == "__main__":
    main()
