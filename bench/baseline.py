"""Run every workload on seeds 1-10 and record medians and spreads.

    python3 bench/baseline.py --out bench/BASELINE.json

Runs ``bench/run.py`` once per (workload, seed), one run at a time, with
the ``run_seconds`` from ``BENCHMARK.json``, then one traced run per
workload on the first seed.  For each end-to-end metric it writes the
median, the quartiles and the spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) and prints
the spread next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["environment"] = json.loads(lines[0])["environment"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="", help="JSON file to write; default print only")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(name, seed, spec["run_seconds"], 0))
            r = runs[-1]
            print(f"{name} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", flush=True)
        report["environment"] = runs[0]["environment"]
        metrics = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            metrics[metric["name"]] = {"unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "values": values}
            flag = "ok" if spread < bounds[metric["name"]] / 3 else "WIDE"
            print(f"  {metric['name']:22s} median {med:.6g} spread {spread:.4f} "
                  f"(bound {bounds[metric['name']]}) {flag} {[round(v, 4) for v in values]}",
                  flush=True)
        traced = run_once(name, SEEDS[0], spec["run_seconds"], 1)
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
