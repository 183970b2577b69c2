#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

Usage: python3 perfbench/steady.py <workload> [--seeds 1,2,3] [--seconds N]
                                   [--bin PATH] [--trace 0|1]

For every metric it prints the median and the distance between the first
and third quartiles as a share of the median (statistics.quantiles, n=4),
the steadiness measure BENCHMARK.json bounds are compared with. Without
--bin it runs the command declared in BENCHMARK.json from the repository
root.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--bin")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [args.bin] if args.bin else bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds.split(","):
        cmd = command + ["--workload", args.workload, "--seed", seed,
                         "--seconds", str(seconds), "--trace", args.trace]
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        for line in run.stderr.splitlines():
            if "host factor" in line or "unscaled" in line:
                print("    " + line.removeprefix("perfbench: "), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        vals = [v for v in vals if v is not None]
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"{name:30s} median {med:14.6g}  spread {spread:7.3f}  "
              f"bound {bound if bound is not None else '-'} {flag}")
        print("    " + " ".join(f"{v:.6g}" for v in vals))


if __name__ == "__main__":
    main()
