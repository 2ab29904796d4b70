#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the way the acceptance
check takes it: each workload of BENCHMARK.json once per seed through the
contract command, then for every metric the distance between the first and
third quartile of its values (statistics.quantiles, n=4) as a share of their
median, next to the metric's bound. A spread should stay below a third of
its bound; `setup_s` is reported but not held to it.

Run from the root of a checkout:  python3 benchmark/spread.py [seeds] [first]
(default 10 seeds starting at 1). Writes the raw values to
benchmark/out/spread-<first>.json.
"""
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    first = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    spec = json.load(open("BENCHMARK.json"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    raw = {}
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(first, first + seeds):
            args = ["--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            out = subprocess.run(spec["command"] + args, env=env, check=True,
                                 capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, (workload, seed, result)
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: {time.time() - t0:.1f} s", file=sys.stderr)
        raw[workload] = values
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q3 - q1) / median
            share = spread / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, share)
            print(f"{workload:<26} {m['name']:<20} median {median:>14.6f} "
                  f"spread {spread:8.4f} bound {m['bound']:5.2f} "
                  f"spread/bound {share:5.2f}", flush=True)
    os.makedirs("benchmark/out", exist_ok=True)
    with open(f"benchmark/out/spread-{first}.json", "w") as f:
        json.dump(raw, f, indent=1)
    print(f"worst spread/bound outside setup_s: {worst:.2f} (target below 0.33)")


if __name__ == "__main__":
    main()
