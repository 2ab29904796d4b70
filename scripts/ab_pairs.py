#!/usr/bin/env python3
"""Alternating pairs of a parent commit and a change through the benchmark,
with one acceptance sentence per workload and end-to-end metric.

Run from the root of a checkout:

    python3 scripts/ab_pairs.py BASE [seeds] [first] [seconds]
        [--change REV] [--workload NAME]... [--trace] [--record LABEL]

BASE and the change (default HEAD) are checked out as two `git worktree`s
in a fresh directory under the system temporary directory (`TMPDIR`, else
/tmp), each built from its own root into its own CARGO_TARGET_DIR, so the
checkout's files, `benchmark/Cargo.lock` included, are left as they are.
Each workload of BENCHMARK.json (or each `--workload`) then runs once per
seed and side through the contract command, `seeds` seeds (default 10)
from `first` (default 1) for `seconds` each (default: BENCHMARK.json's
`run_seconds`). The sides alternate: BASE runs first on odd seeds, the
change on even ones.

For every workload and end-to-end metric it prints the parent's median
[q1-q3] (`statistics.quantiles`, n=4, as benchmark/spread.py takes them),
the change's median, how many pairs the change won (ties count for neither
side), the gap between the medians against the parent's IQR, and a verdict:
`claimable` (won at least nine tenths of the pairs and the gap exceeds the
IQR), `worse beyond bound` (the change's median is worse than the parent's
by more than the metric's bound), or `within bound`. The per-layer figures
the untraced runs report, and with `--trace` those of one extra traced run
per seed and side, follow as medians with their win counts.

Raw values go to pairs.json in the run's directory, which is kept; the
worktrees are removed. `--record LABEL` appends the summary, with the host
facts the benchmark prints, as one line of PERF_TRAJECTORY.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time


def git(*args, cwd=None):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary(values):
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def wins(base, change, better):
    """Pairs the change won, and pairs that were not ties."""
    won = decided = 0
    for b, c in zip(base, change):
        if b == c:
            continue
        decided += 1
        won += (c < b) if better == "lower" else (c > b)
    return won, decided


class Side:
    def __init__(self, name, rev, root, work):
        self.name = name
        self.rev = git("rev-parse", "--short", rev)
        self.dir = os.path.join(work, name)
        git("worktree", "add", "--detach", self.dir, self.rev, cwd=root)
        self.env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(work, name + "-target"))
        spec = json.load(open(os.path.join(self.dir, "BENCHMARK.json")))
        self.command = spec["command"]

    def build(self):
        # The contract command with nothing after `--` builds and refuses
        # the missing arguments; build explicitly instead.
        manifest = self.command[self.command.index("--manifest-path") + 1]
        subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                        "--manifest-path", manifest],
                       cwd=self.dir, env=self.env, check=True)

    def run(self, workload, seed, seconds, trace):
        args = ["--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "1" if trace else "0"]
        out = subprocess.run(self.command + args, cwd=self.dir, env=self.env,
                             capture_output=True, text=True)
        lines = [l for l in out.stdout.splitlines() if l.startswith("{")]
        if len(lines) < 2:
            return None
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        if not result["correct"] or result["failed"] != 0:
            return None
        return detail


def sentence(workload, metric, base, change):
    b, c = summary(base), summary(change)
    won, decided = wins(base, change, metric["better"])
    gap = abs(c["median"] - b["median"])
    iqr = b["q3"] - b["q1"]
    worse = (c["median"] - b["median"]) * (1 if metric["better"] == "lower" else -1)
    if b["median"] and worse / abs(b["median"]) > metric["bound"]:
        verdict = "worse beyond bound"
    elif won * 10 >= 9 * len(base) and gap > iqr and worse < 0:
        verdict = "claimable"
    else:
        verdict = "within bound"
    text = (f"{workload} {metric['name']}: parent {b['median']:.6g} "
            f"[{b['q1']:.6g}-{b['q3']:.6g}] -> change {c['median']:.6g} {metric['unit']}, "
            f"change better {won}/{len(base)} ({decided} decided), "
            f"gap {gap:.3g} vs parent IQR {iqr:.3g}: {verdict}")
    return text, {"parent": b, "change": c["median"], "change_q1": c["q1"],
                  "change_q3": c["q3"], "better": won, "pairs": len(base),
                  "verdict": verdict}


def layer_line(workload, name, unit, better, base, change):
    b, c = summary(base), summary(change)
    won, _ = wins(base, change, better) if better else (0, 0)
    return (f"  {workload} {name}: parent {b['median']:.6g} [{b['q1']:.6g}-{b['q3']:.6g}] "
            f"-> change {c['median']:.6g} {unit}, change better {won}/{len(base)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("seeds", nargs="?", type=int, default=10)
    p.add_argument("first", nargs="?", type=int, default=1)
    p.add_argument("seconds", nargs="?", type=float)
    p.add_argument("--change", default="HEAD")
    p.add_argument("--workload", action="append")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--record")
    a = p.parse_args()

    root = git("rev-parse", "--show-toplevel")
    spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    work = tempfile.mkdtemp(prefix="ab_pairs-")
    print(f"work directory {work}", file=sys.stderr)
    sides = []
    try:
        for name, rev in (("base", a.base), ("change", a.change)):
            sides.append(Side(name, rev, root, work))
        for s in sides:
            print(f"building {s.name} {s.rev}", file=sys.stderr)
            s.build()
        seeds = range(a.first, a.first + a.seeds)
        # raw[kind][workload][side][metric][seed] -> value; a failed run
        # leaves its seed out, and its pair with it.
        kinds = ["untraced"] + (["traced"] if a.trace else [])
        raw = {k: {w: {s.name: {} for s in sides} for w in workloads} for k in kinds}
        host = {}
        failed = []
        for seed in seeds:
            order = sides if seed % 2 else sides[::-1]
            for kind in kinds:
                for w in workloads:
                    for s in order:
                        t0 = time.time()
                        detail = s.run(w, seed, seconds, kind == "traced")
                        print(f"{kind} {w} seed {seed} {s.name}: {time.time() - t0:.1f} s"
                              + ("" if detail else " FAILED"), file=sys.stderr)
                        if detail is None:
                            failed.append((kind, w, seed, s.name))
                            continue
                        for key in ("nproc", "cpu_model", "rustc", "profile"):
                            host[key] = detail[key]
                        values = dict(detail["metrics"], **detail["reported"])
                        for name, m in values.items():
                            slot = raw[kind][w][s.name].setdefault(name, {})
                            slot[seed] = m["value"]
        with open(os.path.join(work, "pairs.json"), "w") as f:
            json.dump({"base": sides[0].rev, "change": sides[1].rev, "seeds": list(seeds),
                       "seconds": seconds, "host": host, "raw": raw, "failed": failed},
                      f, indent=1)

        def paired(kind, w, name):
            b = raw[kind][w]["base"].get(name, {})
            c = raw[kind][w]["change"].get(name, {})
            both = [seed for seed in seeds if seed in b and seed in c]
            return [b[s] for s in both], [c[s] for s in both]

        print(f"base {sides[0].rev} vs change {sides[1].rev}; seeds {a.first}-"
              f"{a.first + a.seeds - 1}, {seconds:g} s each; host {host}")
        results = {}
        for w in workloads:
            results[w] = {}
            for m in spec["end_to_end"]:
                base, change = paired("untraced", w, m["name"])
                if not base:
                    continue
                text, row = sentence(w, m, base, change)
                results[w][m["name"]] = row
                print(text)
            for kind in kinds:
                names = sorted(set(raw[kind][w]["base"]) - {m["name"] for m in spec["end_to_end"]})
                for name in names:
                    base, change = paired(kind, w, name)
                    # A figure the workload does not exercise reads 0.
                    if any(base + change):
                        print(f"{layer_line(w, name, units.get(name, ''), better.get(name), base, change)}"
                              f" ({kind})")
        for f in failed:
            print(f"failed run: {f}")
        print(f"raw values: {os.path.join(work, 'pairs.json')}")
        if a.record:
            line = {"label": a.record, "base": sides[0].rev, "change": sides[1].rev,
                    "seeds": [a.first, a.first + a.seeds - 1], "seconds": seconds,
                    "host": host, "failed_runs": len(failed), "end_to_end": results}
            with open(os.path.join(root, "PERF_TRAJECTORY.jsonl"), "a") as f:
                f.write(json.dumps(line, sort_keys=True) + "\n")
    finally:
        for s in sides:
            subprocess.run(["git", "worktree", "remove", "--force", s.dir], cwd=root,
                           capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=root, capture_output=True)
        for s in sides:
            subprocess.run(["rm", "-rf", s.env["CARGO_TARGET_DIR"]])


if __name__ == "__main__":
    main()
