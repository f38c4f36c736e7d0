"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 bench/prove.py --out bench/results/<name>.json

Runs every workload in BENCHMARK.json over seeds 1-10 for its run_seconds,
each run a fresh `bench/run.py` process, one after another. For every
metric the summary gives the median, the quartiles (statistics.quantiles
with n=4) and their distance as a share of the median, next to the bound
BENCHMARK.json fixes. With --out, the summary, every run's result and
context, and one traced run per workload are written as a trajectory point.
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


SEEDS = range(1, 11)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stdout}\n{done.stderr}")
    context = next((json.loads(line[len("context "):]) for line in lines
                    if line.startswith("context ")), {})
    digest = next((line.split()[-1] for line in lines
                   if line.startswith("transcript sha256 ")), None)
    return {"seed": seed, "context": context, "digest": digest,
            "result": json.loads(lines[-1])}


def summarise(runs, bounds):
    out = {}
    names = runs[0]["result"]["metrics"]
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": names[name]["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "bound": bounds.get(name)}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", help="write a trajectory point here")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    point = {"seconds": seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        summary = summarise(runs, bounds)
        print(f"== {workload}: {len(runs)} runs, seeds {SEEDS[0]}-{SEEDS[-1]}", flush=True)
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            flag = ""
            if s["spread"] is not None and s["bound"] is not None:
                flag = "  OVER BOUND" if s["spread"] > s["bound"] else (
                    "  over bound/3" if s["spread"] > s["bound"] / 3 else "")
            print(f"  {name:20s} median {s['median']:<14.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {spread} (bound {s['bound']}){flag}")
        bad = [r["seed"] for r in runs if not r["result"]["correct"]]
        if bad:
            ok = False
            print(f"  INCORRECT on seeds {bad}")
        entry = {"summary": summary, "runs": runs}
        if args.out:
            entry["traced"] = run_once(workload, SEEDS[0], seconds, 1)
        point["workloads"][workload] = entry
    # the auditor only observes: its transcripts must equal the plain ones
    done = point["workloads"]
    plain = {r["seed"]: r["digest"] for r in done["autoage"]["runs"]}
    same = all(plain[r["seed"]] == r["digest"] for r in done["autoage-audit"]["runs"])
    print(f"autoage and autoage-audit transcripts identical on every seed: {same}")
    point["audit_digests_match"] = same
    ok = ok and same
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(point, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
