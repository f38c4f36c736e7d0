"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Checks that every metric prints by name with the unit BENCHMARK.json gives
it, that the oracle check catches a single flipped answer, that simulated
figures and transcript digests repeat exactly for the same seed, and that
the auditor leaves the autoage transcript unchanged. Last, it slows the
ring down on purpose and checks that the host-speed scaling passes the
slowdown through in full (see sensitivity). Exits non-zero on the first
failed check; about half a minute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import statistics
import sys
import time

import run as bench
from oracle import check_transcript

SEED = 3
TINY_AUTOAGE = dict(p=5, s=400, k=5, auto_age_c=0.5)
TINY = {
    "steady": bench.Workload("steady", 3000, 0.67, dict(p=10, s=20000, k=5)),
    "autoage": bench.Workload("autoage", 10000, 1.0, TINY_AUTOAGE),
    "autoage-audit": bench.Workload("autoage-audit", 10000, 1.0,
                                    dict(TINY_AUTOAGE, validate=True)),
}
SIMULATED = ("query_ticks_p50", "query_ticks_p99", "query_served_frac")

SENSITIVE = bench.Workload("steady", 20000, 0.67, dict(p=10, s=20000, k=5))
SENSITIVE_ROUNDS = 7
SPIN = 150                          # additions per tick of the CPU burden
LOADS = 6                           # scattered reads per tick of the memory burden
BUFFER = bytearray(b"\x01") * (32 << 20)  # far larger than a core's L2 cache


def execute(workload, trace):
    """Run a tiny workload; returns (run, printed lines, final JSON)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run = bench.execute(workload, SEED, 0.0, trace, (0.0, 0.0, 0.0))
    lines = buf.getvalue().splitlines()
    return run, lines, json.loads(lines[-1])


def prints(lines, metric, unit):
    """A report line reads `<metric> <value> <unit>`, maybe with a note."""
    return any(line.split()[:1] == [metric] and line.split()[2:3] == [unit]
               for line in lines)


def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"selftest ok: {what}")


def spin(ring):
    x = 0
    for i in range(SPIN):
        x += i


def scatter(ring):
    buf = BUFFER
    j = ring.t * 104729 % len(buf)
    for _ in range(LOADS):
        buf[j]
        j = (j + 1_048_583) % len(buf)


def sensitivity():
    """Slow every tick by a fixed burden, pure computation or scattered
    memory reads, and check that the host-speed scaling passes the slowdown
    through in full. The burden times itself, so each burdened round knows
    the share of its own time the burden took, under the host conditions of
    that round; items_per_s over the rounds, scaled, must fall by that
    share. Should the burden slow the reference calls too (see
    hostspeed.py), the scaled fall comes out smaller. Falls are taken
    against rounds whose burden does nothing, so the cost of the wrapper
    itself cancels out."""
    from ringcc import Ring
    plain = Ring.__dict__["tick"]
    perf = time.perf_counter

    def burdened(extra, spent):
        def tick(ring, item=None):
            t0 = perf()
            extra(ring)
            spent[0] += perf() - t0
            return plain(ring, item)
        return tick

    items = bench.make_items(SENSITIVE, SEED)
    extras = {"none": lambda ring: None, "cpu": spin, "memory": scatter}
    spent = [0.0]
    ticks = {kind: burdened(extra, spent) for kind, extra in extras.items()}
    runs = {kind: bench.Run(SENSITIVE, items) for kind in extras}
    shares = {kind: [] for kind in extras}  # per round: burden seconds, round seconds
    for _ in range(SENSITIVE_ROUNDS):
        for kind in extras:
            spent[0] = 0.0
            Ring.tick = ticks[kind]
            try:
                rnd = bench.run_round(SENSITIVE, items, SEED)
            finally:
                Ring.tick = plain
            runs[kind].add(rnd)
            shares[kind].append((spent[0], rnd.wall_s))

    rate = {kind: run.end_to_end(0.0, 0.0)[0]["items_per_s"] for kind, run in runs.items()}
    idle = statistics.median(s for s, _ in shares["none"])
    for kind in ("cpu", "memory"):
        want = statistics.median((s - idle) / w for s, w in shares[kind])
        got = 1 - rate[kind] / rate["none"]
        check(0.8 <= got / want <= 1.25,
              f"{kind} burden takes {want:.1%} of a round; scaled items_per_s falls {got:.1%}")


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(end_to_end == bench.END_TO_END, "BENCHMARK.json end-to-end metrics match run.py")
    check([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS),
          "BENCHMARK.json workloads match run.py")

    results = {}
    for name, workload in TINY.items():
        run, lines, out = execute(workload, 0)
        check(run.correct and out["correct"] and out["failed"] == 0,
              f"{name}: every answer matches the oracle")
        got = {n: m["unit"] for n, m in out["metrics"].items()}
        check(got == end_to_end, f"{name}: JSON carries every end-to-end metric with its unit")
        for metric, unit in {**end_to_end, **bench.REPORTED}.items():
            check(prints(lines, metric, unit), f"{name}: prints {metric} with unit {unit}")
        results[name] = (run, out)

        again, _, out2 = execute(workload, 0)
        check(again.digest == run.digest, f"{name}: transcript digest repeats")
        for metric in SIMULATED:
            check(out2["metrics"][metric] == out["metrics"][metric],
                  f"{name}: {metric} repeats exactly")
        check(again.survivor_err() == run.survivor_err(), f"{name}: survivor_err repeats")

    auto, _ = results["autoage"]
    check(auto.check.survivors, "autoage: tiny run performs deletions")
    check(auto.check.busy > 0, "autoage: tiny run refuses some queries as busy")
    check(results["autoage-audit"][0].digest == auto.digest,
          "autoage and autoage-audit transcripts are identical")

    run, lines, out = execute(TINY["autoage"], 1)
    got = {n: m["unit"] for n, m in out["metrics"].items()}
    check(got == per_layer, "traced run carries every per-layer metric with its unit")
    for metric, unit in per_layer.items():
        check(prints(lines, metric, unit), f"traced run prints {metric} with unit {unit}")

    # one flipped answer must be caught
    items = bench.make_items(TINY["autoage"], SEED)
    rnd = bench.run_round(TINY["autoage"], items, SEED)
    clean = check_transcript(rnd.text)
    check(not clean.mismatches, "unaltered transcript passes the oracle")
    lines = rnd.text.splitlines()
    idx = next(i for i, line in enumerate(lines)
               if " OUT " in line and line.endswith((" true", " false")))
    flipped = lines[idx].rsplit(" ", 1)
    lines[idx] = flipped[0] + (" false" if flipped[1] == "true" else " true")
    bad = check_transcript("\n".join(lines) + "\n")
    check(len(bad.mismatches) == 1, "a single flipped answer is caught")
    run = bench.Run(TINY["autoage"], items)
    run.add(dataclasses.replace(rnd, text="\n".join(lines) + "\n"))
    check(not run.correct and run.failed == 1, "the flipped answer fails the run")

    sensitivity()
    print("selftest PASSED")
    return 0


if __name__ == "__main__":
    bench.import_ringcc()
    sys.exit(main())
