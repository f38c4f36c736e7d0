"""ringcc benchmark: closed-loop workloads driven through `ringcc.Ring`.

    python3 bench/run.py --workload steady --seed 1 --seconds 25 --trace 0

One client, one thread: each stream item goes to `Ring.tick` only after the
previous tick returned, and the ring then drains. The stream is generated
from the seed before anything is timed and is the only input the ring gets.
A run repeats whole rounds (fresh ring, same stream) until `--seconds` of
round time have passed, so every round's simulated output is identical and
host-time figures are taken as medians over the rounds. Host times are
reported in seconds of a reference host: each round measures how much slower
than that host this one runs, and divides by it (see hostspeed.py).

`--trace 0` reports the end-to-end metrics; `--trace 1` runs one untraced
and one traced round and reports the per-layer metrics (see tracer.py). The
last line of output is one JSON object: correct, attempted, failed, metrics.
Exit status is 1 when an output check fails and 2 when the checkout has no
ringcc source.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass

from hostspeed import HostSpeed
from oracle import check_transcript

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, "bench", "out")

QUERY_EVERY = 10        # a connectivity query after every 10 edges
SETUP_MIN = 9           # fresh interpreters timed for setup_s, at least
TRACE_WINDOW = 200      # ticks whose spans the traced run keeps in full
DRAIN_CAP = 1_000_000   # idle ticks allowed before the ring must be quiescent
CHUNK_TICKS = 1000      # ticks per timed chunk of a round


@dataclass(frozen=True)
class Workload:
    name: str
    edges: int
    u_target: float
    ring: dict  # RingConfig fields other than the seed


# Why each workload is there is recorded in BENCHMARK.json. Stream sizes give
# every workload at least 10,000 answered queries, so the p99 latencies have
# at least 100 samples beyond them.
AUTOAGE_RING = dict(p=10, s=2400, k=5, auto_age_c=0.5)
WORKLOADS = {w.name: w for w in (
    Workload("steady", 100_000, 0.67, dict(p=10, s=20000, k=5)),
    Workload("autoage", 150_000, 1.0, AUTOAGE_RING),
    Workload("autoage-audit", 150_000, 1.0, dict(AUTOAGE_RING, validate=True)),
)}

# name -> unit, in report order
END_TO_END = {
    "items_per_s": "items/s",
    "query_ms_p50": "ms",
    "query_ms_p99": "ms",
    "query_ticks_p50": "ticks",
    "query_ticks_p99": "ticks",
    "query_served_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# printed for reading, not gated: zero or undefined on some workloads
REPORTED = {"query_failed_frac": "ratio", "survivor_err": "ratio"}


def import_ringcc():
    """Put the checkout's source first on the path; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "ringcc", "__init__.py")):
        print(f"error: no ringcc source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import ringcc
    if not os.path.abspath(ringcc.__file__).startswith(SRC + os.sep):
        print(f"error: imported ringcc from {ringcc.__file__}", file=sys.stderr)
        sys.exit(2)


def make_items(workload, seed):
    from ringcc.streams import gen_uniform, interleave_queries
    edges = gen_uniform(workload.edges, workload.u_target, seed)
    return interleave_queries(edges, every=QUERY_EVERY, seed=seed)


def ring_config(workload, seed):
    from ringcc import RingConfig
    return RingConfig(seed=seed, **workload.ring)


# ---------------------------------------------------------------------------
# run context and set-up time

def git_sha(root):
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_context(workload, seed, items, loadavg):
    from ringcc import Arrival
    arrivals = sum(1 for it in items if type(it) is Arrival)
    return {
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": loadavg,
        "workload": workload.name,
        "seed": seed,
        "items": len(items),
        "arrivals": arrivals,
        "queries": len(items) - arrivals,
    }


SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ringcc
ringcc.Ring(ringcc.RingConfig(**json.loads(sys.argv[2])))
print(time.perf_counter() - t0)
"""


def time_setup(workload, seed):
    """Seconds a fresh interpreter takes to import ringcc and construct the
    workload's ring; interpreter start-up itself is not counted."""
    cfg = json.dumps(dict(workload.ring, seed=seed))
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, cfg],
                          cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=60)
    return float(done.stdout)


# ---------------------------------------------------------------------------
# one round

@dataclass
class Round:
    wall_s: float       # ring time only; the reference calls are left out
    stamps: list        # stamps[t]: ring time tick t started; [-1]: last end
    slowdown: float     # host slowdown over the round (see hostspeed.py)
    local: list         # host slowdown per chunk of CHUNK_TICKS ticks
    text: str
    digest: str
    ticks: int
    suspended_ticks: int
    violations: int


def run_round(workload, items, seed):
    """Closed loop over the stream, then drain; times every tick boundary.
    After every CHUNK_TICKS ticks the host-speed reference runs once; its
    time is taken off the ring's clock."""
    from ringcc import Ring
    ring = Ring(ring_config(workload, seed))
    speed = HostSpeed()

    def feed():
        yield from items
        for _ in range(DRAIN_CAP):
            if ring.quiescent():
                return
            yield None
        raise RuntimeError(f"ring did not quiesce within {DRAIN_CAP} idle ticks")

    perf = time.perf_counter
    tick = ring.tick
    stamps = []
    push = stamps.append
    paused = 0.0
    for n, item in enumerate(feed(), 1):
        push(perf() - paused)
        tick(item)
        if n % CHUNK_TICKS == 0:
            paused += speed.call()
    push(perf() - paused)
    if not speed.times:
        speed.call()
    text = ring.transcript.text()
    return Round(wall_s=stamps[-1] - stamps[0], stamps=stamps,
                 slowdown=speed.slowdown(), local=speed.local_slowdowns(), text=text,
                 digest=hashlib.sha256(text.encode()).hexdigest(),
                 ticks=ring.t, suspended_ticks=ring.suspended_ticks,
                 violations=len(ring.violations))


def query_ticks(items):
    """Submission tick of each connectivity query, in query-id order; one
    item is submitted per tick from tick 0."""
    from ringcc import Connectivity
    return [t for t, it in enumerate(items) if type(it) is Connectivity]


def reference_clock(rnd):
    """The round's tick boundaries in reference-host seconds: each tick's
    time divided by the slowdown measured around its chunk. A final partial
    chunk, which no reference call follows, takes the last one's."""
    local = rnd.local
    last = len(local) - 1
    stamps = rnd.stamps
    clock = [0.0]
    at = 0.0
    for t in range(len(stamps) - 1):
        at += (stamps[t + 1] - stamps[t]) / local[min(t // CHUNK_TICKS, last)]
        clock.append(at)
    return clock


def percentile(sorted_values, q):
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


# ---------------------------------------------------------------------------
# a whole run

class Run:
    """Rounds of one workload, their output checks and their metrics.

    Host times are first put on the reference host's clock (see
    reference_clock and hostspeed.py). Every round repeats the same simulated work, so they are
    then taken per piece of work and their median over rounds is used: each
    chunk of CHUNK_TICKS ticks for throughput, each answered query for
    latency. A short slow spell then moves one round's figure, not the
    median. Each round is checked as it finishes and only its timings are
    kept.
    """

    def __init__(self, workload, items):
        self.workload = workload
        self.items = items
        self.submitted = query_ticks(items)
        self.check = None           # oracle check of the first round
        self.digest = None
        self.walls = []             # ring seconds per round, unscaled
        self.slowdowns = []         # host slowdown per round
        self.chunk_s = []           # per round: seconds per chunk of ticks
        self.query_s = []           # per round: seconds per answered query
        self.failed = 0
        self.problems = []

    def add(self, rnd):
        """Check a finished round: the first against the oracle, later ones
        by digest (and against the oracle only if the digest differs)."""
        self.walls.append(rnd.wall_s)
        self.slowdowns.append(rnd.slowdown)
        if self.workload.ring.get("validate") and rnd.violations:
            self.problems.append(f"{rnd.violations} audit violations")
        if self.check is None:
            self.check = self._checked(rnd)
            self.digest = rnd.digest
        elif rnd.digest != self.digest:
            self.problems.append(f"round {len(self.walls) - 1} transcript differs")
            self.failed += self._checked(rnd).failed
            return  # different work: its timings do not pair with the others
        self.failed += self.check.failed
        clock = reference_clock(rnd)
        last = len(clock) - 1
        self.chunk_s.append(array("d", (
            clock[min(i + CHUNK_TICKS, last)] - clock[i]
            for i in range(0, last, CHUNK_TICKS))))
        self.query_s.append(array("d", (
            clock[done + 1] - clock[sent]
            for sent, done in self._answered(self.check))))

    def _checked(self, rnd):
        chk = check_transcript(rnd.text)
        if len(chk.answer) != len(self.submitted):
            self.problems.append(
                f"{len(chk.answer)} queries injected, {len(self.submitted)} submitted")
        if chk.mismatches:
            self.problems.append(f"{len(chk.mismatches)} answers disagree with the oracle")
        if chk.unanswered:
            self.problems.append(f"{chk.unanswered} queries never answered")
        return chk

    def _answered(self, chk):
        """(submission tick, answer tick) of every query answered other than
        busy; host latency runs from the start of the first to the end of the
        second."""
        for qid, sent in enumerate(self.submitted[:len(chk.answer)]):
            if chk.answer[qid] not in (None, "busy"):
                yield sent, chk.answer_tick[qid]

    @property
    def correct(self):
        return not self.problems

    @property
    def attempted(self):
        return len(self.items) * len(self.walls)

    def survivor_err(self):
        """Mean |survivors / S - c| over the deletions; None without any."""
        c = self.workload.ring.get("auto_age_c")
        survivors = self.check.survivors
        if c is None or not survivors:
            return None
        cap = self.workload.ring["p"] * self.workload.ring["s"]
        return statistics.fmean(abs(n / cap - c) for n in survivors)

    def end_to_end(self, setup_s, peak_rss_mb):
        wall = sum(map(statistics.median, zip(*self.chunk_s)))
        ms = sorted(statistics.median(q) * 1e3 for q in zip(*self.query_s))
        ticks = sorted(done - sent for sent, done in self._answered(self.check))
        queries = len(self.submitted)
        bad = self.check.busy + self.check.failed
        values = {
            "items_per_s": len(self.items) / wall,
            "query_ms_p50": percentile(ms, 50),
            "query_ms_p99": percentile(ms, 99),
            "query_ticks_p50": percentile(ticks, 50),
            "query_ticks_p99": percentile(ticks, 99),
            "query_served_frac": (queries - bad) / queries,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        reported = {"query_failed_frac": bad / queries,
                    "survivor_err": self.survivor_err()}
        return values, reported, len(ms)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, seed, items, seconds):
    """Rounds until `seconds` of round time have passed, with one set-up
    sample before each round so set-up is sampled across the whole run;
    each sample is scaled by the host slowdown of the round after it.
    Peak memory is read after the first round, before any checking, so it
    does not depend on how many rounds fit."""
    run = Run(workload, items)
    setup = []
    rss = None
    while rss is None or sum(run.walls) < seconds:
        took = time_setup(workload, seed)
        gc.collect()
        rnd = run_round(workload, items, seed)
        setup.append(took / rnd.slowdown)
        if rss is None:
            rss = peak_rss_mb()
        run.add(rnd)
    while len(setup) < SETUP_MIN:
        setup.append(time_setup(workload, seed) / rnd.slowdown)
    return run, rss, statistics.median(setup)


def measure_traced(workload, seed, items):
    """One untraced round (the overhead base, and the collector's figures),
    then one traced round. Times are in reference-host units, like the
    end-to-end ones; span records in the trace file are unscaled."""
    from tracer import ROLES, SPANS, GcWatch, Tracer, prediction
    run = Run(workload, items)
    gc.collect()
    with GcWatch() as gcw:
        plain = run_round(workload, items, seed)
    run.add(plain)
    chk = run.check
    # keep full spans from just before the first deletion, if there is one
    lo = max(0, chk.aging_spans[0][0] - TRACE_WINDOW // 10) if chk.aging_spans else 0
    tracer = Tracer((lo, lo + TRACE_WINDOW))
    gc.collect()
    tracer.install()
    try:
        traced = run_round(workload, items, seed)
    finally:
        tracer.uninstall()
    run.add(traced)

    metrics = {}
    calls = tracer.calls
    us = 1e6 / traced.slowdown  # reference-host microseconds per second
    names = [f"processor.bundle.{role}" for role in ROLES]
    for name in names + [n for n in SPANS if n != "ring.tick"]:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_us"] = (tracer.self_s[name] * us, "us")
    metrics["ring.tick.self_us"] = (tracer.self_s["ring.tick"] * us, "us")
    bundles = sum(calls[f"processor.bundle.{role}"] for role in ROLES)
    metrics["processor.noop_frac"] = (tracer.noop_calls / bundles, "ratio")
    metrics["processor.edge_hops_per_item"] = (tracer.edge_hops / len(items), "hops")
    spans = chk.aging_spans
    searches = tracer.method_calls["AutoAgeMonitor.on_stats"]
    circuits = tracer.method_calls["AutoAgeMonitor.on_survivors"]
    metrics["aging.search_circuits_mean"] = (
        circuits / searches if searches else 0.0, "circuits")
    metrics["aging.deletions"] = (len(spans), "count")
    metrics["aging.rebuild_ticks_mean"] = (
        statistics.fmean(b - a for a, b in spans) if spans else 0.0, "ticks")
    metrics["aging.suspended_frac"] = (traced.suspended_ticks / traced.ticks, "ratio")
    metrics["aging.survivor_err"] = (run.survivor_err() or 0.0, "ratio")
    metrics["ring.junction.backlog_max"] = (tracer.backlog_max, "items")
    metrics["ring.junction.backlog_ticks"] = (tracer.backlog_ticks, "ticks")
    metrics["ring.transcript.events"] = (traced.text.count("\n"), "count")
    metrics["gc.pause_ms"] = (gcw.pause_s * 1e3 / plain.slowdown, "ms")
    metrics["gc.gen2"] = (gcw.gen2, "count")
    metrics["host.items_per_s_unscaled"] = (len(items) / plain.wall_s, "items/s")
    metrics["host.slowdown"] = (plain.slowdown, "ratio")
    metrics["trace.overhead_x"] = (
        (traced.wall_s / traced.slowdown) / (plain.wall_s / plain.slowdown), "ratio")

    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{workload.name}-{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "seed": seed,
                   "window": tracer.window,
                   "slowdown": traced.slowdown,
                   "aggregate": {n: {"calls": calls[n], "self_us": tracer.self_s[n] * us}
                                 for n in sorted(calls)},
                   "method_calls": dict(sorted(tracer.method_calls.items())),
                   "predictions": {n: prediction(n) for n in metrics},
                   "spans": tracer.span_records()}, fh)
    return run, metrics, path


# ---------------------------------------------------------------------------

def emit(run, metrics):
    out = {"correct": run.correct, "attempted": run.attempted,
           "failed": run.failed,
           "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    print(json.dumps(out))


def execute(workload, seed, seconds, trace, loadavg):
    """Run one workload, print the report and return the Run."""
    items = make_items(workload, seed)
    context = run_context(workload, seed, items, loadavg)
    if trace:
        run, metrics, path = measure_traced(workload, seed, items)
        context["trace_file"] = os.path.relpath(path, ROOT)
    else:
        run, rss, setup_s = measure(workload, seed, items, seconds)
        values, reported, samples = run.end_to_end(setup_s, rss)
        metrics = {n: (values[n], u) for n, u in END_TO_END.items()}
        context["latency_samples"] = samples
    context["rounds"] = len(run.walls)
    context["host_slowdown"] = run.slowdowns
    context["items_per_s_unscaled"] = statistics.median(
        len(items) / wall for wall in run.walls)
    print("context " + json.dumps(context))
    print(f"transcript sha256 {run.digest}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    notes = {}
    if trace:
        from tracer import prediction
        notes = {name: f"  -> {prediction(name)}" for name in metrics if prediction(name)}
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}{notes.get(name, '')}")
    if not trace:
        for name, unit in REPORTED.items():
            value = reported[name]
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{name:34s} {shown:>16s} {unit}")
    emit(run, metrics)
    return run


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    loadavg = os.getloadavg()
    import_ringcc()
    run = execute(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, loadavg)
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
