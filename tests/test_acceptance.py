"""Acceptance suite: one test per criterion, each printing a PASS line.

The expensive runs (the long query-validation stream, the sizing sweep, the
automatic-deletion endurance run) are module-scoped fixtures shared by the
criteria that inspect them. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import concurrent.futures
import multiprocessing
import os
import random

import pytest

from ringcc.aging import TimestampThreshold, min_bandwidth_expansion
from ringcc.experiments import run_experiment_2, run_experiment_3
from ringcc.model import Age, Arrival, Connectivity, DumpLabels, IDLE
from ringcc.multipass import partition, static_cc
from ringcc.pipeline import run_pipelined
from ringcc.ring import Ring, RingConfig
from ringcc.streams import gen_repeat_block, gen_uniform, interleave_queries

from util import OracleCC, bounded_stream, check_hop_equivalence

PASS = "acceptance PASS criterion"


# --------------------------------------------------------------------------
# Criterion 1 / 5 / 9 shared run: long validated stream with queries every
# ten edges and automatic deletions.

@pytest.fixture(scope="module")
def long_run():
    edges = gen_uniform(91_000, 0.67, seed=42)
    items = interleave_queries(edges, every=10, seed=43)
    assert len(items) >= 100_000
    ring = Ring(RingConfig(p=10, s=3000, k=5, validate=True, seed=7,
                           reservoir=100, auto_age_c=0.5,
                           record_inputs=True))
    completions = []
    seen = 0
    for item in items:
        ring.tick(item)
        if len(ring.aging_log) > seen:
            seen = len(ring.aging_log)
            completions.append((ring.t - 1, dict(ring.system_edges())))
    ring.drain()
    if len(ring.aging_log) > seen:
        completions.append((ring.t - 1, dict(ring.system_edges())))
    return {"ring": ring, "items": items, "completions": completions}


def replay_events(ring):
    """(tick, kind, payload) for every input the junction actually took."""
    applied = {e[1] for e in ring.transcript.events
               if e[0] == "EVT" and e[2] == "aging started"}
    out = []
    for e in ring.transcript.events:
        if e[0] != "IN":
            continue
        tick, text = e[1], e[2]
        f = text.split()
        if not f:
            continue
        if f[0] == "E":
            out.append((tick, "edge", (int(f[1]), int(f[2]))))
        elif f[0] == "Q":
            out.append((tick, "query", (int(f[1]), int(f[2]))))
        elif f[0] == "AGE" and tick in applied:
            out.append((tick, "age", int(f[1])))
    return out


def test_criterion_1_query_oracle_agreement(long_run):
    ring = long_run["ring"]
    assert len(ring.aging_log) >= 2, "need at least two deletion events"
    answers = {e[2]: e[4] for e in ring.transcript.outputs("answer")}
    busies = {e[2] for e in ring.transcript.outputs("busy")}
    oracle = OracleCC()
    checked = 0
    qid = 0
    for tick, kind, payload in replay_events(ring):
        if kind == "edge":
            oracle.arrive(payload[0], payload[1], tick)
        elif kind == "age":
            oracle.age(payload)
        else:
            u, v = payload
            if qid in answers:
                assert answers[qid] == oracle.connected(u, v), \
                    f"query q{qid} at tick {tick} disagrees with the oracle"
                checked += 1
            else:
                assert qid in busies, f"query q{qid} got no response"
            qid += 1
    assert checked >= 5000
    print(f"\n{PASS} 1: {checked} answered queries match the oracle exactly "
          f"({len(ring.aging_log)} deletions, {len(busies)} busy)")


def test_criterion_5_aging_semantics(long_run):
    ring = long_run["ring"]
    completions = long_run["completions"]
    assert completions, "no deletions completed"
    oracle = {}
    events = replay_events(ring)
    idx = 0
    for target_tick, snapshot in completions:
        while idx < len(events) and events[idx][0] <= target_tick:
            tick, kind, payload = events[idx]
            if kind == "edge":
                u, v = payload
                oracle[(min(u, v), max(u, v))] = tick
            elif kind == "age":
                thr = payload
                oracle = {k: t for k, t in oracle.items() if t >= thr}
            idx += 1
        assert snapshot == oracle, \
            f"state at completion tick {target_tick} differs from brute replay"
    print(f"\n{PASS} 5: {len(completions)} post-deletion states equal the "
          f"brute-force replay exactly")


def test_criterion_2_reference_equivalence():
    rng = random.Random(1234)
    runs = 0
    while runs < 50:
        s = rng.choice([3, 7, 50])
        p = rng.choice([3, 5, 10])
        k = rng.choice([2, 3, 4, 5])
        n = rng.randrange(50, 2001)
        edges = bounded_stream(rng, p, s, n)
        ring = Ring(RingConfig(p=p, s=s, k=k, validate=True, taps=True))
        for u, v in edges:
            ring.tick(Arrival(u, v))
        ring.drain()
        ring.tick(DumpLabels())
        ring.drain()
        check_hop_equivalence(ring, edges, p, s)
        assert ring.violations == []
        runs += 1
    print(f"\n{PASS} 2: {runs} random streams match the multipass reference "
          f"hop for hop (edge and dump streams)")


def test_criterion_3_query_latency():
    total = 0
    for p in (2, 5, 10):
        rng = random.Random(100 + p)
        ring = Ring(RingConfig(p=p, s=4000, k=4, validate=True))
        edges = gen_uniform(7000, 0.9, seed=p)
        items = interleave_queries(edges, every=2, seed=p)
        for item in items:
            ring.tick(item)
        ring.drain()
        arrivals = {}
        qid = 0
        for e in ring.transcript.events:
            if e[0] == "IN" and e[2].startswith("Q "):
                arrivals[qid] = e[1]
                qid += 1
        answered = ring.transcript.outputs("answer")
        assert len(answered) == qid  # normal mode throughout: no busy
        for out in answered:
            assert out[1] - arrivals[out[2]] == p, \
                f"q{out[2]} took {out[1] - arrivals[out[2]]} ticks, wanted {p}"
        total += len(answered)
    assert total >= 10_000
    print(f"\n{PASS} 3: {total} constant queries exited exactly P ticks "
          f"after arrival (P in 2, 5, 10)")


def test_criterion_4_non_duplication():
    # repeat-block stream (every edge observed 100 times) with a deletion in
    # the middle; per-tick hooks enforce the copy bounds, the end state is
    # checked directly
    edges = gen_repeat_block(20_000, block=100)
    ring = Ring(RingConfig(p=5, s=60, k=4, validate=True))
    mid = len(edges) // 2
    for i, (u, v) in enumerate(edges):
        if i == mid:
            ring.tick(Age(TimestampThreshold(mid // 2)))
        ring.tick(Arrival(u, v))
    ring.drain()
    counts = {}
    for pr in ring.processors:
        for key in pr.dup:
            counts[key] = counts.get(key, 0) + 1
    assert counts and all(c == 1 for c in counts.values())
    assert ring.violations == []  # hooks cover the at-most-twice window
    assert ring.audit_full() == []
    print(f"\n{PASS} 4: {len(counts)} canonical keys each stored exactly "
          f"once after a repeat-block run with one deletion")


@pytest.fixture(scope="module")
def sweep_results():
    # the cells are independent and deterministic: run them side by side,
    # results in cell order; spawned, not forked, as forking a process that
    # runs threads can deadlock the child
    spawn = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(os.cpu_count(), mp_context=spawn) as pool:
        cells = [pool.submit(run_experiment_2,
                             c=c, downtime_budget=d, u=u, p=10, s=5000,
                             events=2, validate=True, seed=11)
                 for c in (0.3, 0.5, 0.7)
                 for d in (0.25, 0.5, 0.75)
                 for u in (0.5, 1.0)]
        return [cell.result() for cell in cells]


def test_criterion_6_sizing_sweep(sweep_results):
    for r in sweep_results:
        cell = f"c={r['c']} d={r['downtime_budget']} u={r['u']} k={r['k']}"
        kmin = min_bandwidth_expansion(r["c"], r["downtime_budget"], r["u"], 10)
        assert r["k"] == max(2, -int(-kmin // 1)), cell
        assert not r["failed"], f"{cell}: failed at tick {r['fail_tick']}"
        assert r["events"] >= 2, cell
        assert r["edges_intact"], f"{cell}: edges dropped"
        assert r["downtime_fraction"] <= r["downtime_budget"], \
            f"{cell}: downtime {r['downtime_fraction']:.3f}"
    print(f"\n{PASS} 6: {len(sweep_results)} sweep cells with the bound's "
          f"bundle size: no failures, no dropped edges, downtime within budget")


@pytest.fixture(scope="module")
def endurance_results():
    return run_experiment_3(n=300_000, target_c=0.5, p=10, s=2400, k=5,
                            seed=5, u_target=1.0, validate=True)


def test_criterion_7_auto_aging_stability(endurance_results):
    r = endurance_results
    events = r["events"]
    assert len(events) >= 20, f"only {len(events)} deletion events"
    for e in events:
        assert abs(e["survivor_level"] - 0.5) <= 0.05, \
            f"event at tick {e['started']} left {e['survivor_level']:.3f} of S"
    levels = [round(e["survivor_level"], 3) for e in events]
    print(f"\n{PASS} 7: {len(events)} automatic deletions, survivor levels "
          f"{min(levels)}..{max(levels)} (target 0.5 of S, band 0.45..0.55)")


def test_criterion_8_permutation_invariance():
    rng = random.Random(77)
    base = bounded_stream(rng, 5, 50, 1000, self_loops=False)

    def dump_partition(stream):
        ring = Ring(RingConfig(p=5, s=50, k=4, validate=True))
        for u, v in stream:
            ring.tick(Arrival(u, v))
        ring.drain()
        ring.tick(DumpLabels())
        ring.drain()
        pairs = dict((e[4], e[5]) for e in ring.transcript.outputs("dump"))
        vertices = {x for e in stream for x in e}
        labeling = {}
        for v in vertices:
            name = v
            while name in pairs and pairs[name] != name:
                name = pairs[name]
            labeling[v] = name
        return partition(labeling)

    want = partition(static_cc(base))
    assert dump_partition(base) == want
    for trial in range(10):
        stream = list(base)
        stream += [rng.choice(base) for _ in range(rng.randrange(0, 400))]
        rng.shuffle(stream)
        assert dump_partition(stream) == want, f"shuffle {trial}"
    print(f"\n{PASS} 8: label-dump partition identical across 10 shuffled "
          f"and duplicated replays")


def test_criterion_9_invariant_audits(long_run, sweep_results, endurance_results):
    ring = long_run["ring"]
    assert ring.violations == [], ring.violations[:3]
    assert ring.audit_full() == []
    for r in sweep_results:
        assert r["violations"] == 0
    assert endurance_results["violations"] == 0
    print(f"\n{PASS} 9: zero invariant violations across the validated runs "
          f"of criteria 1-7 (audited every tick)")


def test_criterion_10_engine_equivalence():
    rng = random.Random(55)
    for trial in range(20):
        p = rng.choice([2, 3, 5])
        s = rng.choice([20, 50])
        k = rng.choice([2, 3, 4])
        pool = bounded_stream(rng, p, s, 400)
        nverts = max(x for e in pool for x in e) + 1
        items = []
        for i in range(rng.randrange(100, 250)):
            r = rng.random()
            if r < 0.6:
                items.append(Arrival(*pool[rng.randrange(len(pool))]))
            elif r < 0.68 and i > 20:
                items.append(Age(TimestampThreshold(rng.randrange(max(1, i - 40), i))))
            elif r < 0.9:
                items.append(Connectivity(rng.randrange(nverts), rng.randrange(nverts)))
            else:
                items.append(IDLE)
        items += [IDLE] * (6 * p + 2 * p * s // (k - 1) + 16)
        lock = Ring(RingConfig(p=p, s=s, k=k, seed=3))
        lock.run_stream(items, drain=False)
        piped = run_pipelined(RingConfig(p=p, s=s, k=k, seed=3), items)
        assert piped.text() == lock.transcript.text(), f"config {trial}"
    print(f"\n{PASS} 10: 20 random configurations produce byte-identical "
          f"transcripts on both engines")
