"""Desk-scale experiment harnesses.

1: normal-mode throughput (reported, architecture-bound, never asserted).
2: a single sized deletion per cell over a (survivor fraction, downtime
   budget) grid, checking that the bundle-size bound holds up.
3: a long run under the automatic aging policy, logging per-event survivor
   levels.
"""

from __future__ import annotations

import time

from .aging import TimestampThreshold, min_bandwidth_expansion, required_free_space
from .model import Age, Arrival
from .ring import Ring, RingConfig, SystemFailed
from .streams import gen_repeat_block, gen_rmat, gen_uniform, iter_uniform


def _threshold_for_target(active, target_c):
    """Timestamp that keeps roughly a target_c fraction of the tracked
    newest-timestamp view; the harness-side analogue of the in-band search."""
    if not active:
        return 0
    stamps = sorted(active.values())
    cut = max(0, min(len(stamps) - 1, int(len(stamps) * (1.0 - target_c))))
    return stamps[cut]


def run_experiment_1(kind="uniform", n=100_000, p=10, s=20_000, k=5, seed=0,
                     u_target=0.67):
    """Streaming rate in normal mode; rates are hardware-bound and reported
    as-is."""
    # drawn in full before the clock starts, so the rate is the ring's alone
    if kind == "uniform":
        edges = gen_uniform(n, u_target, seed)
    elif kind == "repeat":
        edges = gen_repeat_block(n, 100, seed)
    elif kind == "rmat":
        edges = gen_rmat(n, 12, seed=seed)
    else:
        raise ValueError(f"unknown stream kind {kind!r}")
    ring = Ring(RingConfig(p=p, s=s, k=k, seed=seed, record_inputs=False))
    t0 = time.perf_counter()
    for u, v in edges:
        ring.tick(Arrival(u, v))
    elapsed = time.perf_counter() - t0
    return {
        "kind": kind,
        "edges": n,
        "seconds": elapsed,
        "edges_per_second": n / elapsed if elapsed > 0 else float("inf"),
        "stored": ring.stored_total(),
    }


def run_experiment_2(c=0.5, downtime_budget=0.5, u=1.0, p=10, s=2000, seed=0,
                     k=None, late_trigger=False, events=2, validate=False):
    """One cell of the sizing sweep: bundle size from the sufficiency bound,
    deletions triggered at the lead-time point (or deliberately too late),
    run through `events` deletions.

    downtime_budget is the tolerable fraction of ticks without query service;
    the bound needs it in the denominator.
    """
    # computed whatever k is given: it refuses c, d and u out of range
    bound = min_bandwidth_expansion(c, downtime_budget, u, p)
    if k is None:
        k = max(2, int(-(-bound // 1)))
    S = p * s
    need = required_free_space(c, S, p, k)
    # the lead-time lemma is the trigger point; "late" undershoots it badly
    trigger_free = max(2, need // 4) if late_trigger else need
    cfg = RingConfig(p=p, s=s, k=k, seed=seed, validate=validate,
                     record_inputs=False)
    ring = Ring(cfg)
    # drawn lazily: the loop breaks after the last deletion, short of the count
    edges = iter_uniform(int(S / u * (1 + events)), u, seed)
    active = {}
    result = {"c": c, "downtime_budget": downtime_budget, "u": u, "p": p,
              "s": s, "k": k, "failed": False, "fail_tick": None, "events": 0,
              "downtime_fraction": None, "suspended_fraction": None,
              "edges_intact": None, "violations": 0}
    first_age = None
    try:
        for u_, v_ in edges:
            if (ring.junction.mode == "normal"
                    and ring.t >= ring.junction.age_hold_until
                    and ring.free_space() <= trigger_free
                    and len(ring.aging_log) < events):
                thr = _threshold_for_target(active, c)
                ring.tick(Age(TimestampThreshold(thr)))
                active = {key: t for key, t in active.items() if t >= thr}
                if first_age is None:
                    first_age = ring.t - 1
            ring.tick(Arrival(u_, v_))
            key = (u_, v_) if u_ <= v_ else (v_, u_)
            active[key] = ring.t - 1
            if len(ring.aging_log) >= events and ring.junction.mode == "normal":
                break
        ring.drain()
    except SystemFailed as exc:
        result["failed"] = True
        result["fail_tick"] = exc.tick
    result["events"] = len(ring.aging_log)
    log = ring.aging_log
    if log:
        # the sufficiency theorem bounds each rebuild against the time the
        # stream needs to refill the deleted fraction: duration / ((1-c)S/u)
        window = (1.0 - c) * S / u
        result["downtime_fraction"] = max(
            (e["completed"] - e["started"]) / window for e in log)
    if len(log) >= 2:
        # realized duty cycle, reported for context; trigger headroom and
        # arrivals landing mid-rebuild make it run above the idealized ratio
        cycles = log[-1]["started"] - log[0]["started"]
        down = sum(e["completed"] - e["started"] + p + 1 for e in log[:-1])
        result["suspended_fraction"] = down / cycles if cycles else None
    if not result["failed"]:
        result["edges_intact"] = ring.system_edges() == active
    result["violations"] = len(ring.violations)
    result["aging_log"] = list(ring.aging_log)
    return result


def run_experiment_3(n=300_000, target_c=0.5, p=10, s=2400, k=5, seed=0,
                     u_target=1.0, validate=False, reservoir=100):
    """Long run under the reservoir-driven automatic policy; returns the
    per-event survivor log."""
    cfg = RingConfig(p=p, s=s, k=k, seed=seed, validate=validate,
                     reservoir=reservoir, auto_age_c=target_c,
                     record_inputs=False)
    ring = Ring(cfg)
    for u, v in iter_uniform(n, u_target, seed):
        ring.tick(Arrival(u, v))
    ring.drain()
    S = p * s
    events = []
    for entry in ring.aging_log:
        events.append({
            "started": entry["started"],
            "completed": entry["completed"],
            "pre_stored": entry["pre_stored"],
            "survivors": entry["survivors"],
            "survivor_level": entry["survivors"] / S,
        })
    return {
        "edges": n,
        "target_c": target_c,
        "u": u_target,
        "S": S,
        "k": k,
        "events": events,
        "violations": len(ring.violations),
        "final_stored": ring.stored_total(),
    }
