"""Command-line front end.

    ringcc run STREAM_FILE [options]     drive a ring over a stream file
    ringcc gen [options]                 write a synthetic stream file
    ringcc reference STREAM_FILE -s N    multipass reference labels (debug)
    ringcc experiment {1,2,3} [options]  desk-scale experiment harnesses

Query results print as "<tick> OUT q<id> <result>"; other boundary events as
"<tick> EVT ...". Exit status 2 means the run died with storage exhausted;
the failing tick goes to stderr. Exit status 3 means `--validate` recorded
violations, which go to stderr too; when a run has both, stderr holds both
and the status is 3. `--engine pipelined` (one thread per processor) drains
and writes `--metrics` like the lockstep engine but refuses `--validate`
with exit status 1: concurrent processors cannot run the auditor. Likewise
`run` refuses, with exit status 1, `--reservoir`, `--auto-age-margin` and
`--seed` (which seeds only the policy's samples) when neither
`--auto-age-c` nor an AUTOAGE line arms the automatic policy; `gen` refuses
`--u-target`, `--block`, `--scale` and `--seed` unless `--kind` reads the
flag (the repeat kind draws nothing, so it takes no seed); and `experiment`
refuses a flag its harness has no use for. `run`, `gen` and `experiment`
print a parameter that `RingConfig`, a generator or the sizing formulas
refuse, such as a survivor fraction outside (0, 1), and exit with status 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .experiments import run_experiment_1, run_experiment_2, run_experiment_3
from .model import Arrival, AutoAge
from .multipass import multipass_labels
from .pipeline import ThreadedRing
from .ring import Ring, RingConfig, SystemFailed
from .streams import (
    ParseError,
    gen_repeat_block,
    gen_rmat,
    iter_uniform,
    parse_stream_file,
)

METRICS_HEADER = ["tick", "mode", "stored_total", "tree_total", "nontree_total",
                  "untested_total", "unresolved_total", "builder_index",
                  "loader_index", "free_space"]


def _add_ring_options(sub):
    sub.add_argument("--processors", "-p", type=int, default=10)
    sub.add_argument("--capacity", "-s", type=int, default=1000,
                     help="stored edges per processor")
    sub.add_argument("--bundle", "-k", type=int, default=5,
                     help="slots per bundle (1 primary + k-1 payload)")
    sub.add_argument("--engine", choices=("lockstep", "pipelined"),
                     default="lockstep")
    sub.add_argument("--validate", action="store_true",
                     help="audit invariants every tick")
    sub.add_argument("--seed", type=int,
                     help="seed of the automatic aging policy's samples "
                          f"(default {RingConfig.seed})")
    sub.add_argument("--metrics", metavar="CSV",
                     help="write per-tick storage metrics")
    sub.add_argument("--reservoir", type=int,
                     help="sample size for the automatic aging policy "
                          f"(default {RingConfig.reservoir})")
    sub.add_argument("--auto-age-c", type=float, default=None,
                     help="arm automatic deletion at this survivor fraction")
    sub.add_argument("--auto-age-margin", type=float,
                     help="safety margin on the policy's trigger point "
                          f"(default {RingConfig.auto_age_margin})")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress transcript output")


def _config_from(args):
    reservoir, margin, seed = args.reservoir, args.auto_age_margin, args.seed
    return RingConfig(
        p=args.processors, s=args.capacity, k=args.bundle,
        validate=args.validate, seed=RingConfig.seed if seed is None else seed,
        reservoir=RingConfig.reservoir if reservoir is None else reservoir,
        auto_age_c=args.auto_age_c,
        auto_age_margin=RingConfig.auto_age_margin if margin is None else margin,
        metrics=bool(args.metrics),
    )


def cmd_run(args):
    if args.engine == "pipelined" and args.validate:
        print("the pipelined engine does not support --validate", file=sys.stderr)
        return 1
    try:
        items = parse_stream_file(args.stream)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    if args.auto_age_c is None and not any(type(it) is AutoAge for it in items):
        # the policy's tuning flags are refused rather than ignored
        refused = [flag for flag, value in (("--reservoir", args.reservoir),
                                            ("--auto-age-margin", args.auto_age_margin),
                                            ("--seed", args.seed))
                   if value is not None]
        if refused:
            print(f"run does not use {', '.join(refused)} unless --auto-age-c "
                  "or an AUTOAGE line arms the automatic aging policy",
                  file=sys.stderr)
            return 1
    try:
        config = _config_from(args)
    except ValueError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1
    ring = (ThreadedRing if args.engine == "pipelined" else Ring)(config)
    failure = None
    try:
        ring.run_stream(items)
    except SystemFailed as exc:
        failure = exc
    if not args.quiet:
        for line in ring.transcript.lines(inputs=False):
            print(line)
    if args.metrics:
        with open(args.metrics, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(METRICS_HEADER)
            writer.writerows(ring.metrics)
    status = 0
    if args.validate and ring.violations:
        for v in ring.violations[:50]:
            print(f"violation tick={v.tick} {v.kind} p{v.index}: {v.detail}",
                  file=sys.stderr)
        status = 3
    if failure is not None:
        print(f"FAILED at tick {failure.tick}: {failure.reason}", file=sys.stderr)
        status = status or 2
    return status


# the stream kinds that read each generator flag; any other kind refuses it
GEN_FLAG_KIND = {"--u-target": ("uniform",), "--block": ("repeat",),
                 "--scale": ("rmat",), "--seed": ("uniform", "rmat")}


def cmd_gen(args):
    refused = [flag for flag, kinds in GEN_FLAG_KIND.items()
               if args.kind not in kinds
               and getattr(args, flag[2:].replace("-", "_")) is not None]
    if refused:
        print(f"gen --kind {args.kind} does not use {', '.join(refused)}", file=sys.stderr)
        return 1
    seed = 0 if args.seed is None else args.seed
    try:
        if args.kind == "uniform":
            u_target = 0.67 if args.u_target is None else args.u_target
            edges = iter_uniform(args.count, u_target, seed)
        elif args.kind == "repeat":
            block = 100 if args.block is None else args.block
            edges = gen_repeat_block(args.count, block)
        else:
            scale = 12 if args.scale is None else args.scale
            edges = gen_rmat(args.count, scale, seed=seed)
    except ValueError as exc:
        # checked at the call, before a line is written
        print(f"gen: {exc}", file=sys.stderr)
        return 1
    # each line is written as it is drawn
    lines = (Arrival(u, v).render() + "\n" for u, v in edges)
    if args.output == "-":
        sys.stdout.writelines(lines)
    else:
        with open(args.output, "w") as fh:
            fh.writelines(lines)
    return 0


def cmd_reference(args):
    try:
        items = parse_stream_file(args.stream)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    arrivals = [(it.u, it.v) for it in items if isinstance(it, Arrival)]
    labels = multipass_labels(args.capacity, arrivals=arrivals)
    for v in sorted(labels):
        print(v, labels[v])
    return 0


# flags a harness has no use for; giving one is refused rather than ignored
UNUSED_BY_EXPERIMENT = {
    1: ("--survivor", "--downtime", "--validate"),
    2: ("--kind", "--count"),
    3: ("--kind", "--downtime"),
}


def cmd_experiment(args):
    which = args.which
    refused = [flag for flag in UNUSED_BY_EXPERIMENT[which]
               if getattr(args, flag[2:]) not in (None, False)]
    if which == 3 and args.survivor is not None and len(args.survivor) > 1:
        refused.append("--survivor with more than one value")
    if refused:
        print(f"experiment {which} does not use {', '.join(refused)}", file=sys.stderr)
        return 1
    n = 100_000 if args.count is None else args.count
    k = 5 if args.bundle is None else args.bundle
    survivor = args.survivor or [0.5]
    u = args.u
    try:
        if which == 1:
            report = run_experiment_1(kind=args.kind or "uniform", n=n,
                                      p=args.processors, s=args.capacity,
                                      k=k, seed=args.seed,
                                      u_target=0.67 if u is None else u)
        elif which == 2:
            report = {"cells": []}
            for c in survivor:
                for d in args.downtime or [0.5]:
                    cell = run_experiment_2(c=c, downtime_budget=d,
                                            u=1.0 if u is None else u,
                                            p=args.processors, s=args.capacity,
                                            k=args.bundle, seed=args.seed,
                                            validate=args.validate)
                    report["cells"].append(cell)
        else:
            report = run_experiment_3(n=n, target_c=survivor[0],
                                      p=args.processors, s=args.capacity,
                                      k=k, seed=args.seed,
                                      validate=args.validate,
                                      u_target=1.0 if u is None else u)
    except ValueError as exc:
        # a ring or sizing parameter out of range
        print(f"experiment {which}: {exc}", file=sys.stderr)
        return 1
    json.dump(report, sys.stdout, indent=2, default=str)
    print()
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="ringcc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="drive a ring over a stream file")
    run_p.add_argument("stream")
    _add_ring_options(run_p)
    run_p.set_defaults(fn=cmd_run)

    gen_p = subs.add_parser("gen", help="generate a synthetic stream")
    gen_p.add_argument("--kind", choices=("uniform", "repeat", "rmat"),
                       default="uniform")
    gen_p.add_argument("--count", "-n", type=int, default=10000)
    gen_p.add_argument("--u-target", type=float,
                       help="unique fraction for the uniform kind (default 0.67)")
    gen_p.add_argument("--block", type=int,
                       help="contiguous observations per edge for the repeat "
                            "kind (default 100)")
    gen_p.add_argument("--scale", type=int,
                       help="log2 vertex count for the rmat kind (default 12)")
    gen_p.add_argument("--seed", type=int,
                       help="seed for the uniform and rmat kinds (default 0)")
    gen_p.add_argument("--output", "-o", default="-")
    gen_p.set_defaults(fn=cmd_gen)

    ref_p = subs.add_parser("reference", help="multipass reference labels")
    ref_p.add_argument("stream")
    ref_p.add_argument("--capacity", "-s", type=int, required=True)
    ref_p.set_defaults(fn=cmd_reference)

    exp_p = subs.add_parser("experiment", help="run an experiment harness")
    exp_p.add_argument("which", type=int, choices=(1, 2, 3))
    exp_p.add_argument("--kind", choices=("uniform", "repeat", "rmat"),
                       help="stream kind for experiment 1 (default uniform)")
    exp_p.add_argument("--count", "-n", type=int,
                       help="stream length for experiments 1 and 3 (default 100000)")
    exp_p.add_argument("--processors", "-p", type=int, default=10)
    exp_p.add_argument("--capacity", "-s", type=int, default=2000)
    exp_p.add_argument("--bundle", "-k", type=int,
                       help="slots per bundle (default 5; experiment 2 derives "
                            "it from the sizing bound)")
    exp_p.add_argument("--survivor", type=float, nargs="+",
                       help="survivor fraction(s) c (default 0.5; one value "
                            "for experiment 3)")
    exp_p.add_argument("--downtime", type=float, nargs="+",
                       help="downtime budget(s) for experiment 2 (default 0.5)")
    exp_p.add_argument("--u", type=float,
                       help="unique fraction of the stream (default 0.67 for "
                            "experiment 1, 1.0 otherwise)")
    exp_p.add_argument("--seed", type=int, default=0)
    exp_p.add_argument("--validate", action="store_true",
                       help="audit invariants (experiments 2 and 3)")
    exp_p.set_defaults(fn=cmd_experiment)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
