"""Measurement loop, correctness accounting, provenance and the result line.

A run repeats its workload, one repetition after another in this single
process, until ``--seconds`` have passed (at least one repetition).  Every
repetition is gated by :mod:`perfbench.gate`; one that raises or fails a
check counts as failed and is never timed as a success.  End-to-end
timings are medians over the successful repetitions.  ``peak_rss_mb``
is the process's peak resident size read right after its first
repetition: the process is fresh and has run the workload once (after the
seconds-scale warm-up), and the peak only grows from there.

With ``--trace 1`` repetitions alternate between traced and untraced,
starting traced; the per-layer metrics come from the traced ones and the
tracing overhead is the difference of the two medians of ``wall_s``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy

from perfbench import gate, tracing, workloads
from perfbench.run import THREAD_VARS

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description="nsfem benchmark")
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a seconds-scale version of the workload with "
                        "the same code path (no stored reference values)")
    return p.parse_args(argv)


@dataclass
class Rep:
    run_id: int
    traced: bool
    tracer: object
    wall: float = None
    peak_rss_mb: float = None
    problems: list = field(default_factory=list)


def load_reference(wl, seed):
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    slot = str(workloads.seed_slot(seed))
    try:
        return ref["workloads"][wl.name][slot], ref["rel_tol"]
    except KeyError:
        raise SystemExit(f"error: reference.json has no values for "
                         f"{wl.name} seed slot {slot}")


def repetition(run_id, wl, field_, reference, rel_tol, traced):
    tracer = tracing.Tracer(run_id, fine=traced)
    rep = Rep(run_id, traced, tracer)
    try:
        with tracer.installed():
            t0 = time.perf_counter()
            outcome = workloads.run_once(wl, tracer.field(field_), tracer)
            rep.wall = time.perf_counter() - t0
        rep.problems = gate.check(outcome, reference, rel_tol)
    except Exception:       # a failed operation is counted, never timed
        rep.problems = ["raised:\n" + traceback.format_exc()]
    rep.peak_rss_mb = peak_rss_mb()
    tracer.kept.clear()
    return rep


def measure(wl, field_, reference, rel_tol, seconds, trace):
    reps = []
    start = time.perf_counter()
    while (not reps or time.perf_counter() - start < seconds
           or (trace and all(r.traced for r in reps))):
        traced = trace and len(reps) % 2 == 0
        reps.append(repetition(len(reps), wl, field_, reference, rel_tol,
                               traced))
    return reps


def warm_up(name, seed):
    """Fill nsfem's quadrature and basis caches with the tiny variant."""
    tracer = tracing.Tracer(-1, fine=False)
    with tracer.installed():
        workloads.run_once(workloads.TINY[name], workloads.initial_field(seed),
                           tracer)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha(root):
    """HEAD's commit from the .git directory, or None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(root):
    """sha256 over the measured sources, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "nsfem")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(root, args):
    return {
        "git_sha": git_sha(root),
        "src_sha256": src_digest(root),
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seed_slot": workloads.seed_slot(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total_mib": (os.sysconf("SC_PAGE_SIZE")
                          * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _spread(values):
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} quartiles [{q1:.4f}, {q3:.4f}]"


def end_to_end(ok, rss_mb):
    walls = [r.wall for r in ok]
    setups = [r.tracer.setup_s() for r in ok]
    marches = [r.tracer.march_s() for r in ok]
    for name, vals in (("wall_s", walls), ("setup_s", setups),
                       ("march_s", marches)):
        print(f"  {name:<14} {statistics.median(vals):12.4f} s   median, "
              f"{_spread(vals)}")
    print(f"  {'peak_rss_mb':<14} {rss_mb:12.1f} MiB after the first "
          f"repetition")
    return {"wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "march_s": statistics.median(marches),
            "peak_rss_mb": rss_mb}


def per_layer(wl, ok, spans_path):
    traced = [r for r in ok if r.traced]
    plain = [r for r in ok if not r.traced]
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w") as fh:
        for r in traced:
            r.tracer.dump(fh)
    wall_plain = statistics.median(r.wall for r in plain)
    overhead = statistics.median(r.wall for r in traced) - wall_plain
    metrics, calls = tracing.layer_metrics([r.tracer for r in traced],
                                           overhead)
    missing = [s for s in tracing.expected_spans(wl) if not calls.get(s)]
    if missing:
        raise SystemExit(f"error: traced run of {wl.name} recorded no call "
                         f"to {', '.join(missing)}; a probe no longer "
                         f"reaches its layer")
    steps = len(traced) * metrics["timestepper.steps"]
    for name, value in metrics.items():
        note = ""
        if name == "timestepper.step_s_p90" and steps * 0.1 < 10:
            note = f"  (only {steps * 0.1:.0f} steps beyond p90: indicative)"
        print(f"  {name:<32} {value:16.6g}{note}")
    setup = statistics.fmean(r.tracer.setup_s() for r in traced)
    print(f"  shares of untraced wall_s {wall_plain:.3f} s "
          f"({len(traced)} traced, {len(plain)} untraced repetitions): "
          f"splu {metrics['saddle.factor_s'] / wall_plain:.1%}, "
          f"convection assembly "
          f"{metrics['assembly.convection_s'] / wall_plain:.1%}, "
          f"setup {setup / wall_plain:.1%}")
    print(f"  spans written to {spans_path}")
    return metrics


def main(argv, root):
    args = parse_args(argv)
    full = args.size == "full"
    wl = (workloads.WORKLOADS if full else workloads.TINY)[args.workload]
    reference, rel_tol = load_reference(wl, args.seed) if full else (None,
                                                                    None)
    field_ = workloads.initial_field(args.seed)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"provenance": provenance(root, args)}), flush=True)

    warm_up(args.workload, args.seed)
    reps = measure(wl, field_, reference, rel_tol, args.seconds,
                   bool(args.trace))
    ok = [r for r in reps if not r.problems]
    failed = len(reps) - len(ok)
    for r in reps:
        for problem in r.problems:
            print(f"FAILED repetition {r.run_id}: {problem}", file=sys.stderr)

    print(f"{wl.name} ({args.size}) seed {args.seed}: {len(reps)} "
          f"repetitions, {failed}/{len(reps)} failed")
    have_kinds = {r.traced for r in ok} == ({True, False} if args.trace
                                            else {False})
    metrics = {}
    if have_kinds:
        if args.trace:
            spans_path = os.path.join(
                root, ".perfbench",
                f"spans-{wl.name}-{args.size}-seed{args.seed}.jsonl")
            metrics = per_layer(wl, ok, spans_path)
        else:
            metrics = end_to_end(ok, reps[0].peak_rss_mb)
    names = [m["name"] for m in wanted]
    if metrics and set(metrics) != set(names):
        raise SystemExit(f"error: measured metrics {sorted(metrics)} do not "
                         f"match BENCHMARK.json {sorted(names)}")
    result = {"correct": failed == 0 and bool(metrics),
              "attempted": len(reps), "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]}
                          for m in wanted if metrics}}
    print(json.dumps(result))
    return 0 if metrics else 1
