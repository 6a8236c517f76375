"""Run one workload in this interpreter and print its measurements as JSON.

``run.py`` starts this file in a fresh interpreter per run: one process, one
caller, a closed loop in which each operation starts when the previous one
has returned.  Each operation is timed on its own; its exact check and the
trace bookkeeping run after the clock stops.  Every pass repeats the same
operations on the same inputs, so the latency percentiles are taken over
the operations, each timed as its mean over the passes.  A mean over many
passes, unlike a median, does not jump when the shared machine spends a
little more or less than half of a run in a slow spell.

    python3 bench/child.py --workload survey --seed 1 --seconds 10 --trace 0

With ``--trace 1`` the first half of the time runs untraced and the second
half traced.  The traced half records one span per pass and one per call
(name, start, end, parent, op id), keeps them in memory and writes them to
``.bench_out/spans-<workload>.json`` at exit; the per-layer metrics are
computed from them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from dataclasses import fields, is_dataclass
from pathlib import Path
from statistics import median

import numpy as np

import workloads

OUT = Path(__file__).resolve().parent.parent / ".bench_out"
SUBCOMMANDS = ("lucas", "pell", "member", "lattice", "k3", "intersect")

# Measured layer -> its counts beyond ``calls`` and ``busy_s``.  A ``*_ratio``
# count is summed per call and divided by ``calls``.
LAYERS = {
    "lucas.lucas_uv": ("result_bits",),
    "lucas.companion_power": (),
    "pell.fundamental_solution": ("result_bits",),
    "pell.solutions_iter": (),
    "pell.is_gen_fib_a": ("member_ratio",),
    "pell.is_gen_fib_b": ("member_ratio",),
    "lattice.so_plus_generator": (),
    "lattice.find_roots": ("found_ratio",),
    "lattice.disc_group_action": (),
    "k3.classify_case_a": (),
    "k3.classify_case_b": (),
    "k3.correspondence_roundtrip": (),
    "intersection.minimal_trace_match": ("pair_index_sum",),
    "intersection.intersect": (),
    "intersection.brute_force_common": ("rows_scanned", "solutions"),
    "oracle.enumerate_pell": (),
    "oracle.whitney_member_mask": (),
    "oracle.disc_action_direct": ("group_order",),
    **{f"cli.main.{sub}": () for sub in SUBCOMMANDS},
}


def layer_counts(op, result) -> dict:
    """Counts of one call, from its arguments and its result."""
    layer = op.layer
    if layer == "pell.fundamental_solution":
        return {"result_bits": result.u.bit_length() if result else 0}
    if layer in ("pell.is_gen_fib_a", "pell.is_gen_fib_b"):
        return {"member_ratio": int(result.is_member)}
    if layer == "lucas.lucas_uv":
        return {"result_bits": result.v.bit_length()}
    if layer == "lattice.find_roots":
        return {"found_ratio": int(result is not None)}
    if layer == "intersection.minimal_trace_match":
        return {"pair_index_sum": sum(result)}
    if layer == "intersection.brute_force_common":
        return {"rows_scanned": op.args[1] - 1, "solutions": len(result)}
    if layer == "oracle.disc_action_direct":
        return {"group_order": abs(op.args[0].disc)}
    return {}


def canon(obj, h) -> None:
    """Feed an unambiguous encoding of a result into hash ``h``."""
    if obj is None or isinstance(obj, bool):
        h.update(repr(obj).encode())
    elif isinstance(obj, int):
        h.update(b"i%d:" % obj.bit_length())
        h.update(obj.to_bytes(obj.bit_length() // 8 + 1, "little", signed=True))
    elif isinstance(obj, str):
        h.update(b"s%d:" % len(obj) + obj.encode())
    elif isinstance(obj, BaseException):
        h.update(b"E" + type(obj).__name__.encode())
    elif isinstance(obj, np.ndarray):
        h.update(b"A" + str(obj.dtype).encode() + repr(obj.shape).encode())
        h.update(obj.tobytes())
    elif is_dataclass(obj):
        h.update(b"D" + type(obj).__name__.encode())
        for f in fields(obj):
            canon(getattr(obj, f.name), h)
    elif isinstance(obj, dict):
        h.update(b"M%d:" % len(obj))
        for key in sorted(obj):
            canon(key, h)
            canon(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"L%d:" % len(obj))
        for item in obj:
            canon(item, h)
    else:
        raise TypeError(f"no canonical form for {type(obj).__name__}")


def percentile(sorted_ns: list[float], q: float) -> float:
    """Nearest-rank percentile, in milliseconds."""
    return sorted_ns[max(0, math.ceil(q * len(sorted_ns)) - 1)] / 1e6


def run_pass(ops, totals: list[int], spans: list | None, pass_no: int) -> dict:
    """One pass over ``ops``: latencies added to ``totals``, failures, digest,
    counts.

    ``totals`` holds one running sum per operation, so the benchmark's own
    memory does not grow with the number of passes and skew ``peak_rss_mb``.
    """
    memo: dict = {}
    failed, busy = 0, 0
    digest = hashlib.sha256()
    counts: dict = {}
    parent = None
    if spans is not None:
        parent = len(spans)
        spans.append(["pass", time.perf_counter_ns(), None, None, pass_no])
    for i, op in enumerate(ops):
        unexpected = False
        t0 = time.perf_counter_ns()
        try:
            result = op.fn(*op.args, **op.kwargs)
        except op.expect as exc:
            result = exc
        except Exception as exc:  # any other raise is a failed operation
            result, unexpected = exc, True
        t1 = time.perf_counter_ns()
        totals[i] += t1 - t0
        busy += t1 - t0
        try:
            ok = not unexpected and op.check(result, memo)
        except Exception:  # e.g. an unexpected None
            ok = False
        failed += not ok
        if op.key is not None:
            memo[op.key] = result
        canon(result, digest)
        if spans is not None:
            spans.append([op.layer, t0, t1, parent, i])
            if ok:
                stats = counts.setdefault(op.layer, {})
                for name, value in layer_counts(op, result).items():
                    stats[name] = stats.get(name, 0) + value
    if spans is not None:
        spans[parent][2] = time.perf_counter_ns()
    return {"ops": len(ops), "busy_ns": busy, "failed": failed,
            "digest": digest.hexdigest(), "counts": counts}


def run_phase(ops, seconds: float, spans: list | None, first_pass: int):
    """Whole passes until the next one would end after ``seconds``.

    Returns the passes and each operation's mean latency over them, sorted.
    """
    totals = [0] * len(ops)
    start = time.perf_counter()
    passes = []
    while True:
        began = time.perf_counter()
        passes.append(run_pass(ops, totals, spans, first_pass + len(passes)))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return passes, sorted(t / len(passes) for t in totals)


def ops_per_s(passes) -> float:
    return sum(p["ops"] for p in passes) / (sum(p["busy_ns"] for p in passes) / 1e9)


def layer_metrics(ops, passes, spans) -> dict:
    """Per-pass calls and counts, and the median per-pass busy time."""
    busy: dict = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            per_pass = busy.setdefault(name, {})
            per_pass[parent] = per_pass.get(parent, 0) + end - start
    calls: dict = {}
    for op in ops:
        calls[op.layer] = calls.get(op.layer, 0) + 1
    out = {}
    for layer, extra in LAYERS.items():
        n = calls.get(layer, 0)
        out[f"{layer}.calls"] = (n, "count")
        times = list(busy.get(layer, {}).values())
        out[f"{layer}.busy_s"] = (median(times) / 1e9 if times else 0.0, "s")
        stats = passes[0]["counts"].get(layer, {})
        for name in extra:
            value = stats.get(name, 0)
            if name.endswith("_ratio"):
                out[f"{layer}.{name}"] = (value / n if n else 0.0, "ratio")
            else:
                out[f"{layer}.{name}"] = (value, "bit" if name.endswith("bits")
                                          else "count")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes, for the benchmark's own smoke test")
    args = ap.parse_args()

    ops = workloads.build(args.workload, args.seed, args.small)
    spans: list = []
    if args.trace:
        plain, means = run_phase(ops, args.seconds / 2, None, 0)
        traced, _ = run_phase(ops, args.seconds / 2, spans, len(plain))
    else:
        (plain, means), traced = run_phase(ops, args.seconds, None, 0), []
    everything = plain + traced
    doc = {
        "ops_per_pass": len(ops),
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": len(ops) * len(everything),
        "failed": sum(p["failed"] for p in everything),
        "digest": everything[0]["digest"],
        "digests_agree": len({p["digest"] for p in everything}) == 1,
        "ops_per_s": ops_per_s(plain),
        "latency_p50_ms": percentile(means, 0.5),
        "latency_p90_ms": percentile(means, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": np.__version__,
    }
    if args.trace:
        layers = layer_metrics(ops, traced, spans)
        plain_rate, traced_rate = ops_per_s(plain), ops_per_s(traced)
        layers["bench.untraced_ops_per_s"] = (plain_rate, "1/s")
        layers["bench.traced_ops_per_s"] = (traced_rate, "1/s")
        layers["bench.trace_slowdown"] = (plain_rate / traced_rate, "ratio")
        doc["layers"] = layers
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{args.workload}.json").write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent", "op_id"],
             "spans": spans}))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
