#!/usr/bin/env python3
"""Gate one `benchmark/run.sh --workload W --smoke --trace 1` result line.

    ledger_gate.py <result.json> <workload>

Holds what is host-independent: exact counts, and same-run ratios only
by the predicates the deleted bench smokes used. Never an absolute
number — that belongs to the host. Exits non-zero naming each rung
that failed its predicate.
"""
import json
import sys


def eq(want, tol=0.0):
    return (f"== {want}" + (f" ± {tol}" if tol else ""), lambda v: abs(v - want) <= tol)


def ge(want):
    return (f">= {want}", lambda v: v >= want)


def gt(want):
    return (f"> {want}", lambda v: v > want)


def le(want):
    return (f"<= {want}", lambda v: v <= want)


# (workload or "*", rung, predicate)
RUNGS = [
    ("*", "gf.mult_xors_per_stripe_encode", eq(402)),
    ("*", "gf.mult_xors_per_stripe_decode", eq(402)),
    ("*", "codec.stair_update_parity_cells", eq(8.516, 0.001)),
    ("*", "net.client_retries", eq(0)),
    ("*", "obs.dropped_spans", eq(0)),
    ("seq_write_file", "store.stripe_locks_per_op", eq(1)),
    ("seq_write_file", "store.encode_passes_per_op", eq(1)),
    ("seq_write_file", "store.jrnl_appends_per_op", eq(1)),
    ("seq_write_file", "store.delta_updates_per_op", eq(0)),
    ("seq_write_file", "store.recover_passes_per_op", eq(0)),
    # The run rule: n device writes + 1 table write + 1 journal write
    # per full stripe (≈ 10), not one per sector and entry (257).
    ("seq_write_file", "store.syscw_per_op", le(16)),
    ("small_rw_tcp", "store.encode_passes_per_op", eq(0)),
    ("small_rw_tcp", "store.recover_passes_per_op", eq(0)),
    ("small_rw_tcp", "net.srv_requests_per_op", eq(1)),
    ("degraded_read_file", "store.encode_passes_per_op", eq(0)),
    ("degraded_read_file", "store.delta_updates_per_op", eq(0)),
    ("degraded_read_file", "store.jrnl_appends_per_op", eq(0)),
    ("degraded_read_file", "store.recover_passes_per_op", ge(1)),
    ("zipf_read_cache_tcp", "cache.hit_rate", ge(0.5)),
    ("zipf_read_cache_tcp", "cache.over_inner", gt(1)),
    ("zipf_read_cache_tcp", "store.recover_passes_per_op", eq(0)),
]

# Ratios that wobble between runs of one commit — printed, not gated,
# until the instrument holds them still (ROADMAP item 6(d)).
WATCHED = [
    "trace.ladder_agreement",
    "store.degraded_over_codec_decode",
    "net.tcp_over_shards",
]


def main():
    path, workload = sys.argv[1:]
    if workload not in {scope for scope, _, _ in RUNGS}:
        sys.exit(f"ledger gate: no rungs are gated for workload {workload!r}")
    with open(path) as f:
        doc = json.load(f)
    metrics = doc["metrics"]
    failures = []
    if doc["correct"] is not True:
        failures.append(f"correct = {doc['correct']}")
    if doc["failed"] != 0:
        failures.append(f"failed = {doc['failed']} (want == 0)")
    if not doc["attempted"] > 0:
        failures.append(f"attempted = {doc['attempted']} (want > 0)")
    for scope, rung, (want, holds) in RUNGS:
        if scope in ("*", workload):
            value = metrics[rung]["value"]
            if not holds(value):
                failures.append(f"{rung} = {value} (want {want})")
    for rung in WATCHED:
        print(f"  watched, not gated: {rung} = {metrics[rung]['value']:.3f}")
    for failure in failures:
        print(f"ledger gate FAILED on {workload}: {failure}", file=sys.stderr)
    if not failures:
        print(f"ledger gate OK on {workload}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
