"""Multi-core interleave driver bench: scheduling overhead per op.

The MP driver's job is pure scheduling: advance four ``CoreExecution``
streams in global ``(time, core)`` order.  On real mixes the memory
hierarchy dominates wall-clock (the driver is a few percent — see
docs/engine.md), so an end-to-end mix timing cannot resolve a driver
change above run-to-run noise.  This bench therefore isolates the driver:
each core gets a **private fixed-work stub hierarchy** (mixed short/long
latencies, no shared state), making per-op simulation cost constant and
order-independent, and measures three legs over identical traces:

1. **floor** — each core via raw ``run_ops`` (no interleaving at all):
   the driver-free cost of executing the ops;
2. **reference** — the pre-batching per-op heap loop
   (``interleave_reference``);
3. **batched** — the fused driver that schedules object-model mixes
   (``interleave_batched``).

The gated metric is the **driver overhead** (leg minus floor): the
batched driver must cut the reference driver's per-op scheduling overhead
by at least ``--min-driver-speedup`` (default 2x).  The bench also gates
a calibrated throughput score (batched ops/sec over the shared
calibration loop) against the committed baseline
(``benchmarks/baselines/mp_baseline.json``) with the same 20%-regression
pattern as the engine and tracegen benches, and verifies all three legs
finish with bit-identical core states (the in-tree parity tests cover
real shared-LLC/DRAM mixes).

Results merge into ``BENCH_engine.json`` under an ``"mp"`` key.

Run directly::

    PYTHONPATH=src python benchmarks/bench_mp_interleave.py \
        --output BENCH_engine.json \
        --baseline benchmarks/baselines/mp_baseline.json
"""

import argparse
import gc
import json
import os
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
# The shared calibration loop: scores are comparable across benches and
# hosts only because the normalization is literally the same code.
from bench_engine_speedup import calibrate  # noqa: E402

from repro.cpu.core import (  # noqa: E402
    CoreExecution,
    CoreModel,
    interleave_batched,
    interleave_reference,
)
from repro.cpu.trace import Trace  # noqa: E402
from repro.memory.hierarchy import DRAM, L1  # noqa: E402


class _StubHierarchy:
    """Fixed-work access stub: mostly short hits, every 7th a long miss.

    Private per core and a pure function of the access count, so results
    are independent of interleave order — which is exactly what makes the
    ``run_ops`` floor a true driver-free cost of the same op stream.
    """

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def access(self, cycle, pc, addr, is_write=False):
        count = self.count = self.count + 1
        if count % 7 == 0:
            return 250, DRAM
        return 5, L1


def _make_traces(num_cores, ops_per_core, seed=7):
    """Deterministic synthetic per-core traces (the stub ignores addrs)."""
    rng = np.random.default_rng(seed)
    traces = []
    for core in range(num_cores):
        gaps = rng.integers(0, 12, ops_per_core, dtype=np.int64)
        pcs = np.full(ops_per_core, 0x400, dtype=np.int64)
        addrs = (
            rng.integers(0, 1 << 20, ops_per_core, dtype=np.int64) << 6
        ) + (core << 40)
        flags = np.zeros(ops_per_core, dtype=np.uint8)
        traces.append(Trace(gaps, pcs, addrs, flags))
    return traces


def _fresh_executions(traces):
    return [CoreExecution(CoreModel(), t, _StubHierarchy()) for t in traces]


def _state_of(executions):
    """Comparable end state: (time, instructions, hit counters) per core."""
    return [(ex.time, ex._instr, tuple(ex._hits)) for ex in executions]


def _run_floor(executions):
    for ex in executions:
        ex.run_ops()


def _measure_rounds(legs, traces, repeats):
    """Median wall-clock per leg over ``repeats`` paired rounds.

    Every round runs all legs back to back, so slow drift of the host
    (frequency scaling, noisy neighbours) hits each leg's sample set
    equally; the per-leg median then discards the outlier rounds.  GC is
    paused exactly as a simulation run pauses it (``_gc_paused`` in
    ``repro.cpu.system``), so collector pauses cannot land on one leg.
    Returns ``(times, states)`` — per-leg sample lists and the per-leg
    final-state signature (``None`` for a leg that varied across rounds).
    """
    times = {name: [] for name, _ in legs}
    states = {}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for name, fn in legs:
                executions = _fresh_executions(traces)
                gc.collect()
                t0 = time.perf_counter()
                fn(executions)
                times[name].append(time.perf_counter() - t0)
                run_state = _state_of(executions)
                if name not in states:
                    states[name] = run_state
                elif states[name] != run_state:
                    states[name] = None
    finally:
        if gc_was_enabled:
            gc.enable()
    return times, states


def run_bench(args):
    traces = _make_traces(args.cores, args.ops_per_core)
    total_ops = args.cores * args.ops_per_core
    calibration = calibrate()

    legs = [
        ("floor", _run_floor),
        ("reference", interleave_reference),
        ("batched", interleave_batched),
    ]
    # One discarded full-scale pass per leg: interpreter/allocator warmup
    # happens outside the measured rounds.
    for _name, fn in legs:
        fn(_fresh_executions(traces))

    samples, states = _measure_rounds(legs, traces, args.repeats)
    # The overhead ratio is a difference of close quantities: medians over
    # the paired rounds keep one outlier round from whipsawing it.  The
    # throughput score uses the best batched time (the same best-of
    # convention as the engine/tracegen benches) — a pure throughput
    # number is robust to slow outliers, not to fast ones.
    t_floor = statistics.median(samples["floor"])
    t_ref = statistics.median(samples["reference"])
    t_new = statistics.median(samples["batched"])
    t_new_best = min(samples["batched"])
    state_floor = states["floor"]
    state_ref = states["reference"]
    state_new = states["batched"]

    deterministic = None not in (state_floor, state_ref, state_new)
    # The stub is order-independent, so even the non-interleaved floor
    # must land on the same per-core end states.
    parity = deterministic and state_floor == state_ref == state_new

    overhead_ref = t_ref - t_floor
    overhead_new = t_new - t_floor
    if overhead_new > 0 and overhead_ref > 0:
        driver_speedup = overhead_ref / overhead_new
    else:
        driver_speedup = float("inf") if overhead_ref > 0 else 1.0
    ops_per_sec = total_ops / t_new_best
    score = ops_per_sec / calibration
    ref_score = total_ops / min(samples["reference"]) / calibration

    result = {
        "protocol": {
            "cores": args.cores,
            "ops_per_core": args.ops_per_core,
            "total_ops": total_ops,
            "repeats": args.repeats,
            "hierarchy": "private fixed-work stub (driver-isolating)",
        },
        "calibration_ops_per_sec": calibration,
        "floor_seconds": t_floor,
        "reference_seconds": t_ref,
        "batched_seconds": t_new,
        "batched_seconds_best": t_new_best,
        "driver_overhead_reference_seconds": overhead_ref,
        "driver_overhead_batched_seconds": overhead_new,
        "driver_overhead_speedup": driver_speedup,
        "ops_per_sec": ops_per_sec,
        "score": score,
        "reference_score": ref_score,
        "deterministic": deterministic,
        "parity": parity,
    }

    failures = []
    if not deterministic:
        failures.append("driver runs differ across repeats (determinism violated)")
    elif not parity:
        failures.append("drivers finished with different core states (parity violated)")
    if driver_speedup < args.min_driver_speedup:
        failures.append(
            f"driver-overhead speedup {driver_speedup:.2f}x below the "
            f"{args.min_driver_speedup:.1f}x floor"
        )

    if args.baseline and os.path.exists(args.baseline):
        with open(args.baseline) as f:
            baseline = json.load(f)
        base_protocol = baseline.get("protocol", {})
        protocol_matches = base_protocol.get("ops_per_core") in (
            None,
            args.ops_per_core,
        ) and base_protocol.get("cores") in (None, args.cores)
        target_score = baseline.get("target_score")
        seed_score = baseline.get("seed_score")
        if not protocol_matches:
            result["note_baseline"] = (
                "baseline protocol differs from this run; regression gate skipped"
            )
            target_score = seed_score = None
        if seed_score:
            result["speedup_vs_seed_driver"] = score / seed_score
        if target_score:
            floor = target_score * (1.0 - args.max_regression)
            result["regression_gate"] = {
                "target_score": target_score,
                "floor": floor,
                "passed": score >= floor,
            }
            if score < floor:
                failures.append(
                    f"mp driver score {score:.4f} regressed >"
                    f"{100 * args.max_regression:.0f}% below baseline {target_score:.4f}"
                )

    result["failures"] = failures

    if args.output:
        # Merge into the shared bench artifact rather than clobbering the
        # engine/tracegen sections.
        merged = {}
        if os.path.exists(args.output):
            try:
                with open(args.output) as f:
                    merged = json.load(f)
            except (OSError, json.JSONDecodeError):
                merged = {}
        merged["mp"] = result
        with open(args.output, "w") as f:
            json.dump(merged, f, indent=2, sort_keys=True)

    print(f"floor (run_ops)  : {t_floor:8.3f}s  ({total_ops} ops, {args.cores} cores)")
    print(f"per-op reference : {t_ref:8.3f}s  (driver overhead {overhead_ref:.3f}s)")
    print(f"batched driver   : {t_new:8.3f}s  (driver overhead {overhead_new:.3f}s)")
    print(f"driver speedup   : {driver_speedup:8.2f}x  (overhead vs overhead)")
    print(f"ops/sec          : {ops_per_sec:12.0f}")
    print(f"score            : {score:.4f}  (calibration {calibration:.0f} ops/s)")
    print(f"deterministic    : {deterministic}   parity: {parity}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("PASS")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--ops-per-core", type=int, default=150000)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--output", default="BENCH_engine.json")
    parser.add_argument(
        "--baseline",
        default=os.path.join(
            os.path.dirname(__file__), "baselines", "mp_baseline.json"
        ),
    )
    parser.add_argument("--max-regression", type=float, default=0.2)
    # The overhead ratio is a difference of close quantities and inherits
    # host timing noise: ~2.2x measured at landing, floored at 1.7x so a
    # noisy round cannot flake the gate while a real regression (the
    # batched driver losing its advantage) still fails.
    parser.add_argument("--min-driver-speedup", type=float, default=1.7)
    return run_bench(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
