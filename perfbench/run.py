"""Simulator benchmark: simulated memory ops per second of host time.

Runs one workload's fixed simulation grid (see grid.py and README.md)
through ``Session.run`` in this process, checks every result bit-exact
against an independent reference (check.py), and prints one JSON object
as the last line of stdout.

    python3 perfbench/run.py --workload st-twinned --seed 1 --seconds 12 --trace 0

``--trace 0`` reports the end-to-end metrics: ``sim_ops_per_s`` (median
over timed passes of the grid), ``setup_s`` (median of fresh-interpreter
set-ups), both scaled to a nominal host (see ``HostSpeed``), and
``peak_rss_mb``.  ``--trace 1`` runs the grid once untraced
and once with spans around every layer entry point (spans.py), checks
that both give the same results, and reports the per-layer metrics.

Everything is written under ``.bench_build/perfbench`` in the checkout:
the compiled kernel, built there on the first run, and the reference
results.  The user's cache directory is never touched.
"""

import argparse
import collections
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
#: The seed whose every cell has a pin in pins.json.
DEFAULT_SEED = 1
#: Iterations of one host-speed sample (a few milliseconds), and the
#: share of the timed simulation time spent sampling, spread evenly.
CALIBRATION_LOOPS = 50_000
CALIBRATION_SHARE = 0.05
#: Loop rate (iterations/s) of the nominal host that reported times and
#: rates are scaled to: a typical rate on the 2-core cloud VM the
#: benchmark was written on, which swings between 7 and 14 million.
NOMINAL_LOOPS_PER_S = 12.0e6


def _prepare_environment():
    """Point the program at its sources and at private build/cache dirs."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"perfbench: {src / 'repro'} not found; run from a repository checkout")
    for var in ("REPRO_JOBS", "REPRO_SHARED_CACHE", "REPRO_REMOTE_CACHE", "REPRO_S3_CACHE"):
        os.environ.pop(var, None)
    os.environ["REPRO_CACHE_DIR"] = str(BUILD / "cache")
    os.environ["REPRO_NO_CACHE"] = "1"
    # A broken kernel build must fail the run, not degrade to another kernel.
    os.environ["REPRO_KERNEL"] = "compiled"
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    sys.path.insert(0, str(src))


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class HostSpeed:
    """Host speed, sampled with a fixed pure-Python loop between runs.

    The host's speed drifts by up to 2x within a minute; the same loop
    sampled alongside the simulations tracks that drift, so dividing by
    it leaves the simulator's own speed (README.md has the measurements).
    """

    def __init__(self):
        self.loops = 0
        self.seconds = 0.0

    def sample(self):
        start = time.perf_counter()
        x = 0
        for i in range(CALIBRATION_LOOPS):
            x += i * i
        self.seconds += time.perf_counter() - start
        self.loops += CALIBRATION_LOOPS

    def keep_up(self, timed_seconds):
        """Sample until sampling has taken its share of ``timed_seconds``."""
        while self.seconds < CALIBRATION_SHARE * timed_seconds:
            self.sample()

    def rate(self):
        return self.loops / self.seconds

    def scale(self):
        """Factor that converts a measured time into nominal-host time."""
        return self.rate() / NOMINAL_LOOPS_PER_S


@dataclass
class Outcome:
    """One simulation: its cell, the kernels it ran on, and either the
    traceback it raised or its canonical result (check.py) and, for a
    pollution-recording run, its log digests."""

    cell: object
    kernels: list
    error: str = None
    canonical: dict = None
    logs: dict = None
    #: The ``RunResult`` itself, kept only when asked for.
    result: object = None


def execute(cells, st_traces, kernel_log, host=None, keep=False):
    """Run ``cells`` through a fresh session with an empty private store.

    Returns the outcomes, the seconds spent in ``Session.run`` and the
    session's store.  The session's trace memo is seeded with the
    pre-built single-core traces, so trace generation stays in set-up; no
    result memo survives a call.  ``host`` samples host speed between
    runs, outside the timed calls.  Each result is reduced to its
    canonical form as soon as its run ends, outside the timed call, and
    dropped unless ``keep``, so memory does not grow with the number of
    passes.
    """
    from check import canonical, log_digests
    from repro.engine import InMemoryBackend, Session

    store = InMemoryBackend()
    session = Session(jobs=1, backend=store, trace_memo=dict(st_traces))
    outcomes = []
    wall = 0.0
    if host is not None:
        host.sample()
    for cell in cells:
        with kernel_log.run() as kernels:
            start = time.perf_counter()
            try:
                result = session.run(cell.spec)
            except Exception:
                result = None
                outcomes.append(Outcome(cell, kernels, traceback.format_exc()))
            wall += time.perf_counter() - start
        if result is not None:
            outcomes.append(
                Outcome(
                    cell,
                    kernels,
                    canonical=canonical(result),
                    logs=log_digests(result) if _records_pollution(cell.spec) else None,
                    result=result if keep else None,
                )
            )
        # Free this result before the next run allocates its own.
        del result
        if host is not None:
            host.keep_up(wall)
    return outcomes, wall, store


def _records_pollution(spec):
    return getattr(spec, "record_pollution", False)


def _label(spec):
    """Short name of a spec for messages."""
    name = getattr(spec, "mix_name", None) or spec.workload
    suffix = "+pollution" if _records_pollution(spec) else ""
    return f"{name}/{spec.scheme}{suffix}"


def _ops(outcomes):
    return sum(o.cell.ops for o in outcomes if o.error is None)


class Checker:
    """Compares outcomes with references and pins, and keeps the failure
    count.  ``pins_required`` says whether a run without a pin fails."""

    def __init__(self, references, pins, pins_required):
        self.references = references
        self.pins = pins
        self.pins_required = pins_required
        self.pinned = 0
        self.attempted = 0
        self.failed = 0
        self.sample = None
        self.kernels = collections.Counter()

    def fail(self, message):
        self.failed += 1
        print(f"FAIL {message}", file=sys.stderr)

    def check(self, outcomes):
        from check import field_at, first_difference, pin_key

        refs = self.references
        errors = refs.compute_missing(o.cell.spec for o in outcomes)
        for spec, error in errors.items():
            print(f"reference for {_label(spec)} failed:\n{error}", file=sys.stderr)
        expected = {
            spec: refs.load(spec)
            for spec in dict.fromkeys(o.cell.spec for o in outcomes)
            if spec not in errors
        }
        for o in outcomes:
            self.attempted += 1
            self.kernels["+".join(o.kernels) or "object"] += 1
            spec = o.cell.spec
            if o.error is not None:
                self.fail(f"{_label(spec)} raised:\n{o.error}")
                continue
            if spec not in expected:
                self.fail(f"{_label(spec)}: no reference")
                continue
            got = o.canonical
            diff = first_difference(expected[spec], got)
            if diff is not None:
                self.fail(
                    f"{_label(spec)}: field {diff} is {field_at(got, diff)!r}, "
                    f"reference {field_at(expected[spec], diff)!r}"
                )
                continue
            if self.sample is None:
                self.sample = got
            mismatch = self.pins.mismatch(spec, got, o.logs, self.pins_required)
            if mismatch is not None:
                self.fail(f"{_label(spec)}: {mismatch} (pins.json {pin_key(spec)!r})")
            elif pin_key(spec) in self.pins.runs:
                self.pinned += 1

    def same(self, first, second, label):
        """Count a failure for each cell whose two outcomes differ."""
        from check import first_difference

        for a, b in zip(first, second):
            if a.error is not None or b.error is not None:
                continue
            diff = first_difference([a.canonical, a.logs], [b.canonical, b.logs])
            if diff is not None:
                self.fail(f"{_label(a.cell.spec)}: {label} differs at field {diff}")


def _setup_seconds(workload, seed):
    """Median of fresh-interpreter set-ups (kernel already built), each
    scaled to the nominal host."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(args, grid, cells, traces, st_traces, checker, kernel_log):
    """End-to-end metrics: repeated timed passes over the whole grid."""
    setup_s = _setup_seconds(args.workload, args.seed)
    # Untimed warm-up on the first trace's cells: lazy imports and first
    # calls happen here, not in the first timed pass.
    warm_key = cells[0].trace_key
    warm, _, _ = execute([c for c in cells if c.trace_key == warm_key], st_traces, kernel_log)
    outcomes = list(warm)
    rates = []
    raw_rates = []
    host_rates = []
    start = time.perf_counter()
    while True:
        gc.collect()
        host = HostSpeed()
        passed, wall, _ = execute(cells, st_traces, kernel_log, host)
        outcomes.extend(passed)
        raw_rates.append(_ops(passed) / wall)
        rates.append(raw_rates[-1] / host.scale())
        host_rates.append(host.rate())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rates) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checker.check(outcomes)
    print(
        f"{args.workload} seed {args.seed}: {len(cells)} runs per pass, "
        f"{len(rates)} timed passes at {', '.join(f'{r:.0f}' for r in raw_rates)} ops/s "
        f"({', '.join(f'{r:.0f}' for r in rates)} on the nominal host; host loop at "
        f"{', '.join(f'{r / 1e6:.2f}' for r in host_rates)}M/s); "
        f"set-up {setup_s:.3f}s; peak RSS {peak_rss_mb:.1f} MB",
        file=sys.stderr,
    )
    return {
        "sim_ops_per_s": _metric(statistics.median(rates), "ops/s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def _cores(result):
    return result.per_core if hasattr(result, "per_core") else [result]


def _geomean(values):
    values = [v for v in values if v > 0]
    return math.exp(sum(map(math.log, values)) / len(values)) if values else 0.0


def simulated_stats(grid, outcomes, baseline):
    """Simulated statistics of the traced pass (they repeat exactly)."""
    cores = [(o.cell.spec.scheme, c) for o in outcomes for c in _cores(o.result)]
    prefetching = [c for scheme, c in cores if scheme != "none"]
    issued = sum(c.pf_issued for c in prefetching)
    useful = sum(c.pf_useful for c in prefetching)
    uncovered = sum(c.l2_demand_misses for c in prefetching)
    ipc = {}
    for o in outcomes + baseline:
        ipc[(o.cell.trace_key, o.cell.spec.scheme)] = [c.ipc for c in _cores(o.result)]
    speedups = []
    for (key, scheme), values in ipc.items():
        if scheme == grid.speedup_scheme and (key, "none") in ipc:
            speedups += [a / b for a, b in zip(values, ipc[(key, "none")]) if b > 0]
    return {
        "memory.l2_demand_misses": (sum(c.l2_demand_misses for _, c in cores), "count"),
        "memory.dram_reads": (sum(c.dram_reads for _, c in cores), "count"),
        "memory.bw_high_residency": (
            statistics.fmean(c.bw_utilization_residency[-1] for _, c in cores),
            "fraction",
        ),
        "prefetchers.pf_issued": (issued, "count"),
        "prefetchers.pf_useful": (useful, "count"),
        "prefetchers.pf_late": (sum(c.pf_late for c in prefetching), "count"),
        "prefetchers.accuracy": (useful / issued if issued else 0.0, "fraction"),
        "prefetchers.coverage": (
            useful / (useful + uncovered) if useful + uncovered else 0.0,
            "fraction",
        ),
        "prefetchers.zero_issue_runs": (
            sum(
                1
                for o in outcomes
                if o.cell.spec.scheme != "none"
                and sum(c.pf_issued for c in _cores(o.result)) == 0
            ),
            "count",
        ),
        "cpu.sim_ipc_geomean": (_geomean([c.ipc for _, c in cores]), "instr/cycle"),
        "core.dspatch_speedup_geomean": (_geomean(speedups), "ratio"),
    }


def traced_run(args, grid, cells, traces, st_traces, checker, kernel_log, setup):
    """Per-layer metrics: one untraced and one traced pass, compared."""
    import grid as grids
    import spans

    warm_key = cells[0].trace_key
    warm, _, _ = execute([c for c in cells if c.trace_key == warm_key], st_traces, kernel_log)
    gc.collect()
    plain_host = HostSpeed()
    plain, plain_wall, _ = execute(cells, st_traces, kernel_log, plain_host)
    gc.collect()
    host = HostSpeed()
    log = spans.SpanLog()
    patches = spans.install(log)
    try:
        traced, traced_wall, store = execute(cells, st_traces, kernel_log, host, keep=True)
    finally:
        spans.uninstall(patches)
    baseline = []
    if "none" not in grid.schemes:
        baseline, _, _ = execute(
            grids.cells(grid, args.seed, traces, schemes=("none",)),
            st_traces,
            kernel_log,
            keep=True,
        )
    checker.check(warm + plain + traced + baseline)
    checker.same(plain, traced, "traced result")
    if any(o.error is not None for o in traced + baseline):
        return {}

    layer = log.summary()
    attributed = sum(v["self_s"] for k, v in layer.items() if not k.endswith(".run"))
    # Single-core traces are generated once in set-up; mixes are generated
    # again inside every run.
    if grid.mixes:
        build_s = layer["workloads.build"]["self_s"]
        generated = sum(c.ops for c in cells)
    else:
        build_s = setup["trace_build_s"]
        generated = sum(len(t) for t in st_traces.values())
    metrics = {
        "workloads.build_s": (build_s, "s"),
        "workloads.ops": (generated, "count"),
        "kernel.build_s": (setup["kernel_build_s"], "s"),
        "engine.fingerprint_s": (layer["engine.fingerprint"]["self_s"], "s"),
        "engine.store_save_s": (layer["engine.store_save"]["self_s"], "s"),
        "engine.store_bytes": (store.stats()["bytes"], "bytes"),
        "cpu.build_s": (layer["cpu.build"]["self_s"], "s"),
        "kernel.pack_s": (layer["kernel.pack"]["self_s"], "s"),
        "kernel.writeback_s": (layer["kernel.writeback"]["self_s"], "s"),
        "kernel.loop_s": (layer["kernel.loop"]["self_s"], "s"),
        "kernel.loop_calls": (layer["kernel.loop"]["calls"], "count"),
        "prefetchers.train_s": (layer["prefetchers.train"]["self_s"], "s"),
        "prefetchers.train_calls": (layer["prefetchers.train"]["calls"], "count"),
        "prefetchers.note_calls": (layer["prefetchers.note"]["calls"], "count"),
        "prefetchers.flush_s": (layer["prefetchers.flush"]["self_s"], "s"),
        "cpu.interleave_s": (layer["cpu.interleave"]["self_s"], "s"),
        "cpu.interleave_slices": (layer["cpu.interleave"]["slices"], "count"),
        "cpu.object_loop_s": (layer["cpu.object_loop"]["self_s"], "s"),
        "kernel.fallback_runs": (sum(1 for o in traced if o.kernels[:1] != ["compiled"]), "count"),
        "other_s": (traced_wall - attributed, "s"),
        "perfbench.traced_wall_s": (traced_wall, "s"),
        # On the nominal host: the two passes may run at different host speeds.
        "perfbench.trace_overhead_s": (
            traced_wall / host.scale() - plain_wall / plain_host.scale(),
            "s",
        ),
        "perfbench.host_loops_per_s": (host.rate(), "loops/s"),
    }
    metrics.update(simulated_stats(grid, traced, baseline))
    print(f"{args.workload} seed {args.seed}: per-layer table ({len(cells)} runs)", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}", file=sys.stderr)
    return {name: _metric(value, unit) for name, (value, unit) in metrics.items()}


def main(argv=None):
    args = _parse_args(argv)
    _prepare_environment()
    import check
    import grid as grids
    import spans
    from repro.kernel import kernel_available, kernel_unavailable_reason

    if args.workload not in grids.GRIDS:
        sys.exit(f"unknown workload {args.workload!r}; one of {sorted(grids.GRIDS)}")
    grid = grids.GRIDS[args.workload]
    kernel_log = spans.KernelLog()
    start = time.perf_counter()
    if not kernel_available():
        sys.exit(f"compiled kernel unavailable: {kernel_unavailable_reason()}")
    kernel_build_s = time.perf_counter() - start
    start = time.perf_counter()
    traces = grids.build_traces(grid, args.seed)
    trace_build_s = time.perf_counter() - start
    st_traces = {} if grid.mixes else traces
    cells = grids.cells(grid, args.seed, traces)
    # Every single-core cell is pinned; mixes only for the default seed.
    checker = Checker(
        check.References(BUILD / "reference"),
        check.Pins(),
        pins_required=not grid.mixes or args.seed == DEFAULT_SEED,
    )

    if args.trace:
        setup = {"kernel_build_s": kernel_build_s, "trace_build_s": trace_build_s}
        metrics = traced_run(args, grid, cells, traces, st_traces, checker, kernel_log, setup)
    else:
        metrics = timed_run(args, grid, cells, traces, st_traces, checker, kernel_log)

    if checker.sample is None:
        self_test_ok = False
        print("FAIL no run matched its reference, so the self-test had no sample", file=sys.stderr)
    else:
        self_test_ok = check.self_test(checker.sample)
        if not self_test_ok:
            print("FAIL a perturbed field was not caught by the comparison", file=sys.stderr)
    refs = checker.references
    print(
        f"references: {refs.computed} computed, {refs.loaded} loaded; "
        f"{checker.pinned} runs matched their pins; "
        f"{checker.failed} of {checker.attempted} runs failed; kernels: "
        + ", ".join(f"{kind} x{n}" for kind, n in sorted(checker.kernels.items())),
        file=sys.stderr,
    )
    kernel_log.close()
    print(
        json.dumps(
            {
                "correct": checker.failed == 0 and self_test_ok and bool(metrics),
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
