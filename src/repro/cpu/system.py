"""System drivers: single-core and 4-core multi-programmed simulation.

Mirrors the paper's two configurations (Section 4):

- **ST** — one core, private L1/L2, 2MB LLC, one DDR4 channel.
- **MP** — four cores, private L1/L2 per core, shared 8MB LLC, two DDR4
  channels (same LLC capacity per core, half the bandwidth per core).

Both sizes run through one body (``_run_cores``): a single-core run is a
one-core mix.  The cores advance in global time order (always the core
with the smallest retirement time) so they contend realistically for the
shared LLC and DRAM — which is what makes the accuracy-biased pattern
matter in Section 5.4.  Single-core object-model runs and py-kernel
runs are scheduled by :func:`repro.cpu.core.interleave_two_level`,
object-model mixes by its fused form
:func:`repro.cpu.core.interleave_batched`, and compiled-kernel runs by
the same schedule inside the C kernel
(:meth:`repro.kernel.execution.KernelDomain.interleave`).  See
docs/engine.md for the design and the parity/performance story.
"""

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.cpu.core import (
    CoreExecution,
    CoreModel,
    interleave_batched,
    interleave_two_level,
)
from repro.memory.cache import Cache
from repro.constants import MP_LLC_BYTES, ST_LLC_BYTES
from repro.memory.dram import MP_DRAM, ST_DRAM, DramConfig, DramModel
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.memory.observed import ObservedHierarchy
from repro.observe.sinks import CoreScopedSink, LineSink
from repro.prefetchers.base import flush_training_with_cycle
from repro.prefetchers.registry import build_prefetcher
from repro.prefetchers.stride import PcStridePrefetcher


@dataclass(frozen=True)
class SystemConfig:
    """One simulated machine configuration."""

    hierarchy: HierarchyConfig = HierarchyConfig()
    dram: DramConfig = DramConfig()
    core: CoreModel = CoreModel()
    #: Registry name of the L2 prefetcher scheme ("none" for the baseline).
    l2_prefetcher: str = "none"
    #: Whether the baseline L1 PC-stride prefetcher is present (Table 2).
    l1_stride: bool = True
    record_pollution_victims: bool = False
    #: Opt-in event tracing (docs/observability.md).  Neither flag enters
    #: spec fingerprints — tracing never forks the content-addressed
    #: cache — and with both off the drivers build the plain
    #: uninstrumented hierarchy, so results stay bit-identical.
    trace_prefetch: bool = False
    trace_cache: bool = False
    #: Fraction of the trace used to warm caches/predictors before the
    #: measured region starts — the standard warmup-then-measure
    #: methodology of the paper's simulator.  Structures keep their state
    #: across the boundary; only statistics reset.
    warmup_frac: float = 0.25
    #: Hot-loop kernel: "auto" defers to the engine config (REPRO_KERNEL /
    #: ``repro run --kernel``, itself defaulting to the compiled kernel
    #: when a C toolchain is present and the pure-Python kernel otherwise);
    #: "py"/"compiled" force a flat kernel, "object" forces the original
    #: object-model loop.  All choices are bit-identical (pinned by
    #: tests/test_kernel_parity.py) and the field never enters spec
    #: fingerprints, so results share cache entries across kernels.
    #: Runs the kernels cannot express — event tracing on, pollution
    #: recording — use the object path regardless, warning once per
    #: reason when "py"/"compiled" was chosen explicitly.
    kernel: str = "auto"

    @staticmethod
    def single_thread(l2_prefetcher="none", dram=None, llc_bytes=ST_LLC_BYTES, **kwargs):
        """The paper's ST configuration: 2MB LLC, single channel."""
        hierarchy = HierarchyConfig().scaled_llc(llc_bytes)
        return SystemConfig(
            hierarchy=hierarchy,
            dram=dram or ST_DRAM,
            l2_prefetcher=l2_prefetcher,
            **kwargs,
        )

    @staticmethod
    def multi_programmed(l2_prefetcher="none", dram=None, llc_bytes=MP_LLC_BYTES, **kwargs):
        """The paper's MP configuration: shared 8MB LLC, two channels."""
        hierarchy = HierarchyConfig().scaled_llc(llc_bytes)
        return SystemConfig(
            hierarchy=hierarchy,
            dram=dram or MP_DRAM,
            l2_prefetcher=l2_prefetcher,
            **kwargs,
        )


@dataclass
class RunResult:
    """Everything a single-core run produces."""

    ipc: float
    instructions: int
    cycles: float
    coverage: float
    accuracy: float
    pf_issued: int
    pf_useful: int
    pf_late: int
    pf_useless: int
    l2_demand_misses: int
    dram_reads: int
    bw_utilization_residency: list
    achieved_gbps: float
    level_hits: dict = field(default_factory=dict)
    pollution_events: list = field(default_factory=list)
    demand_log: list = field(default_factory=list)
    prefetch_fill_log: list = field(default_factory=list)

    @property
    def mpki(self):
        """L2 demand misses per kilo-instruction."""
        return 1000.0 * self.l2_demand_misses / self.instructions if self.instructions else 0.0

    def to_dict(self):
        """JSON-serializable summary (scalar metrics only, no logs)."""
        return {
            "ipc": self.ipc,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "coverage": self.coverage,
            "accuracy": self.accuracy,
            "mpki": self.mpki,
            "pf_issued": self.pf_issued,
            "pf_useful": self.pf_useful,
            "pf_late": self.pf_late,
            "pf_useless": self.pf_useless,
            "l2_demand_misses": self.l2_demand_misses,
            "dram_reads": self.dram_reads,
            "achieved_gbps": self.achieved_gbps,
            "bw_utilization_residency": list(self.bw_utilization_residency),
            "level_hits": dict(self.level_hits),
        }


@contextmanager
def _gc_paused():
    """Pause cyclic GC for the duration of a simulation run.

    The hot loop allocates heavily (cache lines, candidates, tuples) but
    creates no reference cycles, so generational collections only add
    pause time; refcounting reclaims everything promptly and any cycles
    are collected when GC resumes after the run.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _resolve_kernel(cfg):
    """Concrete hot-loop engine for this run: "object", "py" or "compiled".

    Resolution: an explicit ``SystemConfig.kernel`` wins; "auto" defers to
    the engine config (``repro run --kernel`` / ``REPRO_KERNEL``); a still
    unresolved "auto" picks "compiled" when a toolchain is present and
    "py" otherwise (never an error).  Runs the kernels cannot express —
    tracing, pollution recording — fall back to the object path whatever
    was selected, with a once-per-reason warning when the kernel was
    chosen explicitly; an *explicit*
    "compiled" without a working toolchain raises (loud), while "auto"
    degrades to "py" silently-but-gracefully.
    """
    choice = cfg.kernel
    if choice == "auto":
        # Lazy import: repro.cpu must stay importable without the engine.
        from repro.engine.config import current_config

        choice = current_config().kernel
    if choice == "object":
        return "object"
    if cfg.trace_prefetch or cfg.trace_cache:
        fallback = "tracing"
    elif cfg.record_pollution_victims:
        fallback = "pollution"
    else:
        fallback = None
    if fallback is not None:
        if choice != "auto":
            _warn_object_fallback(choice, fallback)
        return "object"
    from repro.kernel import kernel_available
    from repro.kernel.execution import kernel_unavailable_reason

    if choice == "auto":
        if kernel_available():
            return "compiled"
        kind, reason = kernel_unavailable_reason()
        if kind == "build":
            # A missing toolchain degrades quietly; a broken build is a
            # bug and must not be mistaken for one.
            _warn_kernel_degraded(reason)
        return "py"
    if choice == "compiled" and not kernel_available():
        kind, reason = kernel_unavailable_reason()
        if kind == "toolchain":
            raise RuntimeError(
                "kernel='compiled' requested but no C toolchain is available "
                "(set kernel='py' or 'auto' to use the pure-Python kernel)"
            )
        raise RuntimeError(
            f"kernel='compiled' requested but the kernel failed to build: "
            f"{reason}"
        )
    return choice


_warned_kernel_degraded = False


def _warn_kernel_degraded(reason):
    global _warned_kernel_degraded
    if _warned_kernel_degraded:
        return
    _warned_kernel_degraded = True
    import warnings

    warnings.warn(
        f"compiled kernel unavailable, falling back to the pure-Python "
        f"kernel: {reason}",
        RuntimeWarning,
        stacklevel=3,
    )


#: Fallback reasons already warned about (once per reason per process).
_warned_object_fallbacks = set()

_FALLBACK_CAUSES = {
    "tracing": "event tracing",
    "pollution": "pollution recording",
}


def _warn_object_fallback(choice, reason):
    if reason in _warned_object_fallbacks:
        return
    _warned_object_fallbacks.add(reason)
    import warnings

    warnings.warn(
        f"kernel={choice!r} does not support {_FALLBACK_CAUSES[reason]} "
        f"({reason}); running on the object model instead "
        f"(results are bit-identical)",
        RuntimeWarning,
        stacklevel=3,
    )


def _resolve_sink(cfg, sink):
    """The sink a run should emit to, or ``None`` when tracing is off."""
    if not (cfg.trace_prefetch or cfg.trace_cache):
        return None
    if sink is not None:
        return sink
    import sys

    return LineSink(sys.stderr)


def _make_hierarchy(cfg, dram, llc, l1_pf, l2_pf, sink):
    """Build the hierarchy for one core: plain when nothing observes it.

    The split class is the no-overhead guarantee: with tracing off and no
    pollution recording this returns the exact pre-instrumentation
    :class:`MemoryHierarchy`, so the hot path carries zero new branches
    (asserted by ``benchmarks/bench_observe_overhead.py``).
    """
    if sink is None and not cfg.record_pollution_victims:
        return MemoryHierarchy(
            config=cfg.hierarchy,
            dram=dram,
            llc=llc,
            l1_prefetcher=l1_pf,
            l2_prefetcher=l2_pf,
        )
    return ObservedHierarchy(
        config=cfg.hierarchy,
        dram=dram,
        llc=llc,
        l1_prefetcher=l1_pf,
        l2_prefetcher=l2_pf,
        sink=sink,
        trace_prefetch=cfg.trace_prefetch,
        trace_cache=cfg.trace_cache,
        record_pollution_victims=cfg.record_pollution_victims,
    )


def _result_from(execution, hierarchy, dram):
    stats = execution.finalize()
    coverage, accuracy, _base = hierarchy.coverage_accuracy()
    pf = hierarchy.pf_stats
    return RunResult(
        ipc=stats.ipc,
        instructions=stats.instructions,
        cycles=stats.cycles,
        coverage=coverage,
        accuracy=accuracy,
        pf_issued=pf.issued,
        pf_useful=pf.useful,
        pf_late=pf.late,
        pf_useless=pf.useless,
        l2_demand_misses=hierarchy.l2.demand_misses,
        dram_reads=dram.reads,
        bw_utilization_residency=dram.monitor.bucket_residency(),
        achieved_gbps=dram.achieved_gbps(stats.cycles),
        level_hits=dict(stats.level_hits),
        pollution_events=list(hierarchy.pollution_events),
        demand_log=list(hierarchy.demand_log),
        prefetch_fill_log=list(hierarchy.prefetch_fill_log),
    )


def _run_cores(cfg, traces, sink, tag_cores):
    """Run one trace per core on one machine.

    The single body behind :meth:`System.run` (one core) and
    :meth:`MultiCoreSystem.run` (N cores sharing the LLC and DRAM).
    Returns the per-core :class:`RunResult` list and the global-time span
    of the measured region (see :attr:`MultiProgramResult.global_cycles`).

    The object model and the flat kernels differ in three places only:
    packing the built objects into kernel form, the warmup-boundary reset
    (the live counters sit in the working form during a kernel run), and
    the write-back before results are assembled — so everything
    downstream of the hot loop (stats assembly, training drain, post-run
    inspection) reads the very objects it always read.
    """
    kind = _resolve_kernel(cfg)
    flat = kind != "object"
    if flat:
        from repro.kernel.execution import KernelBandwidth, KernelDomain, KernelExecution
    dram = DramModel(cfg.dram)
    shared_llc = Cache(cfg.hierarchy.llc)
    domain = KernelDomain(shared_llc, dram, kind) if flat else None
    sink = _resolve_sink(cfg, sink)
    cores = []
    executions = []
    bandwidths = []
    for core_idx, trace in enumerate(traces):
        l1_pf = PcStridePrefetcher() if cfg.l1_stride else None
        if flat:
            # Bandwidth-aware schemes must read the *live* monitor, which
            # lives in the kernel working form while the run is active.
            bandwidth = KernelBandwidth(dram)
            bandwidth.attach(domain)
            bandwidths.append(bandwidth)
        else:
            bandwidth = dram
        l2_pf = build_prefetcher(cfg.l2_prefetcher, bandwidth)
        core_sink = sink
        if sink is not None and tag_cores:
            core_sink = CoreScopedSink(sink, core_idx)
        hierarchy = _make_hierarchy(cfg, dram, shared_llc, l1_pf, l2_pf, core_sink)
        core = CoreExecution(cfg.core, trace, hierarchy)
        cores.append(core)
        executions.append(KernelExecution(core, trace, domain) if flat else core)

    # Each core crosses its own warmup boundary after warmup_frac of its
    # trace — before the first op when the warmup is zero ops; shared
    # DRAM stats reset when the first core crosses (per-core results use
    # private hierarchy counters, so the shared reset point is not
    # critical).
    warmup_ops = [int(len(trace) * cfg.warmup_frac) for trace in traces]
    stats_reset_time = None

    def _cross_warmup(idx):
        nonlocal stats_reset_time
        ex = executions[idx]
        ex.mark_stats_start()
        if flat:
            ex.reset_hierarchy_stats()
        else:
            cores[idx].hierarchy.reset_stats()
        if stats_reset_time is None:
            stats_reset_time = ex.time
            if flat:
                ex.reset_dram_stats(ex.time)
            else:
                dram.reset_stats(ex.time)

    # The flat kernels schedule through their domain (the compiled one
    # inside C).  One core yields two batches under either object driver,
    # so the fused driver only pays off on object-model mixes.
    if flat:
        driver = domain.interleave
    elif len(executions) == 1:
        driver = interleave_two_level
    else:
        driver = interleave_batched
    with _gc_paused():
        driver(executions, warmup_ops, _cross_warmup)

    if flat:
        # The per-core objects are locals here and results read only
        # counters, so skip rebuilding cache contents.
        for ex in executions:
            ex.write_back(contents=False)
        domain.write_back(contents=False)
        for bandwidth in bandwidths:
            bandwidth.release()
    per_core = [_result_from(core, core.hierarchy, dram) for core in cores]
    # End-of-run training drain (after stats capture: the drain's
    # bandwidth-bucket queries at the final cycle must not perturb the
    # reported residency).  Pages still resident in e.g. DSPatch's PB
    # learn under the run-final bucket, leaving the prefetcher state
    # consistent for post-run inspection.
    for core in cores:
        l2_pf = core.hierarchy.l2_prefetcher
        if l2_pf is not None:
            flush_training_with_cycle(l2_pf, int(core.time))
    end_time = max((core.time for core in cores), default=0.0)
    if stats_reset_time is None:
        stats_reset_time = 0.0
    return per_core, max(end_time - stats_reset_time, 0.0)


class System:
    """Single-core trace-driven simulation: a one-core mix.

    ``sink`` receives trace events when the config enables
    ``trace_prefetch``/``trace_cache`` (stderr lines when omitted); it is
    deliberately *not* part of :class:`SystemConfig` — where the events
    go is an observation concern, not part of the simulated machine.
    """

    def __init__(self, config: SystemConfig = None, sink=None):
        self.config = config or SystemConfig()
        self.sink = sink

    def run(self, trace):
        """Simulate ``trace`` end to end; returns a :class:`RunResult`."""
        per_core, _ = _run_cores(self.config, [trace], self.sink, tag_cores=False)
        return per_core[0]


@dataclass
class MultiProgramResult:
    """Results of one multi-programmed mix."""

    per_core: list  # RunResult per core
    #: Global-time span of the measured region: the latest per-core
    #: end-of-run retirement time minus the shared stats-reset time (the
    #: moment the *first* core crossed its warmup boundary).  Unlike the
    #: per-core ``cycles`` fields — measured-region spans that each start
    #: at that core's own warmup boundary — this is one consistent wall
    #: span for the whole mix (what a shared-resource rate like aggregate
    #: DRAM bandwidth should be divided by).
    global_cycles: float

    def weighted_speedup(self, alone_ipcs):
        """Sum of per-core IPC over the same workload's alone-IPC."""
        if len(alone_ipcs) != len(self.per_core):
            raise ValueError("need one alone-IPC per core")
        return sum(
            core.ipc / alone if alone > 0 else 0.0
            for core, alone in zip(self.per_core, alone_ipcs)
        )


class MultiCoreSystem:
    """Four (or N) cores sharing an LLC and DRAM.

    Trace events are tagged with the emitting core's index.
    """

    def __init__(self, config: SystemConfig = None, num_cores=4, sink=None):
        self.config = config or SystemConfig.multi_programmed()
        self.num_cores = num_cores
        self.sink = sink

    def run(self, traces):
        """Simulate one trace per core; returns :class:`MultiProgramResult`."""
        if len(traces) != self.num_cores:
            raise ValueError(f"need exactly {self.num_cores} traces")
        per_core, global_cycles = _run_cores(self.config, traces, self.sink, tag_cores=True)
        return MultiProgramResult(per_core=per_core, global_cycles=global_cycles)
