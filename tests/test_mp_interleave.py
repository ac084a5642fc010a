"""Tests for the batched multi-core interleave driver and its bugfixes.

Pins four things:

1. **Driver parity** — ``interleave_batched`` (the object-model mix driver),
   ``interleave_two_level`` (its readable ``run_ops_until`` form) and
   ``interleave_reference`` (the pre-batching per-op heap loop) produce
   bit-identical results on real 4-core mixes, including warmup
   boundaries, zero warmup, and uneven trace lengths.
2. **Warmup boundary semantics** — the boundary fires exactly at the
   warmup op count (never stepped over by a batch) and fires before the
   first op when the warmup is zero ops, matching single-core semantics.
3. **The satellite bugfixes** — ``DSPatch.flush_training`` learns under
   the run-final bandwidth bucket, and ``MultiProgramResult`` reports a
   consistent global-time span.
4. **One run body** — a single-core ``System`` run equals a one-core
   ``MultiCoreSystem`` mix under every kernel, and only mixes tag trace
   events with their core index.
"""

import pytest

from repro.core.dspatch import DSPatch
from repro.cpu.core import (
    CoreExecution,
    CoreModel,
    interleave_batched,
    interleave_reference,
    interleave_two_level,
)
from repro.cpu.system import MultiCoreSystem, System, SystemConfig, _result_from
from repro.kernel import kernel_available
from repro.memory.cache import Cache
from repro.memory.dram import DramModel, FixedBandwidth
from repro.memory.hierarchy import MemoryHierarchy
from repro.observe.sinks import CollectingSink
from repro.prefetchers.registry import build_prefetcher
from repro.prefetchers.stride import PcStridePrefetcher
from repro.workloads.catalog import build_trace
from repro.workloads.mixes import build_mix_traces

DRIVERS = {
    "reference": interleave_reference,
    "two-level": interleave_two_level,
    "batched": interleave_batched,
}

#: RunResult fields compared exactly across drivers.
_RESULT_FIELDS = (
    "ipc",
    "instructions",
    "cycles",
    "coverage",
    "accuracy",
    "pf_issued",
    "pf_useful",
    "pf_late",
    "pf_useless",
    "l2_demand_misses",
    "dram_reads",
    "achieved_gbps",
    "level_hits",
    "bw_utilization_residency",
)


def _mp_run_with_driver(driver, cfg, traces):
    """MultiCoreSystem.run rebuilt around an explicit interleave driver."""
    dram = DramModel(cfg.dram)
    shared_llc = Cache(cfg.hierarchy.llc)
    executions, hierarchies = [], []
    for trace in traces:
        hierarchy = MemoryHierarchy(
            config=cfg.hierarchy,
            dram=dram,
            llc=shared_llc,
            l1_prefetcher=PcStridePrefetcher() if cfg.l1_stride else None,
            l2_prefetcher=build_prefetcher(cfg.l2_prefetcher, dram),
        )
        hierarchies.append(hierarchy)
        executions.append(CoreExecution(cfg.core, trace, hierarchy))
    warmup_ops = [int(len(trace) * cfg.warmup_frac) for trace in traces]
    boundary_log = []

    def _cross(idx):
        ex = executions[idx]
        boundary_log.append((idx, ex.ops, ex.time))
        ex.mark_stats_start()
        hierarchies[idx].reset_stats()
        if len(boundary_log) == 1:
            dram.reset_stats(ex.time)

    driver(executions, warmup_ops, _cross)
    results = [
        _result_from(ex, hier, dram) for ex, hier in zip(executions, hierarchies)
    ]
    return results, boundary_log, [ex.time for ex in executions]


def _assert_identical(results_a, results_b, context):
    for core, (ra, rb) in enumerate(zip(results_a, results_b)):
        for field in _RESULT_FIELDS:
            assert getattr(ra, field) == getattr(rb, field), (
                f"{context}: core {core} field {field} diverged"
            )


class TestDriverParity:
    """All three interleave drivers are bit-for-bit interchangeable."""

    @pytest.mark.parametrize("scheme", ["none", "dspatch", "spp+dspatch"])
    @pytest.mark.parametrize("warmup_frac", [0.25, 0.0])
    def test_parity_on_mix_grid(self, scheme, warmup_frac):
        traces = build_mix_traces(
            ["ispec06.mcf", "cloud.memcached", "hpc.npb-bt", "sysmark.excel"], 800
        )
        cfg = SystemConfig.multi_programmed(scheme, warmup_frac=warmup_frac)
        ref, ref_bounds, ref_times = _mp_run_with_driver(
            interleave_reference, cfg, traces
        )
        for name in ("two-level", "batched"):
            got, bounds, times = _mp_run_with_driver(DRIVERS[name], cfg, traces)
            _assert_identical(ref, got, f"{name} scheme={scheme} warmup={warmup_frac}")
            assert bounds == ref_bounds, f"{name}: boundary crossings diverged"
            assert times == ref_times, f"{name}: final core times diverged"

    def test_parity_uneven_trace_lengths(self):
        names = ["ispec06.mcf", "cloud.memcached", "hpc.npb-bt", "sysmark.excel"]
        traces = [
            build_trace(name, length)
            for name, length in zip(names, (1200, 400, 900, 50))
        ]
        cfg = SystemConfig.multi_programmed("dspatch")
        ref, ref_bounds, _ = _mp_run_with_driver(interleave_reference, cfg, traces)
        for name in ("two-level", "batched"):
            got, bounds, _ = _mp_run_with_driver(DRIVERS[name], cfg, traces)
            _assert_identical(ref, got, f"{name} uneven lengths")
            assert bounds == ref_bounds

    def test_system_run_uses_batched_driver_semantics(self):
        """MultiCoreSystem.run matches the explicit batched rebuild."""
        traces = build_mix_traces(["ispec06.mcf"] * 4, 500)
        cfg = SystemConfig.multi_programmed("spp")
        direct, _, _ = _mp_run_with_driver(interleave_batched, cfg, traces)
        via_system = MultiCoreSystem(cfg).run(traces)
        _assert_identical(direct, via_system.per_core, "MultiCoreSystem.run")


class TestWarmupBoundary:
    def test_boundary_fires_exactly_at_warmup_ops(self):
        """Batches cap at the boundary; it is never stepped over."""
        traces = build_mix_traces(["ispec06.mcf"] * 4, 600)
        cfg = SystemConfig.multi_programmed("none", warmup_frac=0.25)
        _, bounds, _ = _mp_run_with_driver(interleave_batched, cfg, traces)
        assert len(bounds) == 4
        for idx, ops_at_fire, _time in bounds:
            assert ops_at_fire == int(len(traces[idx]) * 0.25)

    def test_zero_warmup_fires_before_first_op(self):
        traces = build_mix_traces(["ispec06.mcf"] * 4, 300)
        cfg = SystemConfig.multi_programmed("none", warmup_frac=0.0)
        _, bounds, _ = _mp_run_with_driver(interleave_batched, cfg, traces)
        # One crossing per core, all at zero executed ops and time zero.
        assert sorted(idx for idx, _, _ in bounds) == [0, 1, 2, 3]
        assert all(ops == 0 and time == 0.0 for _, ops, time in bounds)

    def test_zero_warmup_mp_matches_st_semantics(self):
        """Regression: warmup_frac=0 measures the whole trace on the MP
        path, exactly as System.run does on the ST path."""
        traces = build_mix_traces(["ispec06.mcf"] * 4, 400)
        cfg = SystemConfig.multi_programmed("none", warmup_frac=0.0)
        result = MultiCoreSystem(cfg).run(traces)
        for core, trace in zip(result.per_core, traces):
            assert core.instructions == trace.instructions
        st = System(
            SystemConfig.single_thread("none", warmup_frac=0.0)
        ).run(traces[0])
        assert st.instructions == traces[0].instructions

    def test_target_beyond_trace_never_fires(self):
        """A stop target past the trace end is unreachable in every
        driver: the run completes, no boundary fires, no crash."""
        traces = build_mix_traces(["ispec06.mcf"] * 4, 200)
        cfg = SystemConfig.multi_programmed("none")
        for name, driver in DRIVERS.items():
            dram = DramModel(cfg.dram)
            shared_llc = Cache(cfg.hierarchy.llc)
            executions = []
            for trace in traces:
                hierarchy = MemoryHierarchy(
                    config=cfg.hierarchy, dram=dram, llc=shared_llc
                )
                executions.append(CoreExecution(cfg.core, trace, hierarchy))
            fired = []
            driver(executions, [len(t) + 10 for t in traces], fired.append)
            assert fired == [], name
            assert all(ex.done for ex in executions), name

    def test_very_short_trace_warmup_rounds_to_zero(self):
        """len(trace) * warmup_frac < 1 rounds to a zero-op warmup and
        still fires the boundary (the pre-fix code skipped it)."""
        traces = build_mix_traces(["ispec06.mcf"] * 4, 3)
        cfg = SystemConfig.multi_programmed("none", warmup_frac=0.25)
        _, bounds, _ = _mp_run_with_driver(interleave_batched, cfg, traces)
        assert len(bounds) == 4
        assert all(ops == 0 for _, ops, _ in bounds)


class TestRunOpsUntil:
    def _fresh(self, length=800):
        trace = build_trace("ispec06.mcf", length)
        hierarchy = MemoryHierarchy(dram=DramModel())
        return CoreExecution(CoreModel(), trace, hierarchy)

    def test_infinite_horizon_equals_run_ops(self):
        a = self._fresh()
        b = self._fresh()
        a.run_ops()
        executed = b.run_ops_until(float("inf"))
        assert executed == b.ops == a.ops
        assert a.time == b.time

    def test_horizon_stops_once_time_passes(self):
        probe = self._fresh()
        probe.run_ops(50)
        horizon = probe.time
        ex = self._fresh()
        ex.run_ops_until(horizon)
        assert ex.time > horizon  # the crossing op itself executes
        # Identical prefix: replaying per-op advance up to the same count
        # gives the same state.
        replay = self._fresh()
        for _ in range(ex.ops):
            replay.advance()
        assert replay.time == ex.time

    def test_strict_horizon_excludes_equal_time(self):
        ex = self._fresh()
        # Horizon exactly at the core's current time: strict mode must not
        # execute anything, non-strict must run at least one op.
        assert ex.run_ops_until(ex.time, strict=True) == 0
        assert ex.run_ops_until(ex.time) >= 1

    def test_max_ops_caps_batch(self):
        ex = self._fresh()
        assert ex.run_ops_until(float("inf"), max_ops=7) == 7
        assert ex.ops == 7

    def test_exhausted_returns_zero(self):
        ex = self._fresh(length=20)
        ex.run_ops()
        assert ex.run_ops_until(float("inf")) == 0


class TestFlushTrainingCycle:
    class _RecordingBandwidth(FixedBandwidth):
        """FixedBandwidth that records every queried cycle."""

        def __init__(self, bucket_value=0):
            super().__init__(bucket_value)
            self.queried = []

        def bucket(self, cycle):
            self.queried.append(cycle)
            return super().bucket(cycle)

    def test_flush_reads_bucket_at_final_cycle(self):
        """Regression: the end-of-run PB drain learns under the bandwidth
        bucket of the run's final cycle, not cycle 0."""
        bw = self._RecordingBandwidth(0)
        pf = DSPatch(bw)
        pf.train(10, 0x40100, (0x1000 << 12) | (4 << 6), hit=False)
        bw.queried.clear()
        pf.flush_training(98765)
        assert bw.queried, "flush with resident pages must consult the bucket"
        assert all(cycle == 98765 for cycle in bw.queried)

    def test_flush_default_cycle_is_zero(self):
        bw = self._RecordingBandwidth(0)
        pf = DSPatch(bw)
        pf.train(10, 0x40100, (0x1000 << 12) | (4 << 6), hit=False)
        bw.queried.clear()
        pf.flush_training()  # compat: defaulted signature still works
        assert all(cycle == 0 for cycle in bw.queried)


class TestGlobalCycles:
    def test_global_span_consistent(self):
        """Regression: the mix-level span is one global-time interval
        (max end time minus the shared stats-reset time), not a max over
        per-core measured regions with different start points."""
        names = ["ispec06.mcf", "cloud.memcached", "hpc.npb-bt", "sysmark.excel"]
        traces = [
            build_trace(name, length)
            for name, length in zip(names, (1000, 300, 700, 500))
        ]
        cfg = SystemConfig.multi_programmed("none")
        _, bounds, end_times = _mp_run_with_driver(interleave_batched, cfg, traces)
        result = MultiCoreSystem(cfg).run(traces)
        first_reset_time = bounds[0][2]
        assert result.global_cycles == max(end_times) - first_reset_time
        # Every per-core measured span starts at or after the shared reset,
        # so the global span bounds them all.
        for core in result.per_core:
            assert core.cycles <= result.global_cycles + 1e-9


def _kernels():
    return ["object", "py"] + (["compiled"] if kernel_available() else [])


class TestSharedRunBody:
    """System and MultiCoreSystem run through one body."""

    @pytest.mark.parametrize("kernel", _kernels())
    @pytest.mark.parametrize("warmup_frac", [0.25, 0.0])
    def test_single_core_is_a_one_core_mix(self, kernel, warmup_frac):
        trace = build_trace("ispec06.mcf", 1500)
        cfg = SystemConfig.single_thread(
            "spp+dspatch", kernel=kernel, warmup_frac=warmup_frac
        )
        alone = System(cfg).run(trace)
        mix = MultiCoreSystem(cfg, num_cores=1).run([trace])
        assert alone.to_dict() == mix.per_core[0].to_dict()

    def test_single_core_is_a_one_core_mix_with_pollution(self):
        trace = build_trace("hpc.npb-ft", 1500)
        cfg = SystemConfig.single_thread(
            "dspatch", kernel="object", record_pollution_victims=True
        )
        alone = System(cfg).run(trace)
        mixed = MultiCoreSystem(cfg, num_cores=1).run([trace]).per_core[0]
        assert alone.to_dict() == mixed.to_dict()
        assert alone.demand_log, "pollution recording produced no demand log"
        for log in ("pollution_events", "demand_log", "prefetch_fill_log"):
            assert getattr(alone, log) == getattr(mixed, log), log

    def test_traced_mix_tags_every_event_with_its_core(self):
        traces = build_mix_traces(["ispec06.mcf", "hpc.npb-bt"], 1000)
        cfg = SystemConfig.multi_programmed("dspatch")
        traced_cfg = SystemConfig.multi_programmed(
            "dspatch", trace_prefetch=True, kernel="object"
        )
        sink = CollectingSink()
        traced = MultiCoreSystem(traced_cfg, num_cores=2, sink=sink).run(traces)
        assert sink.events
        assert set(sink.cores) == {0, 1}
        plain = MultiCoreSystem(cfg, num_cores=2).run(traces)
        assert [r.to_dict() for r in traced.per_core] == [
            r.to_dict() for r in plain.per_core
        ]
        assert traced.global_cycles == plain.global_cycles

    def test_traced_single_core_leaves_events_untagged(self):
        trace = build_trace("ispec06.mcf", 1000)
        cfg = SystemConfig.single_thread("dspatch", trace_prefetch=True, kernel="object")
        sink = CollectingSink()
        System(cfg, sink=sink).run(trace)
        assert sink.events
        assert all(core is None for core in sink.cores)
