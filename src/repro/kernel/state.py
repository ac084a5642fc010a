"""KernelState: the packed flat-array form of the simulated machine.

Layer 1 of the kernel subsystem (docs/engine.md, "compiled kernel"):
everything the per-access hot path mutates — cache tags/valid/recency/
dirty/prefetch bits, MSHR heaps, the in-flight prefetch queue, DRAM bank
and bus state, the bandwidth monitor, core retirement state — packed
into flat ``int64``/``float64`` NumPy arrays laid out by
:mod:`repro.kernel.layout`.

The object model is the source of truth at the boundaries:
:meth:`KernelState.from_objects` packs a freshly built (or mid-run)
``CoreExecution`` + ``MemoryHierarchy`` + ``DramModel``, and
:meth:`KernelState.write_back` reconstructs them — OrderedDict sets in
exact recency order, heap lists, ``CacheLine``/``_StrideEntry`` objects —
so stats assembly, ``flush_training``, pollution views and every existing
consumer keep reading the objects they always read.

Shared state (the LLC, DRAM, and bandwidth monitor of a multi-programmed
mix) lives in a :class:`SharedState` that all per-core states reference,
mirroring how the object model shares one ``Cache``/``DramModel``.
"""

from collections import OrderedDict, deque

import numpy as np

from repro.kernel import layout
from repro.kernel.layout import CAND_CAP0, CF64, CI64, PF_BUF_CAP, SF64, SI64
from repro.memory.cache import CacheLine
from repro.prefetchers.base import NullPrefetcher
from repro.prefetchers.stride import PcStridePrefetcher, _StrideEntry

_CACHE_FIELDS = ("valid", "line", "dirty", "pref", "used", "touch", "ready")
#: Cache stats slots, in the order they sit in the slot arrays.
_CACHE_STATS = (
    "demand_hits",
    "demand_misses",
    "prefetch_probe_hits",
    "useful_prefetches",
    "late_useful_prefetches",
    "useless_evictions",
    "writebacks",
)
_PF_STATS = (
    "issued",
    "issued_low_priority",
    "filled_from_llc",
    "filled_from_dram",
    "useful",
    "late",
    "useless",
    "dropped_resident",
    "dropped_in_flight",
    "dropped_bandwidth",
)
#: Scheme arrays that exist even when no compiled twin is active (the
#: pointer table is fixed, so inactive schemes get 1-element dummies).
_SP_I64_ARRAYS = (
    "sp_st_tag", "sp_st_loff", "sp_st_sig",
    "sp_pt_csig", "sp_pt_delta", "sp_pt_cdelta",
    "sp_ghr_sig", "sp_ghr_loff", "sp_ghr_delta",
    "sp_flt",
)
_DP_I64_ARRAYS = (
    "dp_pb_page", "dp_pb_trig_sig", "dp_pb_trig_off",
    "dp_spt_cov", "dp_spt_acc", "dp_spt_mcov", "dp_spt_or", "dp_spt_macc",
)


def _bandwidth_is_packed(bw, dram_obj):
    """True when ``bw`` reads the monitor state packed into this domain.

    Schemes built by the system drivers hold a
    :class:`~repro.kernel.execution.KernelBandwidth` wrapper around the
    DRAM model; during a kernel run its queries hit the same flat monitor
    slots the generated C mutates, so the C twin's inline bucket reads
    are equivalent.  A scheme wired to some *other* monitor must keep the
    Python crossing.
    """
    if bw is dram_obj.monitor or bw is dram_obj:
        return True
    from repro.kernel.execution import KernelBandwidth

    return isinstance(bw, KernelBandwidth) and bw._dram is dram_obj


def _scheme_kind(l2_pf, dram_obj):
    """SCHEME_* id when ``l2_pf`` has a compiled training twin.

    Only the stock registry shapes qualify: the exact class (subclass
    variants override hooks the C twin hardcodes) with its default config
    (the generated C bakes those constants in as ``#define``s), no event
    tracing, and — for the bandwidth-aware schemes — the packed DRAM
    monitor as the bandwidth source.  Everything else keeps the
    ``train_buf`` Python crossing.
    """
    if l2_pf is None or getattr(l2_pf, "trace_emit", None) is not None:
        return layout.SCHEME_PY
    from repro.core.dspatch import DSPatch, DSPatchConfig
    from repro.prefetchers.spp import ESPP, SPP, SppConfig

    cls = type(l2_pf)
    if cls is SPP and l2_pf.config == SppConfig():
        return layout.SCHEME_SPP
    if (
        cls is ESPP
        and l2_pf.config == SppConfig()
        and _bandwidth_is_packed(l2_pf.bandwidth, dram_obj)
    ):
        return layout.SCHEME_ESPP
    if (
        cls is DSPatch
        and l2_pf.config == DSPatchConfig()
        and _bandwidth_is_packed(l2_pf.bandwidth, dram_obj)
    ):
        return layout.SCHEME_DSPATCH
    from repro.prefetchers.composite import CompositePrefetcher

    if cls is CompositePrefetcher and len(l2_pf.components) == 2:
        a, b = l2_pf.components
        if (
            _scheme_kind(a, dram_obj) == layout.SCHEME_SPP
            and _scheme_kind(b, dram_obj) == layout.SCHEME_DSPATCH
        ):
            return layout.SCHEME_SPP_DSPATCH
    return layout.SCHEME_PY


def _next_pow2(n):
    p = 1
    while p < n:
        p <<= 1
    return p


def _i64(n):
    return np.zeros(n, dtype=np.int64)


def _pack_cache(cache):
    """Flatten one Cache's sets into slot arrays (slot = set*ways + way)."""
    ways = cache.ways
    arrs = {f: _i64(cache.num_sets * ways) for f in _CACHE_FIELDS}
    shift = cache._tag_shift
    for set_idx, lines in enumerate(cache._sets):
        base = set_idx * ways
        for way, (tag, cl) in enumerate(lines.items()):
            slot = base + way
            arrs["valid"][slot] = 1
            arrs["line"][slot] = (tag << shift) | set_idx
            arrs["dirty"][slot] = 1 if cl.dirty else 0
            arrs["pref"][slot] = 1 if cl.prefetched else 0
            arrs["used"][slot] = 1 if cl.used else 0
            arrs["touch"][slot] = cl.last_touch
            arrs["ready"][slot] = cl.ready
    return arrs


def _unpack_cache(cache, arrs, tick):
    """Rebuild a Cache's sets from slot arrays, in exact recency order.

    Recency order is ascending ``last_touch`` (every recency event burns a
    unique tick; low-priority fills store the negated tick), so sorting by
    the touch value reproduces the OrderedDict order the object path would
    have — pinned by the parity tests.
    """
    ways = cache.ways
    shift = cache._tag_shift
    sets = [OrderedDict() for _ in range(cache.num_sets)]
    occupied = np.flatnonzero(arrs["valid"])
    if occupied.size:
        # One vectorized (set, touch) sort over the occupied slots only —
        # sparse caches (short runs) never pay for their empty slots.
        set_idx = occupied // ways
        touch_v = arrs["touch"][occupied]
        order = np.lexsort((touch_v, set_idx))
        occ = occupied[order]
        set_l = set_idx[order].tolist()
        touch_l = touch_v[order].tolist()
        line_l = arrs["line"][occ].tolist()
        dirty_l = arrs["dirty"][occ].tolist()
        pref_l = arrs["pref"][occ].tolist()
        used_l = arrs["used"][occ].tolist()
        ready_l = arrs["ready"][occ].tolist()
        for i, si in enumerate(set_l):
            tag = line_l[i] >> shift
            cl = CacheLine(tag, touch_l[i], prefetched=bool(pref_l[i]), ready=ready_l[i])
            cl.dirty = bool(dirty_l[i])
            cl.used = bool(used_l[i])
            sets[si][tag] = cl
    cache._sets = sets
    cache._tick = tick


def _cache_stats_to(ci, prefix, cache, slots):
    for off, field in enumerate(_CACHE_STATS):
        ci[slots[prefix + field]] = getattr(cache, field)


def _cache_stats_from(ci, prefix, cache, slots):
    for off, field in enumerate(_CACHE_STATS):
        setattr(cache, field, int(ci[slots[prefix + field]]))


class SharedState:
    """Flat form of the state one LLC/DRAM domain shares across cores."""

    def __init__(self, llc, dram):
        self.llc_obj = llc
        self.dram_obj = dram
        si = _i64(len(SI64))
        sf = np.zeros(len(SF64), dtype=np.float64)
        self.si64 = si
        self.sf64 = sf
        self.llc = _pack_cache(llc)
        si[SI64["llc_tick"]] = llc._tick
        _cache_stats_to(si, "llc_", llc, SI64)
        # DRAM constants
        si[SI64["tCL"]] = dram.tCL
        si[SI64["tRCD"]] = dram.tRCD
        si[SI64["tRP"]] = dram.tRP
        si[SI64["tRC"]] = dram.tRC
        si[SI64["burst"]] = dram.burst
        si[SI64["ch_mask"]] = dram._channel_mask
        si[SI64["ch_bits"]] = dram._channel_bits
        si[SI64["bank_mask"]] = dram._bank_mask
        si[SI64["bank_bits"]] = dram._bank_bits
        si[SI64["row_shift"]] = dram._row_shift
        si[SI64["banks_per_channel"]] = dram.config.banks_per_channel
        si[SI64["pf_drop_backlog"]] = dram._prefetch_drop_backlog
        si[SI64["dem_preempt_bursts"]] = dram._demand_preempt_bursts
        si[SI64["dem_preempt_acts"]] = dram._demand_preempt_acts
        # DRAM statistics
        si[SI64["dram_reads"]] = dram.reads
        si[SI64["dram_writes"]] = dram.writes
        si[SI64["dram_row_hits"]] = dram.row_hits
        si[SI64["dram_row_misses"]] = dram.row_misses
        si[SI64["dram_busy_cycles"]] = dram.busy_cycles
        si[SI64["dram_prefetches_dropped"]] = dram.prefetches_dropped
        si[SI64["dram_last_data_done"]] = dram._last_data_done
        si[SI64["dram_stats_start"]] = dram._stats_start_cycle
        # Bank and channel queue state
        n_ch = len(dram._channels)
        n_banks = dram.config.banks_per_channel
        self.bank_open = _i64(n_ch * n_banks)
        self.bank_nextact = _i64(n_ch * n_banks)
        self.bank_rowready = _i64(n_ch * n_banks)
        self.ch_busfree = _i64(n_ch)
        self.ch_demandfree = _i64(n_ch)
        for c, channel in enumerate(dram._channels):
            self.ch_busfree[c] = channel.bus_free_cycle
            self.ch_demandfree[c] = channel.demand_bus_free_cycle
            for b, bank in enumerate(channel.banks):
                idx = c * n_banks + b
                self.bank_open[idx] = bank.open_row
                self.bank_nextact[idx] = bank.next_activate_cycle
                self.bank_rowready[idx] = bank.row_ready_cycle
        # Bandwidth monitor
        mon = dram.monitor
        si[SI64["mon_window_cycles"]] = mon.window_cycles
        si[SI64["mon_window_end"]] = mon._window_end
        si[SI64["mon_total_cas"]] = mon.total_cas
        for i in range(4):
            si[SI64[f"mon_bucket{i}"]] = mon._bucket_cycles[i]
        si[SI64["mon_last_sample"]] = mon._last_sample_cycle
        sf[SF64["mon_counter"]] = mon._counter
        lo, mid, hi = mon._thresholds
        sf[SF64["mon_thr_lo"]] = lo
        sf[SF64["mon_thr_mid"]] = mid
        sf[SF64["mon_thr_hi"]] = hi

    def write_back(self, contents=True):
        """Restore the shared LLC and DRAM objects from the flat form.

        ``contents=False`` skips rebuilding the LLC's line structures
        (counters, DRAM and monitor state are always restored) — for
        callers that assemble results from counters and then discard the
        objects, reconstructing every resident line is pure overhead.
        """
        si = self.si64
        sf = self.sf64
        llc = self.llc_obj
        dram = self.dram_obj
        if contents:
            _unpack_cache(llc, self.llc, int(si[SI64["llc_tick"]]))
        _cache_stats_from(si, "llc_", llc, SI64)
        dram.reads = int(si[SI64["dram_reads"]])
        dram.writes = int(si[SI64["dram_writes"]])
        dram.row_hits = int(si[SI64["dram_row_hits"]])
        dram.row_misses = int(si[SI64["dram_row_misses"]])
        dram.busy_cycles = int(si[SI64["dram_busy_cycles"]])
        dram.prefetches_dropped = int(si[SI64["dram_prefetches_dropped"]])
        dram._last_data_done = int(si[SI64["dram_last_data_done"]])
        dram._stats_start_cycle = int(si[SI64["dram_stats_start"]])
        n_banks = dram.config.banks_per_channel
        for c, channel in enumerate(dram._channels):
            channel.bus_free_cycle = int(self.ch_busfree[c])
            channel.demand_bus_free_cycle = int(self.ch_demandfree[c])
            for b, bank in enumerate(channel.banks):
                idx = c * n_banks + b
                bank.open_row = int(self.bank_open[idx])
                bank.next_activate_cycle = int(self.bank_nextact[idx])
                bank.row_ready_cycle = int(self.bank_rowready[idx])
        mon = dram.monitor
        mon._window_end = int(si[SI64["mon_window_end"]])
        mon.total_cas = int(si[SI64["mon_total_cas"]])
        mon._bucket_cycles = [int(si[SI64[f"mon_bucket{i}"]]) for i in range(4)]
        mon._last_sample_cycle = int(si[SI64["mon_last_sample"]])
        mon._counter = float(sf[SF64["mon_counter"]])


class KernelState:
    """Flat form of one core: execution + private L1/L2 + MSHRs + stride."""

    def __init__(self, execution, trace, shared, compile_scheme=False):
        self.execution = execution
        self.hierarchy = execution.hierarchy
        self.shared = shared
        hier = self.hierarchy
        model = execution.model

        ci = _i64(len(CI64))
        cf = np.zeros(len(CF64), dtype=np.float64)
        self.ci64 = ci
        self.cf64 = cf

        # Trace operands, one flat array per field (shared with the trace's
        # own arrays where dtypes already match — the kernel never writes
        # them).
        from repro.cpu.trace import FLAG_DEP, FLAG_WRITE

        self.op_gap = np.ascontiguousarray(trace.gaps, dtype=np.int64)
        self.op_pc = np.ascontiguousarray(trace.pcs, dtype=np.int64)
        self.op_addr = np.ascontiguousarray(trace.addrs, dtype=np.int64)
        flags = trace.flags
        self.op_write = ((flags & FLAG_WRITE) != 0).astype(np.int64)
        self.op_dep = ((flags & FLAG_DEP) != 0).astype(np.int64)

        # Core execution state
        ci[CI64["pos"]] = execution._pos
        ci[CI64["end"]] = execution._pos
        ci[CI64["n_ops"]] = execution._n
        ci[CI64["instr"]] = execution._instr
        hits = execution._hits
        ci[CI64["hit_l1"]] = hits[0]
        ci[CI64["hit_l2"]] = hits[1]
        ci[CI64["hit_llc"]] = hits[2]
        ci[CI64["hit_dram"]] = hits[3]
        ci[CI64["width"]] = model.width
        ci[CI64["rob_size"]] = model.rob_size
        cf[CF64["retire"]] = execution._retire
        cf[CF64["last_load_done"]] = execution._last_load_done
        cf[CF64["retire_step"]] = execution._retire_step
        win_cap = _next_pow2(model.rob_size + 16)
        self.win_idx = _i64(win_cap)
        self.win_ret = np.zeros(win_cap, dtype=np.float64)
        window = execution._window
        if len(window) >= win_cap:
            raise ValueError("ROB checkpoint window exceeds kernel ring capacity")
        for i, (idx, ret) in enumerate(window):
            self.win_idx[i] = idx
            self.win_ret[i] = ret
        ci[CI64["win_head"]] = 0
        ci[CI64["win_len"]] = len(window)
        ci[CI64["win_cap"]] = win_cap

        # Private caches
        for cache in (hier.l1, hier.l2, hier.llc):
            if cache._victim_mode not in (0, 1):
                raise ValueError(
                    f"kernel supports only lru/pf-dead-block replacement "
                    f"({cache.name} uses {cache.config.replacement!r})"
                )
        for name, cache in (("l1", hier.l1), ("l2", hier.l2)):
            arrs = _pack_cache(cache)
            for f in _CACHE_FIELDS:
                setattr(self, f"{name}_{f}", arrs[f])
            ci[CI64[f"{name}_ways"]] = cache.ways
            ci[CI64[f"{name}_set_mask"]] = cache._set_mask
            ci[CI64[f"{name}_hit_latency"]] = cache.hit_latency
            ci[CI64[f"{name}_victim_mode"]] = cache._victim_mode
            ci[CI64[f"{name}_tick"]] = cache._tick
            _cache_stats_to(ci, f"{name}_", cache, CI64)
        llc = hier.llc
        ci[CI64["llc_ways"]] = llc.ways
        ci[CI64["llc_set_mask"]] = llc._set_mask
        ci[CI64["llc_hit_latency"]] = llc.hit_latency
        ci[CI64["llc_victim_mode"]] = llc._victim_mode

        # MSHRs (heap arrays sized to capacity: the allocate rule never
        # lets the heap outgrow it)
        for name, mshr in (
            ("mshr_l1", hier.l1_mshr),
            ("mshr_l2", hier.l2_mshr),
            ("mshr_llc", hier.llc_mshr),
        ):
            heap = sorted(mshr._ready_heap)
            arr = _i64(mshr.capacity)
            arr[: len(heap)] = heap
            setattr(self, name, arr)
            ci[CI64[f"{name}_cap"]] = mshr.capacity
            ci[CI64[f"{name}_len"]] = len(heap)
            ci[CI64[f"{name}_allocations"]] = mshr.allocations
            ci[CI64[f"{name}_stall"]] = mshr.stall_cycles

        # Hierarchy bookkeeping
        ci[CI64["demand_accesses"]] = hier.demand_accesses
        ci[CI64["queue_size"]] = hier.prefetch_queue_size
        ci[CI64["merge_bound"]] = hier._merge_bound
        self.infl_line = _i64(hier.prefetch_queue_size)
        self.infl_ready = _i64(hier.prefetch_queue_size)
        for i, (ln, ready) in enumerate(hier._in_flight.items()):
            self.infl_line[i] = ln
            self.infl_ready[i] = ready
        ci[CI64["inflight_len"]] = len(hier._in_flight)
        pf = hier.pf_stats
        for field in _PF_STATS:
            ci[CI64["pf_" + field]] = getattr(pf, field)

        # Prefetchers
        l1_pf = hier.l1_prefetcher
        l2_pf = hier.l2_prefetcher
        if l1_pf is not None and type(l1_pf) is not PcStridePrefetcher:
            raise ValueError("kernel supports only the stock PC-stride L1 prefetcher")
        ci[CI64["has_l1pf"]] = 0 if l1_pf is None else 1
        ci[CI64["has_l2pf"]] = 0 if (l2_pf is None or type(l2_pf) is NullPrefetcher) else 1
        entries = l1_pf.table_entries if l1_pf is not None else 1
        degree = l1_pf.degree if l1_pf is not None else 1
        if degree > PF_BUF_CAP:
            raise ValueError("stride degree exceeds kernel scratch capacity")
        ci[CI64["stride_degree"]] = degree
        ci[CI64["stride_mask"]] = entries - 1
        ci[CI64["stride_conf_threshold"]] = (
            l1_pf.CONFIDENCE_THRESHOLD if l1_pf is not None else 2
        )
        ci[CI64["stride_conf_max"]] = l1_pf.CONFIDENCE_MAX if l1_pf is not None else 3
        ci[CI64["stride_trainings"]] = l1_pf.trainings if l1_pf is not None else 0
        self.stride_valid = _i64(entries)
        self.stride_tag = _i64(entries)
        self.stride_last = _i64(entries)
        self.stride_stride = _i64(entries)
        self.stride_conf = _i64(entries)
        if l1_pf is not None:
            for i, entry in enumerate(l1_pf._table):
                if entry is not None:
                    self.stride_valid[i] = 1
                    self.stride_tag[i] = entry.tag
                    self.stride_last[i] = entry.last_line
                    self.stride_stride[i] = entry.stride
                    self.stride_conf[i] = entry.confidence

        # Crossing buffers
        self.note_buf = _i64(3 * (CAND_CAP0 + 16))
        self.cand_line = _i64(CAND_CAP0)
        self.cand_lp = _i64(CAND_CAP0)
        self.pf_buf = _i64(PF_BUF_CAP)
        self.train_buf = _i64(4 * layout.TB_CAP)
        ci[CI64["note_cap"]] = CAND_CAP0 + 16
        ci[CI64["cand_cap"]] = CAND_CAP0

        # Compiled scheme-training twin: pack the scheme's tables into flat
        # arrays only for the C kernel (the py kernel trains the live
        # objects directly — packing there would clobber them at
        # write-back).
        kind = _scheme_kind(l2_pf, shared.dram_obj) if compile_scheme else 0
        self.scheme_kind = kind
        ci[CI64["scheme_kind"]] = kind
        for nm in _SP_I64_ARRAYS + _DP_I64_ARRAYS:
            setattr(self, nm, _i64(1))
        self.sp_ghr_conf = np.zeros(1, dtype=np.float64)
        self.dp_pb_pattern = np.zeros(1, dtype=np.uint64)
        if kind in (layout.SCHEME_SPP, layout.SCHEME_ESPP):
            self._pack_spp(l2_pf, ci)
        elif kind == layout.SCHEME_DSPATCH:
            self._pack_dspatch(l2_pf, ci)
        elif kind == layout.SCHEME_SPP_DSPATCH:
            self._pack_spp(l2_pf.components[0], ci)
            self._pack_dspatch(l2_pf.components[1], ci)

    # --------------------------------------------- compiled scheme training

    def _pack_spp(self, pf, ci):
        cfg = pf.config
        n_st = cfg.st_entries
        slots = cfg.delta_slots
        self.sp_st_tag = np.full(n_st, -1, dtype=np.int64)
        self.sp_st_loff = _i64(n_st)
        self.sp_st_sig = _i64(n_st)
        for i, e in enumerate(pf._st):
            if e is not None:
                self.sp_st_tag[i] = e.tag
                self.sp_st_loff[i] = e.last_offset
                self.sp_st_sig[i] = e.signature
        self.sp_pt_csig = np.asarray(pf._pt_c_sig, dtype=np.int64)
        delta = _i64(cfg.pt_entries * slots)
        cdelta = _i64(cfg.pt_entries * slots)
        for i, row in enumerate(pf._pt_slots):
            base = i * slots
            for j, (d, c) in enumerate(row):
                delta[base + j] = d
                cdelta[base + j] = c
        self.sp_pt_delta = delta
        self.sp_pt_cdelta = cdelta
        self.sp_ghr_sig = _i64(cfg.ghr_entries)
        self.sp_ghr_conf = np.zeros(cfg.ghr_entries, dtype=np.float64)
        self.sp_ghr_loff = _i64(cfg.ghr_entries)
        self.sp_ghr_delta = _i64(cfg.ghr_entries)
        for i, g in enumerate(pf._ghr):
            self.sp_ghr_sig[i] = g.signature
            self.sp_ghr_conf[i] = g.confidence
            self.sp_ghr_loff[i] = g.last_offset
            self.sp_ghr_delta[i] = g.delta
        ci[CI64["sp_ghr_len"]] = len(pf._ghr)
        self.sp_flt = np.asarray(pf._filter, dtype=np.int64)
        ci[CI64["sp_trainings"]] = pf.trainings
        ci[CI64["sp_filtered"]] = pf.filtered
        ci[CI64["sp_fb_issued"]] = pf.feedback_issued
        ci[CI64["sp_fb_useful"]] = pf.feedback_useful

    def _pack_dspatch(self, pf, ci):
        cfg = pf.config
        n_pb = cfg.pb_entries
        n_spt = cfg.spt_entries
        self.dp_pb_page = _i64(n_pb)
        # Patterns are 64-bit with bit 63 reachable (line offset 63), so
        # they live in uint64 — int64 would overflow on pack.
        self.dp_pb_pattern = np.zeros(n_pb, dtype=np.uint64)
        self.dp_pb_trig_sig = np.full(2 * n_pb, -1, dtype=np.int64)
        self.dp_pb_trig_off = _i64(2 * n_pb)
        pages = pf.page_buffer._pages
        # Dict order is LRU order (oldest first); the C side keeps the same
        # invariant over the packed arrays.
        for i, entry in enumerate(pages.values()):
            self.dp_pb_page[i] = entry.page
            self.dp_pb_pattern[i] = entry.pattern
            for seg in (0, 1):
                trig = entry.triggers[seg]
                if trig is not None:
                    self.dp_pb_trig_sig[2 * i + seg] = trig[0]
                    self.dp_pb_trig_off[2 * i + seg] = trig[1]
        ci[CI64["dp_pb_len"]] = len(pages)
        ci[CI64["dp_pb_evictions"]] = pf.page_buffer.evictions
        self.dp_spt_cov = _i64(n_spt)
        self.dp_spt_acc = _i64(n_spt)
        self.dp_spt_mcov = _i64(2 * n_spt)
        self.dp_spt_or = _i64(2 * n_spt)
        self.dp_spt_macc = _i64(2 * n_spt)
        for i, e in enumerate(pf.spt._table):
            self.dp_spt_cov[i] = e.covp
            self.dp_spt_acc[i] = e.accp
            for h in (0, 1):
                self.dp_spt_mcov[2 * i + h] = e.measure_covp[h]
                self.dp_spt_or[2 * i + h] = e.or_count[h]
                self.dp_spt_macc[2 * i + h] = e.measure_accp[h]
        ci[CI64["dp_trainings"]] = pf.trainings
        ci[CI64["dp_triggers"]] = pf.triggers
        ci[CI64["dp_pred_covp"]] = pf.predictions_covp
        ci[CI64["dp_pred_accp"]] = pf.predictions_accp
        ci[CI64["dp_pred_supp"]] = pf.predictions_suppressed

    def _write_back_spp(self, pf, ci):
        from repro.prefetchers.spp import _GhrEntry, _StEntry

        pf.trainings = int(ci[CI64["sp_trainings"]])
        pf.filtered = int(ci[CI64["sp_filtered"]])
        pf.feedback_issued = int(ci[CI64["sp_fb_issued"]])
        pf.feedback_useful = int(ci[CI64["sp_fb_useful"]])
        tags = self.sp_st_tag.tolist()
        loffs = self.sp_st_loff.tolist()
        sigs = self.sp_st_sig.tolist()
        st = [None] * len(tags)
        for i, tag in enumerate(tags):
            if tag >= 0:
                st[i] = _StEntry(tag, loffs[i], sigs[i])
        pf._st = st
        pf._pt_c_sig = self.sp_pt_csig.tolist()
        slots = pf.config.delta_slots
        deltas = self.sp_pt_delta.tolist()
        counts = self.sp_pt_cdelta.tolist()
        pf._pt_slots = [
            list(zip(deltas[i : i + slots], counts[i : i + slots]))
            for i in range(0, len(deltas), slots)
        ]
        pf._ghr = [
            _GhrEntry(
                int(self.sp_ghr_sig[i]),
                float(self.sp_ghr_conf[i]),
                int(self.sp_ghr_loff[i]),
                int(self.sp_ghr_delta[i]),
            )
            for i in range(int(ci[CI64["sp_ghr_len"]]))
        ]
        pf._filter = self.sp_flt.tolist()

    def _write_back_dspatch(self, pf, ci):
        from repro.core.page_buffer import PageBufferEntry

        pf.trainings = int(ci[CI64["dp_trainings"]])
        pf.triggers = int(ci[CI64["dp_triggers"]])
        pf.predictions_covp = int(ci[CI64["dp_pred_covp"]])
        pf.predictions_accp = int(ci[CI64["dp_pred_accp"]])
        pf.predictions_suppressed = int(ci[CI64["dp_pred_supp"]])
        pb = pf.page_buffer
        pb.evictions = int(ci[CI64["dp_pb_evictions"]])
        pages = {}
        for i in range(int(ci[CI64["dp_pb_len"]])):
            entry = PageBufferEntry(int(self.dp_pb_page[i]))
            entry.pattern = int(self.dp_pb_pattern[i])
            for seg in (0, 1):
                sig = int(self.dp_pb_trig_sig[2 * i + seg])
                if sig >= 0:
                    entry.triggers[seg] = (sig, int(self.dp_pb_trig_off[2 * i + seg]))
            pages[entry.page] = entry
        pb._pages = pages
        for i, e in enumerate(pf.spt._table):
            e.covp = int(self.dp_spt_cov[i])
            e.accp = int(self.dp_spt_acc[i])
            e.measure_covp = [
                int(self.dp_spt_mcov[2 * i]),
                int(self.dp_spt_mcov[2 * i + 1]),
            ]
            e.or_count = [int(self.dp_spt_or[2 * i]), int(self.dp_spt_or[2 * i + 1])]
            e.measure_accp = [
                int(self.dp_spt_macc[2 * i]),
                int(self.dp_spt_macc[2 * i + 1]),
            ]

    # ------------------------------------------------------------- plumbing

    def array_map(self):
        """Every kernel array by its :data:`layout.PTR` name."""
        shared = self.shared
        m = {
            "ci64": self.ci64,
            "cf64": self.cf64,
            "si64": shared.si64,
            "sf64": shared.sf64,
            "op_gap": self.op_gap,
            "op_pc": self.op_pc,
            "op_addr": self.op_addr,
            "op_write": self.op_write,
            "op_dep": self.op_dep,
            "win_idx": self.win_idx,
            "win_ret": self.win_ret,
            "mshr_l1": self.mshr_l1,
            "mshr_l2": self.mshr_l2,
            "mshr_llc": self.mshr_llc,
            "stride_valid": self.stride_valid,
            "stride_tag": self.stride_tag,
            "stride_last": self.stride_last,
            "stride_stride": self.stride_stride,
            "stride_conf": self.stride_conf,
            "bank_open": shared.bank_open,
            "bank_nextact": shared.bank_nextact,
            "bank_rowready": shared.bank_rowready,
            "ch_busfree": shared.ch_busfree,
            "ch_demandfree": shared.ch_demandfree,
            "infl_line": self.infl_line,
            "infl_ready": self.infl_ready,
            "note_buf": self.note_buf,
            "cand_line": self.cand_line,
            "cand_lp": self.cand_lp,
            "pf_buf": self.pf_buf,
            "train_buf": self.train_buf,
            "sp_ghr_conf": self.sp_ghr_conf,
            "dp_pb_pattern": self.dp_pb_pattern,
        }
        for nm in _SP_I64_ARRAYS + _DP_I64_ARRAYS:
            m[nm] = getattr(self, nm)
        for lvl in ("l1", "l2"):
            for f in _CACHE_FIELDS:
                m[f"{lvl}_{f}"] = getattr(self, f"{lvl}_{f}")
        for f in _CACHE_FIELDS:
            m[f"llc_{f}"] = shared.llc[f]
        assert set(m) == set(layout.PTR_NAMES)
        return m

    # ------------------------------------------------------------ write-back

    def write_back(self, contents=True):
        """Restore the core's objects (execution, hierarchy) from flat form.

        Shared state (LLC/DRAM) is restored separately via
        :meth:`SharedState.write_back` — once per domain, not per core.
        ``contents=False`` skips rebuilding L1/L2 line structures (all
        counters and execution state are always restored).
        """
        ci = self.ci64
        cf = self.cf64
        ex = self.execution
        hier = self.hierarchy

        ex._pos = int(ci[CI64["pos"]])
        ex._instr = int(ci[CI64["instr"]])
        ex._retire = float(cf[CF64["retire"]])
        ex._last_load_done = float(cf[CF64["last_load_done"]])
        ex._hits = [
            int(ci[CI64["hit_l1"]]),
            int(ci[CI64["hit_l2"]]),
            int(ci[CI64["hit_llc"]]),
            int(ci[CI64["hit_dram"]]),
        ]
        head = int(ci[CI64["win_head"]])
        length = int(ci[CI64["win_len"]])
        cap = int(ci[CI64["win_cap"]])
        win_idx = self.win_idx
        win_ret = self.win_ret
        window = deque()
        for i in range(length):
            j = (head + i) & (cap - 1)
            window.append((int(win_idx[j]), float(win_ret[j])))
        ex._window = window

        for name, cache in (("l1", hier.l1), ("l2", hier.l2)):
            if contents:
                arrs = {f: getattr(self, f"{name}_{f}") for f in _CACHE_FIELDS}
                _unpack_cache(cache, arrs, int(ci[CI64[f"{name}_tick"]]))
            _cache_stats_from(ci, f"{name}_", cache, CI64)

        for name, mshr in (
            ("mshr_l1", hier.l1_mshr),
            ("mshr_l2", hier.l2_mshr),
            ("mshr_llc", hier.llc_mshr),
        ):
            length = int(ci[CI64[f"{name}_len"]])
            mshr._ready_heap = sorted(getattr(self, name)[:length].tolist())
            mshr.allocations = int(ci[CI64[f"{name}_allocations"]])
            mshr.stall_cycles = int(ci[CI64[f"{name}_stall"]])

        hier.demand_accesses = int(ci[CI64["demand_accesses"]])
        n_in = int(ci[CI64["inflight_len"]])
        hier._in_flight = dict(
            zip(self.infl_line[:n_in].tolist(), self.infl_ready[:n_in].tolist())
        )
        pf = hier.pf_stats
        for field in _PF_STATS:
            setattr(pf, field, int(ci[CI64["pf_" + field]]))

        l1_pf = hier.l1_prefetcher
        if l1_pf is not None:
            l1_pf.trainings = int(ci[CI64["stride_trainings"]])
            valid = self.stride_valid.tolist()
            tags = self.stride_tag.tolist()
            lasts = self.stride_last.tolist()
            strides = self.stride_stride.tolist()
            confs = self.stride_conf.tolist()
            table = [None] * len(valid)
            for i in range(len(valid)):
                if valid[i]:
                    entry = _StrideEntry(tags[i], lasts[i])
                    entry.stride = strides[i]
                    entry.confidence = confs[i]
                    table[i] = entry
            l1_pf._table = table

        # Compiled scheme training: restore the scheme objects
        # unconditionally (even with contents=False) — flush_training and
        # post-run inspection read them right after write-back.
        if self.scheme_kind:
            l2_pf = hier.l2_prefetcher
            if self.scheme_kind == layout.SCHEME_DSPATCH:
                self._write_back_dspatch(l2_pf, ci)
            elif self.scheme_kind == layout.SCHEME_SPP_DSPATCH:
                self._write_back_spp(l2_pf.components[0], ci)
                self._write_back_dspatch(l2_pf.components[1], ci)
            else:
                self._write_back_spp(l2_pf, ci)
