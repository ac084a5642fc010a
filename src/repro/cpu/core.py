"""Analytic out-of-order core timing model.

This replaces the paper's in-house cycle-accurate simulator (Table 2:
4-wide OOO, 224-entry ROB) with a retirement-centric model that preserves
the three properties prefetcher evaluations hinge on:

1. **Bounded memory-level parallelism.** A memory operation can issue only
   once it has entered the ROB, i.e. no earlier than the retirement time of
   the instruction ``ROB_SIZE`` positions older.  Independent misses within
   one ROB window overlap; misses further apart serialize — exactly the
   mechanism that limits MLP in a real core.
2. **Dependent-load serialization.** A load flagged ``FLAG_DEP`` (pointer
   chase) additionally waits for the previous load's data.
3. **Retirement bandwidth.** Instructions retire at most ``width`` per
   cycle; a load blocks retirement until its data returns, so exposed miss
   latency directly lengthens execution.

IPC falls out as instructions / final retirement cycle.  Absolute numbers
differ from the paper's Skylake model; relative speed-ups (the paper's
reported metric) are what this model is built to preserve.

``advance`` is the simulator's innermost loop (one call per memory op per
run); it is written allocation-free — the hierarchy returns a plain
``(latency, level)`` tuple, per-level hits are integer counters indexed by
the hierarchy's level codes, and every per-call attribute lookup that can
be hoisted into ``__init__`` or a local is.
"""

import heapq
import math
from bisect import insort
from collections import deque
from dataclasses import dataclass

from repro.cpu.trace import FLAG_DEP, FLAG_WRITE

_INF = float("inf")
#: Largest finite float: ``nextafter(inf, -inf)`` — an always-permissive
#: horizon for ``run_ops`` (here and in the flat kernels' execution) and
#: for the fused driver's single-comparison stop check.
_MAX_FLOAT = math.nextafter(_INF, 0.0)


@dataclass(frozen=True)
class CoreModel:
    """Static core parameters (Table 2)."""

    width: int = 4
    rob_size: int = 224

    def __post_init__(self):
        if self.width <= 0 or self.rob_size <= 0:
            raise ValueError("width and rob_size must be positive")


@dataclass
class CoreStats:
    """Results of executing one trace on one core.

    Per-level hits are plain integer fields (the hot loop increments a
    flat counter list, not a dict); :attr:`level_hits` provides the
    familiar dict view for reporting and tests.
    """

    instructions: int = 0
    memory_ops: int = 0
    cycles: float = 0.0
    l1_hits: int = 0
    l2_hits: int = 0
    llc_hits: int = 0
    dram_hits: int = 0

    @property
    def ipc(self):
        return self.instructions / self.cycles if self.cycles > 0 else 0.0

    @property
    def level_hits(self):
        """Dict view of the per-level hit counters (compatibility)."""
        return {
            "L1": self.l1_hits,
            "L2": self.l2_hits,
            "LLC": self.llc_hits,
            "DRAM": self.dram_hits,
        }


class CoreExecution:
    """Steppable execution of one trace against one memory hierarchy.

    The multi-core driver interleaves several of these by always advancing
    the one with the smallest current retirement time, so contention on the
    shared LLC/DRAM is resolved in near-global time order.
    """

    __slots__ = (
        "model",
        "hierarchy",
        "stats",
        "_ops",
        "_pos",
        "_n",
        "_retire",
        "_instr",
        "_last_load_done",
        "_window",
        "_width",
        "_rob_size",
        "_retire_step",
        "_access",
        "_hits",
        "_stats_floor",
    )

    def __init__(self, model, trace, hierarchy):
        self.model = model
        self.hierarchy = hierarchy
        self.stats = CoreStats()
        # One fused (gap, pc, addr, is_write, dep) tuple per op: a single
        # list index + tuple unpack per advance instead of four list
        # indexes, with flag decoding hoisted out of the loop into two
        # vectorized array passes here.
        flags = trace.flags
        self._ops = list(
            zip(
                trace.gaps.tolist(),
                trace.pcs.tolist(),
                trace.addrs.tolist(),
                (flags & FLAG_WRITE).astype(bool).tolist(),
                (flags & FLAG_DEP).astype(bool).tolist(),
            )
        )
        self._pos = 0
        self._n = len(self._ops)
        self._retire = 0.0
        self._instr = 0
        self._last_load_done = 0.0
        # (instruction index, retirement time) checkpoints at memory ops,
        # used to reconstruct the ROB-entry bound by linear interpolation.
        self._window = deque()
        self._width = model.width
        self._rob_size = model.rob_size
        self._retire_step = 1.0 / model.width
        self._access = hierarchy.access
        # Indexed by the hierarchy's level codes (L1/L2/LLC/DRAM = 0..3).
        self._hits = [0, 0, 0, 0]
        self._stats_floor = None

    @property
    def done(self):
        return self._pos >= self._n

    @property
    def time(self):
        """Current retirement time in cycles."""
        return self._retire

    @property
    def ops(self):
        """Memory operations executed so far."""
        return self._pos

    def advance(self):
        """Execute the next memory operation (and its preceding gap).

        Returns ``False`` when the trace is exhausted.
        """
        pos = self._pos
        if pos >= self._n:
            return False
        self._pos = pos + 1
        gap, pc, addr, is_write, dep = self._ops[pos]
        width = self._width
        retire = self._retire
        instr = self._instr
        if gap:
            instr += gap
            retire += gap / width
        idx = instr
        self._instr = instr + 1

        # The ROB-entry bound: retirement time of instruction
        # ``idx - rob_size``, interpolated between window checkpoints
        # (purely bandwidth-bound before the first checkpoint).
        rob_idx = idx - self._rob_size
        if rob_idx <= 0:
            enter = idx / width
        else:
            window = self._window
            while len(window) > 1 and window[1][0] <= rob_idx:
                window.popleft()
            if not window or window[0][0] > rob_idx:
                floor = rob_idx / width
            else:
                base = window[0]
                floor = base[1] + (rob_idx - base[0]) / width
            enter = idx / width
            if floor > enter:
                enter = floor
        if dep and self._last_load_done > enter:
            enter = self._last_load_done
        latency, level = self._access(int(enter), pc, addr, is_write)
        if is_write:
            # Stores retire through the store buffer without waiting for
            # data; their bandwidth/occupancy effects are already modelled
            # by the hierarchy access above.
            retire += self._retire_step
            if enter > retire:
                retire = enter
        else:
            done = enter + latency
            retire += self._retire_step
            if done > retire:
                retire = done
            self._last_load_done = done
        self._retire = retire
        self._window.append((idx, retire))
        self._hits[level] += 1
        return True

    def run_ops(self, max_ops=None):
        """Execute up to ``max_ops`` memory operations (all, if ``None``).

        :meth:`run_ops_until` with a horizon no core can pass; returns the
        number of ops executed.
        """
        return self.run_ops_until(_MAX_FLOAT, max_ops)

    def run_ops_until(self, horizon, max_ops=None, strict=False):
        """Execute memory ops until the retirement time passes ``horizon``.

        The scheduler's inner batch and the core's one batch loop:
        semantically identical to calling :meth:`advance` in a loop, but
        the loop lives inside one frame with every hot attribute bound to
        a local, which removes the per-op method-call and attribute-access
        overhead.  Before each op it checks the core's current retirement
        time against ``horizon`` and stops once the core is no longer the
        globally minimal one.  With ``strict=False`` the core
        keeps running while ``time <= horizon``; with ``strict=True`` it
        stops at ``time >= horizon`` — the caller sets ``strict`` when the
        competing core wins ties (smaller core index), so the interleave
        order matches a per-op ``(time, index)`` heap exactly.

        ``max_ops`` additionally caps the batch (used to stop exactly on a
        warmup boundary).  Returns the number of ops executed; the op that
        *crosses* the horizon is executed (its cost was committed when the
        core was selected), matching per-op scheduling semantics.
        """
        pos = self._pos
        n = self._n
        end = n if max_ops is None else min(n, pos + max_ops)
        if pos >= end:
            return 0
        ops = self._ops
        width = self._width
        rob_size = self._rob_size
        retire_step = self._retire_step
        access = self._access
        window = self._window
        window_append = window.append
        popleft = window.popleft
        hits = self._hits
        retire = self._retire
        instr = self._instr
        last_load_done = self._last_load_done
        start = pos
        while pos < end:
            if retire > horizon or (strict and retire == horizon):
                break
            gap, pc, addr, is_write, dep = ops[pos]
            pos += 1
            if gap:
                instr += gap
                retire += gap / width
            idx = instr
            instr += 1
            rob_idx = idx - rob_size
            if rob_idx <= 0:
                enter = idx / width
            else:
                while len(window) > 1 and window[1][0] <= rob_idx:
                    popleft()
                if not window or window[0][0] > rob_idx:
                    floor = rob_idx / width
                else:
                    base = window[0]
                    floor = base[1] + (rob_idx - base[0]) / width
                enter = idx / width
                if floor > enter:
                    enter = floor
            if dep and last_load_done > enter:
                enter = last_load_done
            latency, level = access(int(enter), pc, addr, is_write)
            if is_write:
                retire += retire_step
                if enter > retire:
                    retire = enter
            else:
                done = enter + latency
                retire += retire_step
                if done > retire:
                    retire = done
                last_load_done = done
            window_append((idx, retire))
            hits[level] += 1
        self._pos = pos
        self._retire = retire
        self._instr = instr
        self._last_load_done = last_load_done
        return pos - start

    def run(self):
        """Run to completion; returns the final :class:`CoreStats`."""
        self.run_ops()
        return self.finalize()

    def mark_stats_start(self):
        """Start the measured region here (end of warmup).

        Microarchitectural state (caches, predictors, DRAM queues) is
        untouched; only the baseline for instruction/cycle/hit accounting
        moves, mirroring the warmup-then-measure methodology of the paper's
        simulator.
        """
        self._stats_floor = (self._instr, self._retire, tuple(self._hits))

    def finalize(self):
        """Close out stats without requiring the trace to be exhausted.

        Idempotent: the raw per-level hit counters stay untouched inside
        the execution; each call recomputes the measured-region view.
        """
        hits = self._hits
        floor = self._stats_floor
        if floor is None:
            stats = self.stats
            stats.instructions = self._instr
            stats.memory_ops = self._pos
            stats.cycles = max(self._retire, 1e-9)
            stats.l1_hits, stats.l2_hits, stats.llc_hits, stats.dram_hits = hits
            return stats
        floor_instr, floor_retire, floor_hits = floor
        return CoreStats(
            instructions=self._instr - floor_instr,
            memory_ops=self._pos,
            cycles=max(self._retire - floor_retire, 1e-9),
            l1_hits=hits[0] - floor_hits[0],
            l2_hits=hits[1] - floor_hits[1],
            llc_hits=hits[2] - floor_hits[2],
            dram_hits=hits[3] - floor_hits[3],
        )


# -- multi-core interleave drivers -------------------------------------------
#
# All three drivers execute one op at a time in global ``(retirement time,
# core index)`` order, so shared-LLC/DRAM contention resolves identically —
# their results are bit-for-bit interchangeable (pinned by the parity tests
# in tests/test_mp_interleave.py):
#
# - ``interleave_reference`` is the pre-batching per-op heap loop, kept as
#   the executable specification and the bench baseline;
# - ``interleave_two_level`` is the readable form of the batched scheduler:
#   pop the minimum-time core, drive it through ``run_ops_until``.  It
#   drives single-core runs and every flat-kernel run;
# - ``interleave_batched`` is the same two-level schedule with the op body
#   and the (tiny) schedule inlined into one frame, eliminating the per-op
#   method dispatch and heap traffic.  It drives object-model mixes.
#
# ``stop_ops``/``on_stop`` implement warmup boundaries: ``on_stop(idx)``
# fires exactly once per core, at the moment core ``idx`` has executed
# ``stop_ops[idx]`` ops — *before* any further op executes, and immediately
# (before the first op) when the checkpoint is already met at entry, as a
# zero-op warmup's is.  The callback may inspect ``executions[idx]`` (its
# ``time``/``ops``/stats); other cores' state is undefined while the
# drivers run.


def _fire_met_checkpoints(executions, stop_ops, on_stop):
    """Fire checkpoints already reached at entry; returns pending targets."""
    if stop_ops is None:
        return [None] * len(executions)
    pending = []
    for idx, ex in enumerate(executions):
        target = stop_ops[idx]
        if target is not None and ex.ops >= target:
            if on_stop is not None:
                on_stop(idx)
            target = None
        pending.append(target)
    return pending


def interleave_reference(executions, stop_ops=None, on_stop=None):
    """Per-op heap interleave (the pre-batching driver, executable spec).

    Advances whichever core has the smallest ``(time, index)`` by exactly
    one op per heap pop.  Kept for the parity tests and as the baseline leg
    of ``benchmarks/bench_mp_interleave.py``; simulations go through
    :func:`interleave_two_level` or :func:`interleave_batched`.
    """
    pending = _fire_met_checkpoints(executions, stop_ops, on_stop)
    heap = [(ex.time, idx) for idx, ex in enumerate(executions) if not ex.done]
    heapq.heapify(heap)
    while heap:
        _, idx = heapq.heappop(heap)
        ex = executions[idx]
        if ex.advance():
            heapq.heappush(heap, (ex.time, idx))
        target = pending[idx]
        if target is not None and ex.ops >= target:
            pending[idx] = None
            if on_stop is not None:
                on_stop(idx)


def interleave_two_level(executions, stop_ops=None, on_stop=None):
    """Two-level batched interleave: pop min core, batch via run_ops_until.

    The readable form of the batched scheduler: the minimum-``(time,
    index)`` core runs in one :meth:`CoreExecution.run_ops_until` batch
    until its retirement time passes the second-smallest schedule entry
    (ties broken by core index, exactly as a per-op heap would) or its
    next warmup checkpoint.  Stopping a batch *early* can never reorder
    ops — the scheduler simply re-selects, degenerating to per-op order in
    the worst case — so correctness only requires never running *past* the
    horizon.
    """
    pending = _fire_met_checkpoints(executions, stop_ops, on_stop)
    sched = sorted((ex.time, idx) for idx, ex in enumerate(executions) if not ex.done)
    while sched:
        _, idx = sched.pop(0)
        ex = executions[idx]
        if sched:
            h_time, h_idx = sched[0]
            strict = idx > h_idx
        else:
            h_time = _INF
            strict = False
        target = pending[idx]
        max_ops = None if target is None else target - ex.ops
        ex.run_ops_until(h_time, max_ops=max_ops, strict=strict)
        if target is not None and ex.ops >= target:
            pending[idx] = None
            if on_stop is not None:
                on_stop(idx)
        if not ex.done:
            insort(sched, (ex.time, idx))


def interleave_batched(executions, stop_ops=None, on_stop=None):
    """Fused batched interleave: the object-model multi-core driver.

    Semantically identical to :func:`interleave_two_level` (and therefore
    to :func:`interleave_reference`), with the schedule and the op body
    held in one frame: per-core hot state lives in parallel lists, the
    schedule is a sorted list of at most ``len(executions)`` entries with
    inline insertion, and each batch runs the
    :meth:`CoreExecution.run_ops_until` loop body directly.  This removes the per-op heap push/pop and method
    dispatch the reference driver pays, which is the entire cost the MP
    driver adds over raw single-core ``run_ops_until`` execution (the memory
    hierarchy dominates everything else; see docs/engine.md).

    Couples to ``CoreExecution``'s slots by design, exactly like
    ``run_ops_until`` couples to ``advance`` — the parity tests pin all three
    loops to agree bit-for-bit.
    """
    pending = _fire_met_checkpoints(executions, stop_ops, on_stop)
    n_cores = len(executions)
    # Per-core loop-invariant bindings (one tuple unpack per batch) and
    # mutable scalars (unpacked per batch, written back after).
    const_l = [
        (
            ex._ops,
            ex._n,
            ex._width,
            ex._rob_size,
            ex._retire_step,
            ex._access,
            ex._window,
            ex._window.append,
            ex._window.popleft,
            ex._hits,
        )
        for ex in executions
    ]
    state_l = [
        [ex._pos, ex._retire, ex._instr, ex._last_load_done] for ex in executions
    ]

    def _write_back(idx):
        ex = executions[idx]
        ex._pos, ex._retire, ex._instr, ex._last_load_done = state_l[idx]

    nextafter = math.nextafter
    sched = sorted(
        (ex._retire, idx)
        for idx, ex in enumerate(executions)
        if ex._pos < ex._n
    )
    while sched:
        _, idx = sched.pop(0)
        if sched:
            h_time, h_idx = sched[0]
            # Single-comparison stop check: ``retire > threshold`` means
            # ``retire > h_time`` when this core wins ties (smaller index)
            # and ``retire >= h_time`` when it loses them — floats are
            # discrete, so stepping the threshold one ulp down turns the
            # strict comparison into the inclusive one.
            threshold = nextafter(h_time, 0.0) if idx > h_idx else h_time
        else:
            threshold = _MAX_FLOAT
        state = state_l[idx]
        pos, retire, instr, last_load_done = state
        (
            ops,
            n,
            width,
            rob_size,
            retire_step,
            access,
            window,
            window_append,
            popleft,
            hits,
        ) = const_l[idx]
        target = pending[idx]
        # A target beyond the trace never fires (ops cannot reach it) but
        # must not walk the batch past the last op.
        end = n if target is None else min(n, target)
        while pos < end:
            if retire > threshold:
                break
            gap, pc, addr, is_write, dep = ops[pos]
            pos += 1
            if gap:
                instr += gap
                retire += gap / width
            i_idx = instr
            instr += 1
            rob_idx = i_idx - rob_size
            if rob_idx <= 0:
                enter = i_idx / width
            else:
                while len(window) > 1 and window[1][0] <= rob_idx:
                    popleft()
                if not window or window[0][0] > rob_idx:
                    floor = rob_idx / width
                else:
                    base = window[0]
                    floor = base[1] + (rob_idx - base[0]) / width
                enter = i_idx / width
                if floor > enter:
                    enter = floor
            if dep and last_load_done > enter:
                enter = last_load_done
            latency, level = access(int(enter), pc, addr, is_write)
            if is_write:
                retire += retire_step
                if enter > retire:
                    retire = enter
            else:
                done = enter + latency
                retire += retire_step
                if done > retire:
                    retire = done
                last_load_done = done
            window_append((i_idx, retire))
            hits[level] += 1
        state[0] = pos
        state[1] = retire
        state[2] = instr
        state[3] = last_load_done
        if target is not None and pos >= target:
            pending[idx] = None
            if on_stop is not None:
                _write_back(idx)
                on_stop(idx)
        if pos < n:
            # Inline insertion: the schedule holds at most n_cores - 1
            # entries here, so a linear scan beats bisect's call overhead.
            entry = (retire, idx)
            at = 0
            for item in sched:
                if item < entry:
                    at += 1
                else:
                    break
            sched.insert(at, entry)
    for idx in range(n_cores):
        _write_back(idx)
