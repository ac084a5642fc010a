"""KernelExecution: the CoreExecution-compatible face of the flat kernels.

This is the glue between the system drivers and the two kernels: it packs
the freshly built object model into a :class:`~repro.kernel.state.KernelState`,
selects a runtime (:class:`~repro.kernel.pykernel.PyRuntime` or the
compiled twin from :mod:`repro.kernel.cbuild`), exposes the driver
surface of :class:`repro.cpu.core.CoreExecution` (``done``/``time``/
``ops``, ``mark_stats_start`` and, on the py kernel, ``run_ops``/
``run_ops_until``), and writes everything back into the objects at the
end so result assembly, ``flush_training`` and post-run inspection are
unchanged.

Every run shares one :class:`KernelDomain` (the LLC + DRAM +
bandwidth-monitor working state) across its cores — one core for a
single-core run — and :meth:`KernelDomain.interleave` schedules them:
the py kernel through the public-API driver
:func:`repro.cpu.core.interleave_two_level`, the compiled kernel inside
C (``ksched``), which returns to Python only for training crossings,
queued notes and warmup boundaries.
"""

from repro.cpu.core import _MAX_FLOAT, _fire_met_checkpoints, interleave_two_level
from repro.kernel.pykernel import PyRuntime, PyShared
from repro.kernel.state import KernelState, SharedState


#: Memoized probe result: ``(ok, kind, reason)`` where ``kind`` is
#: ``"toolchain"`` (no compiler — the expected, quiet degradation) or
#: ``"build"`` (compiler present but codegen/compile/load failed — a real
#: bug that callers must surface, never swallow).
_probe = None


def _probe_kernel():
    global _probe
    if _probe is not None:
        return _probe
    try:
        from repro.kernel import cbuild
    except Exception as exc:  # import error in the kernel package itself
        _probe = (False, "build", f"kernel modules failed to import: {exc}")
        return _probe
    if not cbuild.toolchain_available():
        _probe = (False, "toolchain", "no C compiler on PATH")
        return _probe
    try:
        cbuild.load_kernel()
    except Exception as exc:
        _probe = (False, "build", f"{type(exc).__name__}: {exc}")
        return _probe
    _probe = (True, None, None)
    return _probe


def kernel_available():
    """True when the compiled kernel is built and loadable.

    This eagerly builds the kernel (memoized per process), so a broken
    codegen or compile reports as a *build* failure via
    :func:`kernel_unavailable_reason` instead of masquerading as a
    missing toolchain.
    """
    return _probe_kernel()[0]


def kernel_unavailable_reason():
    """``(kind, reason)`` when the compiled kernel is unavailable, else None.

    ``kind`` is ``"toolchain"`` — no C compiler, the legitimate quiet
    fallback — or ``"build"`` — the toolchain is present but the kernel
    failed to generate, compile or load, which is a bug the caller must
    report (and a hard error under an explicit ``--kernel compiled``).
    """
    ok, kind, reason = _probe_kernel()
    return None if ok else (kind, reason)


class KernelBandwidth:
    """Bandwidth signal that follows the state wherever it currently lives.

    Bandwidth-aware schemes hold this object and call ``bucket(cycle)``
    during training.  While a kernel run is active the live monitor state
    is in the kernel domain's working form, so queries route there; before
    attach and after release (post write-back — e.g. the end-of-run
    ``flush_training`` drain) they route to the DRAM object.
    """

    __slots__ = ("_dram", "_domain")

    def __init__(self, dram):
        self._dram = dram
        self._domain = None

    def attach(self, domain):
        self._domain = domain

    def release(self):
        self._domain = None

    def bucket(self, cycle):
        domain = self._domain
        if domain is not None:
            return domain.bucket(cycle)
        return self._dram.bucket(cycle)


class KernelDomain:
    """One LLC/DRAM domain in kernel form, shared by every core in a run."""

    def __init__(self, llc, dram, kind):
        if kind not in ("py", "compiled"):
            raise ValueError(f"unknown kernel kind {kind!r}")
        self.kind = kind
        self.shared_state = SharedState(llc, dram)
        if kind == "py":
            self.shared = PyShared(self.shared_state)
        else:
            from repro.kernel.cbuild import CShared

            self.shared = CShared(self.shared_state)

    def bucket(self, cycle):
        return self.shared.bucket(cycle)

    def interleave(self, executions, stop_ops=None, on_stop=None):
        """Run this domain's cores (``KernelExecution`` list) to completion.

        Same contract as :func:`repro.cpu.core.interleave_two_level`, which
        is what the py kernel runs; the compiled kernel runs the same
        schedule inside C, one call per warmup boundary when no scheme
        trains in Python.
        """
        if self.kind == "py":
            interleave_two_level(executions, stop_ops, on_stop)
            return
        from repro.kernel.cbuild import interleave

        targets = _fire_met_checkpoints(executions, stop_ops, on_stop)
        interleave([ex.runtime for ex in executions], targets, on_stop)

    def write_back(self, contents=True):
        """Restore the shared LLC/DRAM objects (call once, after the run).

        ``contents=False`` restores counters and DRAM/monitor state but
        not the LLC's resident lines — for callers that only assemble
        counter-based results before discarding the objects.
        """
        self.shared.sync_to_state(contents)
        self.shared_state.write_back(contents)


class KernelExecution:
    """Drop-in replacement for ``CoreExecution`` driving a flat kernel.

    Wraps an already-built ``CoreExecution`` (which owns the trace and the
    hierarchy objects); between :meth:`__init__` and :meth:`write_back`
    the packed working form is the truth and the wrapped objects are
    stale.  The driver surface (``done``/``time``/``ops``/
    ``mark_stats_start``, plus ``run_ops``/``run_ops_until`` on the py
    kernel) matches ``CoreExecution``, so
    :func:`repro.cpu.core.interleave_two_level` schedules py-kernel cores
    unchanged.
    """

    def __init__(self, execution, trace, domain):
        self.execution = execution
        self.domain = domain
        hier = execution.hierarchy
        l2_pf = hier.l2_prefetcher
        train = None if l2_pf is None else l2_pf.train
        note_useful = None if l2_pf is None else l2_pf.note_useful_prefetch
        note_useless = None if l2_pf is None else l2_pf.note_useless_prefetch
        # Only the compiled domain may substitute C training twins for the
        # scheme objects; the py kernel trains the live objects directly,
        # so packing them would clobber that work at write_back.
        self.state = KernelState(
            execution,
            trace,
            domain.shared_state,
            compile_scheme=(domain.kind == "compiled"),
        )
        if domain.kind == "py":
            self.runtime = PyRuntime(
                self.state,
                domain.shared,
                train=train,
                note_useful=note_useful,
                note_useless=note_useless,
            )
        else:
            from repro.kernel.cbuild import CRuntime

            self.runtime = CRuntime(
                self.state,
                domain.shared,
                train=train,
                note_useful=note_useful,
                note_useless=note_useless,
            )
        self._written_back = False

    # ----------------------------------------------------- CoreExecution API

    @property
    def done(self):
        return self.runtime.pos >= self.runtime.n_ops

    @property
    def time(self):
        return self.runtime.time

    @property
    def ops(self):
        return self.runtime.pos

    def run_ops(self, max_ops=None):
        return self.run_ops_until(_MAX_FLOAT, max_ops)

    def run_ops_until(self, horizon, max_ops=None, strict=False):
        """One py-kernel batch; compiled cores are batched inside C only."""
        if self.domain.kind != "py":
            raise TypeError(
                "compiled executions are scheduled by KernelDomain.interleave"
            )
        runtime = self.runtime
        n = runtime.n_ops
        end = n if max_ops is None else min(n, runtime.pos + max_ops)
        return runtime.run(end, horizon, strict)

    def mark_stats_start(self):
        """Set the measured-region floor from the live working state."""
        self.execution._stats_floor = self.runtime.snapshot()

    # ------------------------------------------------- warmup-boundary resets

    def reset_hierarchy_stats(self):
        self.runtime.reset_hierarchy_stats()

    def reset_dram_stats(self, cycle):
        self.runtime.reset_dram_stats(cycle)

    # --------------------------------------------------------------- teardown

    def write_back(self, contents=True):
        """Sync working form -> flat state -> objects (idempotent).

        ``contents=False`` skips rebuilding cache line structures; every
        counter and execution scalar is still restored.
        """
        if self._written_back:
            return
        self.runtime.sync_to_state(contents)
        self.state.write_back(contents)
        self._written_back = True

    def finalize(self):
        """Measured-region stats, via the restored object execution."""
        self.write_back()
        return self.execution.finalize()
