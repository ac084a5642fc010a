"""Tracing from outside the program: spans around calls into each layer.

Nothing under ``src/`` is instrumented.  :func:`install` replaces public
entry points (module functions, class methods and constructors'
``__init__``) with wrappers that record one span per call — kind, start,
end and the enclosing span — into in-memory arrays, and :func:`uninstall`
puts the originals back.  Classes themselves are never replaced, so
``isinstance`` checks in the program still hold.  A layer's time is the
self time of its spans: duration minus the time of the spans nested
inside it.

:class:`KernelLog` is the one wrapper installed in every run, traced or
not: it records the kernel each ``KernelDomain`` was built for (one call
per simulation), which is how the benchmark knows which kernel a run
resolved to.
"""

import contextlib
import time
from array import array

import numpy as np

from repro.cpu import system as cpu_system
from repro.cpu.core import CoreExecution
from repro.engine import InMemoryBackend, Session
from repro.engine.specs import MixSpec, RunSpec
from repro.kernel.execution import KernelBandwidth, KernelDomain, KernelExecution
from repro.memory.cache import Cache
from repro.memory.dram import DramModel
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.observed import ObservedHierarchy
from repro.prefetchers.stride import PcStridePrefetcher
from repro.workloads import catalog, mixes

#: Span kinds.  The ``*.run`` kinds are containers: their self time is
#: the glue between layers and is reported only inside ``other_s``.
KINDS = (
    "engine.run",
    "engine.fingerprint",
    "engine.store_save",
    "cpu.run",
    "cpu.build",
    "cpu.interleave",
    "cpu.object_loop",
    "kernel.pack",
    "kernel.loop",
    "kernel.writeback",
    "prefetchers.train",
    "prefetchers.note",
    "prefetchers.flush",
    "workloads.build",
)
_KIND_ID = {kind: i for i, kind in enumerate(KINDS)}


class KernelLog:
    """Which kernel each simulation resolved to (``[]`` = object model)."""

    def __init__(self):
        self._current = None
        self._original = KernelDomain.__init__
        original = self._original
        log = self

        def recorded_init(domain, llc, dram, kind):
            if log._current is not None:
                log._current.append(kind)
            original(domain, llc, dram, kind)

        KernelDomain.__init__ = recorded_init

    @contextlib.contextmanager
    def run(self):
        """Collect the kernel kinds built inside the ``with`` block."""
        kinds = []
        outer, self._current = self._current, kinds
        try:
            yield kinds
        finally:
            self._current = outer

    def close(self):
        KernelDomain.__init__ = self._original


class SpanLog:
    """Spans kept in memory as parallel arrays."""

    def __init__(self):
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = []

    def wrap(self, kind, fn):
        kind_id = _KIND_ID[kind]
        kinds, parents, starts, ends, stack = (
            self.kind,
            self.parent,
            self.start,
            self.end,
            self._open,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            kinds.append(kind_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def summary(self):
        """Per-kind self time and call count, plus the scheduler's slices."""
        kind = np.frombuffer(self.kind, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child_time
        parent_kind = np.where(nested, kind[np.maximum(parent, 0)], -1)
        out = {}
        for name, i in _KIND_ID.items():
            mine = kind == i
            out[name] = {
                "self_s": float(self_time[mine].sum()),
                "calls": int(mine.sum()),
            }
        out["cpu.interleave"]["slices"] = int(
            ((kind == _KIND_ID["kernel.loop"]) & (parent_kind == _KIND_ID["cpu.interleave"])).sum()
        )
        return out


def _patch(patches, owner, name, replacement):
    patches.append((owner, name, owner.__dict__[name]))
    setattr(owner, name, replacement)


def install(log):
    """Wrap every layer entry point the benchmark traces; returns the undo list."""
    patches = []
    wrap = log.wrap

    def method(owner, name, kind):
        _patch(patches, owner, name, wrap(kind, owner.__dict__[name]))

    method(Session, "run", "engine.run")
    method(RunSpec, "fingerprint", "engine.fingerprint")
    method(MixSpec, "fingerprint", "engine.fingerprint")
    method(InMemoryBackend, "save_result", "engine.store_save")
    method(cpu_system.System, "run", "cpu.run")
    method(cpu_system.MultiCoreSystem, "run", "cpu.run")
    for cls in (
        DramModel,
        MemoryHierarchy,
        ObservedHierarchy,
        CoreExecution,
        PcStridePrefetcher,
        Cache,
        KernelBandwidth,
    ):
        method(cls, "__init__", "cpu.build")
    for cls in (KernelDomain, KernelExecution):
        method(cls, "__init__", "kernel.pack")
        method(cls, "write_back", "kernel.writeback")
    for name in ("run_ops", "run_ops_until"):
        method(KernelExecution, name, "kernel.loop")
        method(CoreExecution, name, "cpu.object_loop")
    method(cpu_system, "interleave_two_level", "cpu.interleave")
    method(cpu_system, "flush_training_with_cycle", "prefetchers.flush")
    method(catalog.Workload, "build", "workloads.build")
    method(mixes, "build_mix_traces", "workloads.build")

    build_prefetcher = cpu_system.build_prefetcher
    timed_build = wrap("cpu.build", build_prefetcher)

    def build_traced_prefetcher(name, bandwidth):
        # Instance attributes shadow the class methods, so the kernel's
        # crossing and the object loop both call through the wrappers.
        pf = timed_build(name, bandwidth)
        if pf is not None:
            pf.train = wrap("prefetchers.train", pf.train)
            pf.note_useful_prefetch = wrap("prefetchers.note", pf.note_useful_prefetch)
            pf.note_useless_prefetch = wrap("prefetchers.note", pf.note_useless_prefetch)
        return pf

    _patch(patches, cpu_system, "build_prefetcher", build_traced_prefetcher)
    return patches


def uninstall(patches):
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)
