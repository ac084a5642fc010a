"""Randomized kernel-parity fuzz grid.

The flat-state kernels (pure-Python ``py`` and the runtime-compiled C
twin) are alternative *executions* of the same simulation, not
alternative models: every counter, rate and log a run produces must be
bit-for-bit identical to the original object-model loop.  That contract
is what lets ``SystemConfig.kernel`` stay out of spec fingerprints (all
kernels share cache entries) and what makes ``kernel_py`` an executable
spec for the C twin.

The grid here is randomized but *deterministic* (fixed seed): each case
draws a workload, a registry scheme, a trace length, an LLC geometry
(size and associativity) and a warmup fraction, then runs the identical
trace through the object model and through each flat kernel and compares
``RunResult.to_dict()`` field-for-field.  A multi-programmed section does
the same through ``MultiCoreSystem`` (shared LLC, per-core warmup
boundaries, global-time interleave) where the kernel crossing machinery
is under the most scheduling pressure.

The compiled kernel is exercised only when a C toolchain is present
(``kernel_available()``); the pure-Python kernel always runs, so parity
is pinned on every host.
"""

import random

import pytest

from repro.constants import LINE_SHIFT
from repro.cpu.system import MultiCoreSystem, System, SystemConfig
from repro.kernel import kernel_available
from repro.memory.cache import CacheConfig
from repro.memory.dram import MP_DRAM, ST_DRAM
from repro.memory.hierarchy import HierarchyConfig
from repro.prefetchers.base import PrefetchCandidate, Prefetcher
from repro.workloads.catalog import build_trace

FLAT_KERNELS = ("py", "compiled") if kernel_available() else ("py",)

# Deterministic fuzz: same seed -> same grid on every run/host, so a
# failure is always reproducible from the printed case id.
_SEED = 0xD5BA7C

_WORKLOADS = (
    "ispec06.mcf",
    "hpc.npb-cg",
    "server.tpcc-1",
    "cloud.memcached",
    "fspec06.libquantum",
    "client.browser",
)
# Every distinct training/candidate shape in the registry: delta walks
# (spp/espp), bit patterns (sms/bingo/dspatch), offset scoring (bop),
# streams (streamer/ampm), correlation (markov/vldp), plus the baseline.
_SCHEMES = (
    "none",
    "streamer",
    "nextline",
    "spp",
    "espp",
    "bop",
    "sms",
    "bingo",
    "ampm",
    "dspatch",
    "markov",
    "vldp",
)
_LLC_GEOMETRIES = (  # (size_bytes, ways) — power-of-two set counts
    (256 * 1024, 8),
    (512 * 1024, 16),
    (1024 * 1024, 8),
    (2 * 1024 * 1024, 16),
)
_WARMUP_FRACS = (0.0, 0.1, 0.25, 0.4)


def _fuzz_cases(n):
    rng = random.Random(_SEED)
    cases = []
    schemes = list(_SCHEMES)
    for i in range(n):
        # First pass walks every scheme once; later passes draw freely.
        scheme = schemes[i] if i < len(schemes) else rng.choice(schemes)
        cases.append(
            (
                scheme,
                rng.choice(_WORKLOADS),
                rng.randrange(1500, 4000),
                rng.choice(_LLC_GEOMETRIES),
                rng.choice(_WARMUP_FRACS),
            )
        )
    return cases


def _config(scheme, llc_geometry, warmup_frac, kernel, dram=ST_DRAM):
    size_bytes, ways = llc_geometry
    base = HierarchyConfig()
    llc = CacheConfig(
        name="LLC",
        size_bytes=size_bytes,
        ways=ways,
        hit_latency=base.llc.hit_latency,
        mshrs=base.llc.mshrs,
        replacement=base.llc.replacement,
    )
    return SystemConfig(
        hierarchy=HierarchyConfig(l1=base.l1, l2=base.l2, llc=llc),
        dram=dram,
        l2_prefetcher=scheme,
        warmup_frac=warmup_frac,
        kernel=kernel,
    )


def _assert_same(baseline, candidate, label):
    if baseline == candidate:
        return
    diff = {
        key: (baseline[key], candidate[key])
        for key in baseline
        if baseline[key] != candidate[key]
    }
    raise AssertionError(f"{label}: kernel diverges from object model: {diff}")


@pytest.mark.parametrize(
    "scheme,workload,length,llc_geometry,warmup_frac",
    _fuzz_cases(14),
    ids=lambda v: str(v).replace(" ", ""),
)
def test_single_thread_parity(scheme, workload, length, llc_geometry, warmup_frac):
    trace = build_trace(workload, length)
    baseline = System(_config(scheme, llc_geometry, warmup_frac, "object")).run(trace)
    base = baseline.to_dict()
    for kernel in FLAT_KERNELS:
        result = System(_config(scheme, llc_geometry, warmup_frac, kernel)).run(trace)
        _assert_same(base, result.to_dict(), f"{scheme}/{workload}/{kernel}")


def _mix_dicts(scheme, traces, warmup_frac, kernel):
    # One shared 2MB LLC: per-core pressure on it is the point.
    cfg = _config(scheme, (2 * 1024 * 1024, 16), warmup_frac, kernel, dram=MP_DRAM)
    mp = MultiCoreSystem(cfg, num_cores=len(traces)).run(traces)
    return [core.to_dict() for core in mp.per_core] + [
        {"global_cycles": mp.global_cycles}
    ]


@pytest.mark.parametrize(
    "scheme,warmup_frac",
    [("dspatch", 0.25), ("spp", 0.1), ("bop", 0.0)],
)
def test_multi_programmed_parity(scheme, warmup_frac):
    rng = random.Random(_SEED ^ hash((scheme, warmup_frac)) & 0xFFFF)
    traces = [
        build_trace(rng.choice(_WORKLOADS), rng.randrange(900, 1600)) for _ in range(4)
    ]
    baseline = _mix_dicts(scheme, traces, warmup_frac, "object")
    for kernel in FLAT_KERNELS:
        candidate = _mix_dicts(scheme, traces, warmup_frac, kernel)
        for core_idx, (base, cand) in enumerate(zip(baseline, candidate)):
            _assert_same(base, cand, f"mp/{scheme}/{kernel}/core{core_idx}")


def test_kernel_field_absent_from_fingerprints():
    """All kernels are bit-identical, so runs must share cache entries:
    the kernel choice may never reach a spec fingerprint."""
    import dataclasses

    from repro.engine import RunSpec

    assert "kernel" not in [f.name for f in dataclasses.fields(RunSpec)]


def test_unsupported_features_fall_back_to_object():
    """Tracing-on runs silently use the object path (scheme events and
    cache events only exist there) and still produce identical results."""
    from repro.observe.sinks import CollectingSink

    trace = build_trace("ispec06.mcf", 2000)
    plain = System(SystemConfig.single_thread("dspatch", kernel="py")).run(trace)
    sink = CollectingSink()
    traced = System(
        SystemConfig.single_thread("dspatch", kernel="py", trace_prefetch=True),
        sink=sink,
    ).run(trace)
    assert plain.to_dict() == traced.to_dict()
    assert sink.events  # tracing actually happened on the fallback path


# ---------------------------------------------------------------------------
# Compiled scheme training (SPP / eSPP / DSPatch / the Section 5.1
# composite get C twins; everything else batches through train_buf).


def test_scheme_kind_detection():
    """Exactly the stock registry shapes get a compiled twin; variants,
    non-default configs, wrappers and unrelated schemes keep the Python
    crossing."""
    from repro.kernel import layout
    from repro.kernel.state import _scheme_kind
    from repro.memory.dram import DramModel
    from repro.prefetchers.registry import build_prefetcher

    dram = DramModel(ST_DRAM)
    expectations = {
        "spp": layout.SCHEME_SPP,
        "espp": layout.SCHEME_ESPP,
        "dspatch": layout.SCHEME_DSPATCH,
        "spp+dspatch": layout.SCHEME_SPP_DSPATCH,
        # no C twin: crossing path
        "bop": layout.SCHEME_PY,
        "sms": layout.SCHEME_PY,
        "dspatch-spt128": layout.SCHEME_PY,  # non-default config
        "alwayscovp": layout.SCHEME_PY,      # subclass variant
        "fdp:spp": layout.SCHEME_PY,         # throttle wrapper
        "spp+bop": layout.SCHEME_PY,         # composite without twin pair
        "none": layout.SCHEME_PY,
    }
    for name, expected in expectations.items():
        pf = build_prefetcher(name, dram.monitor)
        assert _scheme_kind(pf, dram) == expected, name
    # A traced scheme must stay on the object-visible path.
    pf = build_prefetcher("spp", dram.monitor)
    pf.attach_trace(lambda *a: None)
    assert _scheme_kind(pf, dram) == layout.SCHEME_PY


_TRAINING_CASES = [
    # Deep SPP lookahead walks: dense sequential misses build confident
    # signatures, long trace drives the walk through many depths.
    ("spp", "fspec06.libquantum", 2600, ST_DRAM),
    ("espp", "fspec06.libquantum", 2600, MP_DRAM),
    # DSPatch bandwidth regimes: the narrow MP DRAM config swings the
    # bucket across the 3/4 CovP/AccP selection threshold mid-run.
    ("dspatch", "ispec06.mcf", 2600, ST_DRAM),
    ("dspatch", "hpc.npb-cg", 2600, MP_DRAM),
    ("espp", "server.tpcc-1", 2200, MP_DRAM),
    # Composite wrappers: the compiled SPP+DSPatch pair (merge dedup in
    # C) and a pair without a twin (batched train_buf crossing).
    ("spp+dspatch", "cloud.memcached", 2400, ST_DRAM),
    ("spp+dspatch", "hpc.npb-cg", 2400, MP_DRAM),
    ("spp+bop", "ispec06.mcf", 2000, ST_DRAM),
]


@pytest.mark.parametrize(
    "scheme,workload,length,dram",
    _TRAINING_CASES,
    ids=lambda v: getattr(v, "speed_grade", None) and "dram" or str(v),
)
def test_training_heavy_parity(scheme, workload, length, dram):
    trace = build_trace(workload, length)
    for warmup_frac in (0.0, 0.25):
        base = System(
            _config(scheme, _LLC_GEOMETRIES[1], warmup_frac, "object", dram=dram)
        ).run(trace).to_dict()
        for kernel in FLAT_KERNELS:
            got = System(
                _config(scheme, _LLC_GEOMETRIES[1], warmup_frac, kernel, dram=dram)
            ).run(trace).to_dict()
            _assert_same(base, got, f"train/{scheme}/{workload}/{warmup_frac}/{kernel}")


def test_batched_crossing_parity_non_compiled_scheme():
    """A scheme without a C twin crosses through the train_buf record
    buffer; results stay bit-identical to the object model."""
    from repro.kernel import layout
    from repro.kernel.state import _scheme_kind
    from repro.memory.dram import DramModel
    from repro.prefetchers.registry import build_prefetcher

    dram = DramModel(ST_DRAM)
    assert _scheme_kind(build_prefetcher("sms", dram.monitor), dram) == layout.SCHEME_PY
    trace = build_trace("server.tpcc-1", 2400)
    base = System(_config("sms", _LLC_GEOMETRIES[0], 0.1, "object")).run(trace).to_dict()
    for kernel in FLAT_KERNELS:
        got = System(_config("sms", _LLC_GEOMETRIES[0], 0.1, kernel)).run(trace).to_dict()
        _assert_same(base, got, f"batched/sms/{kernel}")


def _training_state(pf):
    """Structural fingerprint of a scheme's training tables and counters."""
    from repro.core.dspatch import DSPatch
    from repro.prefetchers.composite import CompositePrefetcher
    from repro.prefetchers.spp import SPP

    if isinstance(pf, CompositePrefetcher):
        return [_training_state(c) for c in pf.components]
    if isinstance(pf, SPP):  # covers ESPP
        return (
            [None if e is None else (e.tag, e.last_offset, e.signature) for e in pf._st],
            list(pf._pt_c_sig),
            [list(row) for row in pf._pt_slots],
            [(g.signature, g.confidence, g.last_offset, g.delta) for g in pf._ghr],
            list(pf._filter),
            (pf.trainings, pf.filtered, pf.feedback_issued, pf.feedback_useful),
        )
    if isinstance(pf, DSPatch):
        return (
            [
                (page, e.pattern, [None if t is None else tuple(t) for t in e.triggers])
                for page, e in pf.page_buffer._pages.items()
            ],
            pf.page_buffer.evictions,
            [
                (e.covp, e.accp, list(e.measure_covp), list(e.or_count), list(e.measure_accp))
                for e in pf.spt._table
            ],
            (
                pf.trainings,
                pf.triggers,
                pf.predictions_covp,
                pf.predictions_accp,
                pf.predictions_suppressed,
            ),
        )
    raise AssertionError(f"no fingerprint for {type(pf).__name__}")


@pytest.mark.parametrize("scheme", ("dspatch", "spp+dspatch"))
def test_flush_training_sees_identical_residual_state(scheme, monkeypatch):
    """warmup_frac=0 boundary: the end-of-run drain must observe the same
    residual training state — and the same run-final cycle, which sets
    DSPatch's bandwidth bucket for the drained pages — whether training
    ran in generated C or in Python."""
    import repro.cpu.system as system_mod

    trace = build_trace("cloud.memcached", 2000)
    real_flush = system_mod.flush_training_with_cycle
    captured = {}
    current = []

    def capturing_flush(pf, cycle):
        current.append((cycle, _training_state(pf)))
        real_flush(pf, cycle)
        current.append(("post", _training_state(pf)))

    monkeypatch.setattr(system_mod, "flush_training_with_cycle", capturing_flush)
    for kernel in ("object",) + FLAT_KERNELS:
        current = []
        System(_config(scheme, _LLC_GEOMETRIES[0], 0.0, kernel)).run(trace)
        captured[kernel] = current
    assert captured["object"], "flush was never reached"
    for kernel in FLAT_KERNELS:
        assert captured[kernel] == captured["object"], f"flush state diverges ({kernel})"


# ---------------------------------------------------------------------------
# The compiled scheduler: ``ksched`` runs interleave_two_level's schedule
# inside C and returns to Python only for training crossings, queued
# notes, warmup boundaries and the end of the run.

_SCHED_CASES = [
    # (scheme, cores, warmup_frac): a compiled twin (no crossings), a
    # Python-trained scheme and a composite with a Python part, so that
    # crossings arrive from different cores between C entries; zero
    # warmup fires every target before the first op.
    ("dspatch", 1, 0.0),
    ("dspatch", 2, 0.25),
    ("dspatch", 8, 0.0),
    ("bop", 1, 0.25),
    ("bop", 2, 0.0),
    ("bop", 8, 0.25),
    ("spp+bop", 2, 0.4),
    ("spp+bop", 4, 0.0),
]


@pytest.mark.parametrize("scheme,n_cores,warmup_frac", _SCHED_CASES)
def test_scheduler_parity_uneven_mix(scheme, n_cores, warmup_frac):
    """Uneven per-core trace lengths: short cores finish early and the
    schedule keeps running the rest, on every kernel identically."""
    rng = random.Random(_SEED + 31 * n_cores)
    traces = [
        build_trace(rng.choice(_WORKLOADS), rng.randrange(150, 1800))
        for _ in range(n_cores)
    ]
    baseline = _mix_dicts(scheme, traces, warmup_frac, "object")
    for kernel in FLAT_KERNELS:
        candidate = _mix_dicts(scheme, traces, warmup_frac, kernel)
        for core_idx, (base, cand) in enumerate(zip(baseline, candidate)):
            _assert_same(base, cand, f"sched/{scheme}/{n_cores}/{kernel}/core{core_idx}")


@pytest.mark.skipif(not kernel_available(), reason="no C toolchain")
@pytest.mark.parametrize("warmup_frac,entries", [(0.25, 5), (0.0, 1)])
def test_compiled_mix_enters_c_once_per_boundary(warmup_frac, entries, monkeypatch):
    """A compiled-twin mix makes one C entry per warmup boundary plus
    the final one (zero-op warmups fire before the first entry) — never
    one per scheduling slice."""
    from repro.kernel import cbuild

    lib = cbuild.load_kernel()
    real = lib.ksched
    calls = []

    def counting(ctl):
        calls.append(ctl)
        return real(ctl)

    monkeypatch.setattr(lib, "ksched", counting)
    traces = [build_trace(w, 1200) for w in _WORKLOADS[:4]]
    _mix_dicts("dspatch", traces, warmup_frac, "compiled")
    assert len(calls) == entries


class _BurstPrefetcher(Prefetcher):
    """Python-trained test scheme: every 64th training call returns 300
    candidates, more than the kernel's initial candidate buffer holds."""

    name = "burst"

    def __init__(self):
        self.calls = 0

    def train(self, cycle, pc, addr, hit):
        self.calls += 1
        if self.calls % 64 != 1:
            return []
        line = addr >> LINE_SHIFT
        return [PrefetchCandidate(line + d, d > 200) for d in range(1, 301)]


@pytest.mark.parametrize("n_cores", (1, 2))
def test_candidate_buffer_growth(n_cores, monkeypatch):
    """More candidates than CAND_CAP0 regrow the crossing buffers and
    rewrite the core's pointer table in place, so the C scheduler keeps
    running on the new arrays."""
    import repro.cpu.system as system_mod
    from repro.kernel import layout

    assert 300 > layout.CAND_CAP0
    real_build = system_mod.build_prefetcher
    monkeypatch.setattr(
        system_mod,
        "build_prefetcher",
        lambda name, bw: _BurstPrefetcher() if name == "burst" else real_build(name, bw),
    )
    grown = []
    if kernel_available():
        from repro.kernel.cbuild import CRuntime

        real_put = CRuntime._put_candidates

        def put(runtime, cands):
            cap = runtime.state.ci64[layout.CI64["cand_cap"]]
            real_put(runtime, cands)
            if runtime.state.ci64[layout.CI64["cand_cap"]] != cap:
                grown.append(runtime)

        monkeypatch.setattr(CRuntime, "_put_candidates", put)
    traces = [build_trace(w, 1500) for w in _WORKLOADS[:n_cores]]
    baseline = _mix_dicts("burst", traces, 0.25, "object")
    assert baseline[0]["pf_issued"] > 0
    for kernel in FLAT_KERNELS:
        candidate = _mix_dicts("burst", traces, 0.25, kernel)
        for core_idx, (base, cand) in enumerate(zip(baseline, candidate)):
            _assert_same(base, cand, f"burst/{n_cores}/{kernel}/core{core_idx}")
    if kernel_available():
        assert len(grown) == n_cores  # every core grew its buffers once
