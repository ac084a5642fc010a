"""Compiled-kernel build cache and fallback classification.

Two bug classes are pinned here:

- the build cache must key on the *generator* (source + emitted C +
  flags + compiler), so editing ``cgen.py`` can never load a stale
  ``.so`` whose bytes happen to still sit at the old path;
- a broken build must be reported as a broken build — never silently
  conflated with "no toolchain".  ``kernel='compiled'`` hard-fails with
  the classified reason; ``auto`` degrades to the py kernel with a
  warning that names it.

Runs no flat kernel can express fall back to the object model; under an
explicit kernel choice that fallback is warned about once per reason,
under ``auto`` it stays quiet.  An unknown replacement policy is no such
run: it is rejected on every kernel.
"""

import pytest

from repro.kernel import cbuild

_HAVE_CC = cbuild.toolchain_available()


# ------------------------------------------------------------- build cache


@pytest.mark.skipif(not _HAVE_CC, reason="no C toolchain")
def test_generator_mutation_triggers_rebuild(tmp_path, monkeypatch):
    from repro.kernel import cgen

    monkeypatch.setattr(cbuild, "_build_dir", lambda: tmp_path)
    saved_lib = cbuild._lib
    try:
        cbuild._reset_for_tests()
        path_a = cbuild.artifact_path()
        assert not path_a.exists()
        cbuild.load_kernel()
        assert path_a.exists()

        # Same generator output -> same artifact (cache hit, no rebuild).
        cbuild._reset_for_tests()
        assert cbuild.artifact_path() == path_a
        mtime_a = path_a.stat().st_mtime_ns
        cbuild.load_kernel()
        assert path_a.stat().st_mtime_ns == mtime_a

        # Mutate the emitted source the way an edit to cgen.py would:
        # the digest must move and a fresh artifact must be built, even
        # though the old .so is still present in the build dir.
        real_generate = cgen.generate_source
        monkeypatch.setattr(
            cgen, "generate_source", lambda: real_generate() + "\n/* mutated */\n"
        )
        cbuild._reset_for_tests()
        path_b = cbuild.artifact_path()
        assert path_b != path_a
        assert not path_b.exists()
        cbuild.load_kernel()
        assert path_b.exists()
        assert path_a.exists()  # old artifact untouched, just not loaded
    finally:
        cbuild._lib = saved_lib


def test_build_digest_covers_generator_and_flags():
    d0 = cbuild._build_digest("int x;", "/usr/bin/cc")
    assert d0 == cbuild._build_digest("int x;", "/usr/bin/cc")
    assert d0 != cbuild._build_digest("int y;", "/usr/bin/cc")
    assert d0 != cbuild._build_digest("int x;", "/usr/bin/clang")
    flags = cbuild._CFLAGS
    try:
        cbuild._CFLAGS = flags + ("-DX",)
        assert d0 != cbuild._build_digest("int x;", "/usr/bin/cc")
    finally:
        cbuild._CFLAGS = flags


# ------------------------------------------- fallback/failure classification


def _probe_reset(monkeypatch):
    import repro.kernel.execution as kex

    monkeypatch.setattr(kex, "_probe", None)
    return kex


@pytest.mark.skipif(not _HAVE_CC, reason="no C toolchain")
def test_probe_classifies_build_failure_as_build(monkeypatch):
    kex = _probe_reset(monkeypatch)

    def broken_load():
        raise cbuild.KernelBuildError("kernel compilation failed: synthetic")

    monkeypatch.setattr(cbuild, "load_kernel", broken_load)
    assert not kex.kernel_available()
    kind, reason = kex.kernel_unavailable_reason()
    assert kind == "build"
    assert "synthetic" in reason


def test_probe_classifies_missing_toolchain(monkeypatch):
    kex = _probe_reset(monkeypatch)
    monkeypatch.setattr(cbuild, "toolchain_available", lambda: False)
    assert not kex.kernel_available()
    kind, reason = kex.kernel_unavailable_reason()
    assert kind == "toolchain"


def test_explicit_compiled_hard_fails_on_broken_build(monkeypatch):
    """--kernel compiled / REPRO_KERNEL=compiled must error with the real
    reason instead of silently degrading when the build is broken."""
    import repro.kernel.execution as kex
    from repro.cpu.system import System, SystemConfig
    from repro.workloads.catalog import build_trace

    monkeypatch.setattr(kex, "_probe", (False, "build", "synthetic codegen bug"))
    trace = build_trace("ispec06.mcf", 300)
    with pytest.raises(RuntimeError, match="failed to build.*synthetic codegen bug"):
        System(SystemConfig.single_thread("spp", kernel="compiled")).run(trace)


def test_explicit_compiled_hard_fails_without_toolchain(monkeypatch):
    import repro.kernel.execution as kex
    from repro.cpu.system import System, SystemConfig
    from repro.workloads.catalog import build_trace

    monkeypatch.setattr(kex, "_probe", (False, "toolchain", "no C compiler on PATH"))
    trace = build_trace("ispec06.mcf", 300)
    with pytest.raises(RuntimeError, match="no C toolchain"):
        System(SystemConfig.single_thread("spp", kernel="compiled")).run(trace)


def _force_engine_kernel(monkeypatch, kernel):
    """Pin the engine-level kernel choice regardless of REPRO_KERNEL."""
    import dataclasses

    from repro.engine import config as engine_config

    real_config = engine_config.current_config
    monkeypatch.setattr(
        engine_config,
        "current_config",
        lambda: dataclasses.replace(real_config(), kernel=kernel),
    )


def test_auto_degrades_with_warning_on_build_failure(monkeypatch):
    """auto + broken build -> py kernel, with a once-per-process warning
    naming the build failure (a missing toolchain stays quiet)."""
    import repro.cpu.system as system_mod
    import repro.kernel.execution as kex
    from repro.cpu.system import System, SystemConfig
    from repro.workloads.catalog import build_trace

    monkeypatch.setattr(kex, "_probe", (False, "build", "synthetic codegen bug"))
    monkeypatch.setattr(system_mod, "_warned_kernel_degraded", False)
    _force_engine_kernel(monkeypatch, "auto")
    trace = build_trace("ispec06.mcf", 300)
    with pytest.warns(RuntimeWarning, match="synthetic codegen bug"):
        result = System(SystemConfig.single_thread("spp", kernel="auto")).run(trace)
    assert result.instructions > 0
    # Second run: warn-once semantics.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        System(SystemConfig.single_thread("spp", kernel="auto")).run(trace)


def test_auto_degrades_quietly_without_toolchain(monkeypatch):
    import repro.cpu.system as system_mod
    import repro.kernel.execution as kex
    from repro.cpu.system import System, SystemConfig
    from repro.workloads.catalog import build_trace

    monkeypatch.setattr(kex, "_probe", (False, "toolchain", "no C compiler on PATH"))
    monkeypatch.setattr(system_mod, "_warned_kernel_degraded", False)
    _force_engine_kernel(monkeypatch, "auto")
    trace = build_trace("ispec06.mcf", 300)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = System(SystemConfig.single_thread("spp", kernel="auto")).run(trace)
    assert result.instructions > 0


def test_explicit_kernel_warns_once_on_object_fallback(monkeypatch):
    import warnings

    import repro.cpu.system as system_mod
    from repro.cpu.system import System, SystemConfig
    from repro.workloads.catalog import build_trace

    monkeypatch.setattr(system_mod, "_warned_object_fallbacks", set())
    trace = build_trace("ispec06.mcf", 300)
    cfg = SystemConfig.single_thread(
        "dspatch", kernel="compiled", record_pollution_victims=True
    )
    with pytest.warns(RuntimeWarning, match=r"\(pollution\)") as record:
        fallback = System(cfg).run(trace)
        System(cfg).run(trace)
    assert len([w for w in record if "object model" in str(w.message)]) == 1
    # The fallback is the object path itself: identical results.
    reference = System(
        SystemConfig.single_thread(
            "dspatch", kernel="object", record_pollution_victims=True
        )
    ).run(trace)
    assert fallback.to_dict() == reference.to_dict()
    assert fallback.pollution_events == reference.pollution_events
    # A different reason warns on its own.
    with pytest.warns(RuntimeWarning, match=r"\(tracing\)"):
        System(
            SystemConfig.single_thread("dspatch", kernel="py", trace_prefetch=True)
        ).run(trace)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        System(cfg).run(trace)


def test_auto_kernel_falls_back_to_object_quietly(monkeypatch):
    import warnings

    import repro.cpu.system as system_mod
    from repro.cpu.system import System, SystemConfig
    from repro.workloads.catalog import build_trace

    monkeypatch.setattr(system_mod, "_warned_object_fallbacks", set())
    _force_engine_kernel(monkeypatch, "auto")
    trace = build_trace("ispec06.mcf", 300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = System(
            SystemConfig.single_thread(
                "dspatch", kernel="auto", record_pollution_victims=True
            )
        ).run(trace)
    assert result.instructions > 0
    assert not system_mod._warned_object_fallbacks


def test_unknown_replacement_policy_is_rejected_not_fallen_back(monkeypatch):
    """Every registered policy runs on every kernel, so an unknown name is
    an error on the py kernel too — never a warned object-model fallback."""
    import dataclasses
    import warnings

    import repro.cpu.system as system_mod
    from repro.cpu.system import System, SystemConfig
    from repro.workloads.catalog import build_trace

    monkeypatch.setattr(system_mod, "_warned_object_fallbacks", set())
    cfg = SystemConfig.single_thread("dspatch", kernel="py")
    hier = cfg.hierarchy
    cfg = dataclasses.replace(
        cfg,
        hierarchy=dataclasses.replace(
            hier, llc=dataclasses.replace(hier.llc, replacement="rrip")
        ),
    )
    trace = build_trace("ispec06.mcf", 300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"'rrip'.*lru, pf-dead-block"):
            System(cfg).run(trace)
