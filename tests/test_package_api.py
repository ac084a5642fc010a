"""Tests on the public package surface (`import repro`)."""

from pathlib import Path

import pytest

import repro

_SETUP_PY = Path(__file__).resolve().parent.parent / "setup.py"


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_has_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_version_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))


class TestPackaging:
    """``pip install -e .`` must install the package and the ``repro`` command."""

    def test_setup_metadata(self):
        from distutils.core import run_setup

        dist = run_setup(str(_SETUP_PY), stop_after="init")
        assert dist.get_name() == "repro"
        assert dist.get_version() == repro.__version__
        assert dist.package_dir == {"": "src"}
        assert "repro" in dist.packages
        assert {"repro.engine", "repro.kernel", "repro.prefetchers"} <= set(dist.packages)
        assert dist.install_requires == ["numpy"]
        assert dist.entry_points["console_scripts"] == ["repro = repro.cli:main"]


class TestQuickstartContract:
    """The README's quickstart snippet, as a test."""

    def test_quickstart_snippet(self):
        trace = repro.build_trace("cloud.bigbench", length=1500)
        baseline = repro.System(repro.SystemConfig.single_thread("none")).run(trace)
        combo = repro.System(repro.SystemConfig.single_thread("spp+dspatch")).run(trace)
        assert baseline.ipc > 0
        assert combo.ipc > 0
        assert 0.0 <= combo.coverage <= 1.0
        assert 0.0 <= combo.accuracy <= 1.0

    def test_custom_prefetcher_contract(self):
        """Third-party prefetchers only need the base-class protocol."""

        class DocPrefetcher(repro.NullPrefetcher):
            name = "doc"

            def train(self, cycle, pc, addr, hit):
                from repro.prefetchers.base import PrefetchCandidate

                return [PrefetchCandidate((addr >> 6) + 1)]

        from repro.memory.dram import DramModel
        from repro.memory.hierarchy import MemoryHierarchy
        from repro.cpu.core import CoreExecution, CoreModel

        trace = repro.build_trace("ispec06.hmmer", length=600)
        hierarchy = MemoryHierarchy(dram=DramModel(), l2_prefetcher=DocPrefetcher())
        ex = CoreExecution(CoreModel(), trace, hierarchy)
        ex.run()
        assert hierarchy.pf_stats.issued > 0

    def test_storage_tables_match_paper(self):
        from repro.memory.dram import FixedBandwidth

        dspatch = repro.build_prefetcher("dspatch", FixedBandwidth(0))
        assert dspatch.storage_kb() == pytest.approx(3.61, abs=0.01)
        spp = repro.build_prefetcher("spp", FixedBandwidth(0))
        assert 5.0 < spp.storage_kb() < 7.0  # paper: 6.2KB
