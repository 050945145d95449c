"""The layer contract (docs/ARCHITECTURE.md), enforced statically.

Backends (repro.pvm / repro.mach / repro.minimal) may import
repro.hardware only through repro.pvm.hw_interface, repro.engine
imports neither hardware nor any backend, and repro.obs (metrics,
spans, trace export) imports neither either — instrumentation is
called into, never calls down.  The cache subsystem (repro.cache)
must stay backend-agnostic, and mappers (repro.segments) may depend
only on the cache-subsystem interfaces.  The extent primitives
(repro.extents) are a leaf shared by layers that may not import each
other, so they import neither backends nor hardware nor the cache
subsystem.  Hardware itself (repro.hardware, including the vectorized
access path repro.hardware.vbus) is the bottom of the stack: it may
import only the leaf/utility layers (errors, units, kernel, extents,
fastpath), never a backend, the engine or obs.  The checker must both pass
on the real tree and demonstrably fail on a deliberately-introduced
violation — a green light from a checker that can't turn red proves
nothing.
"""

import pathlib

import repro
from repro.tools.check_layers import check_layers, main

SRC_ROOT = pathlib.Path(repro.__file__).resolve().parents[1]


def _make_tree(tmp_path, files):
    for relpath, source in files.items():
        path = tmp_path / "repro" / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        for parent in path.relative_to(tmp_path).parents:
            init = tmp_path / parent / "__init__.py"
            if parent.parts and not init.exists():
                init.write_text("")
        path.write_text(source)
    return tmp_path


class TestRealTree:
    def test_contract_holds(self):
        assert check_layers(SRC_ROOT) == []

    def test_cli_entry_point_passes(self, capsys):
        assert main([str(SRC_ROOT)]) == 0
        assert "layer contract holds" in capsys.readouterr().out


class TestDetectsViolations:
    def test_backend_importing_hardware_directly_fails(self, tmp_path):
        _make_tree(tmp_path, {
            "pvm/sneaky.py": "from repro.hardware.mmu import MMU\n",
        })
        violations = check_layers(tmp_path)
        assert [(m, i) for m, i, _ in violations] == \
            [("repro.pvm.sneaky", "repro.hardware.mmu")]

    def test_hw_interface_itself_is_exempt(self, tmp_path):
        _make_tree(tmp_path, {
            "pvm/hw_interface.py": "from repro.hardware.mmu import MMU\n",
        })
        assert check_layers(tmp_path) == []

    def test_engine_importing_a_backend_fails(self, tmp_path):
        _make_tree(tmp_path, {
            "engine/cheat.py": "import repro.pvm.pvm\n",
        })
        violations = check_layers(tmp_path)
        assert violations and violations[0][0] == "repro.engine.cheat"

    def test_engine_importing_hardware_fails(self, tmp_path):
        _make_tree(tmp_path, {
            "engine/cheat.py": "from repro.hardware import tlb\n",
        })
        assert len(check_layers(tmp_path)) == 1

    def test_relative_imports_are_resolved(self, tmp_path):
        # `from ...hardware import mmu` inside repro/mach is the same
        # violation spelled relatively.
        _make_tree(tmp_path, {
            "mach/relative.py": "from ..hardware import mmu\n",
        })
        violations = check_layers(tmp_path)
        assert [(m, i) for m, i, _ in violations] == \
            [("repro.mach.relative", "repro.hardware")]

    def test_obs_importing_a_backend_fails(self, tmp_path):
        _make_tree(tmp_path, {
            "obs/cheat.py": "from repro.pvm.pvm import PagedVirtualMemory\n",
        })
        violations = check_layers(tmp_path)
        assert violations and violations[0][0] == "repro.obs.cheat"
        assert "repro.obs" in violations[0][2]

    def test_obs_importing_hardware_fails(self, tmp_path):
        _make_tree(tmp_path, {
            "obs/cheat.py": "import repro.hardware.mmu\n",
        })
        assert len(check_layers(tmp_path)) == 1

    def test_cache_importing_a_backend_fails(self, tmp_path):
        _make_tree(tmp_path, {
            "cache/cheat.py": "from repro.pvm.page import SyncStub\n",
        })
        violations = check_layers(tmp_path)
        assert violations and violations[0][0] == "repro.cache.cheat"
        assert "repro.cache" in violations[0][2]

    def test_cache_importing_hardware_fails(self, tmp_path):
        _make_tree(tmp_path, {
            "cache/cheat.py": "import repro.hardware.mmu\n",
        })
        assert len(check_layers(tmp_path)) == 1

    def test_mapper_importing_a_backend_fails(self, tmp_path):
        _make_tree(tmp_path, {
            "segments/cheat.py":
                "from repro.pvm.pvm import PagedVirtualMemory\n",
        })
        violations = check_layers(tmp_path)
        assert violations and violations[0][0] == "repro.segments.cheat"
        assert "cache-subsystem interfaces" in violations[0][2]

    def test_mapper_importing_gmi_fails(self, tmp_path):
        # Mappers used to reach into repro.gmi for the provider base;
        # after the cache extraction they must use repro.cache only.
        _make_tree(tmp_path, {
            "segments/cheat.py":
                "from repro.gmi import SegmentProvider\n",
        })
        assert len(check_layers(tmp_path)) == 1

    def test_mapper_may_import_cache_interfaces(self, tmp_path):
        _make_tree(tmp_path, {
            "segments/fine.py": (
                "from repro.cache.mapper import BaseMapper\n"
                "from repro.errors import CapabilityError\n"
                "from repro.kernel.clock import VirtualClock\n"
            ),
        })
        assert check_layers(tmp_path) == []

    def test_extents_importing_hardware_fails(self, tmp_path):
        _make_tree(tmp_path, {
            "extents/cheat.py": "from repro.hardware.mmu import Mapping\n",
        })
        violations = check_layers(tmp_path)
        assert violations and violations[0][0] == "repro.extents.cheat"
        assert "leaf" in violations[0][2]

    def test_extents_importing_cache_fails(self, tmp_path):
        _make_tree(tmp_path, {
            "extents/cheat.py":
                "from repro.cache.residency import ResidencyIndex\n",
        })
        assert len(check_layers(tmp_path)) == 1

    def test_extents_importing_a_backend_fails(self, tmp_path):
        _make_tree(tmp_path, {
            "extents/cheat.py": "import repro.pvm.context\n",
        })
        assert len(check_layers(tmp_path)) == 1

    def test_extents_may_import_stdlib_and_errors(self, tmp_path):
        _make_tree(tmp_path, {
            "extents/fine.py": (
                "import bisect\n"
                "from repro.errors import InvalidOperation\n"
            ),
        })
        assert check_layers(tmp_path) == []

    def test_io_scheduler_importing_a_backend_fails(self, tmp_path):
        _make_tree(tmp_path, {
            "engine/io.py": "from repro.pvm.page import SyncStub\n",
        })
        violations = check_layers(tmp_path)
        assert violations and violations[0][0] == "repro.engine.io"
        assert "I/O scheduler" in violations[0][2]

    def test_backend_importing_io_scheduler_directly_fails(self, tmp_path):
        _make_tree(tmp_path, {
            "pvm/sneaky.py": "from repro.engine.io import IoScheduler\n",
        })
        violations = check_layers(tmp_path)
        assert [(m, i) for m, i, _ in violations] == \
            [("repro.pvm.sneaky", "repro.engine.io")]
        assert "engine facade" in violations[0][2]

    def test_cache_importing_io_scheduler_directly_fails(self, tmp_path):
        _make_tree(tmp_path, {
            "cache/sneaky.py": "import repro.engine.io\n",
        })
        assert len(check_layers(tmp_path)) == 1

    def test_engine_facade_may_import_io_scheduler(self, tmp_path):
        _make_tree(tmp_path, {
            "engine/__init__.py":
                "from repro.engine.io import IoScheduler\n",
        })
        assert check_layers(tmp_path) == []

    def test_pressure_importing_cache_fails(self, tmp_path):
        _make_tree(tmp_path, {
            "obs/pressure.py":
                "from repro.cache.residency import ResidencyIndex\n",
        })
        violations = check_layers(tmp_path)
        assert violations and violations[0][0] == "repro.obs.pressure"
        assert "primitives" in violations[0][2]

    def test_pressure_importing_a_backend_fails(self, tmp_path):
        # Rule 3 (obs off the backends) already covers this; rule 7
        # adds the cache ban on top, it does not replace it.
        _make_tree(tmp_path, {
            "obs/pressure.py": "import repro.pvm.pvm\n",
        })
        assert len(check_layers(tmp_path)) == 1

    def test_other_obs_modules_may_import_nothing_extra(self, tmp_path):
        # The cache ban is specific to repro.obs.pressure: export and
        # metrics keep rule 3 only.  (Today no obs module imports
        # repro.cache; this pins that the rule is scoped, not global.)
        _make_tree(tmp_path, {
            "obs/pressure.py":
                "from repro.obs.metrics import MetricsRegistry\n",
        })
        assert check_layers(tmp_path) == []

    def test_pressure_policy_importing_cache_fails(self, tmp_path):
        # Rule 8: the arbiter is called *up* into by the cache engine;
        # importing cache objects back down would close a layer cycle.
        _make_tree(tmp_path, {
            "pressure/arbiter.py":
                "from repro.cache.engine import CacheEngine\n",
        })
        violations = check_layers(tmp_path)
        assert violations and violations[0][0] == "repro.pressure.arbiter"
        assert "repro.pressure decides over primitives" in violations[0][2]

    def test_pressure_policy_importing_a_backend_fails(self, tmp_path):
        _make_tree(tmp_path, {
            "pressure/balancer.py": "import repro.pvm.pvm\n",
        })
        violations = check_layers(tmp_path)
        assert violations and violations[0][0] == "repro.pressure.balancer"

    def test_pressure_policy_importing_hardware_fails(self, tmp_path):
        _make_tree(tmp_path, {
            "pressure/arbiter.py":
                "from repro.hardware.physmem import PhysicalMemory\n",
        })
        violations = check_layers(tmp_path)
        assert violations and violations[0][0] == "repro.pressure.arbiter"

    def test_pressure_policy_may_import_obs_metrics(self, tmp_path):
        # series_name keys the arbiter's labeled gauges; repro.obs
        # stays legal for the policy layer (it is passive arithmetic).
        _make_tree(tmp_path, {
            "pressure/arbiter.py":
                "from repro.obs.metrics import series_name\n",
        })
        assert check_layers(tmp_path) == []

    def test_hardware_importing_a_backend_fails(self, tmp_path):
        # Rule 9: the vectorized access path (and every other hardware
        # module) sits at the bottom of the stack — reaching up into a
        # manager would invert the layering.
        _make_tree(tmp_path, {
            "hardware/vbus.py": "from repro.pvm.pvm import "
                                "PagedVirtualMemory\n",
        })
        violations = check_layers(tmp_path)
        assert [(m, i) for m, i, _ in violations] == \
            [("repro.hardware.vbus", "repro.pvm.pvm")]
        assert "bottom of the stack" in violations[0][2]

    def test_hardware_importing_the_engine_fails(self, tmp_path):
        _make_tree(tmp_path, {
            "hardware/vbus.py": "import repro.engine.faults\n",
        })
        assert len(check_layers(tmp_path)) == 1

    def test_hardware_importing_obs_fails(self, tmp_path):
        _make_tree(tmp_path, {
            "hardware/tlb.py":
                "from repro.obs.metrics import MetricsRegistry\n",
        })
        assert len(check_layers(tmp_path)) == 1

    def test_hardware_may_import_the_leaf_layers(self, tmp_path):
        _make_tree(tmp_path, {
            "hardware/vbus.py": (
                "from repro.errors import InvalidOperation\n"
                "from repro.fastpath import get_numpy\n"
                "from repro.hardware.mmu import MMU\n"
                "from repro.kernel import EventCounter\n"
                "from repro.extents import RunMap\n"
            ),
        })
        assert check_layers(tmp_path) == []

    def test_cli_reports_failure(self, tmp_path, capsys):
        _make_tree(tmp_path, {
            "minimal/sneaky.py": "import repro.hardware.bus\n",
        })
        assert main([str(tmp_path)]) == 1
        assert "LAYER VIOLATION" in capsys.readouterr().out
