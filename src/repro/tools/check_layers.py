"""Layer-contract checker: enforce the import rules of the layer stack.

The reproduction's layering (docs/ARCHITECTURE.md) is::

    repro.engine                 backend-agnostic fault pipeline
    repro.pvm / mach / minimal   memory managers (MI layer)
    repro.pvm.hw_interface       machine-dependent layer
    repro.hardware               MMU ports, TLB, bus, physical memory

Nine rules keep the stack honest — the same discipline the paper's
"hardware-independent interface" (section 4) imposes on the real PVM:

1. **Backends stay off the hardware.**  Modules under ``repro.pvm``,
   ``repro.mach`` and ``repro.minimal`` may import ``repro.hardware``
   only from the single machine-dependent module
   ``repro.pvm.hw_interface`` — everything else goes through its
   re-exports and factories.
2. **The engine floats above everything.**  ``repro.engine`` imports
   neither ``repro.hardware`` nor any backend package.
3. **Observability is passive.**  ``repro.obs`` (metrics, spans,
   trace export) is instrumentation the other layers call *into*; it
   must not import backends or ``repro.hardware`` itself.
4. **The cache subsystem is backend-agnostic.**  ``repro.cache``
   (residency index, eviction policies, pull/push engine, mapper
   protocol) imports neither backends nor ``repro.hardware`` — it is
   *driven by* backends, never the other way round.  And mappers
   (``repro.segments``) depend only on the cache-subsystem interfaces:
   the only ``repro.*`` packages they may import are ``repro.cache``,
   ``repro.segments`` itself, ``repro.errors``, ``repro.units`` and
   ``repro.kernel`` (cost accounting).
5. **Extent primitives are a leaf.**  ``repro.extents`` (interval
   maps, translation runs) is shared by layers that may not import
   each other — contexts, cache descriptors, the MMU ports, the
   in-flight table — so it must import neither backends nor
   ``repro.hardware`` nor ``repro.cache``.
6. **The I/O scheduler is engine-internal.**  ``repro.engine.io``
   imports no backend and no hardware (sharpened rule 2: the scheduler
   moves bytes for any mapper without knowing who owns them), and no
   module outside ``repro.engine`` imports ``repro.engine.io``
   directly — backends and the cache subsystem reach the scheduler
   only through the ``repro.engine`` facade (or the duck-typed
   ``vm.io`` attribute, which imports nothing).
7. **The pressure board is arithmetic over primitives.**
   ``repro.obs.pressure`` (per-space ledgers, PSI stall windows) must
   not import ``repro.cache`` on top of rule 3's backend/hardware ban:
   callers hand it space ids and page counts, never kernel objects —
   which is what lets any manager (or a bare test) host a board.
8. **Pressure policy decides, it does not reach down.**
   ``repro.pressure`` (the frame arbiter, working-set estimator,
   balancer daemon and admission controller) imports neither backends
   nor ``repro.hardware`` nor ``repro.cache``: the cache engine calls
   *up* into the arbiter with space ids and page counts, and the
   balancer drives reclaim through the duck-typed ``vm`` handle — so
   the policy layer stays swappable over any manager.
9. **Hardware is the bottom.**  Modules under ``repro.hardware``
   (the MMU ports, TLB, buses — including the vectorized
   ``repro.hardware.vbus``) may import ``repro.*`` only from the
   leaf/utility set: ``repro.hardware`` itself, ``repro.errors``,
   ``repro.units``, ``repro.kernel``, ``repro.extents`` and
   ``repro.fastpath``.  In particular no backend, engine, cache or
   observability import — the vectorized access path accelerates the
   hardware walk, it must not know who manages the pages.

The check is static (``ast`` on the source tree, no imports executed)
so a violation is caught even in modules no test happens to load.
Run as a script (``python -m repro.tools.check_layers``) or through
``tests/test_layer_contract.py`` (tier 1).
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import List, Optional, Tuple

#: packages whose modules must not touch repro.hardware directly.
BACKEND_PACKAGES = ("repro.pvm", "repro.mach", "repro.minimal")

#: the one module allowed to import repro.hardware on their behalf.
HARDWARE_GATE = "repro.pvm.hw_interface"

#: prefixes the engine must never import.
ENGINE_FORBIDDEN = BACKEND_PACKAGES + ("repro.hardware",)

#: prefixes the observability layer must never import.
OBS_FORBIDDEN = BACKEND_PACKAGES + ("repro.hardware",)

#: prefixes the cache subsystem must never import.
CACHE_FORBIDDEN = BACKEND_PACKAGES + ("repro.hardware",)

#: the only repro.* prefixes mappers (repro.segments) may import.
SEGMENTS_ALLOWED = ("repro.cache", "repro.segments", "repro.errors",
                    "repro.units", "repro.kernel")

#: prefixes the extent primitives must never import (they are a leaf
#: shared across otherwise-unrelated layers).
EXTENTS_FORBIDDEN = BACKEND_PACKAGES + ("repro.hardware", "repro.cache")

#: the engine-internal scheduler module: only the ``repro.engine``
#: facade may import it.
IO_MODULE = "repro.engine.io"

#: the pressure board: rule 3's bans plus the cache subsystem.
PRESSURE_MODULE = "repro.obs.pressure"

#: the pressure-policy package: backends, hardware and the cache
#: subsystem are all off limits (rule 8).
POLICY_PACKAGE = "repro.pressure"

POLICY_FORBIDDEN = BACKEND_PACKAGES + ("repro.hardware", "repro.cache")

#: the only repro.* prefixes hardware modules may import (rule 9):
#: the hardware package itself plus the leaf/utility layers.
HARDWARE_ALLOWED = ("repro.hardware", "repro.errors", "repro.units",
                    "repro.kernel", "repro.extents", "repro.fastpath")


def _module_name(path: pathlib.Path, src_root: pathlib.Path) -> str:
    relative = path.relative_to(src_root).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_modules(tree: ast.AST, module: str) -> List[str]:
    """Absolute module names imported anywhere in *tree*."""
    found: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Resolve a relative import against this module's package.
                package = module.split(".")
                package = package[: len(package) - node.level]
                base = ".".join(package)
                name = f"{base}.{node.module}" if node.module else base
            else:
                name = node.module or ""
            if name:
                found.append(name)
    return found


def _under(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def check_layers(src_root) -> List[Tuple[str, str, str]]:
    """Scan the tree under *src_root* (the directory holding ``repro``).

    Returns violations as (module, imported, rule) triples; an empty
    list means the contract holds.
    """
    src_root = pathlib.Path(src_root)
    violations: List[Tuple[str, str, str]] = []
    for path in sorted(src_root.glob("repro/**/*.py")):
        module = _module_name(path, src_root)
        tree = ast.parse(path.read_text(), filename=str(path))
        imports = _imported_modules(tree, module)
        if any(_under(module, pkg) for pkg in BACKEND_PACKAGES) \
                and module != HARDWARE_GATE:
            for imported in imports:
                if _under(imported, "repro.hardware"):
                    violations.append((
                        module, imported,
                        "backends must reach repro.hardware only "
                        f"through {HARDWARE_GATE}",
                    ))
        if _under(module, "repro.engine"):
            for imported in imports:
                if any(_under(imported, banned)
                       for banned in ENGINE_FORBIDDEN):
                    violations.append((
                        module, imported,
                        "the I/O scheduler must not import backends "
                        "or hardware" if _under(module, IO_MODULE)
                        else "repro.engine must not import backends "
                             "or hardware",
                    ))
        else:
            for imported in imports:
                if _under(imported, IO_MODULE):
                    violations.append((
                        module, imported,
                        "the I/O scheduler is engine-internal: go "
                        "through the repro.engine facade",
                    ))
        if _under(module, "repro.obs"):
            for imported in imports:
                if any(_under(imported, banned)
                       for banned in OBS_FORBIDDEN):
                    violations.append((
                        module, imported,
                        "repro.obs must not import backends or "
                        "hardware",
                    ))
        if _under(module, PRESSURE_MODULE):
            for imported in imports:
                if _under(imported, "repro.cache"):
                    violations.append((
                        module, imported,
                        "repro.obs.pressure takes primitives, not "
                        "cache objects: it must not import repro.cache",
                    ))
        if _under(module, POLICY_PACKAGE):
            for imported in imports:
                if any(_under(imported, banned)
                       for banned in POLICY_FORBIDDEN):
                    violations.append((
                        module, imported,
                        "repro.pressure decides over primitives: it "
                        "must not import backends, hardware or the "
                        "cache subsystem",
                    ))
        if _under(module, "repro.cache"):
            for imported in imports:
                if any(_under(imported, banned)
                       for banned in CACHE_FORBIDDEN):
                    violations.append((
                        module, imported,
                        "repro.cache must not import backends or "
                        "hardware",
                    ))
        if _under(module, "repro.extents"):
            for imported in imports:
                if any(_under(imported, banned)
                       for banned in EXTENTS_FORBIDDEN):
                    violations.append((
                        module, imported,
                        "repro.extents is a leaf: it must not import "
                        "backends, hardware or the cache subsystem",
                    ))
        if _under(module, "repro.hardware"):
            for imported in imports:
                if _under(imported, "repro") and \
                        not any(_under(imported, allowed)
                                for allowed in HARDWARE_ALLOWED):
                    violations.append((
                        module, imported,
                        "hardware is the bottom of the stack: it may "
                        "import only repro.hardware, repro.errors, "
                        "repro.units, repro.kernel, repro.extents and "
                        "repro.fastpath",
                    ))
        if _under(module, "repro.segments"):
            for imported in imports:
                if _under(imported, "repro") and \
                        not any(_under(imported, allowed)
                                for allowed in SEGMENTS_ALLOWED):
                    violations.append((
                        module, imported,
                        "mappers may depend only on the cache-"
                        "subsystem interfaces (repro.cache, "
                        "repro.errors, repro.units, repro.kernel)",
                    ))
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src_root = pathlib.Path(argv[0]) if argv \
        else pathlib.Path(__file__).resolve().parents[2]
    violations = check_layers(src_root)
    if violations:
        for module, imported, rule in violations:
            print(f"LAYER VIOLATION: {module} imports {imported} ({rule})")
        return 1
    print(f"layer contract holds under {src_root}")
    return 0


if __name__ == "__main__":                      # pragma: no cover
    sys.exit(main())
