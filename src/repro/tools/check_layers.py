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
   must not import backends or ``repro.hardware`` itself, not even
   through a re-export.
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
   hardware walk, it must not know who manages the pages.  The rule
   holds through re-exports: every module a hardware import executes
   must be in the leaf set too (``repro.kernel`` counts in plain ints
   and imports no ``repro.obs``).

The check is static (``ast`` on the source tree, no imports executed)
so a violation is caught even in modules no test happens to load.
Rules 3 and 9 follow each import through its static closure
(:func:`import_closure`): every module the import executes, parent
package ``__init__`` modules included, except the root ``repro``
facade, which imports everything.  The other rules read direct
imports.  Run as a script (``python -m repro.tools.check_layers``) or
through ``tests/test_layer_contract.py`` (tier 1).
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Dict, List, Optional, Set, Tuple

#: packages whose modules must not touch repro.hardware directly.
BACKEND_PACKAGES = ("repro.pvm", "repro.mach", "repro.minimal")

#: the one module allowed to import repro.hardware on their behalf.
HARDWARE_GATE = "repro.pvm.hw_interface"

#: the engine-internal scheduler module: only the ``repro.engine``
#: facade may import it.
IO_MODULE = "repro.engine.io"

#: what the engine, observability and the cache may never import.
UPPER_AND_LOWER = BACKEND_PACKAGES + ("repro.hardware",)


def _in(*prefixes):
    """Predicate: the module is one of *prefixes* or under one."""
    return lambda module: any(_under(module, prefix) for prefix in prefixes)


def _outside(*allowed):
    """Predicate: a ``repro`` module under none of *allowed*."""
    return lambda module: _under(module, "repro") and not any(
        _under(module, prefix) for prefix in allowed)


#: (applies to importer, forbidden import, message, transitive) — in
#: report order.
RULES = (
    # 1
    (lambda module: _in(*BACKEND_PACKAGES)(module)
        and module != HARDWARE_GATE,
     _in("repro.hardware"),
     f"backends must reach repro.hardware only through {HARDWARE_GATE}",
     False),
    # 2 and 6
    (_in(IO_MODULE), _in(*UPPER_AND_LOWER),
     "the I/O scheduler must not import backends or hardware", False),
    (lambda module: _under(module, "repro.engine")
        and not _under(module, IO_MODULE),
     _in(*UPPER_AND_LOWER),
     "repro.engine must not import backends or hardware", False),
    (lambda module: not _under(module, "repro.engine"), _in(IO_MODULE),
     "the I/O scheduler is engine-internal: go through the repro.engine "
     "facade", False),
    # 3
    (_in("repro.obs"), _in(*UPPER_AND_LOWER),
     "repro.obs must not import backends or hardware", True),
    # 7
    (_in("repro.obs.pressure"), _in("repro.cache"),
     "repro.obs.pressure takes primitives, not cache objects: it must "
     "not import repro.cache", False),
    # 8
    (_in("repro.pressure"), _in(*UPPER_AND_LOWER, "repro.cache"),
     "repro.pressure decides over primitives: it must not import "
     "backends, hardware or the cache subsystem", False),
    # 4
    (_in("repro.cache"), _in(*UPPER_AND_LOWER),
     "repro.cache must not import backends or hardware", False),
    # 5
    (_in("repro.extents"), _in(*UPPER_AND_LOWER, "repro.cache"),
     "repro.extents is a leaf: it must not import backends, hardware or "
     "the cache subsystem", False),
    # 9
    (_in("repro.hardware"),
     _outside("repro.hardware", "repro.errors", "repro.units",
              "repro.kernel", "repro.extents", "repro.fastpath"),
     "hardware is the bottom of the stack: it may import only "
     "repro.hardware, repro.errors, repro.units, repro.kernel, "
     "repro.extents and repro.fastpath", True),
    # 4 (mappers)
    (_in("repro.segments"),
     _outside("repro.cache", "repro.segments", "repro.errors",
              "repro.units", "repro.kernel"),
     "mappers may depend only on the cache-subsystem interfaces "
     "(repro.cache, repro.errors, repro.units, repro.kernel)", False),
)


def _module_name(path: pathlib.Path, src_root: pathlib.Path) -> str:
    relative = path.relative_to(src_root).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_modules(tree: ast.AST, module: str,
                      known=()) -> List[str]:
    """Absolute module names imported anywhere in *tree*; a name
    ``from``-imported out of a package counts too when it is one of
    the *known* modules."""
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
                found.extend(f"{name}.{alias.name}" for alias in node.names
                             if f"{name}.{alias.name}" in known)
    return found


def _under(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def import_graph(src_root) -> Dict[str, List[str]]:
    """Every module under *src_root*'s ``repro`` and its direct
    imports."""
    src_root = pathlib.Path(src_root)
    paths = {_module_name(path, src_root): path
             for path in sorted(src_root.glob("repro/**/*.py"))}
    return {
        module: _imported_modules(
            ast.parse(path.read_text(), filename=str(path)), module, paths)
        for module, path in paths.items()
    }


def import_closure(graph: Dict[str, List[str]], roots) -> Set[str]:
    """Every ``repro`` module that importing *roots* executes: each
    one's imports, transitively, and its parent packages — except the
    root ``repro`` facade, which imports everything."""
    seen: Set[str] = set()
    stack = list(roots)
    while stack:
        module = stack.pop()
        if module in seen or module == "repro" \
                or not _under(module, "repro"):
            continue
        seen.add(module)
        stack.append(module.rpartition(".")[0])
        stack.extend(graph.get(module, ()))
    return seen


def check_layers(src_root) -> List[Tuple[str, str, str]]:
    """Scan the tree under *src_root* (the directory holding ``repro``).

    Returns violations as (module, imported, rule) triples; an empty
    list means the contract holds.
    """
    graph = import_graph(src_root)
    violations: List[Tuple[str, str, str]] = []
    for module, imports in graph.items():
        for applies, forbidden, message, transitive in RULES:
            if not applies(module):
                continue
            for imported in imports:
                if forbidden(imported):
                    violations.append((module, imported, message))
                elif transitive:
                    banned = sorted(filter(
                        forbidden, import_closure(graph, [imported])))
                    if banned:
                        violations.append((
                            module, imported,
                            f"{message}; through it, {banned[0]}"))
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
