"""Table 5 analogue: sizes of this reproduction's components.

The paper reports C++ line counts for the Nucleus MM part, the
machine-independent PVM, and each machine-dependent MMU layer (Table
5), to support two claims: the machine-dependent part is small, and
porting to a new MMU touches only it.  This module measures the same
split in the Python reproduction; the MMU-port ablation demonstrates
the porting claim directly (every port passes the same semantic tests).
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Tuple

import repro

PACKAGE_ROOT = pathlib.Path(repro.__file__).parent

#: component name -> list of paths relative to the package root.
COMPONENTS: Dict[str, List[str]] = {
    # GMI definition + the kernel-side users of it.
    "Nucleus MM part (gmi + nucleus)": [
        "gmi", "nucleus",
    ],
    "Fault-resolution engine (backend-agnostic)": [
        "engine",
    ],
    "PVM: machine-independent": [
        "pvm/pvm.py", "pvm/history.py", "pvm/pervpage.py", "pvm/fault.py",
        "pvm/pageout.py", "pvm/cacheops.py", "pvm/cache.py",
        "pvm/context.py", "pvm/region.py", "pvm/page.py",
        "pvm/global_map.py",
    ],
    "PVM: machine-dependent layer": [
        "pvm/hw_interface.py",
    ],
    "MMU port: paged (two-level)": [
        "hardware/paged_mmu.py",
    ],
    "MMU port: inverted (hashed)": [
        "hardware/inverted_mmu.py",
    ],
    "MMU port: segmented (386)": [
        "hardware/segmented_mmu.py",
    ],
    "Simulated hardware substrate": [
        "hardware/physmem.py", "hardware/mmu.py", "hardware/tlb.py",
        "hardware/bus.py",
    ],
    "Mach-style baseline (shadow objects)": [
        "mach",
    ],
    "Segments / mappers": [
        "segments",
    ],
    "IPC": [
        "ipc",
    ],
    "Chorus/MIX Unix layer": [
        "mix",
    ],
}


def count_lines(path: pathlib.Path) -> int:
    """Physical lines (including comments/docstrings, like the paper)."""
    if path.is_dir():
        return sum(count_lines(child) for child in sorted(path.rglob("*.py")))
    return len(path.read_text().splitlines())


def component_sizes() -> List[Tuple[str, int]]:
    """(component, lines) for every entry of :data:`COMPONENTS`."""
    rows = []
    for name, relpaths in COMPONENTS.items():
        total = sum(count_lines(PACKAGE_ROOT / rel) for rel in relpaths)
        rows.append((name, total))
    return rows


def machine_dependent_fraction() -> float:
    """Machine-dependent PVM lines / total PVM lines.

    The paper's headline structural claim: the per-MMU layer is the
    small part (790-1120 C++ lines against 1980 machine-independent).
    """
    sizes = dict(component_sizes())
    dependent = (sizes["PVM: machine-dependent layer"]
                 + sizes["MMU port: paged (two-level)"])
    independent = sizes["PVM: machine-independent"]
    return dependent / (dependent + independent)
