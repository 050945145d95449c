"""Table 5 analogue: component sizes of this reproduction.

The paper's structural claims, checked against our own line counts:
the PVM's machine-dependent layer is much smaller than its
machine-independent part, and an MMU port is a small unit (three ports
exist and pass the same semantic tests)."""

import pytest

from repro.bench.loc import component_sizes, machine_dependent_fraction
from repro.bench.paper_values import PAPER_TABLE5
from repro.bench.tables import format_series


def test_component_sizes(benchmark, report):
    rows = benchmark(component_sizes)
    table = format_series(
        "Table 5 analogue: reproduction component sizes (Python lines)",
        ("component", "lines"), rows)
    paper = format_series(
        "Paper's Table 5 (C++ lines, for reference)",
        ("component", "lines"), list(PAPER_TABLE5.items()))
    report(table, paper)

    sizes = dict(rows)
    # The machine-independent PVM dwarfs the machine-dependent layer.
    assert sizes["PVM: machine-independent"] > \
        4 * sizes["PVM: machine-dependent layer"]
    # Each MMU port is a small, self-contained unit.
    assert sizes["MMU port: paged (two-level)"] < 200
    assert sizes["MMU port: inverted (hashed)"] < 200
    assert sizes["MMU port: segmented (386)"] < 200
    # Every component is non-trivial (nothing is a stub).
    assert all(lines > 50 for _, lines in rows)


def test_machine_dependent_fraction(benchmark):
    """The paper's Sun port: (790+150)/(790+150+1980) ≈ 32% of the PVM
    is machine-dependent; ours is smaller still because the simulated
    MMU interface is narrower."""
    fraction = benchmark(machine_dependent_fraction)
    assert fraction < 0.35
