"""Benchmark harness: calibrated cost profiles, experiment runners and
paper-style table formatting for Tables 5-7 and the ablations."""

from repro.bench.costmodel import (
    CHORUS_SUN360, MACH_SUN360, chorus_nucleus, mach_nucleus,
)
from repro.bench.experiments import (
    cow_table, derived_metrics, zero_fill_table,
)
from repro.bench.tables import format_grid

__all__ = [
    "CHORUS_SUN360",
    "MACH_SUN360",
    "chorus_nucleus",
    "mach_nucleus",
    "zero_fill_table",
    "cow_table",
    "derived_metrics",
    "format_grid",
]
