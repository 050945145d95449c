"""Introspection tools: history-tree rendering, VM state dumps and
vmstat — the debugging aids a kernel team would keep next to a memory
manager like the PVM."""

from repro.tools.inspect import (
    dump_vm_state, render_cache_tree, render_context,
)
from repro.tools.vmstat import VmStat
from repro.tools.rss import format_residency, residency_report

__all__ = [
    "render_cache_tree",
    "render_context",
    "dump_vm_state",
    "VmStat",
    "residency_report",
    "format_residency",
]
