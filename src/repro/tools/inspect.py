"""Textual rendering of PVM state: history trees, contexts, caches.

``render_cache_tree`` draws the Figure-3 pictures live: the tree of
caches rooted at the topmost ancestor, with each node's resident
pages, guards, parent fragments and liveness flags.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.pvm.cache import PvmCache
from repro.pvm.context import PvmContext
from repro.pvm.page import CowStub, SyncStub


def _roots_of(cache: PvmCache) -> List[PvmCache]:
    """Topmost ancestors reachable from *cache* (usually one)."""
    roots: List[PvmCache] = []
    seen: Set[int] = set()
    stack = [cache]
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        parents = {link.cache for link in current.parents.values()}
        if not parents:
            roots.append(current)
        else:
            stack.extend(parents)
    return roots


def _describe(cache: PvmCache, page_size: int) -> str:
    flags = []
    if cache.dead:
        flags.append("dead")
    if cache.is_history:
        flags.append("history")
    if cache.destroyed:
        flags.append("destroyed")
    pages = ",".join(str(offset // page_size)
                     for offset in sorted(cache.pages)) or "-"
    guards = ";".join(
        f"[{start // page_size}..{(end - 1) // page_size}]"
        f"->{link.cache.name}"
        for start, end, link in cache.guards.items()) or "-"
    tag = f" ({' '.join(flags)})" if flags else ""
    return (f"{cache.name}{tag}  pages:{{{pages}}}  guards:{guards}")


def render_cache_tree(cache: PvmCache, page_size: Optional[int] = None
                      ) -> str:
    """ASCII tree of the history structure containing *cache*."""
    page_size = page_size or cache.pvm.page_size
    lines: List[str] = []
    seen: Set[int] = set()

    def walk(node: PvmCache, prefix: str, connector: str) -> None:
        lines.append(prefix + connector + _describe(node, page_size))
        if id(node) in seen:
            lines.append(prefix + "    (cycle)")
            return
        seen.add(id(node))
        children = sorted(node.children, key=lambda child: child.name)
        if connector == "`-- ":
            child_prefix = prefix + "    "
        elif connector == "|-- ":
            child_prefix = prefix + "|   "
        else:
            child_prefix = prefix
        for index, child in enumerate(children):
            last = index == len(children) - 1
            walk(child, child_prefix, "`-- " if last else "|-- ")

    for root in sorted(_roots_of(cache), key=lambda c: c.name):
        walk(root, "", "")
    return "\n".join(lines)


def render_context(context: PvmContext) -> str:
    """One line per region of a context, sorted by address."""
    lines = [f"context {context.name} (space {context.space})"]
    for region in context.get_region_list():
        status = region.status()
        lines.append(
            f"  [{status.address:#010x}, {status.end:#010x})  "
            f"{status.protection.name or status.protection!r:12} "
            f"-> {region.cache.name}+{status.offset:#x}  "
            f"resident={status.resident_pages}"
            f"{'  LOCKED' if status.locked else ''}"
        )
    return "\n".join(lines)


def dump_vm_state(vm) -> str:
    """A vmstat-style snapshot of one memory manager."""
    memory = vm.memory
    lines = [
        f"memory manager: {vm.name}",
        f"  frames: {memory.allocated_frames}/{memory.total_frames} "
        f"allocated ({memory.free_frames} free)",
        f"  resident pages: {vm.resident_page_count}",
        f"  caches: {len(vm.caches())} "
        f"({sum(1 for c in vm.caches() if c.is_history)} internal, "
        f"{sum(1 for c in vm.caches() if c.dead)} dead)",
        f"  contexts: {len(vm.contexts())}",
        f"  global map entries: {len(vm.global_map)}",
    ]
    stubs = {"sync": 0, "cow": 0}
    for _, entry in vm.global_map:
        if isinstance(entry, SyncStub):
            stubs["sync"] += 1
        elif isinstance(entry, CowStub):
            stubs["cow"] += 1
    lines.append(f"  stubs: {stubs['sync']} sync, {stubs['cow']} cow")
    lines.append(f"  virtual time: {vm.clock.now():.3f} ms")
    return "\n".join(lines)
