"""A live ``top`` over the pressure board (``python -m repro top``).

Runs a small multi-space mix — a make-style reader over a mapped
segment, an interactive editor on an anonymous heap, and a pager
process that dirties data and forces reclaim — on the CHORUS-priced
bench nucleus, then renders what the :class:`~repro.obs.PressureBoard`
saw: one row per address space (RSS, faults, mapper bytes, stall
share) under a PSI header line.

``--once`` runs the whole mix and prints a single frame (the CI
acceptance mode); without it the mix advances one round per frame for
``--frames`` frames, ``--interval`` wall-seconds apart — a watchable
``top``.  Everything rides the virtual clock, so frames are
bit-identical from run to run.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.units import KB

MIX_BASE = 0x0100_0000
MIX_SHARED_PAGES = 48
MIX_ROUNDS = 4


#: Frame budget the mix's arbiter hands out (the three spaces want
#: ~96 pages, so the balancer visibly squeezes the pager's stream).
MIX_BUDGET = 80
MIX_FLOOR = 4


def build_mix() -> dict:
    """The ``repro.mix`` scenario: three address spaces with distinct
    memory personalities on one SUN-3/60-calibrated PVM nucleus,
    arbitrated by a working-set balancer so the grant/WSS columns are
    live."""
    from repro.bench.costmodel import SUN360_TLB_ENTRIES, chorus_nucleus
    from repro.gmi.types import Protection
    from repro.pressure import (
        AdmissionController, BalancerDaemon, FrameArbiter,
        WorkingSetEstimator,
    )
    from repro.segments.mem_mapper import MemoryMapper

    arbiter = FrameArbiter(
        global_budget=MIX_BUDGET, floor_pages=MIX_FLOOR,
        ws=WorkingSetEstimator(),
        qos=AdmissionController(window_ms=10.0, fault_limit=64),
    )
    nucleus = chorus_nucleus(tlb_entries=SUN360_TLB_ENTRIES,
                             arbiter=arbiter)
    vm = nucleus.vm
    page = vm.page_size

    # A disk-like mapped segment (every cold read is a priced pullIn
    # upcall — the stalls the PSI windows measure).
    mapper = MemoryMapper()
    nucleus.register_mapper(mapper)
    data = b"".join(bytes([index % 251 + 1]) * page
                    for index in range(MIX_SHARED_PAGES))
    shared = nucleus.segment_manager.bind(mapper.register(data))

    from repro import ZeroFillProvider

    state = {"nucleus": nucleus, "vm": vm, "clock": nucleus.clock,
             "page": page, "shared": shared, "round": 0,
             "daemon": BalancerDaemon(vm)}
    for name, pages in (("make", 16), ("editor", 8), ("pager", 24)):
        heap = vm.cache_create(ZeroFillProvider(), name=f"{name}.heap")
        context = vm.context_create(name)
        context.region_create(MIX_BASE, pages * page,
                              protection=Protection.RW,
                              cache=heap, offset=0)
        state[name] = context
        state[f"{name}.heap"] = heap
    # make also maps the shared segment read-write below its heap.
    state["make"].region_create(MIX_BASE + 0x0100_0000,
                                MIX_SHARED_PAGES * page,
                                protection=Protection.RW,
                                cache=shared, offset=0)
    return state


def mix_round(state: dict) -> None:
    """One round of the mix (deterministic; rounds differ by stride)."""
    vm, page = state["vm"], state["page"]
    round_no = state["round"]
    state["round"] = round_no + 1
    make, editor, pager = state["make"], state["editor"], state["pager"]

    # pager: dirty a stripe of its heap, then squeeze residency —
    # evictions suffered land on whoever had frames mapped.
    pager.switch()
    for index in range(24):
        vm.user_write(pager, MIX_BASE + index * page,
                      bytes([round_no + 1]))
    vm.reclaim_frames(8)

    # editor: a couple of interactive touches.
    editor.switch()
    for index in range(4):
        vm.user_write(editor, MIX_BASE + ((index + round_no) % 8) * page,
                      bytes([index + 1]))

    # make: stream the shared segment (cold pulls round one, re-faults
    # after reclaim later) and scribble scratch output.  Runs last so
    # its pull stalls sit inside the trailing PSI windows at frame time.
    make.switch()
    for index in range(MIX_SHARED_PAGES):
        vm.user_read(make, MIX_BASE + 0x0100_0000 + index * page, 1)
    for index in range(16):
        vm.user_write(make, MIX_BASE + index * page, b"\x01")

    # The balancer re-splits the frame budget on what this round
    # demonstrated (one tick per frame, like a kernel daemon).
    daemon = state.get("daemon")
    if daemon is not None:
        daemon.tick()


def format_top(vm, start_ms: float = 0.0) -> str:
    """Render one frame: a PSI header plus the per-space table."""
    board = vm.pressure
    # Publishing refreshes the residency gauges the table reads.
    vm.metrics_snapshot()
    now = board.now()
    elapsed = max(now - start_ms, 1e-9)
    names: Dict[int, str] = {context.space: context.name
                             for context in vm.contexts()}
    arbiter = getattr(vm, "arbiter", None)
    arbitrated = arbiter is not None and arbiter.active
    lines = [
        f"repro top — virtual {now - start_ms:.3f} ms, "
        f"{len(board.accounts)} spaces",
        "psi memory  some "
        + " ".join(f"avg{int(window)}={board.some.avg(window, now):6.1%}"
                   for window in (10.0, 60.0, 300.0))
        + f"  total={board.some.total_ms:.3f}ms",
        "            full "
        + " ".join(f"avg{int(window)}={board.full.avg(window, now):6.1%}"
                   for window in (10.0, 60.0, 300.0))
        + f"  total={board.full.total_ms:.3f}ms",
    ]
    if arbitrated:
        lines.append(
            f"arbiter     budget={arbiter.global_budget} pages, "
            f"floor={arbiter.floor_pages}, "
            f"charged={sum(arbiter.charged.values())}, "
            f"refaults={arbiter.total_refaults}")
    header = (
        f"{'space':>5} {'name':<10} {'rss':>5} {'faults':>7} "
        f"{'pull_kb':>8} {'push_kb':>8} {'wait':>5} {'ev_c':>5} "
        f"{'ev_s':>5} {'io%':>6} {'stall%':>7}"
    )
    if arbitrated:
        header += f" {'grant':>6} {'wss':>6} {'thr_ms':>7}"
    lines.extend(["", header])
    accounts = sorted(board.accounts.values(),
                      key=lambda acct: acct.stall.total_ms, reverse=True)
    total_io = sum(acct.pull_bytes + acct.push_bytes
                   for acct in accounts) or 1
    for acct in accounts:
        faults = acct.faults_read + acct.faults_write
        io_share = (acct.pull_bytes + acct.push_bytes) / total_io
        line = (
            f"{acct.space:>5} {names.get(acct.space, '-')[:10]:<10} "
            f"{acct.resident_pages:>5} {faults:>7} "
            f"{acct.pull_bytes / KB:>8.1f} {acct.push_bytes / KB:>8.1f} "
            f"{acct.inflight_waits:>5} {acct.evictions_caused:>5} "
            f"{acct.evictions_suffered:>5} {io_share:>6.1%} "
            f"{acct.stall.total_ms / elapsed:>7.1%}")
        if arbitrated:
            ws = arbiter.ws
            wss = "-" if ws is None else f"{ws.wss(acct.space):.0f}"
            qos = arbiter.qos
            throttled = ("-" if qos is None
                         else f"{qos.backoff_of(acct.space):.1f}")
            line += (f" {arbiter.grant_of(acct.space):>6} {wss:>6} "
                     f"{throttled:>7}")
        lines.append(line)
    return "\n".join(lines)


def run_top(once: bool = False, frames: int = MIX_ROUNDS,
            interval: float = 0.0, out=None) -> int:
    """Drive the mix and print frames (the ``repro top`` entry point)."""
    import sys

    out = out if out is not None else sys.stdout
    state = build_mix()
    vm = state["vm"]
    start_ms = state["clock"].now()
    frame_texts: List[str] = []
    rounds = max(1, frames)
    for frame in range(rounds):
        mix_round(state)
        if not once:
            frame_texts.append(f"-- frame {frame + 1}/{rounds} --")
            frame_texts.append(format_top(vm, start_ms))
            print("\n".join(frame_texts[-2:]), file=out, flush=True)
            frame_texts.clear()
            if interval > 0 and frame + 1 < rounds:
                time.sleep(interval)
    if once:
        print(format_top(vm, start_ms), file=out)
    return 0
