"""Command-line interface: ``python -m repro <command>``.

Commands
--------
tables    regenerate Tables 6 and 7 plus the 5.3.2 derived metrics
loc       print the Table 5 component-size analogue
figure3   replay the Figure 3 scenarios with live tree rendering
info      one-paragraph summary of the reproduction and its versions
obs-dump  run a small workload and emit a JSON metrics snapshot
          (optionally a named bench cell, with Chrome-trace and
          collapsed-stack exports)
top       run the multi-space pressure mix and render per-space
          RSS / fault / stall tables under a PSI header
layers    verify the layer contract (docs/ARCHITECTURE.md import rules)
verify    layers + obs-schema validation + the exact cell virtual-time
          golden in one command (the pre-merge check)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def cmd_tables(_args) -> int:
    from repro.bench.experiments import (
        cow_table, derived_metrics, zero_fill_table,
    )
    from repro.bench.paper_values import (
        PAPER_TABLE6_CHORUS, PAPER_TABLE6_MACH,
        PAPER_TABLE7_CHORUS, PAPER_TABLE7_MACH,
    )
    from repro.bench.tables import format_grid, format_series

    chorus6 = zero_fill_table("chorus")
    print(format_grid("Table 6 / Chorus: zero-filled allocation "
                      "(virtual ms, paper in parens)",
                      chorus6, PAPER_TABLE6_CHORUS))
    print()
    print(format_grid("Table 6 / Mach", zero_fill_table("mach"),
                      PAPER_TABLE6_MACH))
    print()
    chorus7 = cow_table("chorus")
    print(format_grid("Table 7 / Chorus: copy-on-write",
                      chorus7, PAPER_TABLE7_CHORUS))
    print()
    print(format_grid("Table 7 / Mach", cow_table("mach"),
                      PAPER_TABLE7_MACH))
    print()
    metrics = derived_metrics(chorus6, chorus7)
    rows = [(key, round(value, 4)) for key, value in metrics.items()]
    print(format_series("Section 5.3.2 derived metrics",
                        ("quantity", "measured"), rows))
    return 0


def cmd_loc(_args) -> int:
    from repro.bench.loc import component_sizes, machine_dependent_fraction
    from repro.bench.tables import format_series

    print(format_series("Component sizes (Python lines)",
                        ("component", "lines"), component_sizes()))
    fraction = machine_dependent_fraction()
    print(f"\nmachine-dependent share of the PVM: {fraction:.1%}")
    return 0


def cmd_figure3(_args) -> int:
    from repro import CopyPolicy, PagedVirtualMemory, ZeroFillProvider
    from repro.tools import render_cache_tree
    from repro.units import MB

    vm = PagedVirtualMemory(memory_size=8 * MB)
    page = vm.page_size
    src = vm.cache_create(ZeroFillProvider(), name="src")
    for index in range(4):
        src.write(index * page, bytes([index + 1]) * 8)
    steps = []
    cpy1 = vm.cache_create(ZeroFillProvider(), name="cpy1")
    src.copy(0, cpy1, 0, 4 * page, policy=CopyPolicy.HISTORY)
    steps.append("3.a: first copy")
    src.write(page, b"2'")
    steps.append("source write: pre-image pushed")
    cpy2 = vm.cache_create(ZeroFillProvider(), name="cpy2")
    src.copy(0, cpy2, 0, 4 * page, policy=CopyPolicy.HISTORY)
    steps.append("3.c: working object spliced")
    cpy3 = vm.cache_create(ZeroFillProvider(), name="cpy3")
    src.copy(0, cpy3, 0, 4 * page, policy=CopyPolicy.HISTORY)
    steps.append("3.d: second working object")
    print(f"after: {'; '.join(steps)}\n")
    print(render_cache_tree(src))
    return 0


def cmd_info(_args) -> int:
    import repro
    managers = ["pvm", "mach-shadow", "eager", "minimal-rt"]
    print(
        f"repro {repro.__version__} — reproduction of 'Generic Virtual "
        "Memory Management for Operating System Kernels' (SOSP 1989).\n"
        f"memory managers: {', '.join(managers)}\n"
        "MMU ports: paged (two-level), inverted (hashed), segmented "
        "(descriptor+paged)\n"
        "see README.md, DESIGN.md, EXPERIMENTS.md, docs/PAPER_MAP.md"
    )
    return 0


def _obs_canonical(vm) -> None:
    """Exercise every observable mechanism once (the default obs-dump
    workload; unchanged across releases)."""
    from repro import CopyPolicy, Protection, ZeroFillProvider

    page = vm.page_size

    # Zero-fill faults: map an anonymous segment and touch it.
    cache = vm.cache_create(ZeroFillProvider(), name="obs.anon")
    context = vm.context_create("obs")
    context.region_create(0x40000, 4 * page, protection=Protection.RW,
                          cache=cache, offset=0)
    context.switch()
    for index in range(4):
        vm.user_write(context, 0x40000 + index * page,
                      bytes([index + 1]))

    # A deferred copy plus a write: COW machinery and, on the PVM,
    # history-tree traffic.
    copy = vm.cache_create(ZeroFillProvider(), name="obs.copy")
    cache.copy(0, copy, 0, 4 * page, policy=CopyPolicy.HISTORY)
    vm.user_write(context, 0x40000, b"!")
    copy.read(0, 8)
    # Read an offset the copy never owned: resolves up the history
    # tree, sampling the history.depth histogram.
    copy.read(page, 8)


def cmd_obs_dump(args) -> int:
    """Run a workload with a span sink attached, dump the registry;
    optionally export the trace as Chrome-trace JSON / collapsed
    stacks."""
    import json

    from repro import (
        MachVirtualMemory, PagedVirtualMemory, RealTimeVirtualMemory,
    )
    from repro.obs import (
        RingBufferSink, write_chrome_trace, write_collapsed_stacks,
    )
    from repro.units import MB

    if args.workload:
        from repro.workloads.cells import WORKLOADS
        workload = WORKLOADS.get(args.workload)
        if workload is None:
            print(f"unknown workload {args.workload!r} "
                  f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
            return 2
        if args.backend not in workload.backends:
            print(f"workload {args.workload!r} does not run on "
                  f"{args.backend!r} (runs on: "
                  f"{', '.join(workload.backends)})", file=sys.stderr)
            return 2
        # Attach the sink between setup and body, so the trace covers
        # exactly the measured mechanism.
        state = workload.setup(args.backend)
        vm = state["vm"]
        sink = RingBufferSink(capacity=4096)
        vm.probe.set_sink(sink)
        workload.body(state)
    else:
        backend = {
            "pvm": PagedVirtualMemory,
            "mach": MachVirtualMemory,
            "minimal": RealTimeVirtualMemory,
        }[args.backend]
        vm = backend(memory_size=8 * MB)
        sink = RingBufferSink(capacity=4096)
        vm.probe.set_sink(sink)
        _obs_canonical(vm)

    snapshot = vm.metrics_snapshot()
    print(json.dumps(snapshot, indent=2, sort_keys=True))
    board = getattr(vm, "pressure", None)
    if board is not None and board.accounts:
        # A human-readable pressure digest on stderr (stdout stays
        # parseable JSON).
        now = board.now()
        print(f"psi.memory.some avg10={board.some.avg(10.0, now):.1%} "
              f"total={board.some.total_ms:.3f}ms over "
              f"{len(board.accounts)} space(s)", file=sys.stderr)
    if args.trace_out:
        write_chrome_trace(sink.spans, args.trace_out)
        print(f"wrote {len(sink.spans)} spans to {args.trace_out}",
              file=sys.stderr)
    if args.stacks_out:
        write_collapsed_stacks(sink.spans, args.stacks_out)
        print(f"wrote collapsed stacks to {args.stacks_out}",
              file=sys.stderr)
    return 0


def cmd_top(args) -> int:
    """Run the pressure mix and render per-space tables."""
    from repro.tools.top import run_top

    return run_top(once=args.once, frames=args.frames,
                   interval=args.interval)


def cmd_layers(_args) -> int:
    """Check the import rules of the layer stack (engine / backends /
    hardware layer / MMU ports)."""
    import pathlib

    import repro
    from repro.tools.check_layers import main as check_main

    src_root = pathlib.Path(repro.__file__).resolve().parents[1]
    return check_main([str(src_root)])


def cmd_verify(args) -> int:
    """One-stop gate: layer contract + obs-schema consistency + live
    snapshot validation + the exact cell virtual-time golden."""
    import json
    import pathlib

    import repro
    from repro import (
        MachVirtualMemory, PagedVirtualMemory, RealTimeVirtualMemory,
    )
    from repro.obs.schema import SNAPSHOT_SCHEMA, validate
    from repro.units import MB
    from repro.workloads.cells import cell_ids, golden_diff, measure

    failures: List[str] = []

    print("== layer contract ==")
    if cmd_layers(args) != 0:
        failures.append("layer contract")

    print("== obs schema ==")
    repo_root = pathlib.Path(repro.__file__).resolve().parents[2]
    schema_file = repo_root / "docs" / "obs_snapshot.schema.json"
    if not schema_file.exists():
        schema_file = pathlib.Path("docs/obs_snapshot.schema.json")
    if schema_file.exists():
        checked_in = json.loads(schema_file.read_text())
        if checked_in == json.loads(json.dumps(SNAPSHOT_SCHEMA)):
            print(f"checked-in schema matches source ({schema_file})")
        else:
            print(f"MISMATCH: {schema_file} differs from "
                  "repro.obs.schema.SNAPSHOT_SCHEMA")
            failures.append("obs schema drift")
    else:
        print("checked-in schema not found; skipping the drift check")
    for name, backend in (("pvm", PagedVirtualMemory),
                          ("mach", MachVirtualMemory),
                          ("minimal", RealTimeVirtualMemory)):
        vm = backend(memory_size=8 * MB)
        _obs_canonical(vm)
        errors = validate(vm.metrics_snapshot(), SNAPSHOT_SCHEMA)
        if errors:
            print(f"{name}: snapshot INVALID: {'; '.join(errors)}")
            failures.append(f"{name} snapshot schema")
        else:
            print(f"{name}: live snapshot validates")

    print("== cell golden ==")
    golden_file = repo_root / "tests" / "goldens" / "cell_virtual_time.json"
    if golden_file.exists():
        golden = json.loads(golden_file.read_text())
        measured = {cell: measure(*cell.split("/")) for cell in cell_ids()}
        diff = golden_diff(golden, measured)
        for cell, (expected, got) in diff.items():
            print(f"DRIFT {cell}: golden {expected}, measured {got}")
        if diff:
            failures.append("cell golden")
        else:
            print(f"{len(measured)} cells match {golden_file} exactly")
    else:
        print("checked-in cell golden not found; skipping the check")

    if failures:
        print(f"\nverify FAILED: {', '.join(failures)}")
        return 1
    print("\nverify ok: layers + obs schema + cell golden all pass")
    return 0


COMMANDS = {
    "tables": cmd_tables,
    "loc": cmd_loc,
    "figure3": cmd_figure3,
    "info": cmd_info,
    "obs-dump": cmd_obs_dump,
    "top": cmd_top,
    "layers": cmd_layers,
    "verify": cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Chorus GMI/PVM reproduction toolbox",
    )
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       metavar="command")
    for name in ("tables", "loc", "figure3", "info", "layers", "verify"):
        subparsers.add_parser(name)
    obs = subparsers.add_parser(
        "obs-dump",
        help="run a small workload, print a JSON metrics snapshot")
    obs.add_argument("--backend", choices=("pvm", "mach", "minimal"),
                     default="pvm",
                     help="memory manager to exercise (default: pvm)")
    obs.add_argument("--workload", default=None, metavar="NAME",
                     help="run a named bench cell instead of the "
                          "canonical obs scenario (see repro.workloads.cells)")
    obs.add_argument("--trace-out", default=None, metavar="FILE",
                     help="write the span buffer as Chrome-trace JSON")
    obs.add_argument("--stacks-out", default=None, metavar="FILE",
                     help="write the span buffer as collapsed stacks "
                          "(flamegraph input)")
    top = subparsers.add_parser(
        "top",
        help="run the multi-space pressure mix, render per-space "
             "RSS/fault/stall tables")
    top.add_argument("--once", action="store_true",
                     help="run the whole mix, print one final frame")
    top.add_argument("--frames", type=int, default=4,
                     help="mix rounds (one frame each; default: 4)")
    top.add_argument("--interval", type=float, default=0.0,
                     metavar="SECONDS",
                     help="wall-clock pause between frames (default: 0)")
    args = parser.parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":                      # pragma: no cover
    sys.exit(main())
