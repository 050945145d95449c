"""End-to-end and per-layer benchmark of the ``repro`` VM library.

Run from the repository root::

    python perf/run.py                      # every workload, untraced
    python perf/run.py --trace              # every workload, traced
    python perf/run.py --workload make --seed 3 --seconds 10 --trace 0
    python perf/run.py --workload make --ops 200      # fixed op count
    python perf/run.py compare A.json ... --vs B.json ...

One workload runs per process, as a closed loop with one client.  An
untraced run prints every end-to-end metric; a traced run (``--trace``)
prints every per-layer metric and writes a Chrome trace.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 0 only when every check
passed.  ``--out FILE`` also writes the full record, host metadata and
detail included, for ``compare``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perf_out"
PINS = PERF / "pins.json"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 10.0

#: Set-ups per untraced run; ``setup_s`` takes their median.
SETUP_REPS = 5

#: Interleaved chunks of the registry on / off / traced comparison.
AB_CHUNKS = 16

#: Op exceptions printed in full before the rest are only counted.
MAX_TRACEBACKS = 3

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_STATS = {"calls": "count", "self_ms": "ms", "errors": "count",
               "us_per_op": "us"}

LAYER_EXTRAS = {
    "bench.self_ms": "ms",
    "bench.us_per_op": "us",
    "nucleus.segment_warm_ratio": "ratio",
    "pvm.faults": "count",
    "pvm.fault_us": "us",
    "pvm.copy_calls": "count",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.writeback_pages": "count",
    "segments.read_bytes": "B",
    "segments.write_bytes": "B",
    "pressure.refaults": "count",
    "pressure.suspensions": "count",
    "pressure.psi_full_ms": "ms",
    "hardware.tlb_hit_ratio": "ratio",
    "hardware.vbus_bulk_ratio": "ratio",
    "obs.overhead_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: Registry series the per-layer ratios and counts are read from.
_COUNTERS = ("fault.read", "fault.write", "cache.miss", "cache.evict",
             "cache.writeback", "tlb.hit", "tlb.miss", "vbus.fast",
             "vbus.fallback")
_GAUGES = ("ws.refaults", "throttle.suspensions",
           "psi.memory.full.total_ms")


def per_layer_units(layers) -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {f"{layer}.{stat}": unit
             for layer in layers for stat, unit in LAYER_STATS.items()}
    units.update(LAYER_EXTRAS)
    return units


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


# -- host metadata ---------------------------------------------------------

def _git_revision() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_meta(seed: int) -> dict:
    from repro.fastpath import get_numpy

    numpy = get_numpy()
    return {
        "python": platform.python_version(),
        "numpy": None if numpy is None else numpy.__version__,
        "vbus_backend": "python" if numpy is None else "numpy",
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_revision": _git_revision(),
        "seed": seed,
    }


# -- the closed loop -------------------------------------------------------

class Failures:
    """Counts failed checks; prints the first few op exceptions."""

    def __init__(self):
        self.count = 0
        self.printed = 0

    def issue(self, workload) -> bool:
        """Issue one op; a wrong output or an exception is a failure."""
        try:
            ok = workload.op()
        except Exception:
            ok = False
            if self.printed < MAX_TRACEBACKS:
                self.printed += 1
                traceback.print_exc(file=sys.stderr)
        if not ok:
            self.count += 1
        return ok


def _set_up(cls, seed: int, failures: Failures):
    """Build one system and run its warm-up; returns (workload, ops)."""
    workload = cls(seed)
    for _ in range(cls.WARMUP):
        failures.issue(workload)
    return workload, cls.WARMUP


def _timed_phase(workload, failures: Failures, seconds, ops,
                 tracer=None) -> dict:
    """Issue ops until *seconds* pass (or *ops* ops), then drain on the
    clock.  Returns op count, wall and drain time, per-op latencies,
    per-window times and virtual time."""
    gc.collect()
    clock = workload.clock
    virtual_start = clock.now()
    latencies = array("d")
    windows = array("d")
    window_ops = workload.WINDOW_OPS
    pin = None
    done = 0
    perf = time.perf_counter
    start = window_start = perf()
    deadline = start + seconds
    while True:
        if tracer is not None:
            tracer.op = done
        before = perf()
        failures.issue(workload)
        after = perf()
        latencies.append(after - before)
        done += 1
        if done % window_ops == 0:
            windows.append(after - window_start)
            window_start = after
        if done == workload.PIN_OPS:
            pin = clock.now() - virtual_start
        if ops is None:
            if after >= deadline:
                break
        elif done >= ops:
            break
    drain_start = perf()
    try:
        workload.drain()
    except Exception:
        failures.count += 1
        traceback.print_exc(file=sys.stderr)
    end = perf()
    return {"ops": done, "wall_s": end - start, "drain_s": end - drain_start,
            "latencies": latencies, "windows": windows,
            "virtual_ms": clock.now() - virtual_start, "pin_ms": pin}


def _throughput(phase: dict, window_ops: int) -> float:
    """Ops per second: the 90th-percentile window rate, with the drain
    time spread over every op.

    Other tenants of a shared host only ever slow a window down, so the
    fast windows follow the code's own speed where the mean follows the
    neighbours: on a 2-vCPU shared host the spread over ten seeds fell
    from 6-12% (mean) to 2-7% (90th percentile).  Runs with fewer than
    ten windows fall back to ops over wall time.
    """
    windows = phase["windows"]
    if len(windows) < 10:
        return phase["ops"] / phase["wall_s"]
    rate = statistics.quantiles([window_ops / w for w in windows], n=10)[8]
    return 1.0 / (1.0 / rate + phase["drain_s"] / phase["ops"])


def _verify(workload, failures: Failures) -> int:
    try:
        bad = workload.verify()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        bad = 1
    if bad:
        failures.count += 1
    return bad


def _check_pin(cls, seed: int, phase: dict, failures: Failures):
    """Compare the virtual time of the first timed ops with the value
    pinned for the pinned seed; returns the pinned value, if checked."""
    pins = json.loads(PINS.read_text())
    if seed != pins["seed"] or phase["pin_ms"] is None:
        return None
    pinned = pins[cls.name]
    if (pinned["ops"], pinned["virtual_ms"]) != (cls.PIN_OPS,
                                                 phase["pin_ms"]):
        failures.count += 1
        print(f"{cls.name}: virtual time of the first {cls.PIN_OPS} ops is "
              f"{phase['pin_ms']!r} ms; pinned: {pinned['virtual_ms']!r} ms "
              f"after {pinned['ops']} ops", file=sys.stderr)
    return pinned["virtual_ms"]


def _percentile(sorted_values, share: float) -> float:
    return sorted_values[min(len(sorted_values) - 1,
                             int(share * len(sorted_values)))]


def _snapshot(workload) -> dict:
    """The registry series and segment-manager counts the per-layer
    metrics are read from."""
    snap = workload.vm.metrics_snapshot()
    values = {name: snap["counters"].get(name, 0) for name in _COUNTERS}
    values.update((name, snap["gauges"].get(name, 0.0)) for name in _GAUGES)
    values.update(workload.nucleus.segment_manager.stats)
    return values


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def _overheads(cls, seed: int, ops: int, failures: Failures, tracer):
    """Wall time of the same *ops* ops on three systems built from one
    seed: registry on (the default), registry off, and traced.  They
    run in interleaved chunks, in rotating order, so the host's slow
    spells hit every side alike.  Returns the three times and the ops
    issued, warm-ups included."""
    on, warm_on = _set_up(cls, seed, failures)
    off, warm_off = _set_up(cls, seed, failures)
    off.vm.registry.enabled = False
    tracer.install()
    try:
        traced, warm_traced = _set_up(cls, seed, failures)
    finally:
        tracer.uninstall()
    sides = [on, off, traced]
    times = [0.0, 0.0, 0.0]
    chunk = max(1, ops // AB_CHUNKS)
    done = 0
    perf = time.perf_counter
    gc.collect()
    while done < ops:
        step = min(chunk, ops - done)
        turn = done // chunk
        for index in (turn % 3, (turn + 1) % 3, (turn + 2) % 3):
            if sides[index] is traced:
                tracer.install()
            try:
                start = perf()
                for _ in range(step):
                    failures.issue(sides[index])
                times[index] += perf() - start
            finally:
                if sides[index] is traced:
                    tracer.uninstall()
        done += step
    return times, warm_on + warm_off + warm_traced + 3 * ops


def _layer_metrics(tracer, phase, before, after, overheads) -> dict:
    from layertrace import LAYERS

    ops = phase["ops"]
    units = per_layer_units(LAYERS)
    values = {}
    for layer, totals in tracer.layer_totals().items():
        values[f"{layer}.calls"] = totals["calls"]
        values[f"{layer}.self_ms"] = totals["self_ns"] / 1e6
        values[f"{layer}.errors"] = totals["errors"]
        values[f"{layer}.us_per_op"] = totals["self_ns"] / 1e3 / ops
    bench_ns = phase["wall_s"] * 1e9 - tracer.top_ns
    values["bench.self_ms"] = bench_ns / 1e6
    values["bench.us_per_op"] = bench_ns / 1e3 / ops

    def delta(name):
        return after[name] - before[name]

    faults = delta("fault.read") + delta("fault.write")
    fault_entry = tracer.entry("PagedVirtualMemory.handle_fault")
    values["nucleus.segment_warm_ratio"] = _ratio(
        delta("warm_hits"), delta("warm_hits") + delta("cold_misses"))
    values["pvm.faults"] = faults
    values["pvm.fault_us"] = _ratio(fault_entry["incl_ns"] / 1e3,
                                    fault_entry["calls"])
    values["pvm.copy_calls"] = \
        tracer.entry("PagedVirtualMemory.cache_copy")["calls"]
    values["cache.hit_ratio"] = max(0.0, 1.0 - _ratio(delta("cache.miss"),
                                                      faults)) \
        if faults else 0.0
    values["cache.evictions"] = delta("cache.evict")
    values["cache.writeback_pages"] = delta("cache.writeback")
    values["segments.read_bytes"] = tracer.moved_bytes("read_range")
    values["segments.write_bytes"] = tracer.moved_bytes("write_range")
    values["pressure.refaults"] = delta("ws.refaults")
    values["pressure.suspensions"] = delta("throttle.suspensions")
    values["pressure.psi_full_ms"] = delta("psi.memory.full.total_ms")
    values["hardware.tlb_hit_ratio"] = _ratio(
        delta("tlb.hit"), delta("tlb.hit") + delta("tlb.miss"))
    values["hardware.vbus_bulk_ratio"] = _ratio(
        delta("vbus.fast"), delta("vbus.fast") + delta("vbus.fallback"))
    registry_on, registry_off, traced = overheads
    values["obs.overhead_ratio"] = _ratio(registry_on, registry_off)
    values["trace.overhead_ratio"] = _ratio(traced, registry_on)
    return {name: _metric(values[name], unit)
            for name, unit in units.items()}


def run_workload(name: str, seed: int = DEFAULT_SEED,
                 seconds: float = DEFAULT_SECONDS, ops=None,
                 trace: bool = False, setup_reps: int = SETUP_REPS,
                 import_s: float = 0.0, slowdown=None,
                 trace_file=None) -> dict:
    """Run one workload; returns its result record.

    Untraced, the record's metrics are the end-to-end metrics; traced,
    the per-layer metrics.  *ops* replaces the time limit with a fixed
    op count.  *slowdown* (traced runs only) slows named layers, see
    :class:`layertrace.Tracer`.
    """
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    failures = Failures()
    attempted = 0
    detail = {}
    if not trace:
        setup_runs = []
        workload = None
        for _ in range(setup_reps):
            workload = None
            gc.collect()
            start = time.perf_counter()
            workload, warm = _set_up(cls, seed, failures)
            setup_runs.append(time.perf_counter() - start)
            attempted += warm
        phase = _timed_phase(workload, failures, seconds, ops)
        latencies = sorted(phase["latencies"])
        metrics = {
            "ops_per_s": _throughput(phase, cls.WINDOW_OPS),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "setup_s": import_s + statistics.median(setup_runs),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {metric: _metric(metrics[metric], unit)
                   for metric, unit in END_TO_END.items()}
        detail.update(op_p99_ms=_percentile(latencies, 0.99) * 1e3,
                      mean_ops_per_s=phase["ops"] / phase["wall_s"],
                      drain_s=phase["drain_s"],
                      window_s=list(phase["windows"]),
                      import_s=import_s, setup_runs_s=setup_runs)
    else:
        from layertrace import Tracer

        tracer = Tracer(slowdown=slowdown)
        overheads, issued = _overheads(
            cls, seed, cls.AB_OPS if ops is None else min(cls.AB_OPS, ops),
            failures, tracer)
        attempted += issued
        gc.collect()
        tracer.install()
        try:
            workload, warm = _set_up(cls, seed, failures)
            attempted += warm
            tracer.reset()
            before = _snapshot(workload)
            phase = _timed_phase(workload, failures, seconds, ops,
                                 tracer=tracer)
            after = _snapshot(workload)
        finally:
            tracer.uninstall()
        metrics = _layer_metrics(tracer, phase, before, after, overheads)
        if trace_file is not None:
            trace_file.parent.mkdir(parents=True, exist_ok=True)
            trace_file.write_text(json.dumps(tracer.chrome_trace()))
            detail["chrome_trace"] = str(trace_file)
    attempted += phase["ops"]
    detail["verify_mismatches"] = _verify(workload, failures)
    pinned = _check_pin(cls, seed, phase, failures)
    detail.update(ops=phase["ops"], wall_s=phase["wall_s"],
                  latency_samples=len(phase["latencies"]),
                  virtual_ms=phase["virtual_ms"],
                  pin_ops=cls.PIN_OPS, pin_virtual_ms=phase["pin_ms"],
                  pinned_virtual_ms=pinned)
    return {"workload": name, "seed": seed, "trace": trace,
            "correct": failures.count == 0, "attempted": attempted,
            "failed": failures.count, "metrics": metrics,
            "detail": detail, "meta": host_meta(seed)}


# -- command line ----------------------------------------------------------

def _print_metrics(record: dict) -> None:
    for metric, entry in record["metrics"].items():
        print(f"{record['workload']:<10} {metric:<28} "
              f"{entry['value']:>16.6g} {entry['unit']}")


def _result_line(record: dict) -> str:
    return json.dumps({key: record[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def _write_document(path, records) -> None:
    document = {"meta": records[0]["meta"] if records else {},
                "results": records}
    Path(path).write_text(json.dumps(document, indent=1) + "\n")


def _import_repro() -> float:
    """Import the library from this checkout; returns the import time.
    Exits with status 2 when the checkout holds no library."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf/run.py: no repro package under {SRC}", file=sys.stderr)
        sys.exit(2)
    # One load thread: keep native thread pools from adding more.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import repro
    import workloads  # noqa: F401  (imports every layer the runs use)

    elapsed = time.perf_counter() - start
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perf/run.py: repro imported from {repro.__file__}, "
              f"not {SRC}", file=sys.stderr)
        sys.exit(2)
    return elapsed


def _run_all(args) -> int:
    """Each workload in its own fresh child process, one at a time."""
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    records = []
    for name in WORKLOADS:
        child_out = OUT_DIR / f"{name}.json"
        command = [sys.executable, str(PERF / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(child_out)]
        if args.ops is not None:
            command += ["--ops", str(args.ops)]
        completed = subprocess.run(command, stdout=subprocess.DEVNULL)
        if not child_out.exists():
            print(f"{name}: no result (exit status {completed.returncode})",
                  file=sys.stderr)
            return 1
        records.extend(json.loads(child_out.read_text())["results"])
        child_out.unlink()
    for record in records:
        _print_metrics(record)
    if args.out:
        _write_document(args.out, records)
    summary = {
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": {f"{record['workload']}.{metric}": entry
                    for record in records
                    for metric, entry in record["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def _parse(argv):
    parser = argparse.ArgumentParser(
        prog="perf/run.py",
        description="End-to-end and per-layer benchmark of repro. "
                    "'perf/run.py compare --help' compares result files.")
    parser.add_argument("--workload", help="run one workload (default: "
                        "each in turn, in its own process)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the timed phase")
    parser.add_argument("--ops", type=int,
                        help="run exactly this many timed ops instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced run, which "
                        "reports the per-layer metrics")
    parser.add_argument("--out", help="write the full result record(s) "
                        "as JSON to this file")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.ops is not None and args.ops < 1):
        parser.error("--seconds and --ops must be positive")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    args = _parse(argv)
    import_s = _import_repro()
    from workloads import WORKLOADS

    if args.workload is None:
        return _run_all(args)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    trace_file = (OUT_DIR / f"trace-{args.workload}.json" if args.trace
                  else None)
    record = run_workload(args.workload, args.seed, args.seconds, args.ops,
                          trace=bool(args.trace), import_s=import_s,
                          trace_file=trace_file)
    if args.out:
        _write_document(args.out, [record])
    _print_metrics(record)
    print(_result_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
