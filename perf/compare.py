"""Compare two sets of benchmark result files.

``python perf/run.py compare BASE.json ... --vs NEW.json ...``

For every workload and end-to-end metric it reports each side's median
and quartiles, the share of (base, new) pairs the new side wins, and a
verdict by the metric's bound from ``BENCHMARK.json``:

* ``unresolved`` — the base runs spread (quartile distance over the
  median) wider than the bound, and not every new run beats every base
  run;
* ``regressed`` — the new median is worse than the base median by more
  than the bound;
* ``ok`` — otherwise.

``gain`` is ``yes`` only when a gain could be claimed: at least ten
pairs, the new side wins at least nine tenths of them (ties count for
neither), and the medians differ by more than the base quartile
distance.  When both sides hold traced runs, it also reports each
layer's self time per op and share of the traced time, and names the
layer whose share moved most.  The exit status is 1 when any metric
regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Minimum pairs, and pairs won, before a gain may be claimed.
GAIN_PAIRS = 10
GAIN_WINS = 0.9


def load_records(paths) -> list:
    """Every result record in the given ``--out`` files."""
    records = []
    for path in paths:
        records.extend(json.loads(Path(path).read_text())["results"])
    return records


def quartiles(values):
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _values(records, workload, metric):
    return [record["metrics"][metric]["value"] for record in records
            if record["workload"] == workload
            and metric in record["metrics"]]


def _shares(records, workload, spec) -> dict:
    """Median share of the traced wall time per layer (``bench``
    included).  A host that runs slower moves every layer's self time
    but no layer's share, so shares name the layer that changed."""
    layers = [m["name"][:-len(".self_ms")] for m in spec["per_layer"]
              if m["name"].endswith(".self_ms")]
    per_run = []
    for record in records:
        metrics = record["metrics"]
        if record["workload"] != workload or "bench.self_ms" not in metrics:
            continue
        total = sum(metrics[f"{layer}.self_ms"]["value"] for layer in layers)
        if total:
            per_run.append({layer: metrics[f"{layer}.self_ms"]["value"]
                            / total for layer in layers})
    if not per_run:
        return {}
    return {layer: statistics.median(run[layer] for run in per_run)
            for layer in layers}


def compare_metric(base, new, better: str, bound: float) -> dict:
    """Verdict for one metric from its base and new values."""
    sign = 1.0 if better == "higher" else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    new_q1, new_median, new_q3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    win_share = wins / len(pairs)
    # Positive: the new median is worse, as a share of the base median.
    worse = sign * (base_median - new_median) / base_median
    spread = (base_q3 - base_q1) / base_median
    every_run_better = (min(new) > max(base) if better == "higher"
                        else max(new) < min(base))
    if spread > bound and not every_run_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    else:
        verdict = "ok"
    gain = (len(pairs) >= GAIN_PAIRS and win_share >= GAIN_WINS
            and sign * (new_median - base_median) > base_q3 - base_q1)
    return {"base": (base_q1, base_median, base_q3),
            "new": (new_q1, new_median, new_q3),
            "change": (new_median - base_median) / base_median,
            "spread": spread, "pairs": len(pairs),
            "win_share": win_share, "verdict": verdict, "gain": gain}


def compare(base_records, new_records, spec) -> dict:
    """The full report: end-to-end rows and, for traced runs, layer
    rows plus the layer that moved most per workload."""
    workloads = [w["name"] for w in spec["workloads"]]
    rows = []
    for workload in workloads:
        for metric in spec["end_to_end"]:
            base = _values(base_records, workload, metric["name"])
            new = _values(new_records, workload, metric["name"])
            if not base or not new:
                continue
            row = compare_metric(base, new, metric["better"],
                                 metric["bound"])
            row.update(workload=workload, metric=metric["name"],
                       unit=metric["unit"], bound=metric["bound"])
            rows.append(row)
    layers = {}
    for workload in workloads:
        base_shares = _shares(base_records, workload, spec)
        new_shares = _shares(new_records, workload, spec)
        moved = []
        for layer in base_shares.keys() & new_shares.keys():
            base_us = statistics.median(
                _values(base_records, workload, f"{layer}.us_per_op"))
            new_us = statistics.median(
                _values(new_records, workload, f"{layer}.us_per_op"))
            moved.append({"layer": layer, "base_us": base_us,
                          "new_us": new_us, "delta_us": new_us - base_us,
                          "base_share": base_shares[layer],
                          "new_share": new_shares[layer]})
        if moved:
            moved.sort(key=lambda row: -row["base_share"])
            most = max(moved, key=lambda row: abs(row["new_share"]
                                                  - row["base_share"]))
            layers[workload] = {"rows": moved, "moved_most": most["layer"]}
    return {"rows": rows, "layers": layers,
            "regressed": [row for row in rows
                          if row["verdict"] == "regressed"]}


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def format_report(report: dict) -> str:
    lines = []
    header = ("workload", "metric", "base q1/med/q3", "new q1/med/q3",
              "change", "bound", "wins", "verdict", "gain")
    table = [header]
    for row in report["rows"]:
        table.append((
            row["workload"], f"{row['metric']} [{row['unit']}]",
            "/".join(_fmt(v) for v in row["base"]),
            "/".join(_fmt(v) for v in row["new"]),
            f"{row['change'] * 100:+.1f}%", f"{row['bound'] * 100:.0f}%",
            f"{row['win_share'] * 100:.0f}% of {row['pairs']}",
            row["verdict"], "yes" if row["gain"] else "no"))
    if len(table) > 1:
        widths = [max(len(line[col]) for line in table)
                  for col in range(len(header))]
        for line in table:
            lines.append("  ".join(cell.ljust(width)
                                   for cell, width in zip(line, widths)))
    for workload, entry in report["layers"].items():
        lines.append("")
        lines.append(f"{workload}: self time per op by layer "
                     f"(base -> new us, delta; share of traced time)")
        for row in entry["rows"]:
            lines.append(
                f"  {row['layer']:<10} {row['base_us']:>12.3f} -> "
                f"{row['new_us']:>12.3f}  {row['delta_us']:+10.3f}   "
                f"{row['base_share'] * 100:5.1f}% -> "
                f"{row['new_share'] * 100:5.1f}%")
        lines.append(f"  moved most: {entry['moved_most']}")
    lines.append("")
    lines.append(f"REGRESSED: {len(report['regressed'])} metric(s)"
                 if report["regressed"] else "no metric regressed")
    return "\n".join(lines)


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="perf/run.py compare",
        description="Compare base result files with new ones.")
    parser.add_argument("base", nargs="+", help="base --out files")
    parser.add_argument("--vs", nargs="+", required=True, dest="new",
                        help="new --out files")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    report = compare(load_records(args.base), load_records(args.new), spec)
    print(format_report(report))
    return 1 if report["regressed"] else 0
