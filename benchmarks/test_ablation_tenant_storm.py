"""Ablation A12: the tenant storm with the pressure arbiter on and off.

Pins every value EXPERIMENTS.md prints for A12 to its printed digits
(the virtual clock is deterministic), so the table cannot drift from
the code: arbitrated residency stays at the 960-page budget, no grant
falls to the 8-page floor, and the storm finishes in about half the
virtual time and PSI-full stall of the unarbitrated run.
"""

from repro.bench.experiments import tenant_storm_ablation
from repro.bench.tables import format_series

#: metric -> (unarbitrated, arbitrated), as EXPERIMENTS.md prints them;
#: None where the unarbitrated run does not track the value.
PRINTED = {
    "virtual_ms": (7702.95, 4165.41),
    "psi_full_total_ms": (7037.46, 3598.34),
    "resident_peak_pages": (1024, 960),
    "refaults": (None, 831),
    "min_grant_pages": (None, 15),
    "suspensions": (None, 2),
}


def test_tenant_storm_matches_experiments(benchmark, report):
    rows = benchmark.pedantic(tenant_storm_ablation, rounds=1, iterations=1)
    measured = {metric: tuple(round(rows[variant][metric], 2)
                              for variant in ("unarbitrated", "arbitrated"))
                for metric in PRINTED}
    report(format_series(
        "A12: tenant storm, arbiter off/on (virtual clock)",
        ("metric", "unarbitrated", "arbitrated"),
        [(metric, *values) for metric, values in measured.items()]))
    for metric, (unarbitrated, arbitrated) in PRINTED.items():
        assert measured[metric][1] == arbitrated, metric
        if unarbitrated is not None:
            assert measured[metric][0] == unarbitrated, metric
