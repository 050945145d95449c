"""Golden-file lock on the virtual time of every bench cell.

A cell is one ``workload/backend/cluster`` triple of
:data:`repro.workloads.cells.WORKLOADS`, run at cluster ``off`` and
``adaptive``.  ``tests/goldens/cell_virtual_time.json`` records, per
cell, the body's exact virtual ms and its ``fault.read``,
``fault.write``, ``pull_in`` and ``push_out`` increments; every cell
must reproduce them **exactly** (``==`` on the floats, no tolerance),
so any refactor that adds, drops or reorders a charge fails on the
first cell it moves.  ``python -m repro verify`` runs the same check
through the same :func:`~repro.workloads.cells.golden_diff`.

If a deliberate mechanism change moves a cell, regenerate the file
with the snippet below and say which cells moved, and why, in the
commit message.

Regeneration::

    PYTHONPATH=src python - <<'EOF'
    import json
    from repro.workloads.cells import cell_ids, measure
    golden = {cell: measure(*cell.split("/")) for cell in cell_ids()}
    with open("tests/goldens/cell_virtual_time.json", "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\\n")
    EOF
"""

import dataclasses
import json
import pathlib

import pytest

from repro.kernel.clock import CostEvent
from repro.workloads.cells import (
    BACKENDS, WORKLOADS, cell_ids, golden_diff, measure,
)

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parents[1]
               / "goldens" / "cell_virtual_time.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("cell", cell_ids())
def test_cell_matches_golden(cell):
    measured = measure(*cell.split("/"))
    # Exact equality on purpose: see the module docstring.
    assert golden_diff({cell: GOLDEN.get(cell)}, {cell: measured}) == {}


def test_golden_covers_every_cell():
    """New workloads, backends or cluster settings need a
    regeneration; the file must not silently go stale."""
    assert set(GOLDEN) == set(cell_ids())


def test_clustering_is_invisible_in_every_cell():
    """Read-ahead replays what a one-page pull would charge and count
    (the arbiter's refault signal included), so the ``adaptive`` entry
    of every cell must equal its ``off`` entry."""
    moved = {cell for cell in GOLDEN if cell.endswith("/adaptive")
             and GOLDEN[cell] != GOLDEN[cell[:-len("adaptive")] + "off"]}
    assert moved == set()


def test_diff_reports_only_the_cell_with_an_extra_charge(monkeypatch):
    """One injected ``PAGE_PROTECT`` in one cell is caught, and
    blamed on that cell alone."""
    target = ("pageout", "pvm", "off")
    original = WORKLOADS["pageout"]

    def setup(backend, cluster=None):
        state = original.setup(backend, cluster)
        state["inject"] = (backend, cluster) == target[1:]
        return state

    def body(state):
        original.body(state)
        if state["inject"]:
            state["clock"].charge(CostEvent.PAGE_PROTECT)

    monkeypatch.setitem(WORKLOADS, "pageout", dataclasses.replace(
        original, setup=setup, body=body))
    cells = [cell for cell in cell_ids()
             if cell.split("/")[0] in ("zero_fill", "pageout")]
    measured = {cell: measure(*cell.split("/")) for cell in cells}
    expected = {cell: GOLDEN[cell] for cell in cells}
    assert list(golden_diff(expected, measured)) == ["/".join(target)]


def test_registry_covers_all_backends():
    covered = set()
    for workload in WORKLOADS.values():
        covered.update(workload.backends)
        assert set(workload.backends) <= set(BACKENDS)
    assert covered == set(BACKENDS)


def test_measure_rejects_unsupported_backend():
    with pytest.raises(ValueError):
        measure("dsm_ping_pong", "minimal", "off")


def test_labeled_series_roll_up_into_plain_counters():
    workload = WORKLOADS["zero_fill"]
    state = workload.setup("pvm", "off")
    workload.body(state)
    counters = state["vm"].metrics_snapshot()["counters"]
    assert counters["fault.write"] > 0
    assert counters["fault.write{backend=pvm}"] == counters["fault.write"]
