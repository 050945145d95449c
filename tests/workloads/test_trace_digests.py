"""Pinned content of the traces the goldens and the benchmark replay.

The columnar generators may change how they draw (see the
:mod:`repro.workloads.tracecomp` docstring), never what they draw: the
sha256 of each column's ``.vmtrace`` bytes (little-endian int64 pages,
one byte per write flag) must stay what the plain ``random()`` /
``randrange()`` loops produced, on either engine.

Covered: the three ``trace_replay_*`` golden cells (512 pages, 10^6
accesses, seed 11) and the ``replay`` benchmark workload's trace
(512 pages, 2^20 accesses, 8 phases of locality 96, seed 1).
"""

import hashlib

import pytest

from repro.fastpath import numpy_available
from repro.workloads import tracecomp
from repro.workloads.tracecomp import _column_bytes

ENGINES = [pytest.param(False, id="python")]
if numpy_available():
    ENGINES.insert(0, pytest.param(True, id="numpy"))

#: name -> (generator call, pages sha256, writes sha256)
PINNED = {
    "cell_zipf": (
        lambda engine: tracecomp.zipf_columns(
            512, 10**6, seed=11, use_numpy=engine),
        "f92f28f84d75bfb12c78eead3e95d759d38b0e544c96fc01f710a119c7904de9",
        "d3710862e63d58f1c19bfa1b0556026439989d202e6b827ed8d37085450a7371"),
    "cell_scan": (
        lambda engine: tracecomp.loop_columns(
            512, 10**6, write_ratio=0.1, seed=11, use_numpy=engine),
        "c338be568d63b2f6c4f31f4b839fe0a66ffe4c9a052fc3c096fe48e69ba4bc54",
        "8bb04db8cec877f0f463e0361f385ddc3066f8f818fadb47a0ffa699e79898ef"),
    "cell_phase": (
        lambda engine: tracecomp.phase_columns(
            512, 10**6, phases=8, locality=96, seed=11, use_numpy=engine),
        "ca96977c177ac8ca923715768b160e25b87eeee1b448d32f740e725171c73b01",
        "e08ec33bea01257e92398373ba8cbb0dfd118c773d5313293c2b9f8fd892107a"),
    "perf_replay": (
        lambda engine: tracecomp.phase_columns(
            512, 1 << 20, phases=8, locality=96, seed=1, use_numpy=engine),
        "245ac34402361e7b8defe174f67900f9e703d97aa1571ba5364a55aebc302d15",
        "d2619b06c31d86c6740dd319d9bcd93a80f065c911779375d9999b12cb37509f"),
}


@pytest.mark.parametrize("use_numpy", ENGINES)
@pytest.mark.parametrize("name", sorted(PINNED))
def test_trace_columns_match_their_pinned_digests(name, use_numpy):
    generate, pages_digest, writes_digest = PINNED[name]
    trace = generate(use_numpy)
    assert trace.backend == ("numpy" if use_numpy else "python")
    pages = hashlib.sha256(_column_bytes(trace.pages, "i64")).hexdigest()
    writes = hashlib.sha256(_column_bytes(trace.writes, "u8")).hexdigest()
    assert (pages, writes) == (pages_digest, writes_digest)
