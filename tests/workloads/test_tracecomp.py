"""Unit tests for the trace compiler and the ``.vmtrace`` format.

The columnar generators must be access-for-access identical to their
scalar twins in repro.workloads.traces (same seed, same RNG draw
order), and a save/load round trip must be exact on either engine —
numpy and the stdlib fallback read the same bytes.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import InvalidOperation
from repro.fastpath import numpy_available
from repro.workloads import tracecomp
from repro.workloads.tracecomp import (
    MAGIC, VERSION, CompiledTrace, compile_trace, load_trace, save_trace,
)
from repro.workloads.traces import (
    loop_trace, phase_trace, uniform_trace, zipf_trace,
)

ENGINES = [pytest.param(False, id="python")]
if numpy_available():
    ENGINES.insert(0, pytest.param(True, id="numpy"))

TWINS = [
    ("uniform", uniform_trace, tracecomp.uniform_columns, {}),
    ("zipf", zipf_trace, tracecomp.zipf_columns, {"skew": 1.4}),
    ("loop", loop_trace, tracecomp.loop_columns, {"write_ratio": 0.2}),
    ("phase", phase_trace, tracecomp.phase_columns,
     {"phases": 3, "locality": 5}),
]


class TestCompile:
    @pytest.mark.parametrize("use_numpy", ENGINES)
    def test_round_trips_a_scalar_trace(self, use_numpy):
        scalar = [(3, True), (0, False), (7, True), (3, False)]
        compiled = compile_trace(scalar, use_numpy=use_numpy)
        assert len(compiled) == 4
        assert compiled.to_accesses() == scalar
        assert list(compiled) == scalar
        assert compiled.backend == ("numpy" if use_numpy else "python")
        assert compiled.nbytes == 9 * 4

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(InvalidOperation, match="length mismatch"):
            CompiledTrace([1, 2, 3], b"\x00\x01")
        with pytest.raises(InvalidOperation, match="length mismatch"):
            CompiledTrace([1, 2], b"\x00\x01", spaces=[5])

    def test_spaces_column_raises_nbytes(self):
        compiled = CompiledTrace([1, 2], b"\x00\x01", spaces=[5, 5])
        assert compiled.nbytes == 17 * 2

    @pytest.mark.parametrize("use_numpy", ENGINES)
    @pytest.mark.parametrize("name,scalar_gen,column_gen,kwargs",
                             TWINS, ids=[t[0] for t in TWINS])
    def test_columnar_generators_match_their_scalar_twins(
            self, use_numpy, name, scalar_gen, column_gen, kwargs):
        scalar = scalar_gen(32, 500, seed=9, **kwargs)
        columns = column_gen(32, 500, seed=9, use_numpy=use_numpy,
                             **kwargs)
        assert columns.to_accesses() == scalar

    def test_engine_choice_never_changes_content(self):
        if not numpy_available():
            pytest.skip("needs numpy to compare engines")
        fast = tracecomp.zipf_columns(64, 300, seed=3, use_numpy=True)
        slow = tracecomp.zipf_columns(64, 300, seed=3, use_numpy=False)
        assert fast.to_accesses() == slow.to_accesses()


#: Chunk size of the numpy engine's bulk draws (tracecomp._CHUNK).
CHUNK = 1 << 16


class TestTwinProperty:
    """Every columnar generator equals its scalar twin, on any engine,
    across the shapes where drawing straight from the stream could
    drift: rejection-heavy localities, degenerate windows, ragged
    phases and chunk boundaries."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from([twin[0] for twin in TWINS]),
           pages=st.integers(min_value=1, max_value=600),
           length=st.integers(min_value=0, max_value=2500),
           locality=st.one_of(
               st.sampled_from([1, 2, 4, 8, 64, 128, 256, 512, 1024]),
               st.integers(min_value=1, max_value=700)),
           phases=st.integers(min_value=1, max_value=9),
           skew=st.sampled_from([0.7, 1.2, 2.0]),
           write_ratio=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           use_numpy=st.sampled_from(
               [None, False, True] if numpy_available() else [None, False]))
    # a power-of-two locality rejects half its draws
    @example(kind="phase", pages=512, length=5000, locality=64, phases=8,
             skew=1.2, write_ratio=0.3, seed=3, use_numpy=False)
    @example(kind="phase", pages=40, length=777, locality=1, phases=5,
             skew=1.2, write_ratio=0.5, seed=4, use_numpy=None)
    @example(kind="phase", pages=40, length=777, locality=40, phases=4,
             skew=1.2, write_ratio=0.5, seed=5, use_numpy=None)
    @example(kind="phase", pages=40, length=1001, locality=300, phases=7,
             skew=1.2, write_ratio=0.5, seed=6, use_numpy=None)
    # ragged lengths: the first length % phases phases run one longer
    @example(kind="phase", pages=64, length=10, locality=8, phases=4,
             skew=1.2, write_ratio=0.3, seed=1, use_numpy=False)
    @example(kind="phase", pages=64, length=10, locality=8, phases=4,
             skew=1.2, write_ratio=0.3, seed=1, use_numpy=True)
    @example(kind="phase", pages=64, length=1001, locality=8, phases=8,
             skew=1.2, write_ratio=0.3, seed=1, use_numpy=False)
    @example(kind="phase", pages=64, length=1001, locality=8, phases=8,
             skew=1.2, write_ratio=0.3, seed=1, use_numpy=True)
    @example(kind="zipf", pages=300, length=CHUNK + 1, locality=8,
             phases=4, skew=1.2, write_ratio=0.3, seed=7, use_numpy=True)
    @example(kind="zipf", pages=300, length=2 * CHUNK + 3, locality=8,
             phases=4, skew=0.7, write_ratio=0.3, seed=8, use_numpy=True)
    @example(kind="loop", pages=300, length=CHUNK, locality=8, phases=4,
             skew=1.2, write_ratio=0.4, seed=9, use_numpy=True)
    @example(kind="loop", pages=300, length=2 * CHUNK + 1, locality=8,
             phases=4, skew=1.2, write_ratio=0.4, seed=10, use_numpy=True)
    def test_columns_equal_scalar_twin(self, kind, pages, length, locality,
                                       phases, skew, write_ratio, seed,
                                       use_numpy):
        if use_numpy and not numpy_available():
            return
        _, scalar_gen, column_gen, _ = next(
            twin for twin in TWINS if twin[0] == kind)
        kwargs = {"write_ratio": write_ratio, "seed": seed}
        if kind == "phase":
            kwargs.update(phases=phases, locality=locality)
        elif kind == "zipf":
            kwargs["skew"] = skew
        columns = column_gen(pages, length, use_numpy=use_numpy, **kwargs)
        scalar = scalar_gen(pages, length, **kwargs)
        assert len(columns) == len(scalar) == length
        assert columns.to_accesses() == scalar


class TestVmtraceFormat:
    @pytest.mark.parametrize("use_numpy", ENGINES)
    def test_save_load_round_trip(self, tmp_path, use_numpy):
        trace = tracecomp.phase_columns(40, 200, seed=5,
                                        use_numpy=use_numpy)
        path = tmp_path / "t.vmtrace"
        size = save_trace(trace, str(path))
        assert size == path.stat().st_size == 16 + 9 * 200
        loaded = load_trace(str(path), use_numpy=use_numpy)
        assert loaded.to_accesses() == trace.to_accesses()

    def test_scalar_input_is_compiled_on_save(self, tmp_path):
        scalar = [(5, False), (1, True)]
        path = tmp_path / "t.vmtrace"
        save_trace(scalar, str(path))
        assert load_trace(str(path)).to_accesses() == scalar

    @pytest.mark.parametrize("use_numpy", ENGINES)
    def test_spaces_column_survives_the_disk(self, tmp_path, use_numpy):
        from array import array
        base = compile_trace([(1, True), (2, False)],
                             use_numpy=use_numpy)
        if use_numpy:
            import numpy
            spaces = numpy.array([7, 9], dtype=numpy.int64)
        else:
            spaces = array("q", [7, 9])
        trace = CompiledTrace(base.pages, base.writes, spaces=spaces,
                              backend=base.backend)
        path = tmp_path / "t.vmtrace"
        save_trace(trace, str(path))
        loaded = load_trace(str(path), use_numpy=use_numpy)
        assert list(loaded.spaces) == [7, 9]
        assert loaded.to_accesses() == [(1, True), (2, False)]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.vmtrace"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(InvalidOperation, match="bad magic"):
            load_trace(str(path))

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "t.vmtrace"
        from repro.workloads.tracecomp import _HEADER
        path.write_bytes(_HEADER.pack(MAGIC, VERSION + 1, 0, 0, 0))
        with pytest.raises(InvalidOperation, match="version"):
            load_trace(str(path))

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "t.vmtrace"
        trace = compile_trace([(1, False)] * 10, use_numpy=False)
        save_trace(trace, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(InvalidOperation, match="truncated"):
            load_trace(str(path))

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "t.vmtrace"
        path.write_bytes(MAGIC)
        with pytest.raises(InvalidOperation, match="truncated"):
            load_trace(str(path))

    def test_numpy_and_python_read_identically(self, tmp_path):
        if not numpy_available():
            pytest.skip("needs numpy to compare engines")
        path = tmp_path / "t.vmtrace"
        save_trace(tracecomp.uniform_columns(50, 100, seed=2), str(path))
        fast = load_trace(str(path), use_numpy=True)
        slow = load_trace(str(path), use_numpy=False)
        assert fast.backend == "numpy" and slow.backend == "python"
        assert fast.to_accesses() == slow.to_accesses()
