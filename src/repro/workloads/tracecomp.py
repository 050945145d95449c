"""Trace compiler: columnar access traces and the ``.vmtrace`` format.

The scalar trace representation — a Python list of ``(page, is_write)``
tuples — costs ~100 bytes per access and forces the replay loop to
unpack boxed objects one at a time.  This module *compiles* a trace
into parallel column arrays:

``pages``
    page index per access — ``array('q')`` (or ``numpy.int64``),
``writes``
    write flag per access — ``bytearray`` of 0/1 (or ``numpy.uint8``),
``spaces``
    optional hardware space id per access (``None`` for the common
    single-space trace).

Nine bytes per access, cache-friendly, and directly consumable by
:class:`~repro.hardware.vbus.VectorBus` which classifies whole columns
at once.  When numpy is importable (the ``fast`` extra) the columns
are ndarrays; otherwise the stdlib fallback is used — same trace
content either way, byte-for-byte (see :mod:`repro.fastpath` for the
gate, including the ``REPRO_NO_NUMPY`` override).

The columnar *generators* (``zipf_columns`` et al.) produce exactly
the access sequence of their scalar twins in
:mod:`repro.workloads.traces` for the same seed.  They consume the
same MT19937 word stream in the same order; only the way the words
are turned into columns differs:

* ``uniform_columns`` and ``phase_columns`` (both engines) inline
  CPython's ``randrange(n)``: ``k = n.bit_length()``, then
  ``getrandbits(k)`` until the result is below *n*.  Each
  ``getrandbits(k)`` with ``k <= 32`` takes one 32-bit word, which is
  what ``randrange`` takes, so the stream stays in step.  Values are
  appended straight into the ``array``/``bytearray`` columns through
  hoisted bound methods, with no per-access tuple or per-phase list.
  The rejection loop makes the word count per access variable, so
  these stay a Python loop.
* ``zipf_columns`` and ``loop_columns`` take a fixed number of words
  per access (zipf: two ``random()`` calls, four words; loop: one
  call, two words).  On the numpy engine they seed a
  ``numpy.random.MT19937`` from ``Random.getstate()`` (the 624 key
  words and the position), whose ``random_raw()`` words equal
  ``getrandbits(32)``, and decode ``random()`` in bulk as CPython
  does: ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``, which is exact
  in float64.  The zipf page is ``searchsorted(cdf, r, "left")``,
  the same first-index-at-or-above rule as ``bisect_left``, over the
  CDF built by the scalar twin's own Python loop so the floats match.
  Draws go in chunks of at most 65,536 accesses into preallocated
  columns, so temporaries stay small.  The stdlib engine of these two
  keeps the plain ``random()`` loop.

``save_trace`` / ``load_trace`` implement the compact on-disk
``.vmtrace`` format: a 16-byte versioned header followed by the raw
little-endian column blobs.  A 10⁷-access trace is ~90 MB as a tuple
list and ~86 KB/10⁶ … i.e. 9 bytes/access on disk.
"""

from __future__ import annotations

import random
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from struct import Struct
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import InvalidOperation
from repro.fastpath import get_numpy

Access = Tuple[int, bool]

#: ``.vmtrace`` header: magic, version, flags, reserved, access count.
MAGIC = b"VMTR"
VERSION = 1
_HEADER = Struct("<4sBBHQ")
_FLAG_SPACES = 0x01


@dataclass(eq=False)
class CompiledTrace:
    """Columnar trace: parallel ``pages``/``writes`` (and optionally
    ``spaces``) columns plus the backend tag (``"numpy"`` or
    ``"python"``).  Iterating yields scalar ``(page, is_write)``
    accesses, so a compiled trace can stand in anywhere a scalar trace
    is accepted (e.g. non-vectorized ``replay()``)."""

    pages: object
    writes: object
    spaces: object = None
    backend: str = "python"

    def __post_init__(self):
        if len(self.writes) != len(self.pages):
            raise InvalidOperation(
                f"column length mismatch: {len(self.pages)} pages, "
                f"{len(self.writes)} writes")
        if self.spaces is not None \
                and len(self.spaces) != len(self.pages):
            raise InvalidOperation(
                f"column length mismatch: {len(self.pages)} pages, "
                f"{len(self.spaces)} spaces")

    def __len__(self) -> int:
        return len(self.pages)

    def __iter__(self) -> Iterator[Access]:
        for page, flag in zip(self.pages, self.writes):
            yield int(page), bool(flag)

    def to_accesses(self) -> List[Access]:
        """The scalar twin: a plain list of ``(page, is_write)``."""
        return list(self)

    @property
    def nbytes(self) -> int:
        """Payload size of the columns (the ``.vmtrace`` body size)."""
        per = 9 if self.spaces is None else 17
        return per * len(self)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def _wrap(pages: array, writes: bytearray, spaces: Optional[array],
          use_numpy: Optional[bool]) -> CompiledTrace:
    """Package stdlib columns, promoting to numpy when gated in."""
    np = get_numpy(use_numpy)
    if np is None:
        return CompiledTrace(pages, writes, spaces, backend="python")
    return CompiledTrace(
        np.array(pages, dtype=np.int64),
        np.array(writes, dtype=np.uint8),
        None if spaces is None else np.array(spaces, dtype=np.int64),
        backend="numpy")


def compile_trace(trace: Iterable[Access],
                  use_numpy: Optional[bool] = None) -> CompiledTrace:
    """Lower a scalar ``(page, is_write)`` sequence into columns."""
    pages = array("q")
    writes = bytearray()
    for page, is_write in trace:
        pages.append(page)
        writes.append(1 if is_write else 0)
    return _wrap(pages, writes, None, use_numpy)


# ---------------------------------------------------------------------------
# Columnar generators (seed-compatible with repro.workloads.traces)
# ---------------------------------------------------------------------------

#: Accesses per bulk draw on the numpy engine: bounds the temporaries
#: (four 8-byte words per zipf access, so 2 MB of raw words).
_CHUNK = 1 << 16


def _draw_below(rng: random.Random, bound: int):
    """``(getrandbits, k)`` for drawing ``randrange(bound)`` inline:
    ``r = getrandbits(k)`` until ``r < bound``.  A bound below 1 raises
    exactly what ``randrange`` raises."""
    if bound < 1:
        rng.randrange(bound)
    return rng.getrandbits, bound.bit_length()


def uniform_columns(pages: int, length: int, write_ratio: float = 0.3,
                    seed: int = 1,
                    use_numpy: Optional[bool] = None) -> CompiledTrace:
    """Columnar twin of :func:`~repro.workloads.traces.uniform_trace`."""
    rng = random.Random(seed)
    rand = rng.random
    page_col = array("q")
    write_col = bytearray()
    if length > 0:
        getrandbits, bits = _draw_below(rng, pages)
        append_page, append_write = page_col.append, write_col.append
        for _ in range(length):
            page = getrandbits(bits)
            while page >= pages:
                page = getrandbits(bits)
            append_page(page)
            append_write(rand() < write_ratio)
    return _wrap(page_col, write_col, None, use_numpy)


def _zipf_cumulative(pages: int, skew: float) -> List[float]:
    """The zipf CDF, summed in the scalar twin's order so every float
    (and so every ``bisect_left`` result) matches it."""
    weights = [1.0 / ((rank + 1) ** skew) for rank in range(pages)]
    total = sum(weights)
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cumulative.append(running)
    return cumulative


def _mt19937(np, rng: random.Random):
    """A numpy bit generator continuing *rng*'s MT19937 stream: its
    ``random_raw()`` words are ``rng.getrandbits(32)``, word for word."""
    _, internal, _ = rng.getstate()
    bitgen = np.random.MT19937()
    bitgen.state = {"bit_generator": "MT19937",
                    "state": {"key": np.array(internal[:-1],
                                              dtype=np.uint32),
                              "pos": internal[-1]}}
    return bitgen


def _doubles(np, bitgen, count: int):
    """The next *count* ``rng.random()`` values, decoded from two words
    each exactly as CPython does."""
    words = bitgen.random_raw(2 * count)
    high = words[0::2] >> 5
    low = words[1::2] >> 6
    return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)


def zipf_columns(pages: int, length: int, skew: float = 1.2,
                 write_ratio: float = 0.3, seed: int = 1,
                 use_numpy: Optional[bool] = None) -> CompiledTrace:
    """Columnar twin of :func:`~repro.workloads.traces.zipf_trace`."""
    rng = random.Random(seed)
    cumulative = _zipf_cumulative(pages, skew)
    last = pages - 1
    np = get_numpy(use_numpy)
    if np is not None:
        bitgen = _mt19937(np, rng)
        cdf = np.array(cumulative, dtype=np.float64)
        page_col = np.empty(max(length, 0), dtype=np.int64)
        write_col = np.empty(max(length, 0), dtype=np.uint8)
        for start in range(0, length, _CHUNK):
            end = min(start + _CHUNK, length)
            draws = _doubles(np, bitgen, 2 * (end - start))
            np.minimum(np.searchsorted(cdf, draws[0::2], side="left"),
                       last, out=page_col[start:end])
            np.less(draws[1::2], write_ratio, out=write_col[start:end])
        return CompiledTrace(page_col, write_col, backend="numpy")
    rand = rng.random
    page_col = array("q")
    write_col = bytearray()
    for _ in range(length):
        page_col.append(min(bisect_left(cumulative, rand()), last))
        write_col.append(1 if rand() < write_ratio else 0)
    return _wrap(page_col, write_col, None, use_numpy)


def loop_columns(pages: int, length: int, write_ratio: float = 0.0,
                 seed: int = 1,
                 use_numpy: Optional[bool] = None) -> CompiledTrace:
    """Columnar twin of :func:`~repro.workloads.traces.loop_trace`."""
    rng = random.Random(seed)
    np = get_numpy(use_numpy)
    if np is not None and pages > 0:
        bitgen = _mt19937(np, rng)
        page_col = np.arange(max(length, 0), dtype=np.int64)
        page_col %= pages
        write_col = np.empty(max(length, 0), dtype=np.uint8)
        for start in range(0, length, _CHUNK):
            end = min(start + _CHUNK, length)
            np.less(_doubles(np, bitgen, end - start), write_ratio,
                    out=write_col[start:end])
        return CompiledTrace(page_col, write_col, backend="numpy")
    rand = rng.random
    page_col = array("q")
    write_col = bytearray()
    for index in range(length):
        page_col.append(index % pages)
        write_col.append(1 if rand() < write_ratio else 0)
    return _wrap(page_col, write_col, None, use_numpy)


def phase_columns(pages: int, length: int, phases: int = 4,
                  locality: int = 8, write_ratio: float = 0.3,
                  seed: int = 1,
                  use_numpy: Optional[bool] = None) -> CompiledTrace:
    """Columnar twin of :func:`~repro.workloads.traces.phase_trace`."""
    rng = random.Random(seed)
    rand = rng.random
    page_col = array("q")
    write_col = bytearray()
    append_page, append_write = page_col.append, write_col.append
    per_phase, longer = divmod(length, phases)
    last = pages - 1
    for phase in range(phases):
        base = rng.randrange(max(1, pages - locality))
        getrandbits, bits = _draw_below(rng, locality)
        for _ in range(per_phase + (phase < longer)):
            offset = getrandbits(bits)
            while offset >= locality:
                offset = getrandbits(bits)
            page = base + offset
            append_page(page if page < last else last)
            append_write(rand() < write_ratio)
    return _wrap(page_col, write_col, None, use_numpy)


# ---------------------------------------------------------------------------
# The .vmtrace on-disk format
# ---------------------------------------------------------------------------

def _column_bytes(column, kind: str) -> bytes:
    """Little-endian raw bytes of a column (i64 pages/spaces, u8
    writes), whatever backend holds it."""
    if kind == "u8":
        if isinstance(column, (bytes, bytearray)):
            return bytes(column)
        return column.astype("<u1").tobytes()  # numpy
    if isinstance(column, array):
        if sys.byteorder == "little":
            return column.tobytes()
        swapped = array("q", column)
        swapped.byteswap()
        return swapped.tobytes()
    return column.astype("<i8").tobytes()  # numpy


def save_trace(trace, path: str) -> int:
    """Write *trace* (compiled or scalar) as ``.vmtrace``; returns the
    file size in bytes."""
    if not isinstance(trace, CompiledTrace):
        trace = compile_trace(trace)
    count = len(trace)
    flags = _FLAG_SPACES if trace.spaces is not None else 0
    header = _HEADER.pack(MAGIC, VERSION, flags, 0, count)
    body = [
        _column_bytes(trace.pages, "i64"),
        _column_bytes(trace.writes, "u8"),
    ]
    if trace.spaces is not None:
        body.append(_column_bytes(trace.spaces, "i64"))
    with open(path, "wb") as sink:
        sink.write(header)
        for blob in body:
            sink.write(blob)
    return len(header) + sum(len(blob) for blob in body)


def _read_exact(source, size: int, what: str) -> bytes:
    blob = source.read(size)
    if len(blob) != size:
        raise InvalidOperation(
            f"truncated .vmtrace: wanted {size} bytes of {what}, "
            f"got {len(blob)}")
    return blob


def load_trace(path: str,
               use_numpy: Optional[bool] = None) -> CompiledTrace:
    """Load a ``.vmtrace`` file back into a :class:`CompiledTrace`."""
    with open(path, "rb") as source:
        header = _read_exact(source, _HEADER.size, "header")
        magic, version, flags, _, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise InvalidOperation(
                f"not a .vmtrace file: bad magic {magic!r}")
        if version != VERSION:
            raise InvalidOperation(
                f"unsupported .vmtrace version {version} "
                f"(this build reads version {VERSION})")
        page_blob = _read_exact(source, count * 8, "pages")
        write_blob = _read_exact(source, count, "writes")
        space_blob = (_read_exact(source, count * 8, "spaces")
                      if flags & _FLAG_SPACES else None)
    np = get_numpy(use_numpy)
    if np is not None:
        return CompiledTrace(
            np.frombuffer(page_blob, dtype="<i8").astype(np.int64),
            np.frombuffer(write_blob, dtype=np.uint8).copy(),
            None if space_blob is None else
            np.frombuffer(space_blob, dtype="<i8").astype(np.int64),
            backend="numpy")
    page_col = array("q")
    page_col.frombytes(page_blob)
    space_col = None
    if space_blob is not None:
        space_col = array("q")
        space_col.frombytes(space_blob)
    if sys.byteorder != "little":
        page_col.byteswap()
        if space_col is not None:
            space_col.byteswap()
    return CompiledTrace(page_col, bytearray(write_blob), space_col,
                         backend="python")
