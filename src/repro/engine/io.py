"""Mapper I/O routing: every BaseMapper read and write, on the caller.

In the paper the PVM moves segment data only through the pullIn /
pushOut upcalls and leaves any asynchrony to the mapper.  The
:class:`IoScheduler` keeps that shape: it is the one place manager-side
code hands a mapper a segment read or write, and it runs both on the
submitting kernel thread, in program order.  A write's protocol half
(``BaseMapper.prepare_write``: request counting, the partial-page
read-modify-write and every virtual-clock charge) and its byte half
(``write_range``) have both finished when ``write_segment`` returns,
so a pushOut that returns has landed its bytes and a mapper error
surfaces to the caller that pushed.

Layer contract (rule 6): this module imports no backend and no
hardware; backends and the cache subsystem reach it only through the
``repro.engine`` facade (or the ``vm.io`` attribute, duck-typed).
"""

from __future__ import annotations


class IoScheduler:
    """Stateless synchronous router for mapper segment requests."""

    def read_segment(self, mapper, key: int, offset: int,
                     size: int) -> bytes:
        """Serve a segment read on the calling thread."""
        return mapper.read_segment(key, offset, size)

    def write_segment(self, mapper, key: int, offset: int, data) -> None:
        """Store *data* on the calling thread: ``prepare_write`` then
        ``write_range``, both done before this returns."""
        mapper.write_segment(key, offset, data)

    def flush(self) -> None:
        """Sync point: return once every submitted write has landed.

        Nothing is ever deferred, so this is a no-op; callers use it to
        mark where they rely on the bytes being stored."""
