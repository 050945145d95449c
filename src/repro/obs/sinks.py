"""Span sinks: where finished trace spans go.

A sink's ``enabled`` flag is the master tracing switch — the probe
checks it once per ``span()`` call and hands out the shared no-op span
when it is False, so the disabled path costs one attribute load and
no allocation.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, List

from repro.obs.span import Span


class SpanSink:
    """Base class: receives every finished span."""

    #: Probes consult this before creating a real span.
    enabled = True

    def emit(self, span: Span) -> None:
        """Accept one finished span."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (files); emit becomes a no-op."""


class NullSink(SpanSink):
    """The disabled sink: tracing off, spans never materialize."""

    enabled = False

    def emit(self, span: Span) -> None:  # pragma: no cover - never called
        pass


#: Shared default instance — probes without an explicit sink use this.
NULL_SINK = NullSink()


class RingBufferSink(SpanSink):
    """Keeps the most recent *capacity* spans in memory."""

    def __init__(self, capacity: int = 1024):
        self.spans: "deque[Span]" = deque(maxlen=capacity)

    def emit(self, span: Span) -> None:
        self.spans.append(span)

    def __len__(self) -> int:
        return len(self.spans)

    def by_name(self, name: str) -> List[Span]:
        """Buffered spans called *name*, oldest first."""
        return [span for span in self.spans if span.name == name]

    def clear(self) -> None:
        self.spans.clear()


class JsonlSink(SpanSink):
    """Writes one JSON object per finished span to a file."""

    def __init__(self, path_or_file):
        if hasattr(path_or_file, "write"):
            self._file = path_or_file
            self._owns_file = False
        else:
            self._file = open(path_or_file, "w", encoding="utf-8")
            self._owns_file = True

    def emit(self, span: Span) -> None:
        if self._file is None:
            return
        self._file.write(json.dumps(span.to_dict(), sort_keys=True))
        self._file.write("\n")

    def close(self) -> None:
        if self._file is not None:
            self._file.flush()
            if self._owns_file:
                self._file.close()
            self._file = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CallbackSink(SpanSink):
    """Invokes a user callback with every finished span."""

    def __init__(self, callback: Callable[[Span], None]):
        self.callback = callback

    def emit(self, span: Span) -> None:
        self.callback(span)
