#!/usr/bin/env python3
"""Quickstart: the GMI in five minutes.

Builds a PVM over simulated hardware, maps a segment into an address
space, demand-faults pages in, makes a deferred copy with a history
object, and shows the mechanism event counts the virtual clock
recorded along the way.

Run:  python examples/quickstart.py
"""

from repro.gmi.interface import CopyPolicy
from repro.gmi.types import Protection
from repro.cache.provider import ZeroFillProvider
from repro.pvm import PagedVirtualMemory
from repro.units import KB, MB

PAGE = 8 * KB


def main():
    # A memory manager over 8 MB of simulated RAM (8 KB pages, like
    # the paper's Sun-3/60).
    pvm = PagedVirtualMemory(memory_size=8 * MB)

    # --- contexts and regions (Table 2) -------------------------------------
    context = pvm.context_create("demo")
    data = pvm.cache_create(ZeroFillProvider(), name="data-segment")
    region = context.region_create(0x100000, 64 * KB,
                                   protection=Protection.RW, cache=data)
    print(f"mapped {region.size // KB} KB at {region.address:#x}")

    # Touch two pages: demand-allocation of zero-filled memory.
    pvm.user_write(context, 0x100000, b"hello, Chorus")
    pvm.user_write(context, 0x100000 + 3 * PAGE, b"sparse page")
    print("resident pages after two touches:",
          region.status().resident_pages)

    # The same cache serves explicit I/O — no dual caching.
    print("read through the cache:", data.read(0, 13))

    # --- deferred copy with a history object (section 4.2) --------------------
    copy = pvm.cache_create(ZeroFillProvider(), name="copy")
    data.copy(0, copy, 0, 64 * KB, policy=CopyPolicy.HISTORY)
    print("\nafter copy: history object of data-segment is",
          data.history.name)

    # Writing the source pushes the original into the history object...
    pvm.user_write(context, 0x100000, b"HELLO, chorus")
    print("source now reads:   ", data.read(0, 13))
    print("copy still reads:   ", copy.read(0, 13))
    # ...and the copy holds exactly one private page (the pre-image).
    print("private pages in copy:", len(copy.pages))

    # --- what the machinery did ------------------------------------------------
    print("\nmechanism event counts:")
    for event, count in sorted(pvm.clock.snapshot().items()):
        print(f"  {event:28s} {count}")


if __name__ == "__main__":
    main()
