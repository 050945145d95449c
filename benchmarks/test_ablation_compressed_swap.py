"""Ablation A10: compressed in-memory swap vs disk swap.

External pagers mean swap policy is pluggable (section 3.3.3); this
prices the choice: under the same thrashing workload, a zram-like
compressed pager pays codec time per transfer while the disk pager
pays seek+transfer latency — an order of magnitude apart on 1989-class
hardware, which is exactly why compressed swap was proposed for
memory-starved machines.
"""

import pytest

from repro.bench import costmodel
from repro.bench.tables import format_series
from repro.gmi.types import AccessMode
from repro.cache.provider import SegmentProvider
from repro.kernel.clock import ClockRegion
from repro.segments.compressed import CompressedSwapProvider
from repro.segments.disk import SimulatedDisk
from repro.units import KB

PAGE = 8 * KB
RAM_PAGES = 12
WS_PAGES = 24


class DiskSwapProvider(SegmentProvider):
    """Zero-fill segments swapped to the simulated disk."""

    def __init__(self, disk: SimulatedDisk):
        self.disk = disk
        self._blocks = {}
        self._next = 0

    def pull_in(self, cache, offset, size, access_mode: AccessMode):
        block = self._blocks.get((id(cache), offset))
        if block is None:
            cache.fill_zero(offset, size)
        else:
            cache.fill_up(offset, self.disk.read_block(block)[:size])

    def push_out(self, cache, offset, size):
        key = (id(cache), offset)
        block = self._blocks.get(key)
        if block is None:
            block = self._blocks[key] = self._next
            self._next += 1
        self.disk.write_block(block, cache.copy_back(offset, size))

    def segment_create(self, cache):
        return f"disk-swap:{id(cache):x}"


def run(provider_factory, sweeps=3):
    nucleus = costmodel.chorus_nucleus(memory_size=RAM_PAGES * PAGE)
    provider = provider_factory(nucleus)
    cache = nucleus.vm.cache_create(provider)
    for index in range(WS_PAGES):
        nucleus.vm.cache_write(cache, index * PAGE,
                               (f"page {index} " * 64).encode()[:512])
    with ClockRegion(nucleus.clock) as timer:
        for _ in range(sweeps):
            for index in range(WS_PAGES):
                prefix = f"page {index} ".encode()
                assert nucleus.vm.cache_read(
                    cache, index * PAGE, len(prefix)) == prefix
    return timer.elapsed, provider


def test_compressed_vs_disk_swap(benchmark, report):
    disk_ms, _ = run(lambda nucleus: DiskSwapProvider(
        SimulatedDisk(PAGE, clock=nucleus.clock)))
    zram_ms, zram = run(lambda nucleus: CompressedSwapProvider(
        clock=nucleus.clock))
    benchmark(run, lambda nucleus: CompressedSwapProvider(
        clock=nucleus.clock), 1)
    report(format_series(
        f"A10: thrash sweeps (RAM={RAM_PAGES}p, WS={WS_PAGES}p), "
        "swap backend comparison",
        ("backend", "virtual ms", "notes"),
        [
            ("disk swap", round(disk_ms, 1), "seek+transfer per page"),
            ("compressed RAM swap", round(zram_ms, 1),
             f"ratio {zram.compression_ratio:.1f}x"),
        ]))
    # The codec is far cheaper than the disk at 1989 latencies.
    assert zram_ms < disk_ms / 3
    # And text-like pages compress several-fold.
    assert zram.compression_ratio > 3
