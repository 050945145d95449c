"""Page-size genericity: nothing may assume 8 KB pages.

The GMI is architecture-independent; the PVM parameterizes on the MMU
page size.  The same scenarios must work at 4 KB (VAX/i386-like),
8 KB (Sun-3) and 16 KB.
"""

import pytest

from repro.gmi.interface import CopyPolicy
from repro.gmi.types import Protection
from repro.cache.provider import ZeroFillProvider
from repro.nucleus import Nucleus
from repro.pvm import PagedVirtualMemory
from repro.units import KB, MB

PAGE_SIZES = [4 * KB, 8 * KB, 16 * KB]


@pytest.fixture(params=PAGE_SIZES, ids=lambda s: f"{s // KB}KB")
def page_size(request):
    return request.param


class TestCoreAtEveryPageSize:
    def test_fault_and_copy_cycle(self, page_size):
        vm = PagedVirtualMemory(memory_size=2 * MB, page_size=page_size)
        ctx = vm.context_create()
        src = vm.cache_create(ZeroFillProvider(), name="src")
        ctx.region_create(0x100000, 4 * page_size, protection=Protection.RW,
                          cache=src, offset=0)
        for index in range(4):
            vm.user_write(ctx, 0x100000 + index * page_size,
                          bytes([index + 1]) * 8)
        dst = vm.cache_create(ZeroFillProvider(), name="dst")
        src.copy(0, dst, 0, 4 * page_size, policy=CopyPolicy.HISTORY)
        vm.user_write(ctx, 0x100000, b"mutated")
        assert dst.read(0, 2) == bytes([1, 1])
        assert dst.read(3 * page_size, 2) == bytes([4, 4])

    def test_per_page_copy(self, page_size):
        vm = PagedVirtualMemory(memory_size=2 * MB, page_size=page_size)
        src = vm.cache_create(ZeroFillProvider())
        src.write(0, b"per-page at any size")
        dst = vm.cache_create(ZeroFillProvider())
        src.copy(0, dst, 0, page_size, policy=CopyPolicy.PER_PAGE)
        src.write(0, b"gone")
        assert dst.read(0, 20) == b"per-page at any size"

    def test_eviction_roundtrip(self, page_size):
        vm = PagedVirtualMemory(memory_size=8 * page_size,
                                page_size=page_size)
        cache = vm.cache_create(ZeroFillProvider())
        for index in range(16):
            cache.write(index * page_size, bytes([index + 1]) * 4)
        for index in range(16):
            assert cache.read(index * page_size, 4) == \
                bytes([index + 1]) * 4

    def test_nucleus_stack(self, page_size):
        nucleus = Nucleus(memory_size=2 * MB, page_size=page_size)
        actor = nucleus.create_actor()
        nucleus.rgn_allocate(actor, 3 * page_size, address=0x100000)
        actor.write(0x100000 + page_size, b"sized right")
        other = nucleus.create_actor()
        nucleus.rgn_init_from_actor(other, actor, 0x100000,
                                    address=0x100000)
        actor.write(0x100000 + page_size, b"changed now")
        assert other.read(0x100000 + page_size, 11) == b"sized right"

    def test_ipc_transit_alignment_follows_page_size(self, page_size):
        nucleus = Nucleus(memory_size=2 * MB, page_size=page_size)
        from repro.cache.provider import ZeroFillProvider as ZFP
        src = nucleus.vm.cache_create(ZFP())
        src.write(0, b"x" * page_size)
        nucleus.ipc.create_port("p")
        nucleus.ipc.send("p", src_cache=src, src_offset=0, size=page_size)
        message = nucleus.ipc.receive("p")
        assert message.size == page_size


class TestMismatchRejected:
    def test_mmu_memory_page_size_mismatch(self):
        from repro.errors import InvalidOperation
        from repro.hardware.paged_mmu import PagedMMU
        with pytest.raises(InvalidOperation):
            PagedVirtualMemory(memory_size=1 * MB, page_size=8 * KB,
                               mmu=PagedMMU(page_size=4 * KB))
