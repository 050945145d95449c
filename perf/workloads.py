"""The four benchmark workloads, built only from the public ``repro`` API.

Every workload is a closed loop with one client: :meth:`op` issues one
operation, waits for it, checks its output and returns whether the
output was right.  Set-up is the constructor, which builds the system
and generates every input from the seed, plus ``WARMUP`` ops, so the
timed phase starts with caches filled.

Every tuning knob stays at its library default (``io_threads=0``,
clustering off, the default eviction policy, the metrics registry on).
Only the modelled machine is fixed: the SUN-3/60 cost model, 8 MB of
memory in 8 KB pages, a 64-entry TLB and the PVM.  A benchmark that set
knobs would break when a knob is deleted, and would measure a
configuration users do not get.
"""

from __future__ import annotations

import random

from repro.bench.costmodel import chorus_nucleus
from repro.hardware.vbus import VectorBus
from repro.mix.process_manager import ProcessManager
from repro.mix.program import Program, ProgramStore
from repro.pressure import (
    AdmissionController, BalancerDaemon, FrameArbiter, WorkingSetEstimator,
)
from repro.segments.disk import SimulatedDisk
from repro.segments.file_mapper import DiskMapper
from repro.units import IPC_MESSAGE_LIMIT, KB
from repro.workloads import tracecomp
from repro.workloads.make_workload import TOOLS

#: The SUN-3/60's translation cache; translation is free on the virtual
#: clock, so the TLB moves host time and hit ratios only.
TLB_ENTRIES = 64

#: Base address of the anonymous regions the tenants and replay use.
REGION_BASE = 0x0100_0000


def build_nucleus(arbiter=None):
    """A fresh Nucleus on the modelled machine, every knob at default."""
    return chorus_nucleus(tlb_entries=TLB_ENTRIES, arbiter=arbiter)


class Workload:
    """Shared shape: ``op()`` per request, ``drain()`` on the clock at
    the end of the timed window and ``verify()`` after it."""

    #: Warm-up ops run as the last part of set-up.
    WARMUP = 0
    #: Ops per throughput window: about 100 ms, the same mix each time.
    WINDOW_OPS = 1
    #: Timed ops whose virtual time is pinned for the pinned seed.
    PIN_OPS = 0
    #: Ops per side of the registry on / off / traced comparison.
    AB_OPS = 0

    def __init__(self):
        self.index = 0

    @property
    def vm(self):
        return self.nucleus.vm

    @property
    def clock(self):
        return self.nucleus.clock

    def op(self) -> bool:
        raise NotImplementedError

    def drain(self) -> None:
        """Finish deferred work so the timed window covers all of it."""
        self.vm.io.flush()

    def verify(self) -> int:
        """End-state check after the timed window; returns mismatches."""
        return 0


class Make(Workload):
    """A large make (sections 5.1.3 and 5.1.5): each step forks the
    make process, execs cc, as or ld from a disk-backed program store,
    reads 1-4 text pages, writes data and stack, reads the data back,
    exits and is reaped.

    Why: the paper's own use case; it runs history-object COW, the
    ``rgn_*`` operations, segment caching and zero-fill faults, with
    almost no eviction.
    """

    name = "make"
    STEPS = 12_000
    WARMUP = 300
    WINDOW_OPS = 128
    PIN_OPS = 48
    AB_OPS = 1_500

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        self.nucleus = nucleus = build_nucleus()
        page = nucleus.vm.page_size
        disk = SimulatedDisk(page, clock=nucleus.clock)
        mapper = DiskMapper(disk)
        nucleus.register_mapper(mapper)
        store = ProgramStore(mapper, page)
        self.images = {}
        for tool, (text_size, data_size) in TOOLS.items():
            self.images[tool] = rng.randbytes(text_size)
            store.install(tool, text=self.images[tool],
                          data=rng.randbytes(data_size))
        store.install("make", text=rng.randbytes(4 * KB),
                      data=rng.randbytes(1 * KB))
        self.manager = ProcessManager(nucleus, store)
        self.make = self.manager.spawn("make")
        # Every block holds each (tool, text pages read) pair once, so
        # the mix is the same for every seed; the seed picks the order
        # and which pages.
        block = [(tool, count) for tool in sorted(TOOLS)
                 for count in range(1, min(4, TOOLS[tool][0] // page) + 1)]
        self.steps = []
        while len(self.steps) < self.STEPS:
            rng.shuffle(block)
            for tool, count in block:
                pages = tuple(rng.sample(range(TOOLS[tool][0] // page),
                                         count))
                self.steps.append((tool, pages,
                                   b"obj%06d" % len(self.steps)))

    def op(self) -> bool:
        tool, pages, tag = self.steps[self.index % len(self.steps)]
        self.index += 1
        page = self.vm.page_size
        image = self.images[tool]
        child = self.make.fork()
        child.exec(tool)
        ok = True
        for index in pages:
            text = child.read(Program.TEXT_BASE + index * page, page)
            ok &= text == image[index * page:(index + 1) * page]
        child.write(Program.DATA_BASE, tag)
        child.write(Program.STACK_BASE, tag)
        ok &= child.read(Program.DATA_BASE, len(tag)) == tag
        child.exit(0)
        self.manager.wait(self.make)
        return ok


class MappedRW(Workload):
    """One actor maps four disk-backed files of 512 pages each (twice
    the 1,024 frames) and issues reads and writes of 1, 2 or 4 pages:
    70% reads, and 80% of requests on the hottest 20% of each file.
    One op is a batch of 10 requests issued back to back: a single
    request either hits resident pages or faults, and the median of
    that two-humped latency jumps between the humps from run to run.
    The timed window ends with a sync of every file, so write-back of
    dirty pages is paid on the clock.

    Why: reads beside writes on a working set larger than RAM; it
    loads the cache engine, mapper I/O, the segments and IPC.

    No ``WritebackDaemon`` runs: the library does not start one by
    default, and with one the workload loses writes (a page the daemon
    cleans keeps its writable translation, so a later write never marks
    it dirty and eviction drops it).
    """

    name = "mapped_rw"
    FILES = 4
    FILE_PAGES = 512
    REQUESTS = 100_000
    OP_REQUESTS = 10
    WARMUP = 500
    WINDOW_OPS = 100
    HOT_SHARE = 0.8
    HOT_PAGES = FILE_PAGES // 5
    READ_SHARE = 0.7
    SIZES = (1, 2, 4)
    #: Requests per block; each block has exactly the shares above.
    BLOCK = 150
    FILE_STRIDE = 0x0100_0000
    PIN_OPS = 48
    AB_OPS = 1_200

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        self.nucleus = nucleus = build_nucleus()
        page = nucleus.vm.page_size
        self.mapper = mapper = DiskMapper(
            SimulatedDisk(page, clock=nucleus.clock))
        nucleus.register_mapper(mapper)
        self.actor = nucleus.create_actor("mapped_rw")
        size = self.FILE_PAGES * page
        self.files = []
        for number in range(self.FILES):
            shadow = bytearray(rng.randbytes(size))
            capability = mapper.create_file(bytes(shadow))
            address = REGION_BASE + number * self.FILE_STRIDE
            region = nucleus.rgn_map(self.actor, capability, size,
                                     address=address)
            self.files.append((capability, address, region.cache, shadow))
        # One 4-page pattern per byte value, each page distinct, so a
        # misplaced page shows in the shadow comparison.
        self.patterns = [b"".join(bytes([(value + k) & 0xFF]) * page
                                  for k in range(max(self.SIZES)))
                         for value in range(256)]
        # (write, pages, hot) kinds in exact proportion, so the mix is
        # the same for every seed; the seed picks order and addresses.
        block = []
        per_size = self.BLOCK // len(self.SIZES)
        reads = round(per_size * self.READ_SHARE)
        for pages in self.SIZES:
            for write, count in ((False, reads), (True, per_size - reads)):
                hot = round(count * self.HOT_SHARE)
                block += [(write, pages, True)] * hot
                block += [(write, pages, False)] * (count - hot)
        self.requests = []
        while len(self.requests) < self.REQUESTS:
            rng.shuffle(block)
            for write, pages, hot in block:
                span = self.HOT_PAGES if hot else self.FILE_PAGES
                self.requests.append((rng.randrange(self.FILES),
                                      rng.randrange(span - pages + 1),
                                      pages, write, rng.randrange(256)))

    def op(self) -> bool:
        ok = True
        page = self.vm.page_size
        for _ in range(self.OP_REQUESTS):
            number, first, pages, write, value = \
                self.requests[self.index % len(self.requests)]
            self.index += 1
            _, address, _, shadow = self.files[number]
            lo = first * page
            hi = lo + pages * page
            if write:
                data = self.patterns[value][:hi - lo]
                self.actor.write(address + lo, data)
                shadow[lo:hi] = data
            else:
                ok &= shadow[lo:hi] == self.actor.read(address + lo, hi - lo)
        return ok

    def drain(self) -> None:
        # A ranged sync pushes each run of dirty pages in one IPC
        # message, so sync in windows of at most one message.
        window = IPC_MESSAGE_LIMIT
        size = self.FILE_PAGES * self.vm.page_size
        for _, _, cache, _ in self.files:
            for offset in range(0, size, window):
                self.vm.cache_flush(cache, offset, window, keep=True)
        super().drain()

    def verify(self) -> int:
        size = self.FILE_PAGES * self.vm.page_size
        return sum(self.mapper.read_range(capability.key, 0, size) != shadow
                   for capability, _, _, shadow in self.files)


class Tenants(Workload):
    """24 actors, 23 with 32-page working sets and one 400-page
    thrasher, under a frame arbiter with a 960-page budget, a floor of
    8 pages, a working-set estimator and admission control.  One op is
    one tenant quantum: the tenant rewrites its whole working set with
    the round's byte.  Rounds visit tenants in a seed-shuffled order,
    and the balancer ticks once at the end of each round.

    Why: the only workload that runs ``repro.pressure``; reclaim and
    eviction dominate it.
    """

    name = "tenants"
    TENANTS = 24
    WS_PAGES = 32
    THRASHER_PAGES = 400
    BUDGET = 960
    FLOOR = 8
    ROUNDS = 100
    WARMUP = 4 * TENANTS
    WINDOW_OPS = TENANTS
    PIN_OPS = 48
    AB_OPS = 288

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        arbiter = FrameArbiter(global_budget=self.BUDGET,
                               floor_pages=self.FLOOR,
                               ws=WorkingSetEstimator(),
                               qos=AdmissionController())
        self.nucleus = nucleus = build_nucleus(arbiter)
        page = nucleus.vm.page_size
        self.tenants = []
        for number in range(self.TENANTS):
            actor = nucleus.create_actor(f"tenant-{number}")
            pages = self.THRASHER_PAGES if number == 0 else self.WS_PAGES
            nucleus.rgn_allocate(actor, pages * page, address=REGION_BASE)
            self.tenants.append(actor)
        self.pages = [self.THRASHER_PAGES] + \
            [self.WS_PAGES] * (self.TENANTS - 1)
        self.last = [0] * self.TENANTS
        self.daemon = BalancerDaemon(nucleus.vm)
        self.orders = [rng.sample(range(self.TENANTS), self.TENANTS)
                       for _ in range(self.ROUNDS)]

    def op(self) -> bool:
        round_no, position = divmod(self.index, self.TENANTS)
        self.index += 1
        number = self.orders[round_no % self.ROUNDS][position]
        actor = self.tenants[number]
        page = self.vm.page_size
        value = bytes((round_no % 255 + 1,))
        for index in range(self.pages[number]):
            actor.write(REGION_BASE + index * page, value)
        self.last[number] = value[0]
        if position == self.TENANTS - 1:
            self.daemon.tick()
        return True

    def verify(self) -> int:
        page = self.vm.page_size
        return sum(actor.read(REGION_BASE + index * page, 1)[0] != last
                   for actor, pages, last
                   in zip(self.tenants, self.pages, self.last)
                   for index in range(pages))


class Replay(Workload):
    """512 prewarmed pages and a 2^20-access phase trace (8 phases,
    locality 96), compiled in set-up and replayed cyclically through
    the vectorized bus in batches of 16,384 accesses.

    Why: a hardware-only control.  Nothing faults, so virtual time is 0
    and any engine, cache, pressure or obs change should leave it
    unmoved.
    """

    name = "replay"
    PAGES = 512
    ACCESSES = 1 << 20
    BATCH = 16_384
    PHASES = 8
    LOCALITY = 96
    WARMUP = 8
    WINDOW_OPS = 16
    PIN_OPS = 4
    AB_OPS = 160

    def __init__(self, seed: int):
        super().__init__()
        self.nucleus = nucleus = build_nucleus()
        page = nucleus.vm.page_size
        self.actor = nucleus.create_actor("replay")
        nucleus.rgn_allocate(self.actor, self.PAGES * page,
                             address=REGION_BASE)
        for index in range(self.PAGES):
            self.actor.write(REGION_BASE + index * page, b"\x01")
        self.trace = tracecomp.phase_columns(
            self.PAGES, self.ACCESSES, phases=self.PHASES,
            locality=self.LOCALITY, seed=seed)
        self.vbus = VectorBus(nucleus.vm.bus,
                              registry=nucleus.vm.probe.registry)
        self.space = self.actor.context.space
        self.base_vpn = REGION_BASE // page

    def op(self) -> bool:
        start = self.index * self.BATCH % self.ACCESSES
        self.index += 1
        end = start + self.BATCH
        count = self.vbus.replay(self.space, self.trace.pages[start:end],
                                 self.trace.writes[start:end],
                                 base_vpn=self.base_vpn)
        return count == self.BATCH

    def verify(self) -> int:
        page = self.vm.page_size
        return sum(self.actor.read(REGION_BASE + index * page, 1) != b"\x01"
                   for index in range(self.PAGES))


WORKLOADS = {cls.name: cls for cls in (Make, MappedRW, Tenants, Replay)}
