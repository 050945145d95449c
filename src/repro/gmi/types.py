"""Value types shared across the GMI: protections, access modes, status."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.hardware.mmu import Prot


class Protection(enum.IntFlag):
    """Region protection: hardware access bits plus a privilege level.

    The paper associates "a protection (e.g. read/write/execute,
    user/system) with each entire region"; different protections on
    parts of a segment are obtained by mapping each part to its own
    region.
    """

    NONE = 0
    READ = 1
    WRITE = 2
    EXECUTE = 4
    SYSTEM = 8            # supervisor-only region

    RW = READ | WRITE
    RX = READ | EXECUTE
    RWX = READ | WRITE | EXECUTE

    def to_hardware(self) -> Prot:
        """Project onto the MMU's protection bits."""
        hw = Prot.NONE
        if self & Protection.READ:
            hw |= Prot.READ
        if self & Protection.WRITE:
            hw |= Prot.WRITE
        if self & Protection.EXECUTE:
            hw |= Prot.EXECUTE
        if self & Protection.SYSTEM:
            hw |= Prot.SYSTEM
        return hw

    def allows(self, write: bool) -> bool:
        """True when the protection permits the access kind."""
        if write:
            return bool(self & Protection.WRITE)
        return bool(self & (Protection.READ | Protection.EXECUTE))


class AccessMode(enum.Enum):
    """Access mode requested from a segment by ``pullIn`` (Table 3)."""

    READ = "read"
    WRITE = "write"

    @property
    def writable(self) -> bool:
        """True for write-mode pulls."""
        return self is AccessMode.WRITE


@dataclass
class RegionStatus:
    """Result of ``region.status()`` (Table 2)."""

    address: int
    size: int
    protection: Protection
    cache: object                  # the Cache the region maps
    offset: int                    # region start offset within the segment
    locked: bool
    resident_pages: int

    @property
    def end(self) -> int:
        """One past the region's last byte."""
        return self.address + self.size


@dataclass
class CacheStatistics:
    """Occupancy and traffic counters of one local cache."""

    resident_pages: int = 0
    pull_ins: int = 0
    push_outs: int = 0
    read_faults: int = 0
    write_faults: int = 0
    copy_faults: int = 0           # COW resolutions charged to this cache
    stub_waits: int = 0            # sleeps on synchronization page stubs
