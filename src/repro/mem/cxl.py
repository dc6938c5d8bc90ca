"""Shared CXL memory pool model.

The pool is a flat, byte-addressable store shared by every host in the pod
(§2.3).  Hosts never touch it directly: CPU accesses go through a
:class:`~repro.mem.cache.HostCache` (which may serve stale data -- the pool is
*not* cache-coherent across hosts), while PCIe devices DMA straight to the
pool through :meth:`CXLMemoryPool.dma_read` / :meth:`dma_write`.

Storage is sparse (a dict of 64 B lines), so a 256 GB pool costs memory only
for the lines actually written.  Every transfer is accounted per host link and
per *category* ("payload", "message", "counter", ...), which is what
regenerates Table 3's bandwidth breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterator, Optional, Tuple

from ..config import CACHE_LINE, CXLConfig
from ..errors import MemoryFault

__all__ = ["CXLMemoryPool", "LinkStats", "line_index", "line_base", "lines_spanned"]

#: shortest span (in lines) that moves as one run rather than a per-line
#: loop, here and in :class:`~repro.mem.cache.HostCache`.  Below it the
#: run's fixed set-up costs more than the loop it replaces: the measured
#: crossover for a DMA write and for stores, CLFLUSH and snoops.
_RUN_LINES = 8
_ZERO_LINE = bytes(CACHE_LINE)


def line_index(addr: int) -> int:
    """Cache-line index containing byte address ``addr``."""
    return addr // CACHE_LINE


def line_base(addr: int) -> int:
    """Base byte address of the cache line containing ``addr``.

    Negative addresses are rejected: Python's floor-division/masking would
    silently return a "valid"-looking line for them, so a sign bug upstream
    would corrupt an unrelated line instead of faulting.
    """
    if addr < 0:
        raise MemoryFault(f"negative address {addr}")
    return addr & ~(CACHE_LINE - 1)


def lines_spanned(addr: int, size: int) -> range:
    """Indices of every cache line touched by ``[addr, addr+size)``."""
    if addr < 0:
        raise MemoryFault(f"negative address {addr}")
    if size <= 0:
        return range(0)
    return range(addr // CACHE_LINE, (addr + size - 1) // CACHE_LINE + 1)


@dataclass
class LinkStats:
    """Per-host-link transfer counters, split by direction and category."""

    read_bytes: Dict[str, int] = field(default_factory=dict)
    write_bytes: Dict[str, int] = field(default_factory=dict)

    def record(self, direction: str, category: str, nbytes: int) -> None:
        table = self.read_bytes if direction == "read" else self.write_bytes
        table[category] = table.get(category, 0) + nbytes

    def total(self, direction: Optional[str] = None) -> int:
        total = 0
        if direction in (None, "read"):
            total += sum(self.read_bytes.values())
        if direction in (None, "write"):
            total += sum(self.write_bytes.values())
        return total

    def by_category(self) -> Dict[str, int]:
        """Read+write bytes per category."""
        merged: Dict[str, int] = {}
        for table in (self.read_bytes, self.write_bytes):
            for category, nbytes in table.items():
                merged[category] = merged.get(category, 0) + nbytes
        return merged

    def snapshot(self) -> "LinkStats":
        return LinkStats(dict(self.read_bytes), dict(self.write_bytes))

    def delta_since(self, earlier: "LinkStats") -> "LinkStats":
        """Counters accumulated since an earlier :meth:`snapshot`."""
        delta = LinkStats()
        for category, nbytes in self.read_bytes.items():
            delta.read_bytes[category] = nbytes - earlier.read_bytes.get(category, 0)
        for category, nbytes in self.write_bytes.items():
            delta.write_bytes[category] = nbytes - earlier.write_bytes.get(category, 0)
        return delta


class CXLMemoryPool:
    """A multi-headed CXL memory device shared by all hosts in a pod."""

    def __init__(self, config: Optional[CXLConfig] = None, size: Optional[int] = None):
        self.config = config or CXLConfig()
        self.size = size if size is not None else self.config.pool_bytes
        if self.size <= 0:
            raise MemoryFault("pool size must be positive")
        self._lines: Dict[int, bytearray] = {}
        self.link_stats: Dict[str, LinkStats] = {}
        self.timings = self.config.timings
        # Fault injection (repro.faults): per-host-link bandwidth derate and
        # added latency; the key None degrades every link in the pod.
        self._link_faults: Dict[Optional[str], Tuple[float, float]] = {}

    # -- accounting --------------------------------------------------------

    def stats_for(self, host: str) -> LinkStats:
        if host not in self.link_stats:
            self.link_stats[host] = LinkStats()
        return self.link_stats[host]

    def _account(self, host: Optional[str], direction: str, category: str, nbytes: int) -> None:
        if host is None:
            return
        stats = self.link_stats.get(host)
        if stats is None:
            stats = self.link_stats[host] = LinkStats()
        table = stats.read_bytes if direction == "read" else stats.write_bytes
        table[category] = table.get(category, 0) + nbytes

    def total_traffic(self) -> int:
        return sum(stats.total() for stats in self.link_stats.values())

    # -- raw line access (used by HostCache and DMA) -------------------------

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.size:
            raise MemoryFault(f"access [{addr}, {addr + size}) outside pool of {self.size} B")

    def read_line(self, index: int) -> bytes:
        """Return the 64 B line at ``index`` (zeros if never written)."""
        if index < 0 or (index + 1) * CACHE_LINE > self.size:
            raise MemoryFault(
                f"access [{index * CACHE_LINE}, {(index + 1) * CACHE_LINE}) "
                f"outside pool of {self.size} B")
        data = self._lines.get(index)
        return bytes(data) if data is not None else bytes(CACHE_LINE)

    def write_line(self, index: int, data: bytes) -> None:
        if index < 0 or (index + 1) * CACHE_LINE > self.size:
            raise MemoryFault(
                f"access [{index * CACHE_LINE}, {(index + 1) * CACHE_LINE}) "
                f"outside pool of {self.size} B")
        if len(data) != CACHE_LINE:
            raise MemoryFault(f"line write must be {CACHE_LINE} B, got {len(data)}")
        self._lines[index] = bytearray(data)

    # -- device (DMA) access: bypasses CPU caches ----------------------------

    def dma_read(self, addr: int, size: int, host: Optional[str] = None,
                 category: str = "payload",
                 account_bytes: Optional[int] = None) -> bytes:
        """Device read straight from the pool (no CPU cache involvement).

        ``account_bytes`` overrides the traffic accounting (e.g. a frame's
        declared wire size when padding bytes are not physically stored).
        """
        self._check(addr, size)
        # One join over the spanned lines: every pool line is exactly 64 B
        # (write_line enforces it; every other writer stores whole lines).
        data = b"".join(map(self._lines.get,
                            range(addr >> 6, ((addr + size - 1) >> 6) + 1),
                            repeat(_ZERO_LINE)))
        offset = addr & 63
        if offset or len(data) != size:
            data = data[offset:offset + size]
        nbytes = account_bytes if account_bytes is not None else (
            0 if size <= 0 else
            ((addr + size - 1) // CACHE_LINE - addr // CACHE_LINE + 1) * CACHE_LINE
        )
        self._account(host, "read", category, nbytes)
        return data

    def dma_write(self, addr: int, data: bytes, host: Optional[str] = None,
                  category: str = "payload",
                  account_bytes: Optional[int] = None) -> None:
        """Device write straight to the pool (no CPU cache involvement)."""
        size = len(data)
        self._check(addr, size)
        lines = self._lines
        if size >= _RUN_LINES * CACHE_LINE and not addr & 63 and \
                not size & 63:
            # Run path: whole lines only, so every line is replaced outright
            # (every reader copies pool lines; none holds one across calls).
            lines.update(zip(range(addr >> 6, (addr + size) >> 6),
                             [bytearray(data[o:o + CACHE_LINE])
                              for o in range(0, size, CACHE_LINE)]))
        else:
            pos = 0
            while pos < size:
                cursor = addr + pos
                index = cursor >> 6
                offset = cursor & 63
                take = CACHE_LINE - offset
                rest = size - pos
                if rest < take:
                    take = rest
                line = lines.get(index)
                if line is None:
                    line = bytearray(CACHE_LINE)
                    lines[index] = line
                line[offset:offset + take] = data[pos:pos + take]
                pos += take
        nbytes = account_bytes if account_bytes is not None else (
            0 if size <= 0 else
            ((addr + size - 1) // CACHE_LINE - addr // CACHE_LINE + 1) * CACHE_LINE
        )
        self._account(host, "write", category, nbytes)

    # -- transfer timing -----------------------------------------------------

    def set_link_fault(self, host: Optional[str] = None, derate: float = 1.0,
                       extra_s: float = 0.0) -> None:
        """Degrade a host's CXL link: divide bandwidth by ``derate`` and add
        ``extra_s`` to every transfer.  ``host=None`` degrades all links."""
        if derate < 1.0:
            raise MemoryFault(f"link derate must be >= 1, got {derate}")
        self._link_faults[host] = (derate, extra_s)

    def clear_link_fault(self, host: Optional[str] = None) -> None:
        self._link_faults.pop(host, None)

    def link_fault_active(self, host: Optional[str] = None) -> bool:
        return host in self._link_faults or None in self._link_faults

    def transfer_time_s(self, nbytes: int, host: Optional[str] = None) -> float:
        """Time to move ``nbytes`` across one host's CXL link (bandwidth only,
        plus any injected link fault on that host's link)."""
        base = nbytes / self.config.link_bytes_per_sec
        if self._link_faults:
            fault = self._link_faults.get(host)
            if fault is None:
                fault = self._link_faults.get(None)
            if fault is not None:
                derate, extra_s = fault
                return base * derate + extra_s
        return base

    def touched_lines(self) -> Iterator[Tuple[int, bytes]]:
        """All lines ever written, for debugging/verification."""
        for index in sorted(self._lines):
            yield index, bytes(self._lines[index])
