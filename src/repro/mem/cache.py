"""Per-host CPU cache over non-coherent shared CXL memory.

This is the model that makes the paper's §3.2 problems *real* rather than
narrated:

* a host's load hits its own cached copy of a line even after another host
  (or a device) has overwritten the line in the pool -- i.e. **stale reads**;
* a host's store stays in its cache (dirty) and is invisible to everyone else
  until an explicit CLWB / CLFLUSHOPT;
* PREFETCHT0 on a line that is *already cached* is a no-op, which is exactly
  why naive prefetching stalls in Figure 6 (design ②) and why the Oasis
  channel must invalidate consumed and prefetched-but-stale lines (③/④).

Within one host, DMA is kept coherent the way real hardware does it: a device
write snoops and invalidates the local cache line, a device read snoops out
dirty data.  Across hosts there is no snooping at all -- that is the CXL 2.0
reality Oasis is built for.

Every operation returns its CPU cost in nanoseconds; callers (driver loops,
the Figure 6 microbench) accumulate those costs into virtual time.

This sits on the hottest path of the simulator (every channel poll, doorbell
and payload move goes through it), so the single-line cases -- 16 B messages,
8 B counters, aligned 64 B slots -- take a branch-free fast path, and the
per-line link accounting writes straight into this host's
:class:`~repro.mem.cxl.LinkStats` tables instead of re-resolving them per
operation.

Spans of a few lines or more (a 4 KiB storage block is 64) take a *run path*
where the per-line loop would only repeat one case.  The run checks the span
once (``keys().isdisjoint`` answers "nothing resident"), moves every line
with one list build plus one ``dict.update`` or ``b"".join``, and bumps
:class:`CacheStats` and ``LinkStats`` once by ``n``.  It is an exact
stand-in for the loop:

* costs are summed in loop order (``0.0 + first + step + ...``, memoised per
  ``(first, step, n)``), never as ``n * ns``, so the floats are bit-identical;
* new lines are inserted in span order, the insertion order the loop leaves.

The runs are: a load over lines none of which is resident (from
``_COPY_RUN_LINES`` lines); a whole-line store, a CLFLUSH or a DMA snoop over
lines none of which is resident (from ``_RUN_LINES``); and a CLWB over the
leading resident dirty lines of a span whose first and last lines are both
dirty, the loop taking the rest (from ``_CLWB_RUN_LINES``).  Everything else
takes the loop: shorter spans (there the run's set-up costs more than it
saves), a bounded cache (LRU touches and evictions interleave with the
lines), an installed ``writeback_hook`` or an armed writeback fault, a
partial-line store, and any other span that mixes resident with absent or
dirty with clean lines.  A mixed span pays only the check that turns it
away: an ``isdisjoint`` that stops at the first resident line, and for CLWB
two line lookups.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat, takewhile
from operator import attrgetter
from typing import Optional, Tuple

from ..config import CACHE_LINE, CacheTimings
from ..errors import MemoryFault
from .cxl import _RUN_LINES, _ZERO_LINE, CXLMemoryPool, lines_spanned

__all__ = ["HostCache", "CacheStats"]

#: measured crossovers that differ from ``_RUN_LINES``: a load miss copies
#: every line out, so its run overtakes the loop sooner; a CLWB run sets up
#: more (finding the dirty prefix, clearing each line's dirty bit)
_COPY_RUN_LINES = 4
_CLWB_RUN_LINES = 12

_DATA = attrgetter("data")
_DIRTY = attrgetter("dirty")


@lru_cache(maxsize=256)
def _run_cost(first: float, step: float, n: int) -> float:
    """The cost the per-line loop sums: ``0.0 + first + step + ... + step``
    over ``n`` lines, added in that order so the result is bit-identical."""
    if n <= 0:
        return 0.0
    cost = 0.0 + first
    for _ in range(n - 1):
        cost += step
    return cost


@dataclass
class CacheStats:
    """Operation counters, used by tests and the Table 3 experiment."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    writebacks: int = 0
    invalidations: int = 0
    fences: int = 0
    prefetches_issued: int = 0
    prefetches_ignored: int = 0     # line already cached: the Fig 6 pathology
    evictions: int = 0
    dma_read_snoop_hits: int = 0
    dma_write_snoop_hits: int = 0
    writebacks_lost: int = 0        # injected fault: posted write vanished
    writebacks_partial: int = 0     # injected fault: only half the line landed

    def reset(self) -> None:
        for name in self.__dict__:
            setattr(self, name, 0)


class _Line:
    __slots__ = ("data", "dirty")

    def __init__(self, data: bytearray, dirty: bool = False):
        self.data = data
        self.dirty = dirty


#: stands in for an absent line where a run reads ``dirty`` (never stored).
_ABSENT = _Line(bytearray(0))


class HostCache:
    """One host's view of the shared pool through its (non-coherent) caches."""

    __slots__ = ("pool", "host", "capacity_lines", "timings", "_lines",
                 "stats", "_track_lru", "_rd", "_wr", "writeback_hook",
                 "_wb_fault")

    def __init__(
        self,
        pool: CXLMemoryPool,
        host: str,
        capacity_lines: Optional[int] = None,
        timings: Optional[CacheTimings] = None,
    ):
        self.pool = pool
        self.host = host
        self.capacity_lines = capacity_lines
        self.timings = timings or pool.timings
        self._lines: "OrderedDict[int, _Line]" = OrderedDict()
        self.stats = CacheStats()
        # LRU order only matters for a bounded cache; the unbounded default
        # skips the per-access move_to_end.
        self._track_lru = capacity_lines is not None
        # This host's per-category byte counters, bound lazily on the first
        # accounted transfer so the pool's link table is populated exactly
        # when traffic first flows (not when the cache object is built).
        self._rd = None
        self._wr = None
        # Optional interception of explicit writebacks (CLWB/CLFLUSHOPT of a
        # dirty line).  The Figure 6 microbench uses this to model the posted
        # write's flight time: the hook receives (line_index, data, category)
        # and applies the bytes to the pool once the write lands.  When unset,
        # writebacks reach the pool immediately.
        self.writeback_hook = None
        # Fault injection (repro.faults): the next N writebacks of matching
        # category are dropped ("drop") or torn in half ("partial").
        self._wb_fault: Optional[dict] = None

    # -- internals ----------------------------------------------------------

    def _account(self, direction_write: bool, category: str, nbytes: int) -> None:
        table = self._wr if direction_write else self._rd
        if table is None:
            stats = self.pool.stats_for(self.host)
            self._rd = stats.read_bytes
            self._wr = stats.write_bytes
            table = self._wr if direction_write else self._rd
        table[category] = table.get(category, 0) + nbytes

    def _evict_if_needed(self) -> None:
        while self.capacity_lines is not None and len(self._lines) > self.capacity_lines:
            index, line = self._lines.popitem(last=False)
            if line.dirty:
                # A capacity eviction of a dirty line is a posted write just
                # like CLWB/CLFLUSHOPT: it must go through the writeback hook
                # so timing harnesses model its flight time too.
                self._write_back(index, line, "eviction")
            self.stats.evictions += 1

    def _fill(self, index: int, category: str) -> _Line:
        pool = self.pool
        if index < 0 or (index + 1) * CACHE_LINE > pool.size:
            raise MemoryFault(
                f"access [{index * CACHE_LINE}, {(index + 1) * CACHE_LINE}) "
                f"outside pool of {pool.size} B")
        src = pool._lines.get(index)
        data = bytearray(src) if src is not None else bytearray(CACHE_LINE)
        line = _Line(data)
        self._lines[index] = line
        if self._track_lru:
            self._evict_if_needed()
        self._account(False, category, CACHE_LINE)
        return line

    def _touch(self, index: int) -> None:
        self._lines.move_to_end(index)

    # -- inspection (free: used by assertions, not the datapath) -------------

    def contains(self, addr: int) -> bool:
        return addr // CACHE_LINE in self._lines

    def is_dirty(self, addr: int) -> bool:
        line = self._lines.get(addr // CACHE_LINE)
        return bool(line and line.dirty)

    @property
    def cached_line_count(self) -> int:
        return len(self._lines)

    # -- CPU loads and stores -------------------------------------------------

    def load(self, addr: int, size: int, category: str = "payload") -> Tuple[bytes, float]:
        """CPU load of ``size`` bytes.  Returns ``(data, cost_ns)``.

        Cached lines are served from the cache *even if stale* -- staleness is
        the caller's problem, exactly as on real non-coherent CXL 2.0.  A
        range outside the pool raises :class:`MemoryFault` before any side
        effect.
        """
        pool = self.pool
        if addr < 0 or addr + size > pool.size:
            raise MemoryFault(
                f"access [{addr}, {addr + size}) outside pool of {pool.size} B")
        t = self.timings
        index = addr // CACHE_LINE
        offset = addr - index * CACHE_LINE
        if offset + size <= CACHE_LINE:
            # Fast path: the load is contained in one line.
            line = self._lines.get(index)
            stats = self.stats
            if line is None:
                # _fill, inlined (this is the hottest miss path in the sim).
                if (index + 1) * CACHE_LINE > pool.size:
                    raise MemoryFault(
                        f"access [{index * CACHE_LINE}, {(index + 1) * CACHE_LINE}) "
                        f"outside pool of {pool.size} B")
                src = pool._lines.get(index)
                line = _Line(bytearray(src) if src is not None else bytearray(CACHE_LINE))
                self._lines[index] = line
                if self._track_lru:
                    self._evict_if_needed()
                rd = self._rd
                if rd is None:
                    link_stats = pool.stats_for(self.host)
                    self._rd = rd = link_stats.read_bytes
                    self._wr = link_stats.write_bytes
                rd[category] = rd.get(category, 0) + CACHE_LINE
                stats.misses += 1
                cost = 0.0 + t.cxl_load_ns
            else:
                if self._track_lru:
                    self._lines.move_to_end(index)
                stats.hits += 1
                cost = 0.0 + t.cache_hit_ns
            return bytes(line.data[offset:offset + size]), cost
        end = (addr + size - 1) // CACHE_LINE + 1
        n = end - index
        if n >= _COPY_RUN_LINES and not self._track_lru and \
                end * CACHE_LINE <= pool.size:
            span = range(index, end)
            lines = self._lines
            if lines.keys().isdisjoint(span):
                # Every line misses: fill them all in span order.
                get = pool._lines.get
                bufs = [bytearray(get(i, _ZERO_LINE)) for i in span]
                lines.update(zip(span, map(_Line, bufs)))
                self._account(False, category, CACHE_LINE * n)
                self.stats.misses += n
                data = b"".join(bufs)
                if offset or size != n * CACHE_LINE:
                    data = data[offset:offset + size]
                return data, _run_cost(t.cxl_load_ns, t.cxl_stream_ns, n)
        out = bytearray(size)
        cost = 0.0
        pos = 0
        first_miss = True
        lines = self._lines
        stats = self.stats
        track = self._track_lru
        while pos < size:
            index = (addr + pos) // CACHE_LINE
            offset = (addr + pos) - index * CACHE_LINE
            take = CACHE_LINE - offset
            rest = size - pos
            if rest < take:
                take = rest
            line = lines.get(index)
            if line is None:
                line = self._fill(index, category)
                stats.misses += 1
                # A sequential multi-line load overlaps misses after the
                # first (hardware prefetch + MLP): only the first pays the
                # full load-to-use latency.
                cost += t.cxl_load_ns if first_miss else t.cxl_stream_ns
                first_miss = False
            else:
                if track:
                    lines.move_to_end(index)
                stats.hits += 1
                cost += t.cache_hit_ns
            out[pos:pos + take] = line.data[offset:offset + take]
            pos += take
        return bytes(out), cost

    def store(self, addr: int, data: bytes, category: str = "payload") -> float:
        """CPU store (write-allocate).  Dirty data stays local until CLWB.

        A range outside the pool raises :class:`MemoryFault` before any side
        effect -- even a full-line store, which needs no read-for-ownership.
        """
        size = len(data)
        if addr < 0 or addr + size > self.pool.size:
            raise MemoryFault(
                f"access [{addr}, {addr + size}) outside pool of "
                f"{self.pool.size} B")
        t = self.timings
        index = addr // CACHE_LINE
        offset = addr - index * CACHE_LINE
        if offset + size <= CACHE_LINE:
            # Fast path: the store is contained in one line.
            line = self._lines.get(index)
            if line is None:
                if offset == 0 and size == CACHE_LINE:
                    # Full-line store: no read-for-ownership needed.
                    line = _Line(bytearray(CACHE_LINE))
                    self._lines[index] = line
                    if self._track_lru:
                        self._evict_if_needed()
                    cost = 0.0
                else:
                    # _fill (read-for-ownership), inlined.
                    pool = self.pool
                    if (index + 1) * CACHE_LINE > pool.size:
                        raise MemoryFault(
                            f"access [{index * CACHE_LINE}, "
                            f"{(index + 1) * CACHE_LINE}) "
                            f"outside pool of {pool.size} B")
                    src = pool._lines.get(index)
                    line = _Line(bytearray(src) if src is not None
                                 else bytearray(CACHE_LINE))
                    self._lines[index] = line
                    if self._track_lru:
                        self._evict_if_needed()
                    rd = self._rd
                    if rd is None:
                        link_stats = pool.stats_for(self.host)
                        self._rd = rd = link_stats.read_bytes
                        self._wr = link_stats.write_bytes
                    rd[category] = rd.get(category, 0) + CACHE_LINE
                    cost = 0.0 + t.cxl_load_ns
            else:
                if self._track_lru:
                    self._lines.move_to_end(index)
                cost = 0.0
            line.data[offset:offset + size] = data
            line.dirty = True
            self.stats.stores += 1
            return cost + t.store_ns
        n = size // CACHE_LINE
        if n >= _RUN_LINES and not offset and size == n * CACHE_LINE and \
                not self._track_lru and \
                self._lines.keys().isdisjoint(range(index, index + n)):
            # Whole lines, none resident: no read-for-ownership, so every
            # line is a fresh dirty line costing one store.
            self._lines.update(zip(
                range(index, index + n),
                [_Line(bytearray(data[o:o + CACHE_LINE]), True)
                 for o in range(0, size, CACHE_LINE)]))
            self.stats.stores += n
            return _run_cost(t.store_ns, t.store_ns, n)
        cost = 0.0
        pos = 0
        first_miss = True
        lines = self._lines
        stats = self.stats
        track = self._track_lru
        while pos < size:
            index = (addr + pos) // CACHE_LINE
            offset = (addr + pos) - index * CACHE_LINE
            take = CACHE_LINE - offset
            rest = size - pos
            if rest < take:
                take = rest
            line = lines.get(index)
            if line is None:
                if offset == 0 and take == CACHE_LINE:
                    # Full-line store: no read-for-ownership needed.
                    line = _Line(bytearray(CACHE_LINE))
                    lines[index] = line
                    if track:
                        self._evict_if_needed()
                else:
                    line = self._fill(index, category)
                    # RFO fetch; overlapped after the first miss (MLP).
                    cost += t.cxl_load_ns if first_miss else t.cxl_stream_ns
                    first_miss = False
            else:
                if track:
                    lines.move_to_end(index)
            line.data[offset:offset + take] = data[pos:pos + take]
            line.dirty = True
            cost += t.store_ns
            stats.stores += 1
            pos += take
        return cost

    # -- explicit coherence operations ----------------------------------------

    def clwb(self, addr: int, category: str = "payload") -> float:
        """Write back the line containing ``addr`` (kept cached, clean)."""
        index = addr // CACHE_LINE
        line = self._lines.get(index)
        if line is None or not line.dirty:
            return self.timings.clflush_issue_ns
        # _write_back, inlined: every visible channel message pays one of
        # these, so the common hook-free, fault-free case stays flat.
        if self._wb_fault is not None and self._writeback_faulted(index, line, category):
            line.dirty = False
            self.stats.writebacks += 1
            return self.timings.clwb_ns
        hook = self.writeback_hook
        if hook is not None:
            hook(index, bytes(line.data), category)
        else:
            pool = self.pool
            if index < 0 or (index + 1) * CACHE_LINE > pool.size:
                raise MemoryFault(
                    f"access [{index * CACHE_LINE}, {(index + 1) * CACHE_LINE}) "
                    f"outside pool of {pool.size} B")
            pool._lines[index] = bytearray(line.data)
        wr = self._wr
        if wr is None:
            link_stats = self.pool.stats_for(self.host)
            self._rd = link_stats.read_bytes
            self._wr = wr = link_stats.write_bytes
        wr[category] = wr.get(category, 0) + CACHE_LINE
        line.dirty = False
        self.stats.writebacks += 1
        return self.timings.clwb_ns

    def clwb_range(self, addr: int, size: int, category: str = "payload") -> float:
        if size > 0 and addr >= 0 and \
                addr // CACHE_LINE == (addr + size - 1) // CACHE_LINE:
            # Single-line range (counters, 16/64 B messages): skip the loop.
            return self.clwb(addr, category)
        if self._wb_fault is not None or self.writeback_hook is not None:
            cost = 0.0
            for i in lines_spanned(addr, size):
                cost += self.clwb(i * CACHE_LINE, category)
            return cost
        # Hook-free fast path: clwb() inlined per spanned line (every TX
        # payload writeback walks this loop).
        t = self.timings
        clwb_ns = t.clwb_ns
        issue_ns = t.clflush_issue_ns
        lines = self._lines
        pool = self.pool
        pool_size = pool.size
        pool_lines = pool._lines
        stats = self.stats
        span = lines_spanned(addr, size)
        cost = 0.0
        if len(span) >= _CLWB_RUN_LINES and \
                span.stop * CACHE_LINE <= pool_size:
            if lines.keys().isdisjoint(span):
                return _run_cost(issue_ns, issue_ns, len(span))
            # Run over the leading lines that are resident and dirty (an
            # absent line reads as clean); the loop takes the rest.  Only a
            # span dirty at both ends pays for finding where that prefix ends.
            first = lines.get(span.start)
            last = lines.get(span.stop - 1)
            if first is not None and first.dirty and \
                    last is not None and last.dirty:
                run = list(takewhile(_DIRTY, map(lines.get, span,
                                                 repeat(_ABSENT))))
                k = len(run)
                pool_lines.update(zip(span, map(bytearray, map(_DATA, run))))
                for line in run:
                    line.dirty = False
                self._account(True, category, CACHE_LINE * k)
                stats.writebacks += k
                cost = _run_cost(clwb_ns, clwb_ns, k)
                span = span[k:]
        wr = self._wr
        for i in span:
            line = lines.get(i)
            if line is None or not line.dirty:
                cost += issue_ns
                continue
            if i < 0 or (i + 1) * CACHE_LINE > pool_size:
                raise MemoryFault(
                    f"access [{i * CACHE_LINE}, {(i + 1) * CACHE_LINE}) "
                    f"outside pool of {pool_size} B")
            pool_lines[i] = bytearray(line.data)
            if wr is None:
                link_stats = pool.stats_for(self.host)
                self._rd = link_stats.read_bytes
                self._wr = wr = link_stats.write_bytes
            wr[category] = wr.get(category, 0) + CACHE_LINE
            line.dirty = False
            stats.writebacks += 1
            cost += clwb_ns
        return cost

    def clflush(self, addr: int, fenced: bool = False, category: str = "payload") -> float:
        """CLFLUSHOPT: write back if dirty, then drop the line.

        ``fenced=True`` models a CLFLUSHOPT immediately ordered by MFENCE
        (serialising, ~5x the cost of a background flush) -- the difference
        that separates the Figure 6 baseline from the Oasis design.
        """
        t = self.timings
        index = addr // CACHE_LINE
        line = self._lines.pop(index, None)
        if line is not None:
            stats = self.stats
            if line.dirty:
                self._write_back(index, line, category)
                stats.writebacks += 1
            stats.invalidations += 1
        return t.clflush_ns if fenced else t.clflush_issue_ns

    def inject_writeback_fault(self, count: int = 1, mode: str = "drop",
                               category: Optional[str] = "payload",
                               on_fault=None) -> None:
        """Arm a writeback fault: the next ``count`` writebacks whose category
        matches (``None`` matches any) are dropped or half-torn.

        The CPU side is oblivious -- CLWB retires, the line goes clean, the
        writeback counter ticks -- but the pool never (fully) sees the bytes,
        which is exactly how a lost posted write on a flaky CXL link behaves.
        ``on_fault(line_index, category, mode)`` lets the injector record the
        damaged line so invariant checks can exclude it.
        """
        if mode not in ("drop", "partial"):
            raise ValueError(f"unknown writeback fault mode {mode!r}")
        if count <= 0:
            raise ValueError("writeback fault count must be positive")
        self._wb_fault = {"count": int(count), "mode": mode,
                          "category": category, "on_fault": on_fault}

    def _writeback_faulted(self, index: int, line: "_Line", category: str) -> bool:
        fault = self._wb_fault
        if fault is None:
            return False
        if fault["category"] is not None and fault["category"] != category:
            return False
        fault["count"] -= 1
        if fault["count"] <= 0:
            self._wb_fault = None
        if fault["on_fault"] is not None:
            fault["on_fault"](index, category, fault["mode"])
        if fault["mode"] == "drop":
            self.stats.writebacks_lost += 1
            return True
        # Partial: the first half of the line lands, the tail is torn off.
        half = CACHE_LINE // 2
        merged = bytes(line.data[:half]) + self.pool.read_line(index)[half:]
        self.pool.write_line(index, merged)
        self._account(True, category, CACHE_LINE)
        self.stats.writebacks_partial += 1
        return True

    def _write_back(self, index: int, line: "_Line", category: str) -> None:
        if self._wb_fault is not None and self._writeback_faulted(index, line, category):
            return
        hook = self.writeback_hook
        if hook is not None:
            hook(index, bytes(line.data), category)
        else:
            pool = self.pool
            if index < 0 or (index + 1) * CACHE_LINE > pool.size:
                raise MemoryFault(
                    f"access [{index * CACHE_LINE}, {(index + 1) * CACHE_LINE}) "
                    f"outside pool of {pool.size} B")
            pool._lines[index] = bytearray(line.data)
        self._account(True, category, CACHE_LINE)

    def clflush_range(self, addr: int, size: int, fenced: bool = False,
                      category: str = "payload") -> float:
        if size > 0 and addr >= 0 and \
                addr // CACHE_LINE == (addr + size - 1) // CACHE_LINE:
            # Single-line range: skip the loop.
            return self.clflush(addr, fenced, category)
        if self._wb_fault is not None or self.writeback_hook is not None:
            cost = 0.0
            for i in lines_spanned(addr, size):
                cost += self.clflush(i * CACHE_LINE, fenced, category)
            return cost
        # Hook-free fast path: clflush() inlined per spanned line (every RX
        # buffer invalidation walks this loop).
        t = self.timings
        per_line_ns = t.clflush_ns if fenced else t.clflush_issue_ns
        lines = self._lines
        pool = self.pool
        pool_size = pool.size
        pool_lines = pool._lines
        stats = self.stats
        span = lines_spanned(addr, size)
        n = len(span)
        if n >= _RUN_LINES and lines.keys().isdisjoint(span):
            return _run_cost(per_line_ns, per_line_ns, n)
        wr = self._wr
        cost = 0.0
        for i in span:
            line = lines.pop(i, None)
            if line is not None:
                if line.dirty:
                    # _write_back, inlined (hook-free, fault-free).
                    if i < 0 or (i + 1) * CACHE_LINE > pool_size:
                        raise MemoryFault(
                            f"access [{i * CACHE_LINE}, {(i + 1) * CACHE_LINE})"
                            f" outside pool of {pool_size} B")
                    pool_lines[i] = bytearray(line.data)
                    if wr is None:
                        link_stats = pool.stats_for(self.host)
                        self._rd = link_stats.read_bytes
                        self._wr = wr = link_stats.write_bytes
                    wr[category] = wr.get(category, 0) + CACHE_LINE
                    stats.writebacks += 1
                stats.invalidations += 1
            cost += per_line_ns
        return cost

    def mfence(self) -> float:
        self.stats.fences += 1
        return self.timings.mfence_ns

    def prefetch(self, addr: int, category: str = "message") -> Tuple[bool, float]:
        """PREFETCHT0.  Returns ``(issued, cost_ns)``.

        A prefetch of a line already present in the cache is ignored by the
        hardware -- including when the cached copy is stale.  This no-op is
        the root cause dissected in §3.2.2.
        """
        index = addr // CACHE_LINE
        if index in self._lines:
            self.stats.prefetches_ignored += 1
            return False, self.timings.prefetch_issue_ns
        self._fill(index, category)
        self.stats.prefetches_issued += 1
        return True, self.timings.prefetch_issue_ns

    def drop_all(self) -> None:
        """Invalidate the entire cache without writing anything back."""
        self._lines.clear()

    # -- intra-host DMA snooping ------------------------------------------------

    def snoop_dma_write(self, addr: int, size: int) -> float:
        """Called when a *local* device DMA-writes: invalidate our copies."""
        span = lines_spanned(addr, size)
        if len(span) >= _RUN_LINES and self._lines.keys().isdisjoint(span):
            return 0.0
        cost = 0.0
        for index in span:
            if self._lines.pop(index, None) is not None:
                self.stats.dma_write_snoop_hits += 1
                cost += self.timings.clflush_issue_ns
        return cost

    def snoop_dma_read(self, addr: int, size: int) -> float:
        """Called when a *local* device DMA-reads: flush our dirty data."""
        span = lines_spanned(addr, size)
        if len(span) >= _RUN_LINES and self._lines.keys().isdisjoint(span):
            return 0.0
        cost = 0.0
        for index in span:
            line = self._lines.get(index)
            if line is not None and line.dirty:
                self.pool.write_line(index, bytes(line.data))
                self._account(True, "snoop", CACHE_LINE)
                line.dirty = False
                self.stats.dma_read_snoop_hits += 1
                cost += self.timings.clwb_ns
        return cost
