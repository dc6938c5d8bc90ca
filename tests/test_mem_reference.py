"""Differential test: ``HostCache`` + ``CXLMemoryPool`` against a reference.

``RefMemory`` below is a per-line model of one host's cache over the pool,
written from the documented semantics with plain dicts: one loop iteration
per 64 B line, costs summed in line order.  It shares no code with
``repro.mem``.  Hypothesis drives both with the same random op sequences --
spans of 1-80 lines, aligned and unaligned, unbounded and bounded caches, a
writeback hook, armed writeback faults, and DMA with and without the local
snoop -- and after every op compares the returned bytes, the exact cost
floats, every counter, the order of the resident lines and the pool.
"""

from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import CacheTimings, CXLConfig
from repro.errors import MemoryFault
from repro.mem.cache import HostCache
from repro.mem.cxl import CXLMemoryPool

L = 64
POOL_LINES = 256
HOST = "h0"


class Fault(Exception):
    pass


class RefMemory:
    def __init__(self, capacity, timings):
        self.cap, self.t = capacity, timings
        self.pool = {}          # line index -> bytes
        self.lines = {}         # index -> [bytearray, dirty], in LRU order
        self.stats = {}
        self.link = {"read": {}, "write": {}}
        self.hook_calls, self.fault, self.fault_log = None, None, []

    def bump(self, name, n=1):
        self.stats[name] = self.stats.get(name, 0) + n

    def account(self, direction, category, nbytes):
        table = self.link[direction]
        table[category] = table.get(category, 0) + nbytes

    def write_back(self, i, line, category):
        fault = self.fault
        if fault is not None and fault["category"] in (None, category):
            fault["count"] -= 1
            if fault["count"] <= 0:
                self.fault = None
            self.fault_log.append((i, category, fault["mode"]))
            if fault["mode"] == "drop":
                return self.bump("writebacks_lost")
            old = self.pool.get(i, bytes(L))
            self.pool[i] = bytes(line[0][:L // 2]) + old[L // 2:]
            self.account("write", category, L)
            return self.bump("writebacks_partial")
        if self.hook_calls is not None:
            self.hook_calls.append((i, bytes(line[0]), category))
        else:
            self.pool[i] = bytes(line[0])
        self.account("write", category, L)

    def get_line(self, i, fill, category):
        """Resident line ``i`` (LRU-touched), else a new one: ``fill`` reads
        it from the pool (RFO / miss), otherwise it starts as zeros."""
        line = self.lines.get(i)
        if line is not None:
            if self.cap is not None:
                self.lines[i] = self.lines.pop(i)
            return line, True
        line = [bytearray(self.pool.get(i, bytes(L))) if fill else bytearray(L), False]
        self.lines[i] = line
        while self.cap is not None and len(self.lines) > self.cap:
            j = next(iter(self.lines))
            old = self.lines.pop(j)
            if old[1]:
                self.write_back(j, old, "eviction")
            self.bump("evictions")
        if fill:
            self.account("read", category, L)
        return line, False

    def chunks(self, addr, size):
        if addr < 0 or addr + size > POOL_LINES * L:
            raise Fault
        pos = 0
        while pos < size:
            i, off = divmod(addr + pos, L)
            take = min(L - off, size - pos)
            yield i, off, pos, take
            pos += take

    def load(self, addr, size, category="payload"):
        out, cost, first = bytearray(size), 0.0, True
        for i, off, pos, take in list(self.chunks(addr, size)):
            line, hit = self.get_line(i, True, category)
            self.bump("hits" if hit else "misses")
            if hit:
                cost += self.t.cache_hit_ns
            else:   # misses after the first overlap (MLP)
                cost += self.t.cxl_load_ns if first else self.t.cxl_stream_ns
                first = False
            out[pos:pos + take] = line[0][off:off + take]
        return bytes(out), cost

    def store(self, addr, data, category="payload"):
        cost, first = 0.0, True
        for i, off, pos, take in list(self.chunks(addr, len(data))):
            rfo = take < L and i not in self.lines
            line, _ = self.get_line(i, rfo, category)
            if rfo:
                cost += self.t.cxl_load_ns if first else self.t.cxl_stream_ns
                first = False
            line[0][off:off + take] = data[pos:pos + take]
            line[1] = True
            cost += self.t.store_ns
            self.bump("stores")
        return cost

    def span(self, addr, size):
        if addr < 0:
            raise Fault
        return range(addr // L, (addr + size - 1) // L + 1) if size > 0 else range(0)

    def clwb_range(self, addr, size, category="payload"):
        cost = 0.0
        for i in self.span(addr, size):
            line = self.lines.get(i)
            if line is None or not line[1]:
                cost += self.t.clflush_issue_ns
                continue
            self.write_back(i, line, category)
            line[1] = False
            self.bump("writebacks")
            cost += self.t.clwb_ns
        return cost

    def clflush_range(self, addr, size, fenced=False, category="payload"):
        cost = 0.0
        for i in self.span(addr, size):
            line = self.lines.pop(i, None)
            if line is not None:
                if line[1]:
                    self.write_back(i, line, category)
                    self.bump("writebacks")
                self.bump("invalidations")
            cost += self.t.clflush_ns if fenced else self.t.clflush_issue_ns
        return cost

    def snoop_dma_read(self, addr, size):
        cost = 0.0
        for i in self.span(addr, size):
            line = self.lines.get(i)
            if line is not None and line[1]:
                self.pool[i] = bytes(line[0])
                self.account("write", "snoop", L)
                line[1] = False
                self.bump("dma_read_snoop_hits")
                cost += self.t.clwb_ns
        return cost

    def snoop_dma_write(self, addr, size):
        cost = 0.0
        for i in self.span(addr, size):
            if self.lines.pop(i, None) is not None:
                self.bump("dma_write_snoop_hits")
                cost += self.t.clflush_issue_ns
        return cost

    def dma_read(self, addr, size, host):
        out = b"".join(self.pool.get(i, bytes(L))[off:off + take]
                       for i, off, _, take in list(self.chunks(addr, size)))
        if host is not None:
            self.account("read", "payload", L * len(self.span(addr, size)))
        return out

    def dma_write(self, addr, data, host):
        for i, off, pos, take in list(self.chunks(addr, len(data))):
            line = bytearray(self.pool.get(i, bytes(L)))
            line[off:off + take] = data[pos:pos + take]
            self.pool[i] = bytes(line)
        if host is not None:
            self.account("write", "payload", L * len(self.span(addr, len(data))))


#: recurring (addr, size) buffers, as drivers reuse their regions: 4 KiB
#: blocks, an 8-line run, 300 B frames (unaligned, and aligned with a partial
#: last line) and an 80-line span
BUFFERS = [(0, 4096), (4096, 4096), (2048, 4096), (640, 512), (6416, 300),
           (12288, 300), (8192, 80 * L)]


def _span_args(draw):
    if draw(st.integers(0, 2)):
        return draw(st.sampled_from(BUFFERS))
    line = draw(st.integers(0, POOL_LINES - 40))
    nlines = draw(st.integers(1, 80))
    if draw(st.booleans()):
        return line * L, nlines * L
    head = draw(st.integers(0, L - 1))
    return line * L + head, max(1, nlines * L - head - draw(st.integers(0, L - 1)))


@st.composite
def _ops(draw):
    kind = draw(st.sampled_from(["load", "store", "clwb", "clflush", "dma_read",
                                 "dma_write", "remote_write", "negative"]))
    addr, size = _span_args(draw)
    return kind, addr, size, draw(st.integers(0, 255)), draw(st.booleans())


def _apply(target, kind, addr, size, byte, flag):
    data = bytes((byte + k) & 0xFF for k in range(size))
    if kind == "load":
        return target.load(addr, size)
    if kind == "store":
        return target.store(addr, data)
    if kind == "clwb":
        return target.clwb_range(addr, size)
    if kind == "clflush":
        return target.clflush_range(addr, size, fenced=flag)
    if kind == "negative":
        return target.load(-L, size) if flag else target.store(-L, data[:L])
    if kind == "dma_read":
        snoop = target.snoop_dma_read(addr, size) if flag else 0.0
        return snoop, target.dma_read(addr, size, HOST)
    if kind == "dma_write":
        snoop = target.snoop_dma_write(addr, size) if flag else 0.0
        return snoop, target.dma_write(addr, data, HOST)
    return target.dma_write(addr, data, None)   # another host's device


class _Real:
    """``HostCache`` plus its pool's DMA engine, in the model's vocabulary."""

    def __init__(self, cache):
        self.cache = cache

    def __getattr__(self, name):
        return getattr(self.cache, name)

    def dma_read(self, addr, size, host):
        return self.cache.pool.dma_read(addr, size, host=host)

    def dma_write(self, addr, data, host):
        return self.cache.pool.dma_write(addr, data, host=host)


def _run(target, op):
    try:
        return _apply(target, *op)
    except (MemoryFault, Fault):
        return "fault"


def _assert_same(cache, ref):
    assert {k: v for k, v in asdict(cache.stats).items() if v} == ref.stats
    link = cache.pool.link_stats.get(HOST)
    assert (link.read_bytes if link else {}) == ref.link["read"]
    assert (link.write_bytes if link else {}) == ref.link["write"]
    assert list(cache._lines) == list(ref.lines)
    assert [(bytes(v.data), v.dirty) for v in cache._lines.values()] == \
        [(bytes(v[0]), v[1]) for v in ref.lines.values()]
    assert {i: bytes(v) for i, v in cache.pool._lines.items()} == ref.pool


def _check(ns, capacity, hook, fault, ops):
    timings = CacheTimings(**dict(zip(
        ["cxl_load_ns", "cxl_stream_ns", "cache_hit_ns", "clflush_ns",
         "clflush_issue_ns", "clwb_ns", "store_ns"], ns)))
    pool = CXLMemoryPool(CXLConfig(), size=POOL_LINES * L)
    cache = HostCache(pool, HOST, capacity_lines=capacity, timings=timings)
    ref = RefMemory(capacity, timings)
    hooked, faults = [], []
    if hook:
        ref.hook_calls = []
        cache.writeback_hook = lambda *call: hooked.append(call)
    if fault is not None:
        count, mode, category = fault
        cache.inject_writeback_fault(count, mode, category,
                                     on_fault=lambda *a: faults.append(a))
        ref.fault = {"count": count, "mode": mode, "category": category}
    for op in ops:
        assert _run(_Real(cache), op) == _run(ref, op), op
        _assert_same(cache, ref)
        assert hooked == (ref.hook_calls or [])
        assert faults == ref.fault_log


#: costs that are not exact binary fractions, so a run summed as ``n * ns``
#: (or in another order) differs from the per-line loop in the last bits
_NS = st.sampled_from([0.1, 0.3, 1.7, 2.5, 6.0, 13.37, 250.0])
_AWKWARD_NS = [250.0, 0.1, 1.7, 13.37, 0.3, 6.1, 0.7]

#: one storage block's life on the frontend and the device's host, per
#: buffer: write (store, CLWB, device reads it), invalidate, device writes,
#: completion copy (load, CLFLUSH), then the same over resident lines
LIFECYCLE = [op for addr, size in BUFFERS for op in [
    ("store", addr, size, 1, False), ("clwb", addr, size, 0, False),
    ("dma_read", addr, size, 0, True), ("clflush", addr, size, 0, False),
    ("clflush", addr, size, 0, True), ("dma_write", addr, size, 2, True),
    ("load", addr, size, 0, False), ("clflush", addr, size, 0, False),
    ("load", addr, size, 0, False), ("store", addr, size, 3, False),
    ("dma_read", addr, size, 0, True), ("store", addr, size, 4, False),
    ("dma_write", addr, size, 5, True), ("load", addr, size, 0, False),
    ("remote_write", addr, size, 6, False), ("load", addr, size, 0, False),
]]


@pytest.mark.parametrize("capacity,hook,fault", [
    (None, False, None), (None, True, None), (8, False, None),
    (None, False, (3, "partial", "payload")),
])
def test_block_lifecycle_matches_reference_model(capacity, hook, fault):
    _check(_AWKWARD_NS, capacity, hook, fault, LIFECYCLE)


#: CLWB spans that mix dirty lines with clean and absent ones: dirty at both
#: ends (a run over the dirty prefix, the loop for the rest), clean or absent
#: at one end, and an unaligned span over dirty lines only
MIXED_CLWB = [
    ("store", 0, 16 * L, 1, False), ("clwb", 9 * L, 2 * L, 0, False),
    ("clflush", 12 * L, L, 0, False), ("clwb", 0, 16 * L, 0, False),
    ("store", 0, 16 * L, 2, False), ("clwb", 0, 4 * L, 0, False),
    ("clwb", 0, 16 * L, 0, False), ("store", 0, 15 * L, 3, False),
    ("clwb", 0, 16 * L, 0, False), ("load", 20 * L, L, 0, False),
    ("store", 21 * L, 12 * L, 4, False), ("clwb", 20 * L, 13 * L, 0, False),
    ("store", 40 * L, 15 * L, 5, False), ("clwb", 40 * L + 10, 14 * L, 0, False),
]


def test_mixed_clwb_spans_match_reference_model():
    _check(_AWKWARD_NS, None, False, None, MIXED_CLWB)


@given(ns=st.lists(_NS, min_size=7, max_size=7),
       capacity=st.one_of(st.none(), st.integers(1, 24)),
       hook=st.booleans(),
       fault=st.one_of(st.none(), st.tuples(
           st.integers(1, 40), st.sampled_from(["drop", "partial"]),
           st.sampled_from([None, "payload", "eviction"]))),
       ops=st.lists(_ops(), min_size=5, max_size=40))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_host_cache_matches_reference_model(ns, capacity, hook, fault, ops):
    _check(ns, capacity, hook, fault, ops)
