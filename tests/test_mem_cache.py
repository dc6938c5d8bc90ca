"""Tests for the non-coherent per-host cache model.

These tests pin down the exact semantics the Oasis datapath is built on:
stale reads across hosts, explicit writeback visibility, prefetch no-ops on
cached lines, and intra-host DMA snooping.
"""

import pytest

from repro.config import CACHE_LINE, CXLConfig
from repro.errors import MemoryFault
from repro.mem.cache import CacheStats, HostCache
from repro.mem.cxl import CXLMemoryPool


class TestBasics:
    def test_read_your_own_write(self, cache_pair):
        a, _ = cache_pair
        a.store(0, b"hello")
        data, _ = a.load(0, 5)
        assert data == b"hello"

    def test_dirty_data_invisible_to_pool(self, cache_pair, small_pool):
        a, _ = cache_pair
        a.store(0, b"hello")
        assert small_pool.dma_read(0, 5) == bytes(5)

    def test_clwb_publishes_to_pool(self, cache_pair, small_pool):
        a, _ = cache_pair
        a.store(0, b"hello")
        a.clwb(0)
        assert small_pool.dma_read(0, 5) == b"hello"

    def test_clwb_keeps_line_cached(self, cache_pair):
        a, _ = cache_pair
        a.store(0, b"hello")
        a.clwb(0)
        assert a.contains(0)
        assert not a.is_dirty(0)

    def test_clflush_drops_line(self, cache_pair, small_pool):
        a, _ = cache_pair
        a.store(0, b"hello")
        a.clflush(0)
        assert not a.contains(0)
        assert small_pool.dma_read(0, 5) == b"hello"  # flushed dirty data

    def test_load_miss_fetches_from_pool(self, cache_pair, small_pool):
        a, _ = cache_pair
        small_pool.dma_write(0, b"pooled")
        data, cost = a.load(0, 6)
        assert data == b"pooled"
        assert cost >= a.timings.cxl_load_ns

    def test_hit_cheaper_than_miss(self, cache_pair, small_pool):
        a, _ = cache_pair
        small_pool.dma_write(0, b"x" * 8)
        _, miss_cost = a.load(0, 8)
        _, hit_cost = a.load(0, 8)
        assert hit_cost < miss_cost

    def test_multi_line_load(self, cache_pair, small_pool):
        a, _ = cache_pair
        data = bytes(range(200))
        small_pool.dma_write(30, data)
        out, _ = a.load(30, 200)
        assert out == data

    def test_full_line_store_skips_rfo(self, cache_pair):
        a, _ = cache_pair
        cost = a.store(0, b"z" * CACHE_LINE)
        assert cost < a.timings.cxl_load_ns  # no read-for-ownership

    def test_partial_store_miss_pays_rfo(self, cache_pair):
        a, _ = cache_pair
        cost = a.store(4, b"z")
        assert cost >= a.timings.cxl_load_ns


class TestNonCoherence:
    """The crux: no coherence across hosts (§3.2)."""

    def test_stale_read_after_remote_write(self, cache_pair, small_pool):
        a, b = cache_pair
        small_pool.dma_write(0, b"old-data")
        b.load(0, 8)                    # B caches the line
        a.store(0, b"new-data")
        a.clwb(0)                       # A publishes new data
        stale, _ = b.load(0, 8)
        assert stale == b"old-data"     # B still sees its cached copy

    def test_invalidation_unblocks_fresh_read(self, cache_pair, small_pool):
        a, b = cache_pair
        small_pool.dma_write(0, b"old-data")
        b.load(0, 8)
        a.store(0, b"new-data")
        a.clwb(0)
        b.clflush(0)
        fresh, _ = b.load(0, 8)
        assert fresh == b"new-data"

    def test_remote_dirty_data_never_visible(self, cache_pair):
        a, b = cache_pair
        a.store(0, b"private")          # never written back
        data, _ = b.load(0, 7)
        assert data == bytes(7)

    def test_prefetch_ignored_when_cached(self, cache_pair, small_pool):
        """The Figure 6 pathology: PREFETCHT0 on a cached line is a no-op."""
        a, b = cache_pair
        small_pool.dma_write(0, b"old")
        b.load(0, 3)
        a.store(0, b"new")
        a.clwb(0)
        issued, _ = b.prefetch(0)
        assert issued is False
        assert b.stats.prefetches_ignored == 1
        data, _ = b.load(0, 3)
        assert data == b"old"           # prefetch did NOT refresh the line

    def test_prefetch_fills_uncached_line(self, cache_pair, small_pool):
        _, b = cache_pair
        small_pool.dma_write(0, b"pooled")
        issued, _ = b.prefetch(0)
        assert issued is True
        data, cost = b.load(0, 6)
        assert data == b"pooled"
        assert cost < b.timings.cxl_load_ns  # served from cache


class TestExplicitOps:
    def test_clwb_clean_line_is_cheap(self, cache_pair, small_pool):
        a, _ = cache_pair
        small_pool.dma_write(0, b"x" * 8)
        a.load(0, 8)
        cost = a.clwb(0)
        assert cost == a.timings.clflush_issue_ns

    def test_fenced_clflush_costs_more(self, cache_pair):
        a, _ = cache_pair
        a.store(0, b"x")
        fenced = a.clflush(0, fenced=True)
        a.store(64, b"x")
        unfenced = a.clflush(64, fenced=False)
        assert fenced > unfenced

    def test_clwb_range_covers_all_lines(self, cache_pair, small_pool):
        a, _ = cache_pair
        a.store(10, b"q" * 150)
        a.clwb_range(10, 150)
        assert small_pool.dma_read(10, 150) == b"q" * 150

    def test_clflush_range_drops_all_lines(self, cache_pair):
        a, _ = cache_pair
        a.store(0, b"q" * 150)
        a.clflush_range(0, 150)
        assert not a.contains(0)
        assert not a.contains(64)
        assert not a.contains(128)

    def test_mfence_counts(self, cache_pair):
        a, _ = cache_pair
        a.mfence()
        assert a.stats.fences == 1

    def test_drop_all_discards_dirty_data(self, cache_pair, small_pool):
        a, _ = cache_pair
        a.store(0, b"lost")
        a.drop_all()
        assert small_pool.dma_read(0, 4) == bytes(4)

    def test_writeback_hook_intercepts(self, cache_pair, small_pool):
        a, _ = cache_pair
        captured = []
        a.writeback_hook = lambda idx, data, cat: captured.append((idx, data))
        a.store(0, b"hooked")
        a.clwb(0)
        assert captured and captured[0][0] == 0
        assert captured[0][1][:6] == b"hooked"
        # Pool not yet written (the hook owns the delayed apply).
        assert small_pool.dma_read(0, 6) == bytes(6)


class TestEviction:
    def test_capacity_evicts_lru(self, small_pool):
        cache = HostCache(small_pool, "h", capacity_lines=2)
        cache.store(0, b"a" * 64)
        cache.store(64, b"b" * 64)
        cache.store(128, b"c" * 64)
        assert cache.cached_line_count == 2
        assert not cache.contains(0)
        assert cache.stats.evictions == 1

    def test_eviction_writes_back_dirty_data(self, small_pool):
        cache = HostCache(small_pool, "h", capacity_lines=1)
        cache.store(0, b"a" * 64)
        cache.store(64, b"b" * 64)   # evicts line 0
        assert small_pool.dma_read(0, 64) == b"a" * 64

    def test_dirty_eviction_goes_through_writeback_hook(self, small_pool):
        # The seed wrote dirty evicted lines straight to the pool, bypassing
        # the writeback hook -- so a timing harness modelling posted-write
        # flight time (the Fig 6 microbench) never saw capacity evictions.
        cache = HostCache(small_pool, "h", capacity_lines=1)
        hooked = []
        cache.writeback_hook = lambda idx, data, cat: hooked.append(
            (idx, data, cat))
        cache.store(0, b"a" * 64)
        cache.store(64, b"b" * 64)   # evicts dirty line 0
        assert hooked == [(0, b"a" * 64, "eviction")]
        # The hook owns the delayed apply: the pool must NOT have the data yet.
        assert small_pool.dma_read(0, 64) == bytes(64)
        # The link traffic is still accounted as an eviction write.
        assert small_pool.stats_for("h").write_bytes.get("eviction") == 64

    def test_clean_eviction_skips_writeback_hook(self, small_pool):
        cache = HostCache(small_pool, "h", capacity_lines=1)
        hooked = []
        cache.writeback_hook = lambda idx, data, cat: hooked.append(idx)
        cache.store(0, b"a" * 64)
        cache.clwb(0)                # line 0 now clean
        hooked.clear()
        cache.load(64, 1)            # evicts clean line 0
        assert hooked == []
        assert cache.stats.evictions == 1

    def test_lru_touch_on_access(self, small_pool):
        cache = HostCache(small_pool, "h", capacity_lines=2)
        cache.store(0, b"a" * 64)
        cache.store(64, b"b" * 64)
        cache.load(0, 1)             # touch line 0: now line 1 is LRU
        cache.store(128, b"c" * 64)
        assert cache.contains(0)
        assert not cache.contains(64)


class TestDmaSnoop:
    def test_dma_write_snoop_invalidates_local_copy(self, cache_pair, small_pool):
        a, _ = cache_pair
        small_pool.dma_write(0, b"old")
        a.load(0, 3)
        a.snoop_dma_write(0, 3)
        small_pool.dma_write(0, b"new")
        data, _ = a.load(0, 3)
        assert data == b"new"
        assert a.stats.dma_write_snoop_hits == 1

    def test_dma_read_snoop_flushes_dirty(self, cache_pair, small_pool):
        a, _ = cache_pair
        a.store(0, b"dirty")
        a.snoop_dma_read(0, 5)
        assert small_pool.dma_read(0, 5) == b"dirty"
        assert a.stats.dma_read_snoop_hits == 1

    def test_snoop_miss_costs_nothing(self, cache_pair):
        a, _ = cache_pair
        assert a.snoop_dma_read(0, 64) == 0.0
        assert a.snoop_dma_write(0, 64) == 0.0


class TestOutOfPoolAccess:
    """CPU loads and stores outside the pool fault before any side effect.

    A full-line store, or a store to an already-resident line, used to skip
    the bounds check: on a 4096 B pool, lines 64 and -1 became resident and
    dirty, a later ``load(-64, 64)`` hit the bogus line, and only a CLWB of it
    raised.
    """

    @pytest.fixture
    def tiny(self):
        return HostCache(CXLMemoryPool(CXLConfig(), size=4096), "h")

    @pytest.mark.parametrize("addr,size", [
        (4096, 64), (-64, 64), (4064, 64), (-8, 16), (4032, 128),
        (3968, 256),
    ])
    def test_store_outside_pool_faults_untouched(self, tiny, addr, size):
        with pytest.raises(MemoryFault):
            tiny.store(addr, bytes(size))
        assert tiny.cached_line_count == 0
        assert tiny.stats == CacheStats()
        assert tiny.pool.total_traffic() == 0

    @pytest.mark.parametrize("addr,size", [
        (4096, 64), (-64, 64), (4090, 8), (-1, 1), (3968, 256),
    ])
    def test_load_outside_pool_faults_untouched(self, tiny, addr, size):
        with pytest.raises(MemoryFault):
            tiny.load(addr, size)
        assert tiny.cached_line_count == 0
        assert tiny.stats == CacheStats()

    def test_no_bogus_line_for_a_later_load_to_hit(self, tiny):
        with pytest.raises(MemoryFault):
            tiny.store(-64, b"x" * 64)
        with pytest.raises(MemoryFault):
            tiny.load(-64, 64)
        assert tiny.stats.hits == 0

    def test_resident_line_does_not_excuse_an_overrun(self, tiny):
        tiny.store(4032, b"a" * 64)          # last line, now resident
        with pytest.raises(MemoryFault):
            tiny.store(4032, b"b" * 128)     # runs one line past the end
        assert tiny.load(4032, 64)[0] == b"a" * 64
        assert tiny.stats.stores == 1

    def test_edges_of_the_pool_still_work(self, tiny):
        tiny.store(0, b"a" * 64)
        tiny.store(4032, b"z" * 64)
        assert tiny.load(4032, 64)[0] == b"z" * 64
        assert tiny.load(0, 4096)[0][:64] == b"a" * 64
