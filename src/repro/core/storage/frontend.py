"""Storage engine frontend driver (§3.4).

Provides local instances with a block-device interface
(:class:`VirtualBlockDevice`) and forwards I/O requests/completions to the
backend driver of the SSD each instance is allocated to, over 64 B message
channels.  Buffer handling mirrors the network engine: data buffers live in
shared CXL memory, are written back (CLWB) before the request is signalled,
and read buffers are invalidated after the copy-out so recycled buffers are
never read stale.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ...config import OasisConfig
from ...errors import AllocationError, ChannelFullError, DeviceFailedError
from ...host.host import Host, MemDomain
from ...mem.layout import Region, RegionAllocator
from ...overload import CircuitBreaker
from ...pcie.ssd import NVME_STATUS_FAILED, NVME_STATUS_MEDIA
from ...sim.core import MSEC, NSEC, USEC, Simulator
from ..engine import Driver
from .messages import (SOP_COMPLETION, SOP_READ, SOP_WRITE, STATUS_FENCED,
                       StorageMessage)

__all__ = ["StorageFrontend", "VirtualBlockDevice", "STATUS_TIMEOUT",
           "STATUS_SHED"]

#: Synthetic status for a request the frontend gave up on after its
#: per-attempt deadline expired repeatedly (no NVMe completion ever came).
STATUS_TIMEOUT = 0xFE

#: Synthetic status for a request shed by overload control (admission queue
#: full, CoDel sojourn drop, open circuit breaker, or brownout).  The
#: request never reached the device; the instance hears back immediately.
STATUS_SHED = 0xFC

#: Statuses worth retrying: the device is still there, the command failed.
_TRANSIENT_STATUSES = frozenset({NVME_STATUS_MEDIA, NVME_STATUS_FAILED})


class VirtualBlockDevice:
    """Instance-facing block device backed by a pooled SSD."""

    def __init__(self, frontend: "StorageFrontend", instance, backend_name: str,
                 block_size: int):
        self.frontend = frontend
        self.instance = instance
        self.backend_name = backend_name
        self.block_size = block_size

    def read(self, lba: int, nblocks: int,
             callback: Callable[[int, bytes], None], flow=None,
             background: bool = False, tenant: Optional[str] = None) -> int:
        """Async read; ``callback(status, data)`` fires on completion.

        ``background=True`` marks shed-first work (read-ahead, scrubbing):
        under brownout the frontend drops it before any foreground request.
        ``tenant`` tags the request for per-tenant weighted-fair scheduling
        once the pod arms ``enable_multi_tenant()`` (inert otherwise).
        """
        return self.frontend.submit_read(self, lba, nblocks, callback,
                                         flow=flow, background=background,
                                         tenant=tenant)

    def write(self, lba: int, data: bytes,
              callback: Callable[[int], None], flow=None,
              background: bool = False, tenant: Optional[str] = None) -> int:
        """Async write; ``callback(status)`` fires on completion."""
        return self.frontend.submit_write(self, lba, data, callback,
                                          flow=flow, background=background,
                                          tenant=tenant)


class StorageFrontend(Driver):
    """One storage frontend per host, on its own busy-polling core."""

    ITEM_NS = 180.0
    ADMITS = True
    brownout_level = 0
    # Multi-tenant serving: None until enable_multi_tenant() arms it; then
    # per-tenant accounting (tenant -> counter dict).
    _tenants = None

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        buffer_domain: MemDomain,
        buffer_region: Region,
        config: Optional[OasisConfig] = None,
    ):
        super().__init__(sim, f"sfe-{host.name}", config)
        self.host = host
        self.domain = buffer_domain
        self._space = RegionAllocator(buffer_region)
        self._pending: Dict[int, dict] = {}        # cid -> request state
        self._next_cid = 1
        self.submitted = 0
        self.completed_ok = 0
        self.completed_error = 0
        # Overload control (off by default): requests shed before reaching
        # the device, by reason.  Conservation under shedding:
        # submitted == completed + in_flight + shed + gave_up.
        self.shed = 0
        self.shed_queue_full = 0
        self.shed_sojourn = 0
        self.shed_breaker = 0
        self.shed_brownout = 0
        self.retry_budget_denied = 0
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._launched = 0
        self._pumping = False
        # Fault tolerance (§ graceful degradation): transient device errors
        # and lost completions are retried with exponential backoff before
        # the error is surfaced to the instance.
        self.retries = 0
        self.timeouts = 0
        self.giveups = 0
        # Fencing (§3.3.3): per-(backend, instance) epoch stamps put on the
        # wire, refreshed through the allocator after a FENCED rejection.
        self._stamps: Dict[Tuple[str, int], int] = {}
        self._resync_inflight: set = set()
        self.fenced = 0
        self.resyncs = 0

    def make_device(self, instance, backend_name: str, block_size: int
                    ) -> VirtualBlockDevice:
        if backend_name not in self._links:
            raise AllocationError(f"no storage backend link {backend_name}")
        return VirtualBlockDevice(self, instance, backend_name, block_size)

    # -- overload control: admission, retry budget, breakers, brownout -----

    def enable_multi_tenant(self, tenants) -> None:
        """Per-tenant admission lanes plus per-tenant accounting.

        Requests tagged with a ``tenant`` get their own admission lane;
        untagged traffic shares the weight-1 ``"-"`` lane.  Requests
        already in flight are booked to their tenants as submitted, so each
        tenant's ledger balances from the moment it is armed.
        """
        super().enable_multi_tenant(tenants)
        self._tenants = {}
        for name in tenants:
            self._tenant_stats(name)
        for state in self._pending.values():
            self._tenant_stats(state["tenant"])["submitted"] += 1

    _TENANT_STAT_KEYS = (
        "submitted", "completed_ok", "completed_error", "shed",
        "shed_queue_full", "shed_sojourn", "shed_breaker", "shed_brownout",
        "gave_up", "retries", "retry_budget_denied",
    )

    def _tenant_stats(self, tenant: Optional[str]) -> dict:
        stats = self._tenants.get(tenant)
        if stats is None:
            stats = self._tenants[tenant] = {
                key: 0 for key in self._TENANT_STAT_KEYS}
        return stats

    def tenant_stats(self) -> Dict[str, dict]:
        """Per-tenant accounting (empty until multi-tenant is armed)."""
        if self._tenants is None:
            return {}
        return {name: dict(stats)
                for name, stats in sorted(self._tenants.items(),
                                          key=lambda kv: str(kv[0]))}

    @property
    def breaker_trips(self) -> int:
        return sum(b.trips for b in self._breakers.values())

    @property
    def breakers_open(self) -> int:
        return sum(1 for b in self._breakers.values() if b.state != "closed")

    def _breaker_for(self, backend_name: str) -> CircuitBreaker:
        breaker = self._breakers.get(backend_name)
        if breaker is None:
            cfg = self._overload
            breaker = CircuitBreaker(
                cfg.breaker_failure_threshold,
                cfg.breaker_open_ms * 1e-3,
                cfg.breaker_probe_jitter_ms * 1e-3,
                rng=self._ovl_rng.get(
                    f"overload/{self.name}/breaker/{backend_name}"),
                name=backend_name)
            self._breakers[backend_name] = breaker
        return breaker

    def _admit(self, cid: int, message: StorageMessage) -> None:
        """Overload-mode entry: request arrives at the admission queue."""
        state = self._pending.get(cid)
        if state is None:
            return
        if self.brownout_level and state["background"]:
            self._shed(cid, state, "brownout")
            return
        tenant = state["tenant"] if self._tenants is not None else None
        if not self._admission.push(self.sim.now, (cid, message), tenant):
            self._shed(cid, state, "queue_full")
            return
        self._pump()

    def _pump(self) -> None:
        """Launch admitted requests while the device window has room."""
        if self._pumping:
            return
        self._pumping = True
        try:
            while self._launched < self._overload.launch_window:
                item, dropped = self._admission.pop(self.sim.now)
                for drop_cid, _msg in dropped:
                    drop_state = self._pending.get(drop_cid)
                    if drop_state is not None:
                        self._shed(drop_cid, drop_state, "sojourn")
                if item is None:
                    return
                cid, message = item
                state = self._pending.get(cid)
                if state is None:
                    continue
                if not self._breaker_for(state["backend"]).allow(self.sim.now):
                    self._shed(cid, state, "breaker")
                    continue
                state["launched"] = True
                self._launched += 1
                self._enqueue(state["backend"], message)
                self._arm_timeout(cid)
        finally:
            self._pumping = False

    def _shed(self, cid: int, state: dict, reason: str) -> None:
        """Refuse a request before the device sees it (load shedding)."""
        self.shed += 1
        if reason == "queue_full":
            self.shed_queue_full += 1
        elif reason == "sojourn":
            self.shed_sojourn += 1
        elif reason == "breaker":
            self.shed_breaker += 1
        else:
            self.shed_brownout += 1
        if self._tenants is not None:
            stats = self._tenant_stats(state["tenant"])
            stats["shed"] += 1
            stats["shed_" + reason] += 1
        self._retire(cid, state, STATUS_SHED, b"")

    # -- fencing epochs (§3.3.3) --------------------------------------------------

    def set_stamp(self, backend_name: str, ip: int, epoch: int) -> None:
        """Adopt a fresh fencing epoch for (backend, instance)."""
        self._stamps[(backend_name, ip)] = epoch
        if (backend_name, ip) in self._resync_inflight:
            self._resync_inflight.discard((backend_name, ip))
            self.resyncs += 1

    def _stamp_for(self, backend_name: str, ip: int) -> int:
        return self._stamps.get((backend_name, ip), 0) & 0xFF

    def _request_resync(self, backend_name: str, ip: int) -> None:
        if (backend_name, ip) in self._resync_inflight or self.control is None:
            return
        self._resync_inflight.add((backend_name, ip))
        self.control.request_storage_resync(ip, self.host.name)

    # -- submission (instance context) ------------------------------------------

    def _alloc_cid(self) -> int:
        cid = self._next_cid
        self._next_cid = (self._next_cid % 0xFFFF) + 1
        while self._next_cid in self._pending:
            self._next_cid = (self._next_cid % 0xFFFF) + 1
        return cid

    def submit_write(self, device: VirtualBlockDevice, lba: int, data: bytes,
                     callback: Callable[[int], None], flow=None,
                     background: bool = False,
                     tenant: Optional[str] = None) -> int:
        if len(data) % device.block_size:
            raise AllocationError("write size must be a multiple of block size")
        nlb = len(data) // device.block_size
        region = self._space.alloc(len(data), "wbuf")
        if flow is not None:
            flow.stage("sfe.submit", depth=len(self._pending))
            self.flows.stash(region.base, flow)
        store_ns = self.domain.cache.store(region.base, data, category="payload")
        store_ns += self.domain.cache.clwb_range(region.base, len(data),
                                                 category="payload")
        cid = self._alloc_cid()
        ip = device.instance.ip if device.instance else 0
        self.submitted += 1
        self._pending[cid] = {
            "op": SOP_WRITE, "region": region, "callback": callback,
            "nbytes": len(data), "backend": device.backend_name,
            "lba": lba, "nlb": nlb, "ip": ip, "retries": 0, "attempt": 0,
            "background": background, "tenant": tenant,
        }
        if self._tenants is not None:
            self._tenant_stats(tenant)["submitted"] += 1
        message = StorageMessage(SOP_WRITE, cid, lba, nlb, region.base, ip,
                                 epoch=self._stamp_for(device.backend_name, ip))
        delay = self.config.datapath.ipc_hop_us * USEC + store_ns * NSEC
        if self._overload is None:
            self.sim.schedule(delay, self._enqueue, device.backend_name,
                              message)
            self._arm_timeout(cid)
        else:
            # Fresh traffic funds the retry budget; launch goes through the
            # admission queue (the timeout is armed at launch, not here).
            self._budget.deposit()
            self.sim.schedule(delay, self._admit, cid, message)
        return cid

    def submit_read(self, device: VirtualBlockDevice, lba: int, nblocks: int,
                    callback: Callable[[int, bytes], None], flow=None,
                    background: bool = False,
                    tenant: Optional[str] = None) -> int:
        region = self._space.alloc(nblocks * device.block_size, "rbuf")
        if flow is not None:
            flow.stage("sfe.submit", depth=len(self._pending))
            self.flows.stash(region.base, flow)
        # The region may have been a recycled write buffer whose (clean)
        # lines are still in our cache; the SSD's DMA write on the remote
        # host will not snoop them (§3.2.1).  Invalidate before posting so
        # the completion copy reads the device's bytes, not stale ones.
        self.domain.cache.clflush_range(region.base,
                                        nblocks * device.block_size,
                                        category="payload")
        cid = self._alloc_cid()
        ip = device.instance.ip if device.instance else 0
        self.submitted += 1
        self._pending[cid] = {
            "op": SOP_READ, "region": region, "callback": callback,
            "nbytes": nblocks * device.block_size, "backend": device.backend_name,
            "lba": lba, "nlb": nblocks, "ip": ip, "retries": 0, "attempt": 0,
            "background": background, "tenant": tenant,
        }
        if self._tenants is not None:
            self._tenant_stats(tenant)["submitted"] += 1
        message = StorageMessage(SOP_READ, cid, lba, nblocks, region.base, ip,
                                 epoch=self._stamp_for(device.backend_name, ip))
        delay = self.config.datapath.ipc_hop_us * USEC
        if self._overload is None:
            self.sim.schedule(delay, self._enqueue, device.backend_name,
                              message)
            self._arm_timeout(cid)
        else:
            self._budget.deposit()
            self.sim.schedule(delay, self._admit, cid, message)
        return cid

    def _enqueue(self, backend_name: str, message: StorageMessage) -> None:
        tx = self._links[backend_name].tx
        if self._flows is not None:
            flow = self._flows.peek(message.buffer_addr)
            if flow is not None:
                flow.stage("chan.sfe2sbe",
                           depth=getattr(tx, "pending", None))
        try:
            tx.send(message.pack())
        except ChannelFullError:
            self.sim.schedule(10e-6, self._enqueue, backend_name, message)

    # -- driver loop: completions -------------------------------------------------

    def _process(self) -> tuple:
        items = 0
        cost = 0.0
        now_eps = self.sim.now + 1e-12
        for _link, rx, cv, qv, timed in self._drain_links:
            if cv._consumed_since_update == 0:
                if not qv or (timed and qv[0] > now_eps):
                    continue   # drain() would be a no-op
            payloads, drain_cost = rx.drain()
            cost += drain_cost
            items += len(payloads)
            unpack = StorageMessage.unpack
            for raw in payloads:
                message = unpack(raw)
                if message.opcode == SOP_COMPLETION:
                    cost += self._handle_completion(message)
        return items, cost

    # -- fault tolerance: per-attempt deadlines and retries ------------------------

    def _arm_timeout(self, cid: int) -> None:
        """Start (or restart) the per-attempt deadline for ``cid``."""
        state = self._pending.get(cid)
        if state is None:
            return
        state["attempt"] += 1
        self.sim.schedule(self.config.retry.storage_timeout_ms * MSEC,
                          self._on_timeout, cid, state["attempt"])

    def _on_timeout(self, cid: int, attempt: int) -> None:
        state = self._pending.get(cid)
        if state is None or state["attempt"] != attempt:
            return   # completed, or already retried: the deadline is stale
        self.timeouts += 1
        if self._overload is not None:
            self._breaker_for(state["backend"]).record_failure(self.sim.now)
        if state["retries"] >= self.config.retry.storage_max_retries:
            self.giveups += 1
            if self._tenants is not None:
                self._tenant_stats(state["tenant"])["gave_up"] += 1
            self._finish(cid, state, STATUS_TIMEOUT, b"")
            return
        if self._overload is not None and not self._budget.try_spend():
            # Retry budget exhausted: fail fast instead of feeding the storm.
            self.retry_budget_denied += 1
            self.giveups += 1
            if self._tenants is not None:
                stats = self._tenant_stats(state["tenant"])
                stats["retry_budget_denied"] += 1
                stats["gave_up"] += 1
            self._finish(cid, state, STATUS_TIMEOUT, b"")
            return
        self._schedule_retry(cid, state)

    def _schedule_retry(self, cid: int, state: dict) -> None:
        state["retries"] += 1
        self.retries += 1
        if self._tenants is not None:
            self._tenant_stats(state["tenant"])["retries"] += 1
        if self._flows is not None:
            flow = self._flows.peek(state["region"].base)
            if flow is not None:
                flow.stage("sfe.retry", depth=state["retries"])
        backoff = self._jittered(self.config.retry.storage_backoff_ms
                                 * self.config.retry.storage_backoff_mult
                                 ** (state["retries"] - 1))
        self.sim.schedule(backoff * MSEC, self._resubmit, cid)

    def _resubmit(self, cid: int) -> None:
        state = self._pending.get(cid)
        if state is None:
            return   # a late completion beat the retry: nothing to redo
        region: Region = state["region"]
        if state["op"] == SOP_READ:
            # The failed attempt may have left (zero/partial) lines cached;
            # invalidate so the repeated DMA write is read fresh.
            self.domain.cache.clflush_range(region.base, state["nbytes"],
                                            category="payload")
        # Re-read the stamp: a resync between attempts supplies the fresh epoch.
        message = StorageMessage(state["op"], cid, state["lba"], state["nlb"],
                                 region.base, state["ip"],
                                 epoch=self._stamp_for(state["backend"],
                                                       state["ip"]))
        self._enqueue(state["backend"], message)
        self._arm_timeout(cid)

    def _handle_completion(self, message: StorageMessage) -> float:
        state = self._pending.get(message.cid)
        if state is None:
            return 20.0   # duplicate or post-timeout completion: ignore
        if message.status == STATUS_FENCED:
            # Stale fencing epoch: refresh the lease through the allocator,
            # then retry -- the resubmission picks up the new stamp.
            self.fenced += 1
            self._request_resync(state["backend"], state["ip"])
            if state["retries"] < self.config.retry.storage_max_retries:
                self._schedule_retry(message.cid, state)
                return self.ITEM_NS
            self.giveups += 1
            if self._tenants is not None:
                self._tenant_stats(state["tenant"])["gave_up"] += 1
            self._finish(message.cid, state, STATUS_FENCED, b"")
            return self.ITEM_NS
        if self._overload is not None:
            breaker = self._breaker_for(state["backend"])
            if message.status == 0:
                breaker.record_success(self.sim.now)
            elif message.status in _TRANSIENT_STATUSES:
                breaker.record_failure(self.sim.now)
        if message.status in _TRANSIENT_STATUSES:
            if state["retries"] < self.config.retry.storage_max_retries:
                if self._overload is None or self._budget.try_spend():
                    self._schedule_retry(message.cid, state)
                    return self.ITEM_NS
                self.retry_budget_denied += 1
                if self._tenants is not None:
                    self._tenant_stats(
                        state["tenant"])["retry_budget_denied"] += 1
            self.giveups += 1
            if self._tenants is not None:
                self._tenant_stats(state["tenant"])["gave_up"] += 1
        cost = self.ITEM_NS
        region: Region = state["region"]
        if state["op"] == SOP_READ and message.status == 0:
            # Copy the data out of shared memory, then invalidate the lines.
            data, load_ns = self.domain.cache.load(region.base, state["nbytes"],
                                                   category="payload")
            cost += load_ns
            cost += self.domain.cache.clflush_range(region.base, state["nbytes"],
                                                    category="payload")
        else:
            data = b""
        self._finish(message.cid, state, message.status, data)
        return cost

    def _finish(self, cid: int, state: dict, status: int, data: bytes) -> None:
        """Retire a served request and count it completed (ok or error)."""
        if status == 0:
            self.completed_ok += 1
        else:
            self.completed_error += 1
        if self._tenants is not None:
            self._tenant_stats(state["tenant"])[
                "completed_ok" if status == 0 else "completed_error"] += 1
        self._retire(cid, state, status, data)

    def _retire(self, cid: int, state: dict, status: int, data: bytes) -> None:
        """Release a request's buffer and call the instance back."""
        self._pending.pop(cid, None)
        if state.pop("launched", False):
            self._launched -= 1
        region: Region = state["region"]
        if self._flows is not None:
            # Pop: the buffer region is freed below and will be recycled.
            flow = self._flows.pop(region.base)
            if flow is not None:
                flow.stage("sfe.comp")
        self._space.free(region)
        callback = state["callback"]
        ipc = self.config.datapath.ipc_hop_us * USEC
        if state["op"] == SOP_READ:
            self.sim.schedule(ipc, callback, status, data)
        else:
            self.sim.schedule(ipc, callback, status)
        if self._overload is not None and len(self._admission):
            self._pump()    # a freed window slot launches the next request

    @property
    def inflight(self) -> int:
        return len(self._pending)
