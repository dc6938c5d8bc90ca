"""Engine framework: the driver event loop shared by all Oasis engines.

Each Oasis engine contributes a frontend driver (every host) and a backend
driver (device-attached hosts only), each pinned to a dedicated busy-polling
core (§3.3).  In the simulation a driver sleeps on a doorbell, then drains
all of its work sources, charging the accumulated per-item CPU costs as
virtual time before sleeping again.  This keeps event counts proportional to
work done -- the polling loop itself costs no simulation events while idle --
which is what makes 10-second failover experiments tractable.

The loop is a flat callback state machine rather than a coroutine: a parked
driver is woken by one zero-delay event per doorbell ring, each productive
drain pass schedules one timer for its CPU cost, and rings that arrive while
the driver is processing latch exactly one further wakeup.  This mirrors the
event-for-event schedule of the equivalent ``yield``-based loop (same event
count, same sequence-number allocation order) while skipping the generator
send/yield machinery on the simulator's hottest resume path.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import Any, Dict, Optional

from ..config import OasisConfig
from ..obs.flow import Observed
from ..overload import RetryBudget, WeightedFairScheduler
from ..sim.core import _NEAR_WINDOW, NSEC, Event, Signal, Simulator

__all__ = ["Driver", "Link"]


@dataclass
class Link:
    """A driver's end of the channel pair to one peer driver (§3.2.2)."""

    name: str    # the peer: device name at a frontend, host name at a backend
    tx: object   # channel endpoint: this driver -> peer
    rx: object   # channel endpoint: peer -> this driver


def _post_now(sim: Simulator, fn) -> None:
    """``sim.call_after(0.0, fn)``, open-coded for the wakeup path.

    Doorbell rings and park/unpark transitions are the most frequent event
    source in the whole simulator; this skips the ``call_after`` frame and
    its varargs packing while allocating (or recycling) the same pooled
    Event with the same sequence number.
    """
    pool = sim._pool
    if pool:
        event = pool.pop()
        event.time = sim.now
        event.fn = fn
        event.args = ()
        event._live = True
    else:
        event = Event(sim, sim.now, fn, ())
        event._pooled = True
    sim._live_events += 1
    event._seqno = next(sim._seq)
    sim._now_q.append(event)


class _WorkDoorbell(Signal):
    """A driver's doorbell: ``set()`` wakes the owning driver directly.

    Channels ring the doorbell through the ordinary :class:`Signal` API
    (``rx.bind(driver.work)`` then ``work.set()``), so this keeps that
    interface while routing the ring straight into the driver's state
    machine: one wakeup event when parked, one latched wakeup otherwise --
    the same delivery contract as an auto-reset signal with one waiter.
    """

    __slots__ = ("_driver",)

    def __init__(self, sim: "Simulator", driver: "Driver"):
        super().__init__(sim, auto_reset=True)
        self._driver = driver

    def set(self, value: Any = None) -> None:
        driver = self._driver
        if driver._parked:
            driver._parked = False
            # _post_now, inlined: every doorbell ring on a parked driver
            # lands here.
            sim = driver.sim
            pool = sim._pool
            if pool:
                event = pool.pop()
                event.time = sim.now
                event.fn = driver._wake_cb
                event.args = ()
                event._live = True
            else:
                event = Event(sim, sim.now, driver._wake_cb, ())
                event._pooled = True
            sim._live_events += 1
            event._seqno = next(sim._seq)
            sim._now_q.append(event)
        else:
            driver._kicked = True


class Driver(Observed):
    """Base class for frontend/backend drivers (one dedicated core each).

    Besides the event loop, the base owns the control surface every engine
    half shares: channel links to peer drivers, overload arming, tenant
    lanes, the brownout hook and the periodic control tasks.  A subclass
    keeps only its datapath.
    """

    #: Frontends queue fresh work through one admission scheduler once
    #: overload control is armed; backends carry only the retry budget.
    ADMITS = False
    # Overload control: None until enable_overload() binds the config, so
    # disabled runs take the legacy paths unchanged.
    _overload = None
    _admission = None     # a frontend's WeightedFairScheduler
    _retry_rng = None     # overload/<name>/retry, only with backoff jitter
    # Multi-tenant serving: the armed tenant set, None until
    # enable_multi_tenant() adds the tenants' lanes to the scheduler.
    _tenant_specs = None

    def __init__(self, sim: Simulator, name: str, config: Optional[OasisConfig] = None):
        self.sim = sim
        self.name = name
        self.config = config or OasisConfig()
        self.work = _WorkDoorbell(sim, self)
        self.running = False
        self.busy_ns = 0.0
        self.wakeups = 0
        self._parked = False   # parked on the doorbell; the next ring wakes
        self._kicked = False   # rung while not parked: one wakeup latched
        self.control = None    # allocator client, set by the pod
        self._links: Dict[str, Link] = {}
        # Per-link drain tuples (link, rx, counter_view, queue_view, timed),
        # rebuilt on connect: the drain loop runs once per wakeup and these
        # four attribute chains are invariant for a link's lifetime.
        self._drain_links: list = []
        self._monitor_tasks: list = []

    # -- wiring ------------------------------------------------------------------

    def connect(self, link: Link) -> None:
        """Attach the channel pair to a peer; its RX endpoint wakes us."""
        self._links[link.name] = link
        link.rx.bind(self.work)
        self._drain_links = [
            (lk, lk.rx, lk.rx.counter_view, lk.rx.queue_view, lk.rx.timed)
            for lk in self._links.values()
        ]

    # -- overload control and multi-tenant lanes ------------------------------------

    def enable_overload(self, overload_cfg, rng_factory) -> None:
        """Arm the retry budget and, on a frontend, the admission scheduler.

        Backoff jitter, when configured, comes from a dedicated substream
        (``overload/<name>/retry``) of ``rng_factory``, so arming overload
        control never perturbs workload RNG draws.
        """
        self._ovl_rng = rng_factory
        self._budget = RetryBudget(
            overload_cfg.retry_budget_ratio,
            overload_cfg.retry_budget_min,
            overload_cfg.retry_budget_cap)
        if overload_cfg.retry_jitter_frac > 0:
            self._retry_rng = rng_factory.get(f"overload/{self.name}/retry")
        if self.ADMITS:
            # Untagged work queues in the scheduler's weight-1 "-" lane: a
            # depth-capped CoDel queue until tenants add lanes beside it.
            self._admission = WeightedFairScheduler(
                overload_cfg.admission_depth,
                overload_cfg.codel_target_ms * 1e-3,
                overload_cfg.codel_interval_ms * 1e-3)
        self._overload = overload_cfg

    def _jittered(self, backoff: float) -> float:
        """``backoff`` scaled by the configured +/- retry jitter (if any)."""
        if self._retry_rng is None:
            return backoff
        frac = self._overload.retry_jitter_frac
        return backoff * (1.0 + frac * float(self._retry_rng.uniform(-1.0, 1.0)))

    def enable_multi_tenant(self, tenants) -> None:
        """Add per-tenant weighted-fair lanes to the admission scheduler.

        ``tenants`` maps tenant name to :class:`~repro.overload.TenantSpec`
        (weight + optional token-bucket rate guarantee).  Requires
        ``enable_overload()`` first -- the pod arms both.  Work already
        queued stays in the ``"-"`` lane; a backend has no scheduler and
        ignores the call.
        """
        if self._overload is None:
            raise RuntimeError("enable_overload() must be armed before "
                               "enable_multi_tenant()")
        if self._admission is None:
            return
        for name, spec in tenants.items():
            self._admission.add_tenant(name, spec)
        self._tenant_specs = dict(tenants)

    def tenant_stats(self) -> Dict[str, dict]:
        """Per-tenant scheduling counters (empty until multi-tenant is armed)."""
        if self._tenant_specs is None:
            return {}
        return self._admission.per_tenant()

    def set_brownout(self, level: int) -> None:
        """Brownout hook: level >= 1 sheds low-priority work at admission."""
        self.brownout_level = level

    @property
    def admission_saturation(self) -> float:
        """Worst admission-lane fullness in [0, 1] (0.0 with overload off)."""
        if self._admission is None:
            return 0.0
        return self._admission.saturation

    # -- periodic control tasks (§3.5) -----------------------------------------------

    def _monitors(self) -> list:
        """This driver's periodic control tasks as ``(period_s, fn)`` pairs."""
        return []

    def start_monitors(self) -> None:
        if self._monitor_tasks:
            return
        self._monitor_tasks = [self.sim.every(period, fn)
                               for period, fn in self._monitors()]

    def stop_monitors(self) -> None:
        for task in self._monitor_tasks:
            task.cancel()
        self._monitor_tasks = []

    # -- event loop ----------------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        # One zero-delay event before the driver first parks, mirroring the
        # spawn step of the coroutine formulation (event/sequence parity).
        self.sim.call_after(0.0, self._park)

    def stop(self) -> None:
        self.running = False
        self.work.set()

    def kick(self) -> None:
        """Ring this driver's doorbell."""
        self.work.set()

    def _park(self) -> None:
        """Go idle, or consume a wakeup latched while we were busy."""
        if not self.running:
            return
        if self._kicked:
            self._kicked = False
            _post_now(self.sim, self._wake_cb)
        else:
            self._parked = True

    def _wake_cb(self) -> None:
        if not self.running:
            return
        self.wakeups += 1
        self._drain_cb()

    def _drain_cb(self) -> None:
        # Keep draining until a pass handles no items, charging CPU time
        # between passes so arrivals during processing are not starved.
        # Idle busy-polling itself is *not* simulated event-by-event --
        # its (tiny, constant) CXL traffic is accounted analytically by
        # the Table 3 experiment.
        while self.running:
            items, cost_ns = self._process()
            if cost_ns > 0.0:
                self.busy_ns += cost_ns
            if items <= 0:
                break
            # sim.call_after(cost_ns * NSEC, self._drain_cb), open-coded:
            # one of these timers fires per productive drain pass.
            delay = cost_ns * NSEC
            sim = self.sim
            pool = sim._pool
            if pool:
                event = pool.pop()
                event.time = t = sim.now + delay
                event.fn = self._drain_cb
                event.args = ()
                event._live = True
            else:
                event = Event(sim, sim.now + delay, self._drain_cb, ())
                event._pooled = True
                t = event.time
            sim._live_events += 1
            seq = next(sim._seq)
            if delay == 0.0:
                event._seqno = seq
                sim._now_q.append(event)
            elif delay < _NEAR_WINDOW:
                heappush(sim._near, (t, seq, event))
            else:
                heappush(sim._far, (t, seq, event))
            return
        if self.running:
            self._park()

    def _process(self) -> tuple:
        """Drain work sources; return ``(items_handled, cpu_ns)``."""
        raise NotImplementedError
