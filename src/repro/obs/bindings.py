"""Registry bindings for the pre-existing ad-hoc counter classes.

Each ``bind_*`` function registers a *collector* -- a callable evaluated at
snapshot time that reads a legacy counter object (``LinkStats``,
``CacheStats``, ``ChannelCounters``, NIC/SSD/switch/driver attributes) and
yields registry :class:`~repro.obs.metrics.Sample` objects with canonical
names and labels.  Binding is observation-only: the legacy objects stay the
source of truth and are never mutated, so experiments that read them
directly keep producing identical numbers.

Everything here is duck-typed on the counter objects' public attributes to
keep :mod:`repro.obs` import-free of the subsystem modules (the pod wires
the concrete objects in).

Canonical metric names:

=========================  ==============================  =================
name                       labels                          source
=========================  ==============================  =================
``cxl_link_bytes``         host, direction, category       ``LinkStats``
``cache_ops``              host, domain, op                ``CacheStats``
``channel_ops``            channel, role, op               ``ChannelCounters``
``nic_frames``/``_bytes``  device, host, direction         ``SimNIC``
``nic_dropped_frames``     device, host, reason            ``SimNIC``
``ssd_ops``/``ssd_bytes``  device, host, op                ``SimSSD``
``switch_frames``          switch, event                   ``LearningSwitch``
``switch_port_*``          switch, port                    ``SwitchPort``
``driver_*``               driver, (op)                    ``Driver`` + subclasses
``allocator_events``       event                           ``PodAllocator``
``raft_term``/...          node                            ``RaftNode``
=========================  ==============================  =================
"""

from __future__ import annotations

from .metrics import LabelsKey, MetricsRegistry, Sample, labels_key

__all__ = [
    "bind_sim",
    "bind_scraper",
    "bind_pool",
    "bind_cache",
    "bind_channel_endpoint",
    "bind_channel_pair",
    "bind_nic",
    "bind_ssd",
    "bind_switch",
    "bind_driver",
    "bind_allocator",
    "bind_raft_node",
    "bind_tracer",
    "bind_flows",
    "bind_injector",
    "CACHE_OP_FIELDS",
    "CHANNEL_OP_FIELDS",
]

#: CacheStats counter attributes exported as ``cache_ops``
CACHE_OP_FIELDS = (
    "hits", "misses", "stores", "writebacks", "invalidations", "fences",
    "prefetches_issued", "prefetches_ignored", "evictions",
    "dma_read_snoop_hits", "dma_write_snoop_hits",
    "writebacks_lost", "writebacks_partial",
)

#: ChannelCounters attributes exported as ``channel_ops``
CHANNEL_OP_FIELDS = (
    "sent", "received", "empty_polls", "counter_refreshes",
    "counter_updates", "full_stalls",
)


def _sample(name, value, key: LabelsKey = ()) -> Sample:
    return Sample(name, key, float(value))


class _Keys(dict):
    """Canonical label keys of one metric family, built on first sight.

    ``keys[value]`` is ``labels_key`` of the family's fixed labels plus
    ``label=value``.  Canonicalising (sort and stringify) costs more than the
    sample, and a collector yields the same label sets on every scrape; so
    each key is built the first time its value appears and reused after, and
    every snapshot shares the key tuples.  The fixed labels' pairs are built
    once and shared by all of the family's keys.
    """

    __slots__ = ("label", "fixed")

    def __init__(self, label: str, **fixed):
        super().__init__()
        self.label = label
        self.fixed = labels_key(fixed)

    def __missing__(self, value) -> LabelsKey:
        key = self[value] = tuple(sorted(
            self.fixed + ((self.label, str(value)),)))
        return key


def bind_sim(registry: MetricsRegistry, sim) -> None:
    """Export the event kernel's own health gauges.

    ``sim_pending_events`` counts *live* (non-tombstoned) queue entries --
    a steady climb under constant load is the signature of a leaked timer
    (e.g. the pre-fix ``Process.interrupt``).  Not bound by the pod by
    default: scraping it into reports would perturb the byte-identical
    seeded snapshots the replay suite pins.
    """

    def collect():
        yield _sample("sim_processed_events", sim.processed_events)
        yield _sample("sim_pending_events", sim.pending)
        yield _sample("sim_now_seconds", sim.now)

    registry.register_collector(collect)


def bind_scraper(registry: MetricsRegistry, scraper) -> None:
    """Export the scraper's own buffering health.

    ``scraper_dropped`` counts snapshots evicted off the back of the ring
    (sampling itself never stops); ``report`` surfaces it so a window that
    silently rolled over is visible in the artifact built from it.
    """

    def collect():
        yield _sample("scraper_samples_taken", scraper.samples_taken)
        yield _sample("scraper_buffered", len(scraper))
        yield _sample("scraper_dropped", scraper.dropped)

    registry.register_collector(collect)


def bind_pool(registry: MetricsRegistry, pool) -> None:
    """Export a :class:`CXLMemoryPool`'s per-host ``LinkStats``."""

    links = {}      # (host, direction) -> keys by category

    def collect():
        for host, stats in pool.link_stats.items():
            for direction, table in (("read", stats.read_bytes),
                                     ("write", stats.write_bytes)):
                keys = links.get((host, direction))
                if keys is None:
                    keys = links[host, direction] = _Keys(
                        "category", host=host, direction=direction)
                for category, nbytes in table.items():
                    yield _sample("cxl_link_bytes", nbytes, keys[category])

    registry.register_collector(collect)


def bind_cache(registry: MetricsRegistry, cache, host: str,
               domain: str = "cxl") -> None:
    """Export one :class:`HostCache`'s ``CacheStats`` plus its line count."""

    ops = _Keys("op", host=host, domain=domain)
    resident = labels_key({"host": host, "domain": domain})

    def collect():
        stats = cache.stats
        for op in CACHE_OP_FIELDS:
            yield _sample("cache_ops", getattr(stats, op), ops[op])
        yield _sample("cache_lines_resident", cache.cached_line_count,
                      resident)

    registry.register_collector(collect)


def bind_channel_endpoint(registry: MetricsRegistry, counters, channel: str,
                          role: str) -> None:
    """Export one ``ChannelCounters`` (sender or receiver side)."""

    ops = _Keys("op", channel=channel, role=role)

    def collect():
        for op in CHANNEL_OP_FIELDS:
            yield _sample("channel_ops", getattr(counters, op), ops[op])

    registry.register_collector(collect)


def bind_channel_pair(registry: MetricsRegistry, pair) -> None:
    """Export both directions of a :class:`ChannelPair` (CXL channels only)."""
    for endpoint in (pair.a_to_b, pair.b_to_a):
        sender = getattr(endpoint, "sender", None)
        receiver = getattr(endpoint, "receiver", None)
        if sender is not None:
            bind_channel_endpoint(registry, sender.counters, endpoint.name,
                                  "sender")
        if receiver is not None:
            bind_channel_endpoint(registry, receiver.counters, endpoint.name,
                                  "receiver")


def bind_nic(registry: MetricsRegistry, nic) -> None:
    name, host = nic.name, nic.host.name
    direction = _Keys("direction", device=name, host=host)
    reason = _Keys("reason", device=name, host=host)
    device = labels_key({"device": name, "host": host})

    def collect():
        yield _sample("nic_frames", nic.tx_frames, direction["tx"])
        yield _sample("nic_frames", nic.rx_frames, direction["rx"])
        yield _sample("nic_bytes", nic.tx_bytes, direction["tx"])
        yield _sample("nic_bytes", nic.rx_bytes, direction["rx"])
        yield _sample("nic_dropped_frames", nic.rx_dropped_no_buffer,
                      reason["no_buffer"])
        yield _sample("nic_dropped_frames", nic.rx_dropped_down,
                      reason["link_down"])
        yield _sample("nic_link_up", 1.0 if nic.link_up else 0.0, device)
        yield _sample("device_aer_errors", nic.aer.total(), device)
        yield _sample("nic_tx_completions", nic.tx_completions, device)
        yield _sample("nic_dma_aborts", nic.dma_aborts, device)

    registry.register_collector(collect)


def bind_ssd(registry: MetricsRegistry, ssd) -> None:
    name, host = ssd.name, ssd.host.name
    op = _Keys("op", device=name, host=host)
    device = labels_key({"device": name, "host": host})

    def collect():
        yield _sample("ssd_ops", ssd.reads, op["read"])
        yield _sample("ssd_ops", ssd.writes, op["write"])
        yield _sample("ssd_bytes", ssd.read_bytes, op["read"])
        yield _sample("ssd_bytes", ssd.write_bytes, op["write"])
        yield _sample("device_aer_errors", ssd.aer.total(), device)
        yield _sample("ssd_completions", ssd.completions, device)
        yield _sample("ssd_media_errors", ssd.media_errors, device)

    registry.register_collector(collect)


def bind_switch(registry: MetricsRegistry, switch) -> None:
    event = _Keys("event", switch=switch.name)
    port_keys = _Keys("port", switch=switch.name)

    def collect():
        yield _sample("switch_frames", switch.forwarded_frames,
                      event["forwarded"])
        yield _sample("switch_frames", switch.flooded_frames,
                      event["flooded"])
        yield _sample("switch_frames", switch.fault_dropped,
                      event["fault_dropped"])
        yield _sample("switch_frames", switch.fault_duplicated,
                      event["fault_duplicated"])
        for port_id, port in switch.ports.items():
            key = port_keys[str(port_id)]
            yield _sample("switch_port_tx_frames", port.tx_frames, key)
            yield _sample("switch_port_tx_bytes", port.tx_bytes, key)
            yield _sample("switch_port_dropped_frames", port.dropped_frames,
                          key)

    registry.register_collector(collect)


#: extra per-driver counters exported when present (frontends vs backends)
_DRIVER_EXTRA_FIELDS = (
    "tx_forwarded", "rx_delivered", "rx_unknown_instance", "tx_no_buffer",
    "tx_posted", "rx_forwarded", "rx_fallback_inspections",
    "rx_dropped_unknown",
    # fault tolerance (net backend / storage frontend)
    "tx_retries", "tx_giveups",
    "retries", "timeouts", "giveups", "completed_ok", "completed_error",
    # epoch fencing (§3.3.3): rejections at backends, recoveries at frontends
    "fence_rejects", "stale_accepted", "tx_fenced", "resyncs", "fenced",
    # overload control: admission/shedding, retry budgets, circuit breakers
    "submitted", "shed", "shed_queue_full", "shed_sojourn", "shed_breaker",
    "shed_brownout", "retry_budget_denied", "breaker_trips", "breakers_open",
    "tx_shed", "tx_shed_queue_full", "tx_shed_sojourn", "tx_shed_brownout",
    "brownout_level",
)


def bind_driver(registry: MetricsRegistry, driver) -> None:
    """Export a busy-polling :class:`Driver`'s loop and datapath counters."""
    me = labels_key({"driver": driver.name})
    ops = _Keys("op", driver=driver.name)
    devices = _Keys("device")

    def collect():
        yield _sample("driver_busy_ns", driver.busy_ns, me)
        yield _sample("driver_wakeups", driver.wakeups, me)
        for op in _DRIVER_EXTRA_FIELDS:
            value = getattr(driver, op, None)
            if value is not None:
                yield _sample("driver_ops", value, ops[op])
        depth = getattr(driver, "queue_depth", None)
        if depth is not None:
            # Backends expose live device-queue occupancy (NIC TX ring +
            # overflow backlog, SSD submission queue); fleet health turns
            # this into queue saturation vs the configured depth.
            yield _sample("device_queue_depth", depth,
                          devices[driver.device_name])

    registry.register_collector(collect)


def bind_tenant_client(registry: MetricsRegistry, client) -> None:
    """Export a tenant load generator's request counters.

    One ``tenant_requests`` family keyed by (tenant, result); fleet health
    turns the deltas into per-tenant SLO-burn and shed-rate gauges.
    """
    result = _Keys("result", tenant=client.tenant)

    def collect():
        stats = client.stats
        yield _sample("tenant_requests", stats.submitted, result["submitted"])
        yield _sample("tenant_requests", stats.completed_ok, result["ok"])
        yield _sample("tenant_requests", stats.shed, result["shed"])
        yield _sample("tenant_requests", stats.errors, result["error"])
        yield _sample("tenant_requests", client.slo_violations,
                      result["slo_violation"])

    registry.register_collector(collect)


def bind_allocator(registry: MetricsRegistry, allocator) -> None:
    event = _Keys("event")
    nics = _Keys("device", kind="nic")
    ssds = _Keys("device", kind="ssd")

    def collect():
        yield _sample("allocator_events", allocator.failovers_executed,
                      event["failover"])
        yield _sample("allocator_events", allocator.migrations_executed,
                      event["migration"])
        yield _sample("allocator_telemetry_records",
                      allocator.telemetry_store.records_ingested)
        yield _sample("allocator_events", allocator.lease_expirations,
                      event["lease_expiry"])
        yield _sample("allocator_events", allocator.duplicate_reports,
                      event["duplicate_report"])
        yield _sample("allocator_events", allocator.failover_no_backup,
                      event["failover_no_backup"])
        yield _sample("allocator_pending_commands",
                      allocator.pending_commands)
        yield _sample("fence_epoch_grants", allocator.epochs.grants)
        yield _sample("fence_epoch_revokes", allocator.epochs.revokes)
        yield _sample("notify_delivered", allocator.notify.delivered)
        yield _sample("notify_dropped", allocator.notify.dropped)
        for devices, keys in ((allocator.devices, nics),
                              (allocator.storage_devices, ssds)):
            for dev in devices.values():
                key = keys[dev.name]
                yield _sample("allocator_device_allocated", dev.allocated, key)
                yield _sample("allocator_device_capacity", dev.capacity, key)
                yield _sample("allocator_device_failed",
                              1.0 if dev.failed else 0.0, key)

    registry.register_collector(collect)


def bind_tracer(registry: MetricsRegistry, tracer) -> None:
    """Export the tracer's recording health (recorded vs silently dropped)."""

    def collect():
        yield _sample("tracer_events_recorded", len(tracer.events))
        yield _sample("tracer_events_dropped", tracer.dropped)

    registry.register_collector(collect)


def bind_flows(registry: MetricsRegistry, flows) -> None:
    """Export a :class:`~repro.obs.flow.FlowRegistry`'s bookkeeping."""

    def collect():
        yield _sample("flow_started", flows.started)
        yield _sample("flow_completed", flows.completed)
        yield _sample("flow_records_dropped", flows.dropped_records)
        yield _sample("flow_stash_evicted", flows.stash_evicted)
        yield _sample("flow_stash_open", len(flows._stash))

    registry.register_collector(collect)


def bind_injector(registry: MetricsRegistry, injector) -> None:
    """Export a :class:`~repro.faults.injector.FaultInjector`'s event counts."""

    kinds = _Keys("kind")

    def collect():
        for kind, count in injector.injected.items():
            yield _sample("fault_injected", count, kinds[kind])
        for kind, count in injector.recovered.items():
            yield _sample("fault_recovered", count, kinds[kind])

    registry.register_collector(collect)


def bind_raft_node(registry: MetricsRegistry, node) -> None:
    me = labels_key({"node": node.node_id})

    def collect():
        yield _sample("raft_term", node.current_term, me)
        yield _sample("raft_commit_index", node.commit_index, me)
        yield _sample("raft_is_leader", 1.0 if node.state == "leader" else 0.0,
                      me)

    registry.register_collector(collect)
