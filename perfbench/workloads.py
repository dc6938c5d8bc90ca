"""The three benchmark workloads, built only through the simulator's public API.

Each workload class builds its pod in ``__init__`` (that is set-up), then
``start()`` schedules the offered load and the measured window is run in
fixed simulated-time slices by :func:`perfbench.rep.run_window`.  After the
window, ``finish()`` settles and stops the pod, and the accessors below
report what the simulation produced:

* ``completed()`` / ``offered()`` -- simulated requests completed OK and
  offered so far (the per-slice cost divides by the first);
* ``latencies_us()`` -- simulated request latencies (echo RTT, or the
  victim ``mc`` tenant's I/O latency on serve-mix);
* ``outputs()`` -- completion and shed counts that go into the fingerprint;
* ``verdicts()`` -- the workload's own pass/fail checks, as
  ``(name, value, bound, ok)``.

Every input is a pure function of the seed: the pods draw all randomness
from ``OasisConfig.seed`` through their RNG tree.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

from repro.config import OasisConfig
from repro.core.pod import CXLPod, RackBuilder
from repro.experiments.common import SERVER_IP, build_echo_pod
from repro.net.packet import make_ip
from repro.workloads.echo import EchoClient, EchoServer
from repro.workloads.tenants import SERVE_PROFILES, TenantClient

from .stats import percentile

Verdict = Tuple[str, float, float, bool]


class EchoFig10:
    """Fig 10 cell: 2-host pod, instance remote from the NIC, 256 B Poisson
    UDP echo at 20 kpps (the cell the replay suite pins at seed 17)."""

    name = "echo-fig10"
    rep_s = 4.5           # host s per repetition, spawn to exit (2-core Xeon VM)
    seeds = (17, 1017)     # (canonical, held out for confirming claims)
    packet_size = 256
    rate_pps = 20_000.0
    load_s = 0.5            # ~10k requests
    window_s = 0.52         # + 20 ms for in-flight replies to drain
    slices = 120

    def __init__(self, seed: int):
        pod, _, endpoint, _ = build_echo_pod(
            "oasis", remote=True, config=OasisConfig().with_(seed=seed))
        self.pod = pod
        self.client = EchoClient(
            pod.sim, endpoint, SERVER_IP, packet_size=self.packet_size,
            rate_pps=self.rate_pps, rng=pod.rng.get("echo-client"),
            poisson=True, metrics=pod.metrics, flows=pod.flows)

    def start(self) -> None:
        self.client.start(self.load_s)

    def completed(self) -> int:
        return self.client.stats.received

    def offered(self) -> int:
        return self.client.stats.sent

    def finish(self) -> None:
        self.pod.stop()

    def latencies_us(self) -> List[float]:
        return self.client.stats.latencies_us

    def outputs(self) -> Dict[str, int]:
        stats = self.client.stats
        return {"sent": stats.sent, "received": stats.received,
                "lost": stats.lost}

    def verdicts(self) -> List[Verdict]:
        lost = self.client.stats.lost
        return [("echo.lost", lost, 0, lost == 0)]


class Rack8h:
    """8-host / 2-pool rack: echo on every host pinned to the next host's
    NIC, 3 Raft replicas per shard with 0.2 ms group commit, and 64
    place/release churn pairs through the sharded control plane."""

    name = "rack-8h"
    rep_s = 6.5           # host s per repetition, spawn to exit (2-core Xeon VM)
    seeds = (21, 1021)     # (canonical, held out for confirming claims)
    hosts = 8
    pools = 2
    rate_pps = 20_000.0
    packet_size = 256
    load_s = 0.08
    window_s = 0.085
    settle_s = 0.1
    churn = 64
    slices = 120
    commit_p99_ceiling_ms = 0.5

    def __init__(self, seed: int):
        base = OasisConfig()
        config = base.with_(
            seed=seed,
            failover=replace(base.failover, commit_batch_window_ms=0.2))
        pod = RackBuilder(hosts=self.hosts, pools=self.pools,
                          nics_per_host=2, ssds_per_host=1, port_limit=4,
                          config=config).build()
        pod.enable_raft(replicas=3)
        pod.run(0.12)                   # every shard elects its leader
        pod.allocator.start_lease_sweeper()
        self.pod = pod
        self.clients: List[EchoClient] = []
        for group in pod.groups:
            for gi, host in enumerate(group.hosts):
                i = host.index
                server_ip = make_ip(10, 0, 0, i + 1)
                next_host = group.hosts[(gi + 1) % len(group.hosts)]
                inst = pod.add_instance(host, ip=server_ip,
                                        nic=pod.nics[f"nic-{next_host.name}"])
                EchoServer(pod.sim, inst)
                endpoint = pod.add_external_client(
                    ip=make_ip(10, 0, 9, i + 1))
                self.clients.append(EchoClient(
                    pod.sim, endpoint, server_ip,
                    packet_size=self.packet_size, rate_pps=self.rate_pps,
                    rng=pod.rng.get(f"rack-client-{i}"), poisson=True,
                    metrics=pod.metrics))
        self.placed = 0
        self.released = 0

    def _place(self, ip: int, host_name: str) -> None:
        self.pod.allocator.place_instance(ip, host_name, 0.2)
        self.placed += 1

    def _release(self, ip: int) -> None:
        self.pod.allocator.release_instance(ip, 0.2)
        self.released += 1

    def start(self) -> None:
        pod = self.pod
        interval = self.load_s / (self.churn + 1)
        for j in range(self.churn):
            ip = make_ip(10, 1, j >> 8, (j & 0xFF) + 1)
            host = pod.hosts[j % len(pod.hosts)]
            pod.sim.schedule((j + 1) * interval, self._place, ip, host.name)
            pod.sim.schedule((j + 1) * interval + 2.0 * interval,
                             self._release, ip)
        for client in self.clients:
            client.start(self.load_s)

    def completed(self) -> int:
        return sum(c.stats.received for c in self.clients)

    def offered(self) -> int:
        return sum(c.stats.sent for c in self.clients)

    def finish(self) -> None:
        self.pod.run(self.settle_s)     # flush the last group commits
        self.pod.stop()

    def latencies_us(self) -> List[float]:
        out: List[float] = []
        for client in self.clients:
            out.extend(client.stats.latencies_us)
        return out

    def commit_latencies_ms(self) -> List[float]:
        return [s * 1e3 for s in self.pod.allocator.commit_latencies]

    def outputs(self) -> Dict[str, int]:
        return {"sent": self.offered(), "received": self.completed(),
                "placed": self.placed, "released": self.released,
                "commits": len(self.pod.allocator.commit_latencies)}

    def verdicts(self) -> List[Verdict]:
        alloc = self.pod.allocator
        converged = alloc.convergence_ok()
        pending = alloc.pending_commands
        p99 = percentile(self.commit_latencies_ms(), 99)
        lost = self.offered() - self.completed()
        return [
            ("rack.converged", float(converged), 1, converged),
            ("rack.pending", pending, 0, pending == 0),
            ("rack.commit_p99_ms", p99, self.commit_p99_ceiling_ms,
             0.0 < p99 <= self.commit_p99_ceiling_ms),
            ("rack.churn_released", self.released, self.churn,
             self.placed == self.released == self.churn),
            ("echo.lost", lost, 0, lost == 0),
        ]


class ServeMix:
    """The mix half of ``python -m repro serve``: 2-host pod, pooled SSD
    derated to ~9.8k IOPS, overload control + per-tenant WFQ, fleet
    telemetry every 2 ms, invariant checker every 50 ms, mc/web/bg tenants
    with bg surging 8x between 0.3 s and 0.6 s."""

    name = "serve-mix"
    rep_s = 6.0           # host s per repetition, spawn to exit (2-core Xeon VM)
    seeds = (11, 1011)     # (canonical, held out for confirming claims)
    ssd_bandwidth_gbps = 0.04
    launch_window = 2
    surge_factor = 8.0
    pre_s = 0.3
    surge_s = 0.3
    post_s = 0.2
    window_s = 0.85         # load + 50 ms for in-flight I/O to complete
    slices = 120
    victim = "mc"

    def __init__(self, seed: int):
        base = OasisConfig()
        config = base.with_(
            seed=seed,
            ssd=replace(base.ssd, bandwidth_gbps=self.ssd_bandwidth_gbps),
            overload=replace(base.overload, enabled=True,
                             launch_window=self.launch_window,
                             brownout_high=0.15, brownout_low=0.05))
        pod = CXLPod(config=config, mode="oasis")
        h0 = pod.add_host()
        h1 = pod.add_host()
        pod.add_nic(h0)
        ssd = pod.add_ssd(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP)
        device = pod.add_block_device(inst, ssd)
        pod.enable_fleet_telemetry(period_s=0.002)
        capacity = config.ssd.bytes_per_sec / config.ssd.block_size
        profiles = SERVE_PROFILES(capacity)
        pod.enable_multi_tenant(
            {name: profile.spec() for name, profile in profiles.items()},
            overload=config.overload)
        self.clients: Dict[str, TenantClient] = {}
        for name, profile in profiles.items():
            client = TenantClient(pod.sim, device, profile,
                                  rng=pod.rng.get(f"serve/{name}"))
            pod.register_tenant_client(client)
            self.clients[name] = client
        self.checker = pod.check_invariants(interval_s=0.05)
        self.pod = pod
        self.verdict = None

    def start(self) -> None:
        duration = self.pre_s + self.surge_s + self.post_s
        for client in self.clients.values():
            client.start(duration)
        noisy = self.clients["bg"]
        sim = self.pod.sim
        sim.at(sim.now + self.pre_s, noisy.set_rate_multiplier,
               self.surge_factor)
        sim.at(sim.now + self.pre_s + self.surge_s,
               noisy.set_rate_multiplier, 1.0)

    def _total(self, field: str) -> int:
        return sum(getattr(c.stats, field) for c in self.clients.values())

    def completed(self) -> int:
        return self._total("completed_ok")

    def offered(self) -> int:
        return self._total("submitted")

    def finish(self) -> None:
        self.pod.stop()
        self.verdict = self.checker.finish()

    def latencies_us(self) -> List[float]:
        return self.clients[self.victim].stats.latencies_us

    def outputs(self) -> Dict[str, int]:
        out = {}
        for name, client in sorted(self.clients.items()):
            stats = client.stats
            out[f"{name}.submitted"] = stats.submitted
            out[f"{name}.completed_ok"] = stats.completed_ok
            out[f"{name}.shed"] = stats.shed
            out[f"{name}.errors"] = stats.errors
            out[f"{name}.slo_violations"] = client.slo_violations
        return out

    def verdicts(self) -> List[Verdict]:
        ok = self.verdict is not None and self.verdict.ok
        violations = len(self.verdict.violations) if self.verdict else -1
        finished = self._total("completed_ok") + self._total("shed") \
            + self._total("errors")
        unfinished = self.offered() - finished
        return [
            ("serve.invariant_violations", violations, 0, ok),
            ("serve.unfinished", unfinished, 0, unfinished == 0),
        ]


WORKLOADS = {cls.name: cls for cls in (EchoFig10, Rack8h, ServeMix)}
