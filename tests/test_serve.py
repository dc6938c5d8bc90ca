"""Integration tests for multi-tenant QoS serving (PR 10).

End-to-end checks over the serving stack: per-tenant WFQ at the storage
frontend (isolation, conservation, noisy-neighbour containment), the net
frontend's tenant-tagged TX lanes, the fleet ``tenant_slo_burn`` pipeline,
byte-identical same-seed serve runs, and the off-by-default contract
(pods that never arm serving keep the legacy single-queue paths).
"""

import json
from dataclasses import replace

import pytest

from repro.config import OasisConfig
from repro.core.pod import CXLPod
from repro.experiments.serve import run_serve, weighted_fair_share
from repro.net.packet import Frame, make_ip
from repro.overload import TenantSpec
from repro.workloads.echo import EchoClient, EchoServer
from repro.workloads.tenants import SERVE_PROFILES, TenantClient, TenantProfile

SERVER_IP = make_ip(10, 0, 0, 1)
CLIENT_IP = make_ip(10, 0, 9, 1)


def build_serve_pod(seed=7, launch_window=2):
    """Two-host pod with a derated SSD and the 3-class tenant mix armed."""
    base = OasisConfig()
    config = base.with_(
        seed=seed,
        ssd=replace(base.ssd, bandwidth_gbps=0.04),
        overload=replace(base.overload, enabled=True,
                         launch_window=launch_window))
    pod = CXLPod(config=config, mode="oasis")
    h0 = pod.add_host()
    h1 = pod.add_host()
    pod.add_nic(h0)
    ssd = pod.add_ssd(h0)
    inst = pod.add_instance(h1, ip=SERVER_IP)
    device = pod.add_block_device(inst, ssd)
    capacity = config.ssd.bytes_per_sec / config.ssd.block_size
    profiles = SERVE_PROFILES(capacity)
    pod.enable_multi_tenant(
        {name: profile.spec() for name, profile in profiles.items()})
    clients = {
        name: TenantClient(pod.sim, device, profile,
                           rng=pod.rng.get(f"serve/{name}"))
        for name, profile in profiles.items()}
    return pod, h1, clients


@pytest.fixture(scope="module")
def mix_run():
    """One 3-tenant run with the bg tenant surging 8x mid-run."""
    pod, h1, clients = build_serve_pod()
    for client in clients.values():
        client.start(0.3)
    pod.sim.at(0.1, clients["bg"].set_rate_multiplier, 8.0)
    pod.sim.at(0.2, clients["bg"].set_rate_multiplier, 1.0)
    pod.run(0.35)
    pod.stop()
    return pod, pod.storage_frontends[h1.name], clients


class TestTenantProfile:
    def test_spec_carries_the_contract(self):
        profile = TenantProfile(name="t", weight=3.0, guarantee_iops=100.0)
        spec = profile.spec()
        assert spec.weight == 3.0
        assert spec.guarantee_rate == 100.0

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown tenant profile"):
            TenantProfile.from_dict({"name": "t", "rate_mbps": 1.0})

    @pytest.mark.parametrize("bad", [
        {"name": ""},
        {"name": "t", "rate_iops": 0.0},
        {"name": "t", "diurnal_amplitude": 1.5},
        {"name": "t", "slo_us": -1.0},
        {"name": "t", "weight": 0.0},
    ])
    def test_validation_rejects_bad_profiles(self, bad):
        with pytest.raises(ValueError):
            TenantProfile.from_dict(bad)

    def test_diurnal_rate_is_a_pure_function_of_time(self):
        pod, _h1, clients = build_serve_pod()
        web = clients["web"]
        assert web.profile.diurnal_amplitude > 0
        base = web.rate_iops
        assert web.effective_rate == pytest.approx(base)      # sin(0) == 0
        pod.sim.run(until=web.profile.diurnal_period_s / 4)
        assert web.effective_rate == pytest.approx(
            base * (1 + web.profile.diurnal_amplitude))
        pod.stop()


class TestServeIsolation:
    def test_per_tenant_conservation(self, mix_run):
        _pod, frontend, _clients = mix_run
        pending = {}
        for state in frontend._pending.values():
            tenant = state.get("tenant")
            pending[tenant] = pending.get(tenant, 0) + 1
        for tenant, stats in frontend.tenant_stats().items():
            assert stats["submitted"] == (
                stats["completed_ok"] + stats["completed_error"]
                + stats["shed"] + pending.get(tenant, 0)), tenant

    def test_noisy_neighbour_sheds_only_its_own_lane(self, mix_run):
        _pod, frontend, clients = mix_run
        stats = frontend.tenant_stats()
        assert stats["bg"]["shed"] > 0
        assert stats["mc"]["shed"] == 0
        assert stats["web"]["shed"] == 0
        assert clients["mc"].stats.completed_ok == clients["mc"].stats.submitted
        assert clients["bg"].stats.shed == stats["bg"]["shed"]

    def test_wfq_books_balance(self, mix_run):
        _pod, frontend, _clients = mix_run
        for tenant, lane in frontend._admission.per_tenant().items():
            assert lane["pushed"] == lane["admitted"] + lane["shed_full"]
            assert lane["admitted"] == (lane["served"] + lane["shed_sojourn"]
                                        + lane["queued"]), tenant

    def test_client_and_frontend_ledgers_agree(self, mix_run):
        _pod, frontend, clients = mix_run
        stats = frontend.tenant_stats()
        for name, client in clients.items():
            assert client.stats.submitted == stats[name]["submitted"]
            assert client.stats.completed_ok == stats[name]["completed_ok"]


class TestServeExperiment:
    def test_same_seed_serve_json_is_byte_identical(self):
        kwargs = dict(seed=5, pre_s=0.05, surge_s=0.05, post_s=0.05)
        one = json.dumps(run_serve(**kwargs), sort_keys=True)
        two = json.dumps(run_serve(**kwargs), sort_keys=True)
        assert one == two

    def test_weighted_fair_share_water_fills(self):
        shares = weighted_fair_share(
            demands={"a": 100.0, "b": 1000.0, "c": 1000.0},
            weights={"a": 1.0, "b": 2.0, "c": 1.0},
            capacity=700.0)
        # a is demand-capped; the remaining 600 splits 2:1 between b and c.
        assert shares["a"] == pytest.approx(100.0)
        assert shares["b"] == pytest.approx(400.0)
        assert shares["c"] == pytest.approx(200.0)
        assert sum(shares.values()) == pytest.approx(700.0)

    def test_weighted_fair_share_with_slack_caps_at_demand(self):
        shares = weighted_fair_share(
            demands={"a": 10.0, "b": 20.0},
            weights={"a": 1.0, "b": 1.0},
            capacity=1000.0)
        assert shares == {"a": 10.0, "b": 20.0}


class TestOffByDefault:
    def test_pods_without_serving_keep_the_single_queue(self):
        pod = CXLPod(mode="oasis")
        h0 = pod.add_host()
        h1 = pod.add_host()
        pod.add_nic(h0)
        ssd = pod.add_ssd(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP)
        pod.add_block_device(inst, ssd)
        frontend = pod.storage_frontends[h1.name]
        assert frontend._tenants is None
        assert frontend.tenant_stats() == {}
        net = pod.frontends[h1.name]
        assert net._admission is None
        assert net.tenant_stats() == {}
        pod.stop()

    def test_multi_tenant_requires_overload_control_and_arms_it(self):
        pod = CXLPod(mode="oasis")
        h0 = pod.add_host()
        pod.add_nic(h0)
        pod.enable_multi_tenant({"t": TenantSpec(weight=2.0)})
        assert pod._overload_on
        assert "t" in pod.frontends[h0.name].tenant_stats()
        pod.stop()

    def test_late_joining_frontends_inherit_the_tenant_set(self):
        pod = CXLPod(mode="oasis")
        h0 = pod.add_host()
        pod.add_nic(h0)
        pod.enable_multi_tenant({"t": TenantSpec(weight=2.0)})
        h1 = pod.add_host()             # added after serving was armed
        ssd = pod.add_ssd(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP)
        pod.add_block_device(inst, ssd)
        assert "t" in pod.frontends[h1.name].tenant_stats()
        assert pod.storage_frontends[h1.name]._tenants is not None
        pod.stop()


class TestArmingOnALiveFrontend:
    """Regression: arming multi-tenant serving on a frontend with queued
    work used to swap the admission queue out together with its contents,
    stranding those requests (and frames) forever."""

    def test_queued_storage_requests_complete_and_books_balance(self):
        base = OasisConfig()
        config = base.with_(
            seed=7, ssd=replace(base.ssd, bandwidth_gbps=0.04),
            overload=replace(base.overload, launch_window=2))
        pod = CXLPod(config=config, mode="oasis")
        h0 = pod.add_host()
        h1 = pod.add_host()
        pod.add_nic(h0)
        ssd = pod.add_ssd(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP)
        device = pod.add_block_device(inst, ssd)
        pod.enable_overload_control()
        checker = pod.check_invariants()
        statuses = []
        for lba in range(64):
            device.read(lba, 1, lambda status, _data: statuses.append(status))
        pod.run(0.0002)                 # untagged reads queued, 2 launched
        pod.enable_multi_tenant({"t": TenantSpec(weight=2.0)})
        pod.run(0.5)
        verdict = checker.finish()
        pod.stop()
        assert verdict.ok, verdict.render()
        assert statuses == [0] * 64
        assert pod.storage_frontends[h1.name].inflight == 0

    def test_queued_net_frames_are_forwarded(self):
        pod = CXLPod(config=OasisConfig().with_(seed=9), mode="oasis")
        h0 = pod.add_host()
        h1 = pod.add_host()
        pod.add_nic(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP)
        pod.add_external_client(ip=CLIENT_IP)
        pod.enable_overload_control()
        for _ in range(200):            # > one 64-frame TX batch
            inst.send_frame(Frame(dst_mac=0, src_mac=0, src_ip=SERVER_IP,
                                  dst_ip=CLIENT_IP, src_port=1, dst_port=2,
                                  payload=b"x" * 32))
        pod.run(1e-6)                   # the first batch is on its way
        pod.enable_multi_tenant({"t": TenantSpec(weight=2.0)})
        pod.run(0.05)
        pod.stop()
        net = pod.frontends[h1.name]
        assert net.tx_forwarded == 200
        assert net.tx_shed == net.tx_no_buffer == 0


class TestNetTxWfq:
    def test_tenant_tagged_echo_flows_through_the_tx_wfq(self):
        pod = CXLPod(config=OasisConfig().with_(seed=9), mode="oasis")
        h0 = pod.add_host()
        h1 = pod.add_host()
        pod.add_nic(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP)
        pod.enable_multi_tenant({"edge": TenantSpec(weight=2.0)})
        EchoServer(pod.sim, inst, tenant="edge")
        endpoint = pod.add_external_client(ip=CLIENT_IP)
        client = EchoClient(pod.sim, endpoint, SERVER_IP, rate_pps=2000.0,
                            rng=pod.rng.get("serve/echo"), poisson=True,
                            tenant="edge")
        client.start(0.05)
        pod.run(0.08)
        pod.stop()
        assert client.stats.received > 0
        net = pod.frontends[h1.name]
        lanes = net.tenant_stats()
        # Every echoed reply rode the tagged tenant's TX lane.
        assert lanes["edge"]["served"] == client.stats.received
        assert net.tx_forwarded == lanes["edge"]["served"]

    def test_untagged_frames_share_the_default_lane(self):
        pod = CXLPod(config=OasisConfig().with_(seed=9), mode="oasis")
        h0 = pod.add_host()
        h1 = pod.add_host()
        pod.add_nic(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP)
        pod.enable_multi_tenant({"edge": TenantSpec(weight=2.0)})
        EchoServer(pod.sim, inst)               # no tenant tag
        endpoint = pod.add_external_client(ip=CLIENT_IP)
        client = EchoClient(pod.sim, endpoint, SERVER_IP, rate_pps=2000.0,
                            rng=pod.rng.get("serve/echo"), poisson=True)
        client.start(0.05)
        pod.run(0.08)
        pod.stop()
        assert client.stats.received > 0
        lanes = pod.frontends[h1.name].tenant_stats()
        assert lanes["-"]["served"] == client.stats.received


class TestTenantSloBurnAlert:
    def test_burning_tenant_fires_the_alert(self):
        base = OasisConfig()
        config = base.with_(
            seed=3, ssd=replace(base.ssd, bandwidth_gbps=0.04))
        pod = CXLPod(config=config, mode="oasis")
        h0 = pod.add_host()
        h1 = pod.add_host()
        pod.add_nic(h0)
        ssd = pod.add_ssd(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP)
        device = pod.add_block_device(inst, ssd)
        pod.enable_fleet_telemetry(period_s=0.002)
        # An SLO no completion can meet: every ok completion is a violation.
        profile = TenantProfile(name="mc", rate_iops=2000.0, slo_us=1.0)
        pod.enable_multi_tenant({"mc": profile.spec()})
        client = TenantClient(pod.sim, device, profile,
                              rng=pod.rng.get("serve/mc"))
        pod.register_tenant_client(client)
        client.start(0.2)
        pod.run(0.25)
        pod.stop()
        assert client.slo_violations == client.stats.completed_ok > 0
        assert pod.fleet.view().tenant_slo_burn("mc") > 0.5
        fired = {event.rule for event in pod.fleet.alerts.log
                 if event.kind == "fire"}
        assert "tenant_slo_burn" in fired

    def test_healthy_tenant_stays_silent(self):
        base = OasisConfig()
        config = base.with_(
            seed=3, ssd=replace(base.ssd, bandwidth_gbps=0.04))
        pod = CXLPod(config=config, mode="oasis")
        h0 = pod.add_host()
        h1 = pod.add_host()
        pod.add_nic(h0)
        ssd = pod.add_ssd(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP)
        device = pod.add_block_device(inst, ssd)
        pod.enable_fleet_telemetry(period_s=0.002)
        profile = TenantProfile(name="mc", rate_iops=2000.0, slo_us=50_000.0)
        pod.enable_multi_tenant({"mc": profile.spec()})
        client = TenantClient(pod.sim, device, rng=pod.rng.get("serve/mc"),
                              profile=profile)
        pod.register_tenant_client(client)
        client.start(0.2)
        pod.run(0.25)
        pod.stop()
        assert client.slo_violations == 0
        assert pod.fleet.view().tenant_slo_burn("mc") == 0.0
        fired = {event.rule for event in pod.fleet.alerts.log
                 if event.kind == "fire"}
        assert "tenant_slo_burn" not in fired
