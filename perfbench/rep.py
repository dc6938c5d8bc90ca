"""One repetition of one workload, in a fresh process.

Usage (``run.py`` spawns it; set ``PYTHONPATH`` to the repo root and
``src``)::

    python3 -m perfbench.rep --workload echo-fig10 --seed 17 \
        --spawned-at <time.monotonic() of the parent at spawn> [--traced]

Builds the workload, runs its measured window as ``Simulator.run(until=t_k)``
at absolute slice times, then prints one JSON object: per-slice host time,
the calibration probe timed around every slice, per-slice completions,
exact simulated counts, the output fingerprint, the workload's verdicts,
counters read from the pod's metrics registry, and peak RSS.  With
``--traced`` the window runs under cProfile with two counting wrappers
(``DoorbellChannel.drain`` and ``AdmissionQueue.pop``) and the result also
carries the per-layer attribution.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import defaultdict
from typing import Dict, Optional

from repro.core.datapath import DoorbellChannel
from repro.obs.cli import snapshot_json
from repro.overload.admission import AdmissionQueue

from .stats import digest, percentile
from .workloads import WORKLOADS


#: Iterations of the calibration probe timed between slices.
PROBE_ITERS = 10_000
#: Host-time figures are scaled to a reference host on which one probe
#: takes exactly this long.
PROBE_REF_S = 2e-3


def probe() -> float:
    """Host seconds for a fixed pure-Python loop: the host's current speed.

    Timed between slices, it tracks slowdowns the process cannot see in
    its own CPU time (other tenants on the same cores), so each slice's
    host time can be scaled to a reference speed.
    """
    table: Dict[int, int] = {}
    start = time.perf_counter()
    for i in range(PROBE_ITERS):
        table[i & 511] = table.get(i & 511, 0) + i
    return time.perf_counter() - start


def read_counters(pod) -> Dict[str, float]:
    """Per-layer counters summed from the pod's metrics registry."""
    out: Dict[str, float] = defaultdict(float)
    for (name, labels), value in pod.metrics.snapshot(pod.sim.now).values.items():
        lab = dict(labels)
        if name == "driver_wakeups":
            out["driver.wakeups"] += value
        elif name == "driver_busy_ns":
            out["driver.busy_ns"] += value
        elif name == "driver_ops":
            out[f"driver_ops.{lab['op']}"] += value
        elif name == "channel_ops":
            out[f"channel.{lab['role']}.{lab['op']}"] += value
        elif name == "cache_ops":
            out[f"cache.{lab['op']}"] += value
        elif name == "cxl_link_bytes":
            out[f"cxl.{lab['category']}"] += value
        elif name == "switch_frames":
            out[f"switch.{lab['event']}"] += value
        elif name == "ssd_ops":
            out[f"ssd.{lab['op']}"] += value
    return out


def storage_counters(pod) -> Dict[str, int]:
    """Totals over the pod's storage frontends (public driver counters)."""
    out = {"submitted": 0, "shed": 0, "retries": 0}
    for frontend in pod.storage_frontends.values():
        for key in out:
            out[key] += getattr(frontend, key)
    return out


class Wrappers:
    """Counting wrappers installed on two public methods for a traced run."""

    def __init__(self):
        self.drain_calls = 0
        self.drain_useful = 0
        self.sojourns_s: list = []
        self._saved = []

    def install(self) -> None:
        drain = DoorbellChannel.drain
        pop = AdmissionQueue.pop
        wrappers = self

        def counted_drain(channel, limit=256):
            payloads, cost = drain(channel, limit)
            wrappers.drain_calls += 1
            if payloads:
                wrappers.drain_useful += 1
            return payloads, cost

        def sampled_pop(queue, now):
            if len(queue):
                wrappers.sojourns_s.append(queue.head_sojourn(now))
            return pop(queue, now)

        self._saved = [(DoorbellChannel, "drain", drain),
                       (AdmissionQueue, "pop", pop)]
        DoorbellChannel.drain = counted_drain
        AdmissionQueue.pop = sampled_pop

    def remove(self) -> None:
        for cls, attr, fn in self._saved:
            setattr(cls, attr, fn)
        self._saved = []


def run_rep(workload_cls, seed: int, spawned_at: Optional[float] = None,
            traced: bool = False) -> dict:
    """Run one repetition of ``workload_cls`` (a class from ``WORKLOADS``)."""
    wl = workload_cls(seed)
    pod, sim = wl.pod, wl.pod.sim
    wl.start()              # schedules the load; no event runs yet
    before = read_counters(pod)
    stores_before = storage_counters(pod)
    events0 = sim.processed_events

    profile = wrappers = None
    if traced:
        import cProfile

        wrappers = Wrappers()
        wrappers.install()
        profile = cProfile.Profile()
    t0 = sim.now
    n = wl.slices
    slice_wall = []
    slice_done = []
    pending_peak = sim.pending
    first_request_at = time.monotonic()
    slice_probe = [probe()]     # one before, then one after every slice
    for k in range(1, n + 1):
        done = wl.completed()
        if profile is not None:
            profile.enable()
        start = time.perf_counter()
        sim.run(until=t0 + wl.window_s * k / n)
        slice_wall.append(time.perf_counter() - start)
        if profile is not None:
            profile.disable()
        slice_done.append(wl.completed() - done)
        if sim.pending > pending_peak:
            pending_peak = sim.pending
        slice_probe.append(probe())
    if wrappers is not None:
        wrappers.remove()
    events = sim.processed_events - events0
    completed = wl.completed()
    offered = wl.offered()
    after = read_counters(pod)
    stores_after = storage_counters(pod)
    wl.finish()

    latencies = list(wl.latencies_us())
    outputs = wl.outputs()
    snapshot = snapshot_json(pod.metrics.snapshot(sim.now))
    snapshot["samples"] = [s for s in snapshot["samples"]
                           if not s["name"].startswith("sim_")]
    commits_ms = [s * 1e3 for s in pod.allocator.commit_latencies]
    result = {
        "workload": wl.name,
        "seed": seed,
        "traced": traced,
        "setup_s": (first_request_at - spawned_at
                    if spawned_at is not None else None),
        "slice_wall_s": slice_wall,
        "slice_probe_s": slice_probe,
        "slice_completed": slice_done,
        "events": events,
        "completed": completed,
        "offered": offered,
        "pending_peak": pending_peak,
        "sim_p50_us": percentile(latencies, 50),
        "sim_p99_us": percentile(latencies, 99),
        "sim_mean_us": sum(latencies) / len(latencies) if latencies else 0.0,
        "outputs": outputs,
        "fingerprint": digest({"latencies_us": latencies,
                               "outputs": outputs, "metrics": snapshot}),
        "verdicts": [list(v) for v in wl.verdicts()],
        "counters": {key: after.get(key, 0.0) - before.get(key, 0.0)
                     for key in sorted(set(after) | set(before))},
        "storage": {key: stores_after[key] - stores_before[key]
                    for key in stores_after},
        "commits": len(commits_ms),
        "commit_p99_ms": percentile(commits_ms, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if traced:
        from .layers import attribute

        result["profile"] = attribute(profile)
        result["wrapped"] = {
            "drain_calls": wrappers.drain_calls,
            "drain_useful": wrappers.drain_useful,
            "sojourn_p99_us": percentile(wrappers.sojourns_s, 99) * 1e6,
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    result = run_rep(WORKLOADS[args.workload], args.seed, args.spawned_at,
                     args.traced)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
