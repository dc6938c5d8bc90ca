"""Turn repetition results into checks and metrics.

Each repetition is the JSON one ``perfbench.rep`` process printed.  The
checks decide ``correct``; the metric functions build the ``metrics`` map
of the result line: :func:`end_to_end` from untraced repetitions and
:func:`per_layer` from one untraced plus one traced repetition.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from .layers import EVENT_LAYERS, LAYERS
from .rep import PROBE_REF_S
from .stats import median, percentile, ratio

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

#: Simulated outputs every repetition of a run must reproduce exactly.
EXACT_FIELDS = ("fingerprint", "events", "completed", "offered",
                "sim_p50_us", "sim_p99_us", "sim_mean_us", "counters")


def recorded_fingerprint(workload: str, seed: int):
    table = json.loads(FINGERPRINTS.read_text())
    return table.get(workload, {}).get(str(seed))


class Checks:
    """Named ``{value, bound, verdict}`` records; ``ok`` when all pass."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.records: List[dict] = []
        self._rep_ok: List[bool] = []

    def add(self, name: str, value, bound, verdict: bool) -> bool:
        self.records.append({"name": name, "value": value, "bound": bound,
                             "verdict": bool(verdict)})
        return bool(verdict)

    @property
    def ok(self) -> bool:
        return bool(self.records) and all(r["verdict"] for r in self.records)

    def reps(self, reps: List[dict]) -> None:
        """Per-repetition output checks: finished, verdicts, fingerprint."""
        recorded = recorded_fingerprint(self.workload, self.seed)
        ref = next((r for r in reps if "error" not in r), None)
        for i, rep in enumerate(reps):
            tag = f"rep{i}" + (".traced" if rep.get("traced") else "")
            if "error" in rep:
                self._rep_ok.append(self.add(f"{tag}.finished", rep["error"],
                                             "exit 0", False))
                continue
            ok = True
            for name, value, bound, verdict in rep["verdicts"]:
                ok &= self.add(f"{tag}.{name}", value, bound, verdict)
            if rep is not ref:
                same = all(rep[f] == ref[f] for f in EXACT_FIELDS)
                ok &= self.add(f"{tag}.outputs_match_rep0",
                               rep["fingerprint"][:16],
                               ref["fingerprint"][:16], same)
            if recorded is not None:
                ok &= self.add(f"{tag}.fingerprint_recorded",
                               rep["fingerprint"][:16], recorded[:16],
                               rep["fingerprint"] == recorded)
            self._rep_ok.append(ok)

    def request_counts(self, reps: List[dict]):
        """(attempted, failed): a failed repetition fails all its requests."""
        ref = next((r for r in reps if "error" not in r), None)
        per_rep = ref["offered"] if ref is not None else 1
        attempted = failed = 0
        for rep, ok in zip(reps, self._rep_ok):
            offered = rep.get("offered", per_rep)
            attempted += offered
            if not (ok and self.ok):
                failed += offered
        return max(attempted, 1), failed

    def ok_requests(self, reps: List[dict]) -> int:
        """Requests completed OK by repetitions that passed every check."""
        if not self.ok:
            return 0
        return sum(rep["completed"] for rep, ok in zip(reps, self._rep_ok)
                   if ok)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _scaled_walls(rep: dict) -> List[float]:
    """Each slice's host time scaled to the reference host speed.

    The scale is the probe time around the slice (mean of the probes
    before and after it) relative to ``PROBE_REF_S``.
    """
    probes = rep["slice_probe_s"]
    return [wall * PROBE_REF_S * 2.0 / (probes[k] + probes[k + 1])
            for k, wall in enumerate(rep["slice_wall_s"])]


def slice_costs_us(reps: List[dict], walls_of=_scaled_walls) -> List[float]:
    """Reference-host us per completed request, for each slice with any.

    Every repetition of a run simulates identical work in slice ``k``, so
    the slice's cost is its cheapest repetition after scaling: the one
    least disturbed by whatever else the host was running.
    """
    walls = zip(*(walls_of(rep) for rep in reps))
    return [min(wall) / done * 1e6
            for wall, done in zip(walls, reps[0]["slice_completed"])
            if done > 0]


def scaled_setup_s(rep: dict) -> float:
    """Set-up time scaled by the repetition's median probe."""
    return rep["setup_s"] * PROBE_REF_S / median(rep["slice_probe_s"])


def raw_host_times(reps: List[dict]) -> dict:
    """Unscaled host figures, recorded in the manifest beside the metrics."""
    good = [r for r in reps if "error" not in r]
    if not good:
        return {}
    return {
        "wall_us_per_req": median(slice_costs_us(
            good, walls_of=lambda rep: rep["slice_wall_s"])),
        "window_s": [sum(r["slice_wall_s"]) for r in good],
        "setup_s": [r["setup_s"] for r in good],
        "probe_ms_median": [median(r["slice_probe_s"]) * 1e3 for r in good],
    }


def end_to_end(reps: List[dict], checks: Checks) -> Dict[str, dict]:
    """The user-visible cost and outcome metrics of an untraced run."""
    good = [r for r in reps if "error" not in r]
    if not good:
        return {}
    ref = good[0]
    per_req_us = slice_costs_us(good)
    attempted, _ = checks.request_counts(reps)
    return {
        "wall_us_per_req": _metric(median(per_req_us), "us"),
        "wall_us_per_req_p90": _metric(percentile(per_req_us, 90), "us"),
        "events_per_req": _metric(ratio(ref["events"], ref["completed"]),
                                  "events"),
        "setup_s": _metric(median([scaled_setup_s(r) for r in good]), "s"),
        "peak_rss_mb": _metric(median([r["peak_rss_mb"] for r in good]),
                               "MB"),
        "sim_mean_us": _metric(ref["sim_mean_us"], "sim_us"),
        "sim_p99_us": _metric(ref["sim_p99_us"], "sim_us"),
        "ok_rate": _metric(ratio(checks.ok_requests(reps), attempted),
                           "ratio"),
    }


def per_layer(reps: List[dict], checks: Checks) -> Dict[str, dict]:
    """Per-layer counts and self-time shares from a traced repetition."""
    plain = next((r for r in reps if "error" not in r and not r["traced"]),
                 None)
    traced = next((r for r in reps if "error" not in r and r["traced"]),
                  None)
    if plain is None or traced is None:
        return {}
    prof = traced["profile"]
    events = prof["events"]
    checks.add("trace.events_sum", sum(events.values()), traced["events"],
               sum(events.values()) == traced["events"])
    total_s = sum(prof["self_s"].values())
    shares = {name: ratio(prof["self_s"][name], total_s) for name in LAYERS}
    checks.add("trace.self_share_sum", sum(shares.values()), 1.0,
               abs(sum(shares.values()) - 1.0) < 1e-9)

    req = traced["completed"]
    c = traced["counters"]
    wrapped = traced["wrapped"]
    loads = c.get("cache.hits", 0) + c.get("cache.misses", 0)
    sent = c.get("channel.sender.sent", 0)
    received = c.get("channel.receiver.received", 0)
    ssd_ops = c.get("ssd.read", 0) + c.get("ssd.write", 0)
    store = traced["storage"]

    m: Dict[str, dict] = {}

    def put(name, value, unit):
        m[name] = _metric(value, unit)

    put("sim.events", traced["events"], "events")
    put("sim.pending_peak", traced["pending_peak"], "events")
    for name in EVENT_LAYERS:
        put(f"events.{name}", events[name], "events")
    put("driver.wakeups_per_req", ratio(c.get("driver.wakeups", 0), req),
        "count")
    put("driver.drains_per_req", ratio(wrapped["drain_calls"], req), "count")
    put("driver.drain_useful_ratio",
        ratio(wrapped["drain_useful"], wrapped["drain_calls"]), "ratio")
    put("driver.busy_us_per_req",
        ratio(c.get("driver.busy_ns", 0) / 1e3, req), "sim_us")
    put("datapath.sends_per_req", ratio(prof["datapath_sends"], req), "count")
    put("channel.sends_per_req", ratio(sent, req), "count")
    put("channel.send_full_ratio",
        ratio(c.get("channel.sender.full_stalls", 0),
              sent + c.get("channel.sender.full_stalls", 0)), "ratio")
    put("channel.poll_hit_ratio",
        ratio(received, received + c.get("channel.receiver.empty_polls", 0)),
        "ratio")
    put("net.forwards_per_req", ratio(c.get("switch.forwarded", 0), req),
        "count")
    put("mem.loads_per_req", ratio(loads, req), "count")
    put("mem.stores_per_req", ratio(c.get("cache.stores", 0), req), "count")
    put("mem.flush_ops_per_req",
        ratio(c.get("cache.writebacks", 0) + c.get("cache.invalidations", 0),
              req), "count")
    put("mem.cache_hit_ratio", ratio(c.get("cache.hits", 0), loads), "ratio")
    for category in ("payload", "message", "counter"):
        put(f"mem.cxl_bytes_per_req.{category}",
            ratio(c.get(f"cxl.{category}", 0), req), "B")
    put("storage.submits_per_req", ratio(store["submitted"], req), "count")
    put("storage.write_frac", ratio(c.get("ssd.write", 0), ssd_ops), "ratio")
    put("storage.retries", store["retries"], "count")
    put("overload.admit_ratio",
        1.0 - ratio(store["shed"], store["submitted"]), "ratio")
    put("overload.shed", store["shed"], "count")
    put("overload.sojourn_p99_us", wrapped["sojourn_p99_us"], "sim_us")
    put("obs.calls_per_req", ratio(prof["calls"]["obs"], req), "count")
    put("control.commits", traced["commits"], "count")
    put("control.commit_p99_ms", traced["commit_p99_ms"], "sim_ms")
    for name in LAYERS:
        put(f"{name}.self_share", shares[name], "ratio")
    put("trace_overhead",
        ratio(sum(_scaled_walls(traced)), sum(_scaled_walls(plain))), "ratio")
    put("sim_p50_us", traced["sim_p50_us"], "sim_us")
    put("error_rate", 1.0 - ratio(traced["completed"], traced["offered"]),
        "ratio")
    return m
