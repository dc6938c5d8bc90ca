"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=.:src python -m pytest perfbench -q

Shortened copies of the workloads keep the repeat tests quick; the
recorded-fingerprint test runs each workload at full size at its canonical
seed (about 20 s in all).
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.layers import EVENT_LAYERS, LAYERS, layer_of_file
from perfbench.rep import run_rep
from perfbench.report import (EXACT_FIELDS, Checks, end_to_end, per_layer,
                              recorded_fingerprint)
from perfbench.workloads import WORKLOADS, EchoFig10, Rack8h, ServeMix

ROOT = Path(__file__).resolve().parent.parent


class ShortEcho(EchoFig10):
    load_s = 0.03
    window_s = 0.04
    slices = 8


class ShortRack(Rack8h):
    load_s = 0.015
    window_s = 0.02
    churn = 8
    slices = 8


class ShortServe(ServeMix):
    pre_s = 0.03
    surge_s = 0.03
    post_s = 0.02
    window_s = 0.1
    slices = 8


SHORT = (ShortEcho, ShortRack, ShortServe)


@pytest.mark.parametrize("cls", SHORT, ids=lambda c: c.name)
def test_exact_metrics_repeat_bit_for_bit(cls):
    seed = cls.seeds[0]
    a = run_rep(cls, seed)
    b = run_rep(cls, seed)
    for field in EXACT_FIELDS + ("slice_completed", "pending_peak",
                                 "verdicts", "commits", "commit_p99_ms"):
        assert a[field] == b[field], field
    assert all(ok for *_, ok in a["verdicts"])
    assert a["completed"] > 0


@pytest.mark.parametrize("cls", SHORT, ids=lambda c: c.name)
def test_traced_run_reproduces_untraced_outputs(cls):
    seed = cls.seeds[0]
    plain = run_rep(cls, seed)
    traced = run_rep(cls, seed, traced=True)
    for field in EXACT_FIELDS:
        assert traced[field] == plain[field], field
    prof = traced["profile"]
    assert sorted(prof["events"]) == sorted(EVENT_LAYERS)
    assert sum(prof["events"].values()) == traced["events"]
    assert sorted(prof["self_s"]) == sorted(LAYERS)
    assert traced["wrapped"]["drain_calls"] >= traced["wrapped"]["drain_useful"]


def test_seed_reaches_the_inputs():
    a = run_rep(ShortEcho, 17)
    b = run_rep(ShortEcho, 18)
    assert a["fingerprint"] != b["fingerprint"]


def test_every_simulator_module_has_a_named_layer():
    src = ROOT / "src" / "repro"
    for path in src.rglob("*.py"):
        layer = layer_of_file(str(path))
        assert layer in LAYERS
        if path.parent != src:          # top-level config/rng -> other
            assert layer != "other", path
    assert layer_of_file(str(src / "core" / "engine.py")) == "driver"
    assert layer_of_file(str(src / "pcie" / "nic.py")) == "pcie.nic"
    assert layer_of_file(str(src / "faults" / "invariants.py")) == "obs"
    assert layer_of_file(__file__) == "other"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_canonical_seed_matches_recorded_fingerprint(name):
    cls = WORKLOADS[name]
    for seed in cls.seeds:
        assert recorded_fingerprint(name, seed) is not None
    result = run_rep(cls, cls.seeds[0])
    assert result["fingerprint"] == recorded_fingerprint(name, cls.seeds[0])


def test_refuses_to_run_without_the_simulator(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text("{}")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "echo-fig10",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_results_carry_exactly_the_metrics_benchmark_json_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    seed = 18                   # no recorded fingerprint at this seed
    plain = run_rep(ShortEcho, seed, spawned_at=time.monotonic())
    traced = run_rep(ShortEcho, seed, traced=True)
    for kind, reps, build in (("end_to_end", [plain], end_to_end),
                              ("per_layer", [plain, traced], per_layer)):
        checks = Checks(ShortEcho.name, seed)
        checks.reps(reps)
        metrics = build(reps, checks)
        assert checks.ok, checks.records
        assert [(name, m["unit"]) for name, m in metrics.items()] == [
            (m["name"], m["unit"]) for m in spec[kind]]
