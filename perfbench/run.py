#!/usr/bin/env python3
"""Simulator-cost benchmark: host time and events per simulated request.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload echo-fig10 --seed 17 --seconds 30 --trace 0

``--trace 0`` runs ``--seconds / rep_s`` fresh-process repetitions of the
workload (at least three; ``rep_s`` is the workload's nominal repetition
time) and prints the end-to-end metrics.  ``--trace 1`` runs the workload once plainly and once
under cProfile and prints the per-layer metrics.  Every run checks the
simulated outputs (fingerprint, the workload's own verdicts) and prints a
run manifest line; the last line of standard output is the result JSON.
Exit status: 0 when every check passed, 1 when a check failed, 2 when the
simulator's source is not next to this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fresh-process repetitions per untraced run, at least.
MIN_REPS = 3
#: An untraced run stops early once it would pass this multiple of
#: ``--seconds``.
OVERRUN = 1.5
#: Host-time budget for all repetitions of one run, spawns included.
DEADLINE_S = 165.0


def spawn_rep(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """Run one repetition in a fresh interpreter; its JSON, or an error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    cmd = [sys.executable, "-m", "perfbench.rep", "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"repetition timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"error": f"repetition exited {proc.returncode}: "
                         + " | ".join(tail)}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def manifest(workload_cls, seed: int, trace: int) -> dict:
    """What ran, and on what machine."""
    from perfbench.stats import digest

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode())
        src.update(path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    config = {k: v for k, v in vars(workload_cls).items()
              if not k.startswith("_") and isinstance(v, (int, float, str))}
    return {
        "workload": workload_cls.name,
        "seed": seed,
        "trace": trace,
        "seeds_recorded": list(workload_cls.seeds),
        "git_sha": sha,
        "src_digest": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
        "config": config,
        "config_digest": digest(config),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="host time and events per simulated request")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {ROOT / 'src'}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.report import Checks, end_to_end, per_layer, raw_host_times
    from perfbench.workloads import WORKLOADS

    workload_cls = WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0 (it seeds numpy's RNG tree)",
              file=sys.stderr)
        return 2

    info = manifest(workload_cls, args.seed, args.trace)
    begin = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - begin)

    reps = []
    if args.trace:
        for traced in (False, True):
            reps.append(spawn_rep(args.workload, args.seed, traced,
                                  remaining()))
    else:
        # A fixed count per workload: the cheapest-repetition estimate
        # reads lower the more repetitions it picks from, so the count
        # must not follow the host's speed.
        planned = max(MIN_REPS, round(args.seconds / workload_cls.rep_s))
        while len(reps) < planned:
            reps.append(spawn_rep(args.workload, args.seed, False,
                                  remaining()))
            elapsed = time.monotonic() - begin
            if "error" in reps[-1]:
                break
            # On a much slower host, stop rather than overrun: the next
            # repetition takes about as long as the mean one so far.
            next_end = elapsed + elapsed / len(reps)
            if len(reps) >= MIN_REPS and next_end > OVERRUN * args.seconds:
                break
            if next_end > DEADLINE_S - 5.0:
                break

    checks = Checks(args.workload, args.seed)
    checks.reps(reps)
    if args.trace:
        metrics = per_layer(reps, checks)
    else:
        metrics = end_to_end(reps, checks)
    info["reps"] = len(reps)
    info["raw_host"] = raw_host_times(reps)
    info["checks"] = checks.records
    info["wall_s"] = time.monotonic() - begin

    for name, metric in metrics.items():
        print(f"{args.workload} seed {args.seed}: {name} = "
              f"{metric['value']:.6g} {metric['unit']}")
    for record in checks.records:
        if not record["verdict"]:
            print(f"{args.workload} seed {args.seed}: CHECK FAILED "
                  f"{record['name']} value={record['value']} "
                  f"bound={record['bound']}", file=sys.stderr)
    print(json.dumps({"manifest": info}, sort_keys=True))
    attempted, failed = checks.request_counts(reps)
    print(json.dumps({"correct": checks.ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
