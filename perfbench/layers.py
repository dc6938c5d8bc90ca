"""Attribute a cProfile of the measured window to the simulator's layers.

Layers are named after the modules of ``src/repro``; anything outside the
package (the standard library, builtins, numpy, this benchmark) is
``other``.  From one :class:`cProfile.Profile` this module derives:

* **self time per layer** -- each function's ``inlinetime`` (time in the
  function minus the functions it called) summed by its module's layer, so
  the shares, ``other`` included, sum to 1;
* **call counts per layer** -- ``callcount`` summed the same way;
* **dispatched events per layer** -- the callbacks ``Simulator.run`` calls
  directly, each attributed to its own module.  Two kernel trampolines are
  looked through: ``Process._resume`` (attributed to the generator it
  resumes, via the generator ``send`` it makes) and ``PeriodicTask._fire``
  (attributed to the periodic function it calls).  Wrapping
  ``schedule``/``call_after`` would miss most events, because the driver
  doorbell and process wakeups push onto the kernel queues directly.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict

import repro
from repro.core.datapath import DoorbellChannel
from repro.sim.core import PeriodicTask, Process, Simulator

#: Self-time layers; every module of ``src/repro`` maps to exactly one.
LAYERS = (
    "sim", "driver", "datapath", "channel", "mem",
    "netengine.frontend", "netengine.backend", "netengine.messages",
    "storage.frontend", "storage.backend", "storage.messages",
    "pcie.nic", "pcie.ssd", "pcie.common",
    "net", "host", "workloads", "overload", "obs", "control", "other",
)

#: Event layers: the self-time layers with the engine halves merged.
EVENT_LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in LAYERS))

_PKG = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

_FILE_LAYERS = {
    "core/engine.py": "driver",
    "core/datapath.py": "datapath",
    "core/pod.py": "control",
    "core/netengine/frontend.py": "netengine.frontend",
    "core/netengine/backend.py": "netengine.backend",
    "core/storage/frontend.py": "storage.frontend",
    "core/storage/backend.py": "storage.backend",
    "pcie/nic.py": "pcie.nic",
    "pcie/ssd.py": "pcie.ssd",
}

_DIR_LAYERS = {
    "sim": "sim", "channel": "channel", "mem": "mem",
    "core/netengine": "netengine.messages",
    "core/storage": "storage.messages",
    "core/allocator": "control", "core/control": "control",
    "core/raft": "control", "core": "control",
    "pcie": "pcie.common", "net": "net", "host": "host",
    "workloads": "workloads", "experiments": "workloads",
    "analysis": "workloads",
    "overload": "overload", "obs": "obs", "faults": "obs",
}

# Builtins the dispatch loop itself calls (queue pops, the free list).
_KERNEL_BUILTINS = ("_heapq.heappop", "'popleft'", "builtins.len",
                    "'append' of 'list'")
_GEN_SEND = "<method 'send' of 'generator' objects>"


def layer_of_file(filename: str) -> str:
    """The layer of a source file; ``other`` outside the repro package."""
    path = os.path.abspath(filename)
    if not path.startswith(_PKG):
        return "other"
    rel = path[len(_PKG):].replace(os.sep, "/")
    layer = _FILE_LAYERS.get(rel)
    if layer is not None:
        return layer
    parts = rel.split("/")[:-1]
    while parts:
        layer = _DIR_LAYERS.get("/".join(parts))
        if layer is not None:
            return layer
        parts.pop()
    return "other"          # top-level modules: config, rng, __main__


def _event_layer(code, cache: Dict) -> str:
    return _layer(code, cache).split(".")[0]


def _layer(code, cache: Dict) -> str:
    if isinstance(code, str):       # a builtin
        return "other"
    layer = cache.get(code)
    if layer is None:
        layer = cache[code] = layer_of_file(code.co_filename)
    return layer


def attribute(profile) -> dict:
    """Self time, calls and dispatched events per layer from ``profile``."""
    stats = profile.getstats()
    cache: Dict = {}
    self_s = defaultdict(float)
    calls = defaultdict(int)
    by_code = {}
    for entry in stats:
        layer = _layer(entry.code, cache)
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        by_code[entry.code] = entry

    run_code = Simulator.run.__code__
    resume_code = Process._resume.__code__
    fire_code = PeriodicTask._fire.__code__
    events = defaultdict(int)
    direct = by_code.get(run_code)
    for sub in (direct.calls or []) if direct is not None else []:
        code = sub.code
        if code is resume_code or code is fire_code:
            continue            # resolved below
        if isinstance(code, str) and any(k in code for k in _KERNEL_BUILTINS):
            continue
        events[_event_layer(code, cache)] += sub.callcount

    def callees(code):
        entry = by_code.get(code)
        return (entry.calls or []) if entry is not None else []

    def calls_from_run(code):
        return sum(s.callcount for s in (direct.calls or [])
                   if s.code is code) if direct is not None else 0

    # Process wakeups: credit the generator each resume sends into.  Exact
    # when every generator ``send`` in the window came from _resume.
    resumes = calls_from_run(resume_code)
    sends_from_resume = sum(s.callcount for s in callees(resume_code)
                            if s.code == _GEN_SEND)
    send_entry = by_code.get(_GEN_SEND)
    resolved = 0
    if send_entry is not None and send_entry.callcount == sends_from_resume:
        for sub in send_entry.calls or []:
            events[_event_layer(sub.code, cache)] += sub.callcount
            resolved += sub.callcount
    events["sim"] += resumes - resolved

    # Periodic tasks: credit the periodic function each firing calls.
    fires = calls_from_run(fire_code)
    resolved = 0
    for sub in callees(fire_code):
        layer = _event_layer(sub.code, cache)
        if isinstance(sub.code, str) or layer == "sim":
            continue
        events[layer] += sub.callcount
        resolved += sub.callcount
    events["sim"] += fires - resolved

    def code_calls(fn) -> int:
        entry = by_code.get(fn.__code__)
        return entry.callcount if entry is not None else 0

    return {
        "self_s": {name: self_s.get(name, 0.0) for name in LAYERS},
        "calls": {name: calls.get(name, 0) for name in LAYERS},
        "events": {name: events.get(name, 0) for name in EVENT_LAYERS},
        "datapath_sends": (code_calls(DoorbellChannel.send)
                           + code_calls(DoorbellChannel.send_many)),
    }
