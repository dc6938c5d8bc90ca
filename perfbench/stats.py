"""Small numeric helpers shared by the benchmark's modules."""

from __future__ import annotations

import hashlib
import json
from typing import Sequence

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default); 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def ratio(num: float, den: float, empty: float = 0.0) -> float:
    """``num / den``, or ``empty`` when there is nothing to divide by."""
    return num / den if den else empty


def digest(obj) -> str:
    """sha256 of ``obj`` as canonical JSON (sorted keys, repr floats)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
