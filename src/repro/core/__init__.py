"""Oasis core: datapath, engines, control plane, pod wiring."""

from .arp import ArpRegistry
from .datapath import ChannelPair, DoorbellChannel, LocalChannel, SharedRegions
from .engine import Driver, Link
from .pod import CXLPod

__all__ = [
    "CXLPod",
    "Driver",
    "Link",
    "SharedRegions",
    "DoorbellChannel",
    "LocalChannel",
    "ChannelPair",
    "ArpRegistry",
]
