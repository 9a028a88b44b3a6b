"""Composite CAN XL / Ethernet networking: frame codecs, switching, and a
deterministic discrete-event simulator."""

from .engine import ConfigError, Flow, RunOptions, Simulation, Topology
from .frames import (
    ArpMessage,
    ArpOp,
    CanXlFrame,
    ClassicCanFrame,
    EthernetFrame,
    Ipv4Address,
    Ipv4Datagram,
    MacAddress,
)
from .switch import CSwitch, Efdb, LegacyRelayRule, PortConfig
from .timing import CanXlTimingParams, EthernetTimingParams

__all__ = [
    "ArpMessage", "ArpOp", "CanXlFrame", "CanXlTimingParams", "ClassicCanFrame",
    "ConfigError", "CSwitch", "Efdb", "EthernetFrame", "EthernetTimingParams",
    "Flow", "Ipv4Address", "Ipv4Datagram", "LegacyRelayRule",
    "MacAddress", "PortConfig", "RunOptions", "Simulation", "Topology",
]
