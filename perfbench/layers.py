"""What the traced run wraps, and how spans and outputs become metrics.

The layers are the modules of `canxlnet`.  Every wrapped function is
looked up on the object that defines it, so a rename in the program makes
`Tracer.install` fail instead of reporting zero calls.
"""

from __future__ import annotations

import json
import math
import statistics

from canxlnet import cli, config, engine, frames, media, nodes, switch, timing

from tracer import SpanTotals, Tracer

EMISSIONS = "switch.CSwitch.on_ingress.emissions"


def _count_emissions(tracer: Tracer, result) -> None:
    tracer.count(EMISSIONS, len(result))


# (span name, owner, attribute[, result hook]).  One name may cover
# several owners: `nodes.on_receive` sums the three overrides, and
# `config.load_config` is also reached through the name `cli` imported.
SPAN_TARGETS = [
    ("engine.Simulation.__init__", engine.Simulation, "__init__"),
    ("engine.Simulation.run", engine.Simulation, "run"),
    ("engine.Simulation.trace", engine.Simulation, "trace"),
    ("engine.Simulation.flow_of", engine.Simulation, "flow_of"),
    ("engine.Simulation.schedule", engine.Simulation, "schedule"),
    ("engine.Simulation.report", engine.Simulation, "report"),
    ("engine.frame_summary", engine, "frame_summary"),
    ("engine.make_payload", engine, "make_payload"),
    ("engine.Topology.validate", engine.Topology, "validate"),
    ("frames.eoc_encapsulate", frames, "eoc_encapsulate"),
    ("frames.eoc_decapsulate", frames, "eoc_decapsulate"),
    ("frames.ioc_encode", frames, "ioc_encode"),
    ("frames.ioc_decapsulate", frames, "ioc_decapsulate"),
    ("frames.ioc_to_ethernet", frames, "ioc_to_ethernet"),
    ("frames.arp_parse", frames, "arp_parse"),
    ("frames.EthernetFrame.from_bytes", frames.EthernetFrame, "from_bytes"),
    ("frames.Ipv4Datagram.from_bytes", frames.Ipv4Datagram, "from_bytes"),
    ("frames.Ipv4Datagram.to_bytes", frames.Ipv4Datagram, "to_bytes"),
    ("timing.canxl_duration", timing, "canxl_duration"),
    ("timing.ethernet_duration", timing, "ethernet_duration"),
    ("media.CanBus.kick", media.CanBus, "kick"),
    ("media.CanBus.enqueue", media.CanBus, "enqueue"),
    ("media.EthernetLink.kick", media.EthernetLink, "kick"),
    ("media.EthernetLink.enqueue", media.EthernetLink, "enqueue"),
    ("nodes.on_receive", nodes.Node, "on_receive"),
    ("nodes.on_receive", nodes.EocNode, "on_receive"),
    ("nodes.on_receive", nodes.ClassicCanNode, "on_receive"),
    ("nodes.app_send", nodes.Node, "app_send"),
    ("nodes.app_send", nodes.ClassicCanNode, "app_send"),
    ("switch.CSwitch.on_ingress", switch.CSwitch, "on_ingress", _count_emissions),
    ("switch.CSwitch.learn", switch.CSwitch, "learn"),
    ("switch.CSwitch.hello", switch.CSwitch, "hello"),
    ("config.load_config", config, "load_config"),
    ("config.load_config", cli, "load_config"),
    ("config.build_topology", config, "build_topology"),
    ("cli._cmd_simulate", cli, "_cmd_simulate"),
]

# Spans reported as both `<name>.calls` and `<name>.self_s`.
CALLS_AND_SELF = [
    "engine.Simulation.trace", "engine.frame_summary", "engine.Simulation.flow_of",
    "engine.make_payload",
    "frames.eoc_encapsulate", "frames.eoc_decapsulate", "frames.ioc_encode",
    "frames.ioc_decapsulate", "frames.ioc_to_ethernet", "frames.arp_parse",
    "frames.EthernetFrame.from_bytes", "frames.Ipv4Datagram.from_bytes",
    "frames.Ipv4Datagram.to_bytes",
    "timing.canxl_duration", "timing.ethernet_duration",
    "media.CanBus.kick", "media.CanBus.enqueue",
    "media.EthernetLink.kick", "media.EthernetLink.enqueue",
    "nodes.on_receive", "nodes.app_send",
    "switch.CSwitch.on_ingress", "switch.CSwitch.learn", "switch.CSwitch.hello",
]
CALLS_ONLY = ["engine.Simulation.schedule", "engine.Topology.validate"]
# metric name -> span whose self time it reports
SELF_ONLY = {
    "engine.loop.self_s": "engine.Simulation.run",
    "engine.Simulation.report.self_s": "engine.Simulation.report",
    "config.load_config.self_s": "config.load_config",
    "config.build_topology.self_s": "config.build_topology",
    # what `_cmd_simulate` does besides set-up and run: the trace file
    # and the json.dump of the report
    "cli.write_s": "cli._cmd_simulate",
}


def install(tracer: Tracer) -> None:
    for name, owner, attr, *hook in SPAN_TARGETS:
        tracer.install(owner, attr, name, *hook)


def check_report(report: dict) -> list[str]:
    """Output checks every run must pass besides the digests."""
    problems = []
    for name, flow in report["flows"].items():
        if flow["payload_mismatches"]:
            problems.append(f"flow {name}: {flow['payload_mismatches']} payload mismatches")
        if flow["delivered_unique"] > flow["sent"]:
            problems.append(f"flow {name}: delivered_unique > sent")
    return problems


def _percentile(sorted_values: list[int], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class OutputStats:
    """Simulated quantities read from traces and reports (summed over the
    simulations of one pass)."""

    def __init__(self):
        self.tx = 0
        self.trace_lines = 0
        self.sent = 0
        self.delivered_unique = 0
        self.drops: dict[str, int] = {}
        self.latencies_ns: list[int] = []
        self.utilization_max = 0.0
        self.clashes = 0
        self.af_false_positive = 0
        self.node_deliveries = 0
        self.flooded = 0
        self.forwarded = 0

    def add(self, trace: str, report: dict) -> None:
        self.trace_lines += trace.count("\n")
        self.tx += trace.count('"event":"tx_start"')
        for line in trace.splitlines():
            if '"event":"app_deliver"' in line:
                latency = json.loads(line).get("latency_ns")
                if latency is not None:
                    self.latencies_ns.append(latency)
        for flow in report["flows"].values():
            self.sent += flow["sent"]
            self.delivered_unique += flow["delivered_unique"]
            for reason, n in flow["drops"].items():
                self.drops[reason] = self.drops.get(reason, 0) + n
        for medium in report["media"].values():
            util = medium["utilization"]
            values = util.values() if isinstance(util, dict) else [util]
            self.utilization_max = max(self.utilization_max, *values)
            self.clashes += medium["clashes"]
        for counters in report["nodes"].values():
            self.af_false_positive += counters.get("af_false_positive", 0)
            self.node_deliveries += counters["delivered"]
        for sw in report["switches"].values():
            self.flooded += sw["counters"]["flooded"]
            self.forwarded += sw["counters"]["forwarded"]

    @property
    def unaccounted(self) -> int:
        return self.sent - self.delivered_unique - sum(self.drops.values())

    def metrics(self) -> dict[str, tuple[float, str]]:
        lat = sorted(self.latencies_ns)
        switched = self.flooded + self.forwarded
        return {
            "sim.sent": (self.sent, "count"),
            "sim.delivered_unique": (self.delivered_unique, "count"),
            "sim.dropped": (sum(self.drops.values()), "count"),
            "sim.unaccounted": (self.unaccounted, "count"),
            "sim.latency_p50_us": (_percentile(lat, 0.50) / 1e3, "us"),
            "sim.latency_p99_us": (_percentile(lat, 0.99) / 1e3, "us"),
            "sim.media.utilization_max": (self.utilization_max, "ratio"),
            "sim.media.clashes": (self.clashes, "count"),
            "sim.nodes.af_false_positive": (self.af_false_positive, "count"),
            "sim.switch.flood_ratio": (self.flooded / switched if switched else 0.0, "ratio"),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(passes: list[dict[str, SpanTotals]], emissions: int,
                  stats: OutputStats, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the span totals of each traced pass.

    Call counts come from the last pass (they repeat exactly); self times
    are host seconds, the median over the passes."""
    last = passes[-1]

    def calls(name: str) -> int:
        return last[name].calls if name in last else 0

    def self_s(name: str) -> float:
        return statistics.median(p[name].self_ns if name in p else 0 for p in passes) / 1e9

    out: dict[str, tuple[float, str]] = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in CALLS_ONLY:
        out[f"{name}.calls"] = (calls(name), "count")
    for metric, span in SELF_ONLY.items():
        out[metric] = (self_s(span), "s")
    kicks = calls("media.CanBus.kick") + calls("media.EthernetLink.kick")
    out.update({
        "engine.trace_lines": (stats.trace_lines, "count"),
        "frames.eth_decodes_per_tx": (_ratio(calls("frames.EthernetFrame.from_bytes"), stats.tx),
                                      "ratio"),
        "media.kick_useful_ratio": (_ratio(stats.tx, kicks), "ratio"),
        "nodes.accept_ratio": (_ratio(stats.node_deliveries, calls("nodes.on_receive")), "ratio"),
        "switch.emissions_per_ingress": (_ratio(emissions, calls("switch.CSwitch.on_ingress")),
                                         "ratio"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    })
    out.update(stats.metrics())
    return out
