"""The report does not depend on how a configuration is written.

A metamorphic relation: listing the nodes, switches, ports, buses and
their stations, links and their endpoints, and flows of a configuration
in any other order describes the same network, so it must give the same
report, compared as JSON with its keys sorted.  The trace may differ: a
bus's `deliver` records follow its station order.  Checked on the
switched_fabric workload at a few seeds and on the stp_triangle
scenario, where simultaneous root claims from two switches meet at a
third.
"""

import copy
import functools
import json

import yaml
from hypothesis import given, settings, strategies as st

from canxlnet.config import build_topology
from canxlnet.engine import Simulation

from conftest import SCENARIOS, workloads

SEEDS = (1, 2, 3)
DOCS = {"stp_triangle": yaml.safe_load((SCENARIOS / "stp_triangle.yaml").read_text()),
        **{f"switched_fabric@{seed}": workloads.switched_fabric(seed) for seed in SEEDS}}


def report_text(doc: dict) -> str:
    _, report = Simulation(build_topology(doc)).run()
    return json.dumps(report, sort_keys=True)


@functools.cache
def listed_report(name: str) -> str:
    """The report of `DOCS[name]` as written."""
    return report_text(DOCS[name])


@st.composite
def relisted(draw, doc: dict) -> dict:
    """`doc` with each of its lists of parts in a drawn order."""
    doc = copy.deepcopy(doc)
    for section in ("nodes", "switches", "buses", "links", "flows"):
        if section in doc:
            doc[section] = draw(st.permutations(doc[section]))
    for sw in doc.get("switches", ()):
        sw["ports"] = draw(st.permutations(sw["ports"]))
    for bus in doc.get("buses", ()):
        bus["stations"] = draw(st.permutations(bus["stations"]))
    for link in doc.get("links", ()):
        link["endpoints"] = draw(st.permutations(link["endpoints"]))
    return doc


@st.composite
def relisted_docs(draw) -> tuple[str, dict]:
    name = draw(st.sampled_from(sorted(DOCS)))
    return name, draw(relisted(DOCS[name]))


@settings(max_examples=40, deadline=None)
@given(case=relisted_docs())
def test_listing_order_leaves_the_report_unchanged(case):
    name, doc = case
    assert report_text(doc) == listed_report(name)
