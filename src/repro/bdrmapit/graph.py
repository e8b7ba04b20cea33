"""Topological state bdrmapIT reasons over.

For every inferred node the graph records:

* **origins** -- BGP origin ASes of the node's observed interfaces;
* **subsequent interfaces** -- the distinct interface addresses observed
  immediately after the node in traces, each contributing one vote; the
  paper calls the derived AS multiset the node's *subsequent ASNs*;
* **destination ASNs** -- origin ASes of the traces' destinations,
  tracked separately for traces where the node was the last responsive
  hop (the signal bdrmap's edge heuristics use);
* the **link-mate** relation: a subsequent interface in the same /30 as
  one of the node's own addresses is the far end of the node's own
  point-to-point link, so its origin says who supplied the link, not who
  operates the node.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

from repro.alias.midar import AliasResolution
from repro.asn.bgp import IXP_ASN, RouteTable, UNKNOWN_ASN
from repro.traceroute.probe import Trace


@dataclass
class NodeState:
    """Per-node topological annotations."""

    node_id: str
    origins: Counter = field(default_factory=Counter)
    # subsequent interface address -> count of traces using it
    subsequent_ifaces: Counter = field(default_factory=Counter)
    # subsequent addresses that are the far end of this node's own link
    mates: Set[int] = field(default_factory=set)
    # destination ASN votes from traces that *ended* at this node
    last_hop_dests: Counter = field(default_factory=Counter)
    # destination ASNs of every trace traversing the node
    dests: Counter = field(default_factory=Counter)

    def subsequent_asns(self, route_table: RouteTable,
                        include_mates: bool = True) -> Set[int]:
        """The node's subsequent ASN set (section 5 semantics)."""
        out: Set[int] = set()
        for address in self.subsequent_ifaces:
            if not include_mates and address in self.mates:
                continue
            origin = route_table.origin(address)
            if origin not in (IXP_ASN, UNKNOWN_ASN):
                out.add(origin)
        return out

    def dest_asns(self) -> Set[int]:
        """The node's destination ASN set (section 5 semantics)."""
        return {asn for asn in self.dests if asn > 0}


@dataclass
class RouterGraph:
    """All node states plus shared lookup tables."""

    states: Dict[str, NodeState]
    resolution: AliasResolution
    route_table: RouteTable

    def state(self, node_id: str) -> NodeState:
        """State for ``node_id`` (KeyError when never observed)."""
        return self.states[node_id]

    def nodes(self) -> List[str]:
        """All node ids, sorted."""
        return sorted(self.states)


def build_router_graph(resolution: AliasResolution,
                       traces: Iterable[Trace],
                       route_table: RouteTable) -> RouterGraph:
    """Accumulate per-node state from a trace collection.

    One pass per trace: anonymous hops and addresses without a node are
    skipped, and consecutive hops on the same node collapse into one
    visit whose address is the one the node was first entered by.
    """
    states: Dict[str, NodeState] = {}

    # Interface origins per node.
    for node_id, node in resolution.nodes.items():
        state = states[node_id] = NodeState(node_id=node_id)
        for address in node.addresses:
            state.origins[route_table.origin(address)] += 1

    node_of_address = resolution.node_of_address
    for trace in traces:
        dest_origin = trace.dst_asn
        state = None
        for address in trace.hops:
            if address is None:
                continue
            node_id = node_of_address.get(address)
            if node_id is None or (state is not None
                                   and state.node_id == node_id):
                continue
            if state is not None:
                state.subsequent_ifaces[address] += 1
            state = states.get(node_id)
            if state is None:
                state = states[node_id] = NodeState(node_id=node_id)
            state.dests[dest_origin] += 1
        if state is not None:
            state.last_hop_dests[dest_origin] += 1

    # Mark link mates: a subsequent address in the same /30 as one of the
    # node's own addresses.
    for node_id, state in states.items():
        own = resolution.nodes.get(node_id)
        if own is None:
            continue
        own_slash30 = {address >> 2 for address in own.addresses}
        for address in state.subsequent_ifaces:
            if (address >> 2) in own_slash30:
                state.mates.add(address)

    return RouterGraph(states=states, resolution=resolution,
                       route_table=route_table)
