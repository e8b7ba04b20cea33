"""Differential tests: router graphs and traceroute expansion.

``build_router_graph`` builds node state in one pass over each trace's
hops, and :class:`~repro.traceroute.probe.Prober` expands traces from
cached per-AS hop segments.  The straightforward code they replaced is
kept here as the reference: a graph loop over ``responsive_hops()``
that collects a node path first, and a prober that walks links and
computes every delay hop by hop.  On tiny worlds over several seeds
both must agree on every trace and every node, including traces cut
short by a missing interdomain link or internal path.
"""

from collections import defaultdict, deque
from typing import Dict, List, Optional, Tuple

import pytest

from repro.alias.midar import AliasResolution, resolve_aliases
from repro.bdrmapit.graph import NodeState, build_router_graph
from repro.topology import geo
from repro.topology.routers import LinkKind
from repro.topology.world import WorldConfig, generate_world
from repro.traceroute import campaign
from repro.traceroute.campaign import CampaignConfig, run_campaign
from repro.traceroute.probe import Prober, Trace
from repro.traceroute.routing import RoutingModel
from repro.util.radix import RadixTrie
from repro.util.rand import substream

SEEDS = (3, 11, 29, 47, 2020)


# -- references ----------------------------------------------------------------

def reference_router_graph(resolution, traces, route_table):
    """Node states as the node-path loop built them: the states dict."""
    states: Dict[str, NodeState] = {}

    def state_for(node_id):
        state = states.get(node_id)
        if state is None:
            state = NodeState(node_id=node_id)
            states[node_id] = state
        return state

    for node_id, node in resolution.nodes.items():
        state = state_for(node_id)
        for address in node.addresses:
            state.origins[route_table.origin(address)] += 1

    for trace in traces:
        hops = trace.responsive_hops()
        if not hops:
            continue
        node_path: List[Tuple[str, int]] = []
        for address in hops:
            node_id = resolution.node_of_address.get(address)
            if node_id is None:
                continue
            if node_path and node_path[-1][0] == node_id:
                continue
            node_path.append((node_id, address))
        dest_origin = trace.dst_asn
        for position, (node_id, _) in enumerate(node_path):
            state = state_for(node_id)
            state.dests[dest_origin] += 1
            if position + 1 < len(node_path):
                state.subsequent_ifaces[node_path[position + 1][1]] += 1
        if node_path:
            state_for(node_path[-1][0]).last_hop_dests[dest_origin] += 1

    for node_id, state in states.items():
        own = resolution.nodes.get(node_id)
        if own is None:
            continue
        own_slash30 = {address >> 2 for address in own.addresses}
        for address in state.subsequent_ifaces:
            if (address >> 2) in own_slash30:
                state.mates.add(address)
    return states


class ReferenceProber:
    """The prober that walks links and records each hop as it goes."""

    def __init__(self, world, routing, seed, anonymous_rate=0.04,
                 dest_responds_rate=0.8):
        self._world = world
        self._routing = routing
        self._topo = world.topology
        self._dest_responds_rate = dest_responds_rate
        rng = substream(seed, "prober")
        self._anonymous = {router.rid: rng.random() < anonymous_rate
                           for router in self._topo.routers}
        self._jitter = {router.rid: 0.1 + 1.4 * rng.random()
                        for router in self._topo.routers}
        self._dest_responds = rng
        self._dest_resp_cache: Dict[int, bool] = {}
        self._internal = defaultdict(list)
        for link in self._topo.links:
            if link.kind is LinkKind.INTERNAL:
                self._internal[link.a.router.rid].append(
                    (link, link.b.router))
                self._internal[link.b.router.rid].append(
                    (link, link.a.router))
        self._edge_trie = RadixTrie()
        for prefix, router in self._topo.edge_router_of_prefix.items():
            self._edge_trie.insert(prefix, router)

    def _internal_path(self, src, dst):
        if src.rid == dst.rid:
            return []
        parents = {}
        frontier = deque([src])
        seen = {src.rid}
        found = False
        while frontier and not found:
            current = frontier.popleft()
            for link, neighbor in self._internal[current.rid]:
                if neighbor.rid in seen:
                    continue
                seen.add(neighbor.rid)
                parents[neighbor.rid] = (link, neighbor, current)
                if neighbor.rid == dst.rid:
                    found = True
                    break
                frontier.append(neighbor)
        if not found:
            return None
        steps = []
        walk = dst.rid
        while walk != src.rid:
            link, router, previous = parents[walk]
            steps.append((link, router))
            walk = previous.rid
        steps.reverse()
        return steps

    def _interdomain_link(self, a, b):
        links = self._topo.interdomain_links.get((min(a, b), max(a, b)))
        return links[0] if links else None

    @staticmethod
    def _link_interface(link, asn):
        if link.a.router.asn == asn:
            return link.a
        if link.b.router.asn == asn:
            return link.b
        return None

    def _record(self, trace, router, iface, delay_ms):
        if self._anonymous[router.rid]:
            trace.hops.append(None)
            trace.rtts.append(None)
        else:
            trace.hops.append(iface.address)
            trace.rtts.append(round(2.0 * delay_ms
                                    + self._jitter[router.rid], 3))

    def _walk(self, trace, current_router, steps, delay):
        previous = current_router
        for internal_link, router in steps:
            arrived = internal_link.a if internal_link.a.router is router \
                else internal_link.b
            delay += geo.propagation_ms(previous.loc, router.loc) + 0.05
            self._record(trace, router, arrived, delay)
            previous = router
        return previous, delay

    def trace(self, vp_asn, vp_router, dst_address) -> Optional[Trace]:
        dst_asn = self._world.origin(dst_address)
        if dst_asn <= 0:
            return None
        as_path = self._routing.as_path(vp_asn, dst_asn)
        if as_path is None:
            return None
        trace = Trace(vp_asn=vp_asn, dst_address=dst_address,
                      dst_asn=dst_asn, vp_loc=vp_router.loc)
        current_router = vp_router
        delay = 0.0
        for position in range(len(as_path) - 1):
            this_asn, next_asn = as_path[position], as_path[position + 1]
            link = self._interdomain_link(this_asn, next_asn)
            if link is None:
                return trace
            egress_iface = self._link_interface(link, this_asn)
            ingress_iface = self._link_interface(link, next_asn)
            if egress_iface is None or ingress_iface is None:
                return trace
            steps = self._internal_path(current_router, egress_iface.router)
            if steps is None:
                return trace
            previous, delay = self._walk(trace, current_router, steps, delay)
            delay += geo.propagation_ms(previous.loc,
                                        ingress_iface.router.loc) + 0.05
            self._record(trace, ingress_iface.router, ingress_iface, delay)
            current_router = ingress_iface.router

        router = self._edge_trie.lookup(dst_address)
        if router is None or router.asn != dst_asn:
            routers = self._topo.routers_by_asn.get(dst_asn)
            router = routers[0] if routers else None
        if router is not None:
            steps = self._internal_path(current_router, router)
            if steps is not None:
                _, delay = self._walk(trace, current_router, steps, delay)
                if self._destination_responds(dst_address):
                    trace.hops.append(dst_address)
                    trace.rtts.append(round(2.0 * (delay + 0.05) + 0.5, 3))
                    trace.reached = True
        return trace

    def _destination_responds(self, address):
        cached = self._dest_resp_cache.get(address)
        if cached is None:
            cached = self._dest_responds.random() < self._dest_responds_rate
            self._dest_resp_cache[address] = cached
        return cached


# -- comparison helpers -----------------------------------------------------------

def _trace_fields(trace):
    return (trace.hops, trace.rtts, trace.reached, trace.dst_asn,
            trace.vp_loc)


def _assert_same_traces(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert _trace_fields(got) == _trace_fields(want)


def _node_fields(state):
    # Items in insertion order: the graph must match, not just count.
    return (list(state.origins.items()),
            list(state.subsequent_ifaces.items()), state.mates,
            list(state.dests.items()), list(state.last_hop_dests.items()))


def _assert_same_graph(resolution, traces, route_table):
    graph = build_router_graph(resolution, traces, route_table)
    expected = reference_router_graph(resolution, traces, route_table)
    assert list(graph.states) == list(expected)
    for node_id, state in expected.items():
        assert _node_fields(graph.states[node_id]) == _node_fields(state)


def _reference_campaign(monkeypatch, *args):
    with monkeypatch.context() as patch:
        patch.setattr(campaign, "Prober", ReferenceProber)
        return run_campaign(*args)


# -- tests ----------------------------------------------------------------------

@pytest.fixture(scope="module", params=SEEDS)
def world(request):
    return generate_world(request.param, WorldConfig.tiny())


@pytest.mark.parametrize("config", [
    CampaignConfig(n_vps=8),
    CampaignConfig(n_vps=5, anonymous_rate=0.3, dest_responds_rate=0.5),
], ids=["default", "lossy"])
def test_campaign_traces_and_graph_match_reference(world, config,
                                                   monkeypatch):
    routing = RoutingModel(world.graph)
    traces = run_campaign(world, routing, world.seed, config)
    expected = _reference_campaign(monkeypatch, world, routing, world.seed,
                                   config)
    _assert_same_traces(traces, expected)
    assert any(hop is None for t in traces for hop in t.hops)
    assert any(t.reached for t in traces)
    assert not all(t.reached for t in traces)

    observed = {hop for t in traces for hop in t.responsive_hops()}
    resolution = resolve_aliases(world, observed, world.seed,
                                 merge_rate=0.1)
    _assert_same_graph(resolution, traces, world.plan.route_table)
    # Addresses without a node are skipped, not treated as breaks.
    sparse = AliasResolution(nodes=resolution.nodes, node_of_address={
        address: node_id for address, node_id
        in resolution.node_of_address.items() if address % 5})
    _assert_same_graph(sparse, traces, world.plan.route_table)


@pytest.mark.parametrize("cut", ["link", "internal"])
def test_truncated_traces_match_reference(cut):
    world = generate_world(SEEDS[0], WorldConfig.tiny())
    routing = RoutingModel(world.graph)
    vp_asn = world.graph.asns()[0]
    vp_router = world.topology.routers_by_asn[vp_asn][0]
    destinations = [world.plan.edge_prefixes(asn)[0].host(9)
                    for asn in world.graph.asns()[1:]]

    def traces(prober_class, rate):
        prober = prober_class(world, routing, 5, anonymous_rate=rate,
                              dest_responds_rate=1.0)
        return [prober.trace(vp_asn, vp_router, dst) for dst in destinations]

    whole = traces(Prober, 0.0)
    topo = world.topology
    if cut == "link":
        # The second AS crossing of the first trace that has one.
        path = next(p for p in (routing.as_path(vp_asn, t.dst_asn)
                                for t in whole if t is not None)
                    if len(p) >= 3)
        del topo.interdomain_links[(min(path[1], path[2]),
                                    max(path[1], path[2]))]
    else:
        # Beyond the VP's own AS no router reaches another internally.
        topo.links = [link for link in topo.links
                      if link.kind is not LinkKind.INTERNAL
                      or link.a.router.asn == vp_asn]
    for rate in (0.0, 0.3):
        actual = traces(Prober, rate)
        expected = traces(ReferenceProber, rate)
        assert [t is None for t in actual] == [t is None for t in expected]
        _assert_same_traces([t for t in actual if t is not None],
                            [t for t in expected if t is not None])
    cut_short = [t for t, w in zip(traces(Prober, 0.0), whole)
                 if t is not None and not t.reached
                 and len(t.hops) < len(w.hops)]
    assert cut_short
