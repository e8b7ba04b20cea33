"""Router-level traceroute expansion.

Given an AS path, the prober walks the actual routers: inside each AS it
follows internal links between the ingress router and the egress border
router; between ASes it crosses the interdomain link (private /31 or IXP
LAN).  Every router after the source reports its *ingress* interface
address -- the address of the interface the probe arrived on -- which is
the semantics that make supplier-addressed interconnects so misleading
for IP-to-AS mapping (section 1 of the paper).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.topology.routers import Interface, Link, LinkKind, Router
from repro.topology import geo
from repro.topology.world import World
from repro.traceroute.routing import RoutingModel
from repro.util.radix import RadixTrie
from repro.util.rand import substream


@dataclass
class Trace:
    """One traceroute: observed hop addresses and RTTs to a destination."""

    vp_asn: int
    dst_address: int
    dst_asn: int
    hops: List[Optional[int]] = field(default_factory=list)
    #: Round-trip times (ms) parallel to ``hops`` (None for anonymous).
    rtts: List[Optional[float]] = field(default_factory=list)
    vp_loc: str = ""
    reached: bool = False

    def responsive_hops(self) -> List[int]:
        """The non-anonymous hop addresses, in order."""
        return [hop for hop in self.hops if hop is not None]

    def hop_rtts(self) -> List[Tuple[int, float]]:
        """(address, rtt) pairs for the responsive hops."""
        return [(hop, rtt) for hop, rtt in zip(self.hops, self.rtts)
                if hop is not None and rtt is not None]


#: One precomputed hop: (id of the router that answers, the address it
#: answers with, one-way delay in ms added since the previous hop).
Hop = Tuple[str, int, float]

#: The hops from a router across its AS and over one interdomain link,
#: plus the router the probe arrives at; ``None`` when the trace dies.
Segment = Optional[Tuple[Tuple[Hop, ...], Router]]


class Prober:
    """Expands AS-level routes into router-level traceroute output.

    One prober serves one campaign.  It caches each AS crossing as a
    :data:`Segment` keyed by (entry router, this AS, next AS), and each
    walk inside an AS as a tuple of :data:`Hop`; a trace then only adds
    delay increments and reads the per-router reply table.
    """

    def __init__(self, world: World, routing: RoutingModel,
                 seed: int, anonymous_rate: float = 0.04,
                 dest_responds_rate: float = 0.8) -> None:
        self._world = world
        self._routing = routing
        self._topo = world.topology
        self._anonymous_rate = anonymous_rate
        self._dest_responds_rate = dest_responds_rate
        rng = substream(seed, "prober")
        # Pre-roll per-router anonymity (a router either answers
        # traceroute or does not, consistently), then reply jitter:
        # rid -> jitter, or None for a router that never answers.
        anonymous = [rng.random() < anonymous_rate
                     for _ in self._topo.routers]
        self._reply: Dict[str, Optional[float]] = {}
        for router, silent in zip(self._topo.routers, anonymous):
            jitter = 0.1 + 1.4 * rng.random()
            self._reply[router.rid] = None if silent else jitter
        self._dest_responds = rng  # drawn per destination, lazily
        self._dest_resp_cache: Dict[int, bool] = {}
        # Intra-AS adjacency over internal links.
        self._internal: Dict[str, List[Tuple[Link, Router]]] = \
            defaultdict(list)
        for link in self._topo.links:
            if link.kind is LinkKind.INTERNAL:
                self._internal[link.a.router.rid].append(
                    (link, link.b.router))
                self._internal[link.b.router.rid].append(
                    (link, link.a.router))
        self._path_cache: Dict[Tuple[str, str],
                               Optional[Tuple[Hop, ...]]] = {}
        self._segments: Dict[Tuple[str, int, int], Segment] = {}
        self._destinations: Dict[int, Tuple[int, Optional[Router]]] = {}
        self._edge_trie: "RadixTrie[Router]" = RadixTrie()
        for prefix, router in self._topo.edge_router_of_prefix.items():
            self._edge_trie.insert(prefix, router)

    @staticmethod
    def _hop(previous: Router, router: Router, iface: Interface) -> Hop:
        """``router`` answering on ``iface`` one link after ``previous``."""
        return (router.rid, iface.address,
                geo.propagation_ms(previous.loc, router.loc) + 0.05)

    # -- intra-AS pathing ---------------------------------------------------

    def _internal_path(self, src: Router,
                       dst: Router) -> Optional[Tuple[Hop, ...]]:
        """Hops of the shortest internal path src->dst (None: no path)."""
        if src.rid == dst.rid:
            return ()
        key = (src.rid, dst.rid)
        if key in self._path_cache:
            return self._path_cache[key]
        parents: Dict[str, Tuple[Link, Router, Router]] = {}
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
            self._path_cache[key] = None
            return None
        hops: List[Hop] = []
        walk = dst.rid
        while walk != src.rid:
            link, router, previous = parents[walk]
            arrived = link.a if link.a.router is router else link.b
            hops.append(self._hop(previous, router, arrived))
            walk = previous.rid
        hops.reverse()
        path = self._path_cache[key] = tuple(hops)
        return path

    # -- interdomain link selection ------------------------------------------

    def _interdomain_link(self, a: int, b: int) -> Optional[Link]:
        """The link used between adjacent ASes.

        The first provisioned link is primary; any others are cold
        backups that forwarding never uses (their supplier-named far
        sides exist in reverse DNS but not in traceroute -- the basis
        of the section-7 expansion observation).
        """
        key = (min(a, b), max(a, b))
        links = self._topo.interdomain_links.get(key)
        if not links:
            return None
        return links[0]

    @staticmethod
    def _link_interface(link: Link, asn: int) -> Optional[Interface]:
        """The interface of ``link`` residing on a router of ``asn``."""
        if link.a.router.asn == asn:
            return link.a
        if link.b.router.asn == asn:
            return link.b
        return None

    def _segment(self, router: Router, this_asn: int,
                 next_asn: int) -> Segment:
        """From ``router`` across ``this_asn`` into ``next_asn``.

        The walk goes to the egress border router, then over the
        interdomain link: the next router answers with its interface
        address on the shared subnet (supplier-addressed, or the IXP
        LAN address).  ``None`` when there is no physical link, the
        link has no side in one of the ASes, or no internal path
        reaches the egress.
        """
        key = (router.rid, this_asn, next_asn)
        if key in self._segments:
            return self._segments[key]
        segment: Segment = None
        link = self._interdomain_link(this_asn, next_asn)
        if link is not None:
            egress = self._link_interface(link, this_asn)
            ingress = self._link_interface(link, next_asn)
            if egress is not None and ingress is not None:
                hops = self._internal_path(router, egress.router)
                if hops is not None:
                    crossing = self._hop(egress.router, ingress.router,
                                         ingress)
                    segment = (hops + (crossing,), ingress.router)
        self._segments[key] = segment
        return segment

    # -- hop recording -------------------------------------------------------

    def _expand(self, trace: Trace, hops: Tuple[Hop, ...],
                delay: float) -> float:
        """Append ``hops`` to ``trace``; returns the cumulative delay."""
        reply = self._reply
        add_hop, add_rtt = trace.hops.append, trace.rtts.append
        for rid, address, increment in hops:
            delay += increment
            jitter = reply[rid]
            if jitter is None:
                add_hop(None)
                add_rtt(None)
            else:
                add_hop(address)
                add_rtt(round(2.0 * delay + jitter, 3))
        return delay

    # -- main entry ------------------------------------------------------------

    def trace(self, vp_asn: int, vp_router: Router,
              dst_address: int) -> Optional[Trace]:
        """Simulate one traceroute from ``vp_router`` to ``dst_address``.

        Returns ``None`` when the VP has no route to the destination's
        origin AS; otherwise a :class:`Trace`, possibly truncated when an
        interdomain link or internal path is missing (treated as
        unreachable).
        """
        dst_asn, edge_router = self._destination(dst_address)
        if dst_asn <= 0:
            return None
        as_path = self._routing.as_path(vp_asn, dst_asn)
        if as_path is None:
            return None
        trace = Trace(vp_asn=vp_asn, dst_address=dst_address,
                      dst_asn=dst_asn, vp_loc=vp_router.loc)

        current_router = vp_router
        delay = 0.0          # cumulative one-way propagation (ms)
        for position in range(len(as_path) - 1):
            segment = self._segment(current_router, as_path[position],
                                    as_path[position + 1])
            if segment is None:
                return trace  # the trace dies here
            hops, current_router = segment
            delay = self._expand(trace, hops, delay)

        # Inside the destination AS: walk to the edge router hosting the
        # destination prefix, then the destination itself may answer.
        if edge_router is not None:
            hops = self._internal_path(current_router, edge_router)
            if hops is not None:
                delay = self._expand(trace, hops, delay)
                if self._destination_responds(dst_address):
                    trace.hops.append(dst_address)
                    trace.rtts.append(round(2.0 * (delay + 0.05) + 0.5, 3))
                    trace.reached = True
        return trace

    def _destination(self, address: int) -> Tuple[int, Optional[Router]]:
        """Origin AS of ``address`` and the router hosting its prefix."""
        found = self._destinations.get(address)
        if found is None:
            dst_asn = self._world.origin(address)
            router = self._edge_trie.lookup(address)
            if router is None or router.asn != dst_asn:
                routers = self._topo.routers_by_asn.get(dst_asn)
                router = routers[0] if routers else None
            found = self._destinations[address] = (dst_asn, router)
        return found

    def _destination_responds(self, address: int) -> bool:
        cached = self._dest_resp_cache.get(address)
        if cached is None:
            cached = self._dest_responds.random() < self._dest_responds_rate
            self._dest_resp_cache[address] = cached
        return cached
