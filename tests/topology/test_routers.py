"""Unit tests for router-level topology construction."""

import pytest

from repro.topology.addressing import build_address_plan
from repro.topology.asgraph import ASGraphConfig, generate_asgraph
from repro.topology.routers import InterfaceKind, LinkKind, build_router_topology


@pytest.fixture(scope="module")
def world_parts():
    graph = generate_asgraph(42, ASGraphConfig(
        n_clique=2, n_transit=5, n_access=8, n_stub=12, n_content=2,
        n_ixps=2))
    plan = build_address_plan(graph)
    topo = build_router_topology(graph, plan, 42)
    return graph, plan, topo


class TestRouters:
    def test_every_as_has_routers(self, world_parts):
        graph, _, topo = world_parts
        for asn in graph.asns():
            assert topo.routers_by_asn.get(asn), asn

    def test_interfaces_unique_addresses(self, world_parts):
        _, _, topo = world_parts
        addresses = [i.address for i in topo.router_interfaces()]
        assert len(addresses) == len(set(addresses))

    def test_supplier_addressing_on_p2c(self, world_parts):
        """The provider supplies both ends of a customer link."""
        graph, plan, topo = world_parts
        rels = graph.relationships
        checked = 0
        for (a, b), links in topo.interdomain_links.items():
            for link in links:
                if link.kind is not LinkKind.INTERDOMAIN:
                    continue
                supplier = link.supplier_asn
                other = b if supplier == a else a
                if rels.relationship(supplier, other) is None:
                    continue
                # Both interface addresses originate from the supplier.
                for iface in (link.a, link.b):
                    assert plan.route_table.origin(iface.address) \
                        == supplier
                checked += 1
        assert checked > 0

    def test_far_side_router_owned_by_neighbor(self, world_parts):
        """One end of an interdomain link belongs to each AS."""
        _, _, topo = world_parts
        for links in topo.interdomain_links.values():
            for link in links:
                if link.kind is LinkKind.INTERDOMAIN:
                    assert link.a.router.asn != link.b.router.asn

    def test_provider_supplies_customer_links(self, world_parts):
        graph, _, topo = world_parts
        rels = graph.relationships
        for (a, b), links in topo.interdomain_links.items():
            for link in links:
                if link.kind is not LinkKind.INTERDOMAIN:
                    continue
                supplier = link.supplier_asn
                other = b if supplier == a else a
                rel = rels.relationship(supplier, other)
                if rel is not None and rel.name == "CUSTOMER":
                    pass   # provider supplied: expected
                # A customer never supplies its provider's link.
                assert not (rel is not None and rel.name == "PROVIDER")

    def test_ixp_ports_on_member_routers(self, world_parts):
        graph, plan, topo = world_parts
        for (ixp_id, member), iface in topo.ixp_ports.items():
            assert iface.router.asn == member
            assert iface.kind is InterfaceKind.IXP_LAN
            lan = plan.ixp_lans[ixp_id]
            assert lan.contains(iface.address)

    def test_internal_links_within_as(self, world_parts):
        _, _, topo = world_parts
        for link in topo.links:
            if link.kind is LinkKind.INTERNAL:
                assert link.a.router.asn == link.b.router.asn
                assert link.supplier_asn == link.a.router.asn

    def test_p2p_slash31(self, world_parts):
        _, _, topo = world_parts
        for link in topo.links:
            if link.kind in (LinkKind.INTERNAL, LinkKind.INTERDOMAIN):
                assert link.a.prefix.length == 31
                assert link.a.prefix == link.b.prefix

    def test_adjacency_is_symmetric(self, world_parts):
        _, _, topo = world_parts
        for router in topo.routers:
            for link, far_iface in topo.neighbors(router):
                far = far_iface.router
                back = [l for l, i in topo.neighbors(far)
                        if i.router.rid == router.rid]
                assert back

    def test_edge_prefix_hosting(self, world_parts):
        graph, plan, topo = world_parts
        for prefix, router in topo.edge_router_of_prefix.items():
            assert plan.route_table.origin(prefix.network) == router.asn

    def test_border_reuse_capped(self, world_parts):
        _, _, topo = world_parts
        for router in topo.routers:
            if router.role != "border":
                continue
            attachments = sum(
                1 for i in router.interfaces
                if i.kind in (InterfaceKind.P2P, InterfaceKind.IXP_LAN))
            assert attachments <= 4

    def test_router_names(self, world_parts):
        _, _, topo = world_parts
        names = {r.role: r.name for r in topo.routers}
        assert names.get("core", "cr1").startswith("cr")
