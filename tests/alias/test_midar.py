"""Unit tests for alias-resolution simulation."""

import pytest

from repro.alias.midar import resolve_aliases
from repro.topology.world import WorldConfig, generate_world


@pytest.fixture(scope="module")
def world():
    return generate_world(42, WorldConfig.tiny())


def _some_observed(world, n=200):
    return [i.address for i in world.interfaces()[:n]]


class TestResolveAliases:
    def test_every_observed_address_mapped(self, world):
        observed = _some_observed(world)
        resolution = resolve_aliases(world, observed, 3, augment_rate=0.0)
        for address in observed:
            assert resolution.node_for(address) is not None

    def test_no_split_no_merge_is_ground_truth(self, world):
        observed = _some_observed(world)
        resolution = resolve_aliases(world, observed, 3, split_rate=0.0,
                                     augment_rate=0.0)
        for node in resolution.nodes.values():
            routers = {world.topology.interfaces_by_address[a].router.rid
                       for a in node.addresses}
            assert len(routers) == 1

    def test_true_asn_recorded(self, world):
        observed = _some_observed(world)
        resolution = resolve_aliases(world, observed, 3, augment_rate=0.0)
        for node in resolution.nodes.values():
            iface = world.topology.interfaces_by_address.get(
                node.addresses[0])
            if iface is not None:
                assert node.true_asn == iface.router.asn

    def test_split_produces_more_nodes(self, world):
        observed = _some_observed(world)
        whole = resolve_aliases(world, observed, 3, split_rate=0.0,
                                augment_rate=0.0)
        split = resolve_aliases(world, observed, 3, split_rate=1.0,
                                augment_rate=0.0)
        assert len(split.nodes) > len(whole.nodes)

    def test_splits_stay_within_router(self, world):
        observed = _some_observed(world)
        split = resolve_aliases(world, observed, 3, split_rate=1.0,
                                augment_rate=0.0)
        for node in split.nodes.values():
            routers = {world.topology.interfaces_by_address[a].router.rid
                       for a in node.addresses
                       if a in world.topology.interfaces_by_address}
            assert len(routers) <= 1

    def test_merge_noise(self, world):
        observed = _some_observed(world)
        merged = resolve_aliases(world, observed, 3, split_rate=0.0,
                                 merge_rate=1.0, augment_rate=0.0)
        multi = [n for n in merged.nodes.values()
                 if len(n.true_asns) >= 1 and len(n.addresses) > 1]
        assert multi

    def test_augmentation_adds_own_addresses(self, world):
        # Observe only one interface per router so there is something
        # for alias probing to discover.
        observed = [r.interfaces[0].address
                    for r in world.routers()[:60] if r.interfaces]
        plain = resolve_aliases(world, observed, 3, augment_rate=0.0)
        augmented = resolve_aliases(world, observed, 3, augment_rate=1.0)
        plain_total = sum(len(n.addresses) for n in plain.nodes.values())
        aug_total = sum(len(n.addresses) for n in augmented.nodes.values())
        assert aug_total > plain_total

    def test_augmented_addresses_belong_to_same_router(self, world):
        observed = _some_observed(world)
        augmented = resolve_aliases(world, observed, 3, split_rate=0.0,
                                    augment_rate=1.0)
        for node in augmented.nodes.values():
            routers = {world.topology.interfaces_by_address[a].router.rid
                       for a in node.addresses
                       if a in world.topology.interfaces_by_address}
            assert len(routers) <= 1

    def test_orphan_addresses_become_singletons(self, world):
        # A destination-host address inside an edge prefix.
        asn = world.graph.asns()[0]
        host = world.plan.edge_prefixes(asn)[0].host(99)
        resolution = resolve_aliases(world, [host], 3, augment_rate=0.0)
        node = resolution.node_for(host)
        assert node is not None
        assert node.true_asn == asn

    def test_deterministic(self, world):
        observed = _some_observed(world)
        a = resolve_aliases(world, observed, 3)
        b = resolve_aliases(world, observed, 3)
        assert {n.node_id: n.addresses for n in a.nodes.values()} == \
            {n.node_id: n.addresses for n in b.nodes.values()}
