"""Unit tests for the pipeline glue functions."""

import pickle

import pytest

from repro.alias.midar import AliasResolution, InferredNode
from repro.bdrmapit.graph import build_router_graph
from repro.itdk.snapshot import ITDKSnapshot
from repro.peeringdb.snapshot import NetIXLan, PeeringDBSnapshot
from repro.pipeline import (
    METHOD_BDRMAPIT,
    METHOD_RTAA,
    SnapshotSpec,
    run_snapshot,
    training_items_from_itdk,
    training_items_from_peeringdb,
)
from repro.naming.assigner import NamingConfig
from repro.topology.world import WorldConfig, generate_world
from repro.util.ipaddr import ip_to_int


def _snapshot():
    resolution = AliasResolution()
    for node_id, addresses in (("N1", ["4.0.0.1", "4.0.0.2"]),
                               ("N2", ["4.1.0.1"])):
        node = InferredNode(node_id=node_id,
                            addresses=[ip_to_int(a) for a in addresses])
        resolution.nodes[node_id] = node
        for address in node.addresses:
            resolution.node_of_address[address] = node_id
    snapshot = ITDKSnapshot(label="t", resolution=resolution)
    snapshot.hostnames[ip_to_int("4.0.0.1")] = "as64500-fra.x.net"
    snapshot.hostnames[ip_to_int("4.1.0.1")] = "lo0.cr1.x.net"
    return snapshot


class TestTrainingFromItdk:
    def test_annotated_named_only(self):
        snapshot = _snapshot()
        snapshot.set_annotations({"N1": 64500}, "bdrmapit")
        items = training_items_from_itdk(snapshot)
        assert len(items) == 1
        assert items[0].hostname == "as64500-fra.x.net"
        assert items[0].train_asn == 64500
        assert items[0].address == "4.0.0.1"

    def test_unannotated_excluded(self):
        snapshot = _snapshot()
        snapshot.set_annotations({}, "bdrmapit")
        assert training_items_from_itdk(snapshot) == []

    def test_nonpositive_annotation_excluded(self):
        snapshot = _snapshot()
        snapshot.set_annotations({"N1": -1, "N2": 0}, "bdrmapit")
        assert training_items_from_itdk(snapshot) == []


class TestTrainingFromPeeringdb:
    def test_records_with_hostnames(self):
        class FakeNaming:
            def hostname(self, address):
                if address == ip_to_int("206.0.0.1"):
                    return "as64500.ix.example"
                return None

        pdb = PeeringDBSnapshot(label="t", netixlans=[
            NetIXLan(ix_id=0, asn=64500,
                     ipaddr4=ip_to_int("206.0.0.1")),
            NetIXLan(ix_id=0, asn=64501,
                     ipaddr4=ip_to_int("206.0.0.2")),
        ])
        items = training_items_from_peeringdb(pdb, FakeNaming())
        assert len(items) == 1
        assert items[0].train_asn == 64500


class TestSnapshotSpec:
    def test_naming_defaults_to_year(self):
        spec = SnapshotSpec(label="x", year=2015.5)
        assert spec.naming_config().year == 2015.5

    def test_explicit_naming_wins(self):
        naming = NamingConfig(year=1999.0, stale_rate=0.5)
        spec = SnapshotSpec(label="x", year=2015.5, naming=naming)
        assert spec.naming_config().stale_rate == 0.5
        assert spec.naming_config().year == 1999.0

    def test_build_defaults_to_vps(self):
        spec = SnapshotSpec(label="x", n_vps=7)
        assert spec.build_config().campaign.n_vps == 7


@pytest.fixture(scope="module")
def tiny_world():
    return generate_world(5, WorldConfig.tiny())


class TestSnapshotGraph:
    def test_bdrmapit_snapshot_builds_its_graph(self, tiny_world):
        result = run_snapshot(tiny_world, SnapshotSpec(
            label="b", method=METHOD_BDRMAPIT, n_vps=4, seed=1))
        assert result._graph is not None

    def test_rtaa_graph_is_built_on_first_read(self, tiny_world):
        result = run_snapshot(tiny_world, SnapshotSpec(
            label="r", method=METHOD_RTAA, n_vps=4, seed=1))
        assert result._graph is None
        # A result pickled before the first read carries no graph.
        assert pickle.loads(pickle.dumps(result))._graph is None
        graph = result.graph
        assert result.graph is graph
        eager = build_router_graph(result.snapshot.resolution,
                                   result.traces,
                                   tiny_world.plan.route_table)
        assert graph.states == eager.states
        assert graph.states  # the snapshot saw routers
