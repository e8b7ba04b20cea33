"""End-to-end pipeline: synthetic world to Hoiho training data.

This module chains the substrates exactly the way CAIDA's production
pipeline chains the real systems: assign hostnames to a world, run a
traceroute campaign, build an ITDK snapshot, annotate routers with
RouterToAsAssignment or bdrmapIT, and emit (hostname, training ASN)
items for the learner.  PeeringDB training sets come straight from the
synthetic netixlan records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bdrmapit.algorithm import AnnotationConfig, annotate
from repro.bdrmapit.graph import RouterGraph, build_router_graph
from repro.core.types import TrainingItem
from repro.itdk.builder import BuildConfig, build_snapshot
from repro.itdk.snapshot import ITDKSnapshot
from repro.naming.assigner import NamingConfig, NamingOutcome, assign_hostnames
from repro.obs.trace import NULL_TRACER
from repro.peeringdb.builder import PeeringDBConfig, build_peeringdb
from repro.peeringdb.snapshot import PeeringDBSnapshot
from repro.rtaa.rtaa import assign_asns as rtaa_assign
from repro.topology.world import World
from repro.traceroute.campaign import CampaignConfig, run_campaign
from repro.traceroute.probe import Trace
from repro.traceroute.routing import RoutingModel
from repro.util.ipaddr import int_to_ip

METHOD_RTAA = "rtaa"
METHOD_BDRMAPIT = "bdrmapit"


@dataclass
class SnapshotSpec:
    """One training-set snapshot: a point on the paper's 2010-2020 axis."""

    label: str                       # e.g. "2020-01"
    year: float = 2020.0
    method: str = METHOD_BDRMAPIT    # rtaa | bdrmapit
    n_vps: int = 20
    seed: int = 0                    # snapshot-specific randomness
    naming: Optional[NamingConfig] = None
    build: Optional[BuildConfig] = None

    def naming_config(self) -> NamingConfig:
        """Naming config with the snapshot year filled in."""
        if self.naming is not None:
            return self.naming
        return NamingConfig(year=self.year)

    def build_config(self) -> BuildConfig:
        """ITDK build config with the VP count filled in."""
        if self.build is not None:
            return self.build
        return BuildConfig(campaign=CampaignConfig(n_vps=self.n_vps))


@dataclass
class SnapshotResult:
    """Everything produced for one snapshot.

    ``graph`` is bdrmapIT's router graph over the snapshot's traces.
    bdrmapIT snapshots build it to annotate; RouterToAsAssignment
    snapshots never read it, so theirs is built on first read (and a
    timeline pickled before that read carries none).
    """

    spec: SnapshotSpec
    world: World
    naming: NamingOutcome
    snapshot: ITDKSnapshot
    annotations: Dict[str, int]
    training: List[TrainingItem] = field(default_factory=list)
    traces: List["Trace"] = field(default_factory=list)
    _graph: Optional[RouterGraph] = field(default=None, repr=False,
                                          compare=False)

    @property
    def graph(self) -> RouterGraph:
        """The router graph (built here on first read if not yet)."""
        if self._graph is None:
            self._graph = build_router_graph(self.snapshot.resolution,
                                             self.traces,
                                             self.world.plan.route_table)
        return self._graph


def run_snapshot(world: World, spec: SnapshotSpec,
                 routing: Optional[RoutingModel] = None,
                 tracer=NULL_TRACER) -> SnapshotResult:
    """Produce one snapshot's ITDK, annotations, and training items.

    ``tracer`` wraps the run in a ``snapshot`` span (labelled with the
    spec's label/method) with one child span per stage -- the record
    ``trace summary`` renders per snapshot when the timeline fans these
    out to worker processes.  The traceroute campaign has its own
    ``snapshot.campaign`` span inside ``snapshot.build``; the
    ``snapshot.graph`` span appears only for bdrmapIT snapshots.
    """
    with tracer.span("snapshot", snapshot=spec.label,
                     method=spec.method) as span:
        if routing is None:
            routing = RoutingModel(world.graph)
        with tracer.span("snapshot.naming"):
            naming = assign_hostnames(world, spec.seed,
                                      spec.naming_config())
        build_config = spec.build_config()
        with tracer.span("snapshot.build"):
            with tracer.span("snapshot.campaign"):
                traces = run_campaign(world, routing, spec.seed,
                                      build_config.campaign)
            snapshot = build_snapshot(
                world, naming, spec.seed, spec.label,
                config=build_config, traces=traces).snapshot
        graph = None
        if spec.method == METHOD_BDRMAPIT:
            with tracer.span("snapshot.graph"):
                graph = build_router_graph(snapshot.resolution, traces,
                                           world.plan.route_table)

        with tracer.span("snapshot.annotate", method=spec.method):
            if spec.method == METHOD_RTAA:
                annotations = rtaa_assign(snapshot.resolution,
                                          world.plan.route_table,
                                          world.graph.relationships)
            elif spec.method == METHOD_BDRMAPIT:
                annotations = annotate(graph, world.graph.relationships,
                                       world.graph.orgs,
                                       AnnotationConfig(), tracer=tracer)
            else:
                raise ValueError("unknown method %r" % spec.method)
            snapshot.set_annotations(annotations, spec.method)

        with tracer.span("snapshot.training"):
            training = training_items_from_itdk(snapshot)
        span.set(items=len(training))
    return SnapshotResult(spec=spec, world=world, naming=naming,
                          snapshot=snapshot, annotations=annotations,
                          training=training, traces=traces, _graph=graph)


def training_items_from_itdk(snapshot: ITDKSnapshot) -> List[TrainingItem]:
    """(hostname, inferred ASN) items for every annotated named address."""
    items: List[TrainingItem] = []
    for address, hostname in snapshot.named_addresses():
        asn = snapshot.annotation_of_address(address)
        if asn is None or asn <= 0:
            continue
        items.append(TrainingItem(hostname=hostname, train_asn=asn,
                                  address=int_to_ip(address)))
    return items


def training_items_from_peeringdb(pdb: PeeringDBSnapshot,
                                  naming: NamingOutcome) -> List[TrainingItem]:
    """(hostname, recorded ASN) items from netixlan records."""
    items: List[TrainingItem] = []
    for record in pdb.netixlans:
        hostname = naming.hostname(record.ipaddr4)
        if hostname is None:
            continue
        items.append(TrainingItem(hostname=hostname, train_asn=record.asn,
                                  address=record.ip))
    return items


def run_peeringdb_snapshot(world: World, seed: int, label: str,
                           year: float = 2020.0,
                           naming: Optional[NamingOutcome] = None,
                           config: Optional[PeeringDBConfig] = None,
                           ) -> List[TrainingItem]:
    """Produce a PeeringDB training set (hostnames + recorded ASNs)."""
    if naming is None:
        naming = assign_hostnames(world, seed, NamingConfig(year=year))
    pdb = build_peeringdb(world, seed, label, config)
    return training_items_from_peeringdb(pdb, naming)


# -- picklable worker entry points -------------------------------------------
#
# ``parallel_map`` with a process backend needs module-level callables
# whose single argument pickles cleanly.  These wrap the two snapshot
# producers for the timeline's per-snapshot fan-out
# (:func:`repro.eval.timeline.build_timeline`).

#: Fault-injection site label for the snapshot fan-out (one item per
#: :class:`SnapshotTask` / :class:`PeeringDBTask`, in timeline order).
SITE_TIMELINE = "timeline"

@dataclass(frozen=True)
class SnapshotTask:
    """One ITDK snapshot to build in a worker process."""

    world: World
    spec: SnapshotSpec
    routing: Optional[RoutingModel] = None


@dataclass(frozen=True)
class PeeringDBTask:
    """One PeeringDB training set to build in a worker process."""

    world: World
    seed: int
    label: str
    year: float = 2020.0


def run_snapshot_task(task: SnapshotTask,
                      tracer=NULL_TRACER) -> SnapshotResult:
    """Worker entry point: build one ITDK snapshot.

    The returned result carries ``world=None`` -- shipping the world
    back from every worker would multiply the pickle payload by the
    snapshot count; the caller re-attaches its own reference
    (:func:`reattach_world`).
    """
    result = run_snapshot(task.world, task.spec, task.routing,
                          tracer=tracer)
    result.world = None  # type: ignore[assignment]
    return result


def run_peeringdb_snapshot_task(task: PeeringDBTask) -> List[TrainingItem]:
    """Worker entry point: build one PeeringDB training set."""
    return run_peeringdb_snapshot(task.world, task.seed, task.label,
                                  year=task.year)


def reattach_world(result: SnapshotResult, world: World) -> SnapshotResult:
    """Restore the world reference a worker stripped before returning."""
    result.world = world
    return result
