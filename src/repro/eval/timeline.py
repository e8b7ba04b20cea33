"""The 19 training sets of the paper (section 4).

Seventeen ITDK snapshots span July 2010 to January 2020: the first
twelve annotated with RouterToAsAssignment, the last five with bdrmapIT
(matching the real ITDK history).  Two PeeringDB snapshots complete the
set.  Three growth factors play out along the timeline, as in the paper:
vantage points increase, more operators adopt ASN-embedding conventions
(their adoption years are world properties), and the annotation method
improves in 2017.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional

from repro.core.parallel import ParallelConfig, parallel_map
from repro.core.types import TrainingItem
from repro.itdk.builder import BuildConfig
from repro.traceroute.campaign import CampaignConfig
from repro.core.resilience import ResilienceStats, RetryPolicy
from repro.obs.trace import (
    NULL_TRACER,
    Captured,
    Tracer,
    adopt_all,
    resilience_to_span,
    retry_to_span,
)
from repro.pipeline import (
    METHOD_BDRMAPIT,
    METHOD_RTAA,
    PeeringDBTask,
    SITE_TIMELINE,
    SnapshotResult,
    SnapshotSpec,
    SnapshotTask,
    reattach_world,
    run_peeringdb_snapshot_task,
    run_snapshot_task,
)
from repro.topology.world import World
from repro.traceroute.routing import RoutingModel
from repro.util.rand import substream

logger = logging.getLogger(__name__)

KIND_ITDK = "itdk"
KIND_PDB = "peeringdb"

#: (label, year, method) for the 17 ITDK snapshots.
ITDK_TIMELINE = [
    ("2010-07", 2010.5, METHOD_RTAA),
    ("2011-04", 2011.3, METHOD_RTAA),
    ("2011-10", 2011.8, METHOD_RTAA),
    ("2012-07", 2012.5, METHOD_RTAA),
    ("2013-04", 2013.3, METHOD_RTAA),
    ("2013-07", 2013.5, METHOD_RTAA),
    ("2014-04", 2014.3, METHOD_RTAA),
    ("2014-12", 2014.9, METHOD_RTAA),
    ("2015-08", 2015.6, METHOD_RTAA),
    ("2016-03", 2016.2, METHOD_RTAA),
    ("2016-09", 2016.7, METHOD_RTAA),
    ("2017-02", 2017.1, METHOD_RTAA),
    ("2017-08", 2017.6, METHOD_BDRMAPIT),
    ("2018-03", 2018.2, METHOD_BDRMAPIT),
    ("2019-01", 2019.0, METHOD_BDRMAPIT),
    ("2019-04", 2019.3, METHOD_BDRMAPIT),
    ("2020-01", 2020.0, METHOD_BDRMAPIT),
]

#: (label, year) for the PeeringDB snapshots.
PDB_TIMELINE = [
    ("2019-08-pdb", 2019.6),
    ("2020-02-pdb", 2020.1),
]


def vps_for_year(year: float) -> int:
    """Vantage-point count grows roughly linearly over the study period."""
    return max(6, int(round(8 + (year - 2010.0) * 2.6)))


def alias_augment_for_year(year: float) -> float:
    """Alias-resolution completeness improves over the study period.

    MIDAR-era active alias probing got better between 2010 and 2020;
    lower completeness means more routers are seen only through their
    supplier-addressed interface, which is what degrades the
    RouterToAsAssignment-era training quality visible in figure 6.
    """
    return min(0.75, max(0.63, 0.63 + (year - 2010.0) * 0.012))


@dataclass
class TrainingSet:
    """One training set: label, provenance, and the items themselves."""

    label: str
    kind: str                      # itdk | peeringdb
    method: str                    # rtaa | bdrmapit | operator
    year: float
    items: List[TrainingItem]
    snapshot: Optional[SnapshotResult] = None


def _timeline_tasks(world: World, seed: int,
                    routing: Optional[RoutingModel],
                    itdk_labels: Optional[List[str]],
                    include_pdb: bool) -> List[object]:
    """The timeline's snapshot tasks, in timeline order."""
    tasks: List[object] = []
    wanted = set(itdk_labels) if itdk_labels is not None else None
    for label, year, method in ITDK_TIMELINE:
        if wanted is not None and label not in wanted:
            continue
        spec = SnapshotSpec(
            label=label, year=year, method=method,
            n_vps=vps_for_year(year),
            seed=substream(seed, "snapshot", label).randrange(1 << 30),
            build=BuildConfig(
                campaign=CampaignConfig(n_vps=vps_for_year(year)),
                alias_augment_rate=alias_augment_for_year(year)))
        tasks.append(SnapshotTask(world=world, spec=spec, routing=routing))
    if include_pdb:
        for label, year in PDB_TIMELINE:
            pdb_seed = substream(seed, "snapshot", label).randrange(1 << 30)
            tasks.append(PeeringDBTask(world=world, seed=pdb_seed,
                                       label=label, year=year))
    return tasks


def _timeline_worker(task: object) -> object:
    """Dispatch one timeline task (runs in the calling or a worker
    process; the task and result both pickle)."""
    if isinstance(task, SnapshotTask):
        return run_snapshot_task(task)
    assert isinstance(task, PeeringDBTask)
    return run_peeringdb_snapshot_task(task)


def _timeline_worker_traced(task: object) -> Captured:
    """Like :func:`_timeline_worker`, with worker-side span capture.

    Each worker builds its own in-memory tracer and ships the captured
    per-snapshot span tree home inside the result;
    :func:`build_timeline` adopts the records under its ``timeline``
    span so the merged trace reads as one tree.
    """
    tracer = Tracer()
    if isinstance(task, SnapshotTask):
        result = run_snapshot_task(task, tracer=tracer)
    else:
        assert isinstance(task, PeeringDBTask)
        with tracer.span("snapshot.peeringdb", snapshot=task.label):
            result = run_peeringdb_snapshot_task(task)
    tracer.close()
    return Captured(result, tracer.export())


def build_timeline(world: World, seed: int,
                   routing: Optional[RoutingModel] = None,
                   itdk_labels: Optional[List[str]] = None,
                   include_pdb: bool = True,
                   parallel: Optional[ParallelConfig] = None,
                   retry: Optional[RetryPolicy] = None,
                   tracer=NULL_TRACER,
                   ) -> List[TrainingSet]:
    """Produce all training sets for ``world``.

    ``itdk_labels`` restricts which ITDK snapshots run (useful for
    scaled-down benchmarks); default is all seventeen.  ``parallel``
    fans one task per snapshot out over worker processes; tasks are
    generated in timeline order and ``parallel_map`` preserves input
    order, so parallel output is byte-identical to serial output (each
    snapshot is an independent deterministic function of the world and
    its spec).  ``retry`` arms the resilient dispatcher: transient
    worker faults and pool losses are retried instead of aborting the
    build (a snapshot that fails permanently still raises -- a timeline
    with holes would silently skew every downstream experiment).
    ``tracer`` wraps the build in a ``timeline`` span; workers capture
    their per-snapshot spans and the coordinator adopts them under it,
    with retries surfacing live as ``retry`` span events.
    """
    if routing is None:
        routing = RoutingModel(world.graph)
    parallel = parallel or ParallelConfig.serial()
    tasks = _timeline_tasks(world, seed, routing, itdk_labels, include_pdb)
    with tracer.span("timeline", snapshots=len(tasks)) as span:
        if not tracer.enabled:
            results = parallel_map(_timeline_worker, tasks, parallel,
                                   retry=retry, site=SITE_TIMELINE)
        else:
            stats = ResilienceStats()
            captured = parallel_map(
                _timeline_worker_traced, tasks, parallel, retry=retry,
                site=SITE_TIMELINE,
                on_retry=retry_to_span(span, SITE_TIMELINE), stats=stats)
            results = adopt_all(tracer, captured, parent_id=span.span_id)
            if retry is not None:
                resilience_to_span(span, SITE_TIMELINE, stats)

    sets: List[TrainingSet] = []
    for task, result in zip(tasks, results):
        if isinstance(task, SnapshotTask):
            snapshot_result = reattach_world(result, world)
            logger.info("built %s (%s): %d training items",
                        task.spec.label, task.spec.method,
                        len(snapshot_result.training))
            sets.append(TrainingSet(
                label=task.spec.label, kind=KIND_ITDK,
                method=task.spec.method, year=task.spec.year,
                items=snapshot_result.training, snapshot=snapshot_result))
        else:
            sets.append(TrainingSet(label=task.label, kind=KIND_PDB,
                                    method="operator", year=task.year,
                                    items=result))
    return sets
