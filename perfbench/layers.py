"""Per-layer measurement from outside the program.

Two sources, neither of which adds code to the program itself:

* the program's own ``--trace-out`` spans (``stage.*``, ``snapshot.*``,
  ``learn.*``, ``store.*``), aggregated by ``pipeline_layers``;
* call counters and timers the benchmark wraps around public layer
  functions (``Probe``), installed in the child process before the
  program runs.  They run in a job of their own, so their cost is in
  neither the untraced jobs nor the traced job the tracing overhead is
  read from.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List


class Probe:
    """Calls and nanoseconds spent in one wrapped layer function.

    ``depth`` makes nested calls through the same probe count once, so
    ``registered_domain`` calling ``public_suffix`` is one lookup.
    """

    __slots__ = ("calls", "ns", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.ns = 0
        self.depth = 0

    def as_dict(self) -> Dict[str, int]:
        return {"calls": self.calls, "ns": self.ns}


def timed(function: Callable, probe: Probe) -> Callable:
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        if probe.depth:
            return function(*args, **kwargs)
        probe.depth = 1
        started = clock()
        try:
            return function(*args, **kwargs)
        finally:
            probe.ns += clock() - started
            probe.calls += 1
            probe.depth = 0

    wrapper.__name__ = getattr(function, "__name__", "wrapped")
    wrapper.__doc__ = function.__doc__
    return wrapper


def wrap(owner: object, name: str, probe: Probe) -> None:
    """Replace ``owner.name`` (a class or module attribute) in place."""
    setattr(owner, name, timed(getattr(owner, name), probe))


def install_pipeline_probes() -> Dict[str, Probe]:
    """Probes on the substrate and learner layers of a pipeline run."""
    from repro.core import delta
    from repro.psl.psl import PublicSuffixList
    from repro.topology import geo
    from repro.util.radix import RadixTrie

    probes = {name: Probe() for name in ("radix", "geo", "psl", "plan")}
    wrap(RadixTrie, "lookup_prefix", probes["radix"])
    wrap(geo, "distance_km", probes["geo"])
    wrap(PublicSuffixList, "public_suffix", probes["psl"])
    wrap(PublicSuffixList, "registered_domain", probes["psl"])
    wrap(delta, "plan_timeline", probes["plan"])
    return probes


def install_index_probes() -> Dict[str, Probe]:
    """Probes on the dispatch index and memo used by bulk annotation."""
    from repro.serve import engine, index, memo

    probes = {name: Probe() for name in ("normalize", "lookup", "extract",
                                         "memo_put")}
    engine.normalize_hostname = timed(engine.normalize_hostname,
                                      probes["normalize"])
    wrap(index.DispatchIndex, "lookup_normalized", probes["lookup"])
    wrap(index.AnnotationPlan, "extract", probes["extract"])
    wrap(memo.AnnotationMemo, "put", probes["memo_put"])
    return probes


def load_spans(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _walls(spans: Iterable[dict]) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += span.get("wall") or 0.0
    return totals


def pipeline_layers(spans: List[dict], probes: Dict[str, dict],
                    store_bytes: int) -> Dict[str, float]:
    """Per-layer metrics of one traced ``run`` (see BENCHMARK.json)."""
    walls = _walls(spans)
    learn = [s for s in spans if s["name"] == "stage.learn"]
    learn_ids = {s["id"] for s in learn}
    child_wall = sum(s.get("wall") or 0.0 for s in spans
                     if s.get("parent") in learn_ids)
    suffix_spans = [s for s in spans if s["name"] == "learn.suffix"]
    kept = sum(1 for s in suffix_spans if s["attrs"].get("kept"))
    # Spans carry hit_rate = hits / lookups; with no hits, the lookups
    # are the vectors built, one re.match per item each.
    hits = lookups = 0.0
    for span in suffix_spans:
        attrs = span["attrs"]
        if attrs.get("hit_rate"):
            hits += attrs["vector_hits"]
            lookups += attrs["vector_hits"] / attrs["hit_rate"]
        elif attrs.get("items"):
            lookups += attrs.get("match_calls", 0) / attrs["items"]
    plans = sum(s["attrs"].get("suffix_plans", 0) for s in learn)
    unique = sum(s["attrs"].get("suffix_unique", 0) for s in learn)
    gets = [s for s in spans if s["name"] == "store.get"]

    def probe_s(name: str) -> float:
        return probes[name]["ns"] / 1e9

    return {
        "topology.world_s": walls["stage.world"],
        "naming.assign_s": walls["snapshot.naming"],
        "itdk.build_s": walls["snapshot.build"],
        "bdrmapit.graph_s": walls["snapshot.graph"],
        "bdrmapit.annotate_s": walls["snapshot.annotate"],
        "util.radix.lookups": probes["radix"]["calls"],
        "util.radix.lookup_s": probe_s("radix"),
        "topology.geo.distance_calls": probes["geo"]["calls"],
        "topology.geo.distance_s": probe_s("geo"),
        "psl.lookups": probes["psl"]["calls"],
        "psl.lookup_s": probe_s("psl"),
        "core.learn_s": walls["stage.learn"],
        "core.learn_suffix_s": walls["learn.suffix"],
        "core.phase1_s": walls["learn.phase1"],
        "core.phase2_s": walls["learn.phase2"],
        "core.phase3_s": walls["learn.phase3"],
        "core.phase4_s": walls["learn.phase4"],
        "core.select_s": walls["learn.select"],
        "core.learn_unattributed_s": max(0.0, walls["stage.learn"]
                                         - child_wall),
        "core.suffixes": len(suffix_spans),
        "core.conventions": kept,
        "core.kept_fraction": kept / len(suffix_spans)
        if suffix_spans else 0.0,
        "core.matchcache.hit_rate": hits / lookups if lookups else 0.0,
        "core.delta.plan_s": probe_s("plan"),
        "core.delta.unique_fraction": unique / plans if plans else 0.0,
        "store.get_s": walls["store.get"],
        "store.put_s": walls["store.put"],
        "store.hits": sum(1 for s in gets if s["attrs"].get("hit")),
        "store.misses": sum(1 for s in gets if not s["attrs"].get("hit")),
        "store.writes": sum(1 for s in spans if s["name"] == "store.put"),
        "store.bytes": store_bytes,
    }


def dump_probes(path: str, probes: Dict[str, Probe],
                extra: Dict[str, object]) -> None:
    """Write probe totals atomically (a reader never sees half a file)."""
    document = {name: probe.as_dict() for name, probe in probes.items()}
    document.update(extra)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    os.replace(tmp, path)
