"""End-to-end tracing through the real pipeline layers.

These tests run the actual learner / timeline / context code under a
live tracer and assert on the shape of the resulting trace: worker
spans re-parented under coordinator stages, store spans and counters,
and a manifest whose stages account for the run.
"""

from repro.core.hoiho import Hoiho
from repro.core.parallel import ParallelConfig
from repro.core.types import TrainingItem
from repro.eval.context import ExperimentContext, Scale
from repro.obs.manifest import MANIFEST_SCHEMA, validate_schema
from repro.obs.trace import Tracer
from repro.store import ArtifactStore


def _items(n_suffixes=3, per_suffix=12):
    items = []
    for index in range(n_suffixes):
        suffix = "op%02d-trace.org" % index
        base = 3000 + 100 * index
        for i in range(per_suffix):
            items.append(TrainingItem(
                "as%d-et0.pop%d.%s" % (base + 7 * i, i % 3, suffix),
                base + 7 * i))
    return items


def _by_name(records):
    index = {}
    for record in records:
        index.setdefault(record["name"], []).append(record)
    return index


class TestTracedLearning:
    def test_serial_run_produces_one_tree(self):
        tracer = Tracer()
        Hoiho(tracer=tracer).run(_items())
        tracer.close()
        by_name = _by_name(tracer.records)
        roots = [r for r in tracer.records if r["parent"] is None]
        assert [r["name"] for r in roots] == ["learn.run"]
        assert len(by_name["learn.suffix"]) == 3
        run_id = by_name["learn.run"][0]["id"]
        for suffix_span in by_name["learn.suffix"]:
            assert suffix_span["parent"] == run_id
            attrs = suffix_span["attrs"]
            assert "match_calls" in attrs and "hit_rate" in attrs

    def test_parallel_worker_spans_reparent_under_learn_run(self):
        tracer = Tracer()
        hoiho = Hoiho(tracer=tracer,
                      parallel=ParallelConfig(workers=2,
                                              backend="process"))
        result = hoiho.run(_items())
        tracer.close()
        by_name = _by_name(tracer.records)
        run_id = by_name["learn.run"][0]["id"]
        suffix_spans = by_name["learn.suffix"]
        assert len(suffix_spans) == 3
        assert all(s["parent"] == run_id for s in suffix_spans)
        # The worker-side phase spans keep their worker-local parents.
        for phase in by_name["learn.phase1"]:
            assert phase["parent"] in {s["id"] for s in suffix_spans}
        assert result.conventions  # the traced path still learns

    def test_traced_and_untraced_results_identical(self):
        items = _items()
        untraced = Hoiho().run(items)
        tracer = Tracer()
        traced = Hoiho(tracer=tracer).run(items)
        tracer.close()
        assert sorted(traced.conventions) == sorted(untraced.conventions)
        for suffix in traced.conventions:
            assert traced.conventions[suffix].patterns() == \
                untraced.conventions[suffix].patterns()


class TestTracedContext:
    def _context(self, tmp_path=None, **kwargs):
        store = ArtifactStore(str(tmp_path)) if tmp_path else None
        return ExperimentContext(seed=7, scale=Scale.TINY,
                                 itdk_labels=["2020-01"],
                                 include_pdb=False, store=store,
                                 tracer=Tracer(), **kwargs)

    def test_stage_spans_are_roots(self):
        context = self._context()
        context.learn_timeline()
        context.tracer.close()
        roots = [r["name"] for r in context.tracer.records
                 if r["parent"] is None]
        assert roots == ["stage.world", "stage.timeline", "stage.learn"]

    def test_snapshot_worker_spans_nest_under_timeline(self):
        context = self._context()
        context.timeline
        context.tracer.close()
        by_name = _by_name(context.tracer.records)
        timeline_id = by_name["timeline"][0]["id"]
        assert by_name["snapshot"][0]["parent"] == timeline_id
        snapshot_id = by_name["snapshot"][0]["id"]
        for child in ("snapshot.naming", "snapshot.build",
                      "snapshot.graph", "snapshot.annotate",
                      "snapshot.training"):
            assert by_name[child][0]["parent"] == snapshot_id
        assert by_name["snapshot.campaign"][0]["parent"] == \
            by_name["snapshot.build"][0]["id"]

    def test_store_spans_and_counters(self, tmp_path):
        cold = self._context(tmp_path)
        cold.learn_timeline()
        cold.tracer.close()
        cold_names = _by_name(cold.tracer.records)
        assert "store.put" in cold_names
        snapshot = cold.metrics.snapshot()
        assert snapshot["counters"]["store_writes"] == \
            len(cold_names["store.put"])

        warm = self._context(tmp_path)
        warm.learn_timeline()
        warm.tracer.close()
        warm_names = _by_name(warm.tracer.records)
        hits = [r for r in warm_names["store.get"]
                if r["attrs"].get("hit")]
        assert hits
        assert warm.metrics.snapshot()["counters"]["store_hits"] == \
            len(hits)

    def test_manifest_validates_and_covers_stages(self):
        context = self._context()
        context.learn_timeline()
        context.tracer.close()
        manifest = context.manifest(wall_seconds=1.0,
                                    trace_path="t.jsonl")
        assert validate_schema(manifest, MANIFEST_SCHEMA) == []
        names = [s["name"] for s in manifest["stages"]]
        assert names == ["stage.world", "stage.timeline", "stage.learn"]
        assert manifest["trace"] == "t.jsonl"
        assert manifest["seed"] == 7
        assert manifest["scale"] == "tiny"
        assert len(manifest["fingerprint"]) > 8

    def test_serve_bulk_chunks_traced(self):
        from repro.bench import serve_conventions
        from repro.serve.engine import BulkAnnotator
        from repro.serve.service import AnnotationService
        tracer = Tracer()
        annotator = BulkAnnotator(AnnotationService(serve_conventions(2)),
                                  chunk_size=8, tracer=tracer)
        hostnames = ["as%d-et0.pop0.svc00-bench.org" % (1000 + i)
                     for i in range(20)]
        results = list(annotator.annotate(hostnames))
        tracer.close()
        assert len(results) == 20
        by_name = _by_name(tracer.records)
        bulk = by_name["serve.bulk"][0]
        chunks = [c for c in by_name["serve.chunk"]
                  if not c["attrs"].get("eos")]
        assert bulk["attrs"]["chunks"] == len(chunks)
        assert all(c["parent"] == bulk["id"] for c in by_name["serve.chunk"])
        assert sum(c["attrs"]["size"] for c in chunks) == 20

    def test_bdrmapit_rounds_traced(self):
        context = self._context()
        context.timeline
        context.tracer.close()
        by_name = _by_name(context.tracer.records)
        annotate = by_name["bdrmapit.annotate"][0]
        assert annotate["attrs"]["rounds"] == 1
        assert by_name["bdrmapit.round"][0]["parent"] == annotate["id"]
