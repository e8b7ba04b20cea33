"""Command-line driver: ``repro-hoiho <command> [options]``.

Experiment commands regenerate the paper's tables and figures::

    repro-hoiho figure5 --scale small --seed 2020
    repro-hoiho section5
    repro-hoiho all --scale tiny

Workflow commands run the learner on user data::

    repro-hoiho learn  --hostnames names.txt --save conv.json
    repro-hoiho report --hostnames names.txt
    repro-hoiho apply  --conventions conv.json --hostnames more.txt

Serving commands apply learned conventions at bulk rates through the
:mod:`repro.serve` subsystem (suffix-trie dispatch, chunked streaming,
live metrics)::

    repro-hoiho annotate --conventions conv.json --hostnames big.txt \
        --jobs 0 --format jsonl --out annotated.jsonl
    zcat ptr.gz | repro-hoiho annotate --conventions conv.json --hostnames -
    repro-hoiho serve --conventions conv.json < names.txt
    repro-hoiho serve-http --conventions conv.json --port 8080 --workers 4
    repro-hoiho loadgen --port 8080 --mode closed --requests 5000
    repro-hoiho serve-stats

``apply`` is a thin alias of ``annotate`` kept for compatibility; both
stream their input (constant memory on arbitrarily large files).

``serve-http`` runs the network annotation server (:mod:`repro.serve.http`):
keep-alive HTTP with single/batch annotate, ``/metrics``, health and
readiness probes, admin hot reload, and a pre-fork ``--workers`` pool
sharing one warmed dispatch index.  SIGTERM drains gracefully; SIGHUP
hot-reloads the conventions file.  ``loadgen`` drives a running server
in open or closed loop and prints a throughput/latency report
(``--loadgen-out`` saves it as JSON).

Shadow deployment (:mod:`repro.serve.shadow`): ``serve`` and
``serve-http`` take ``--shadow CANDIDATE.json`` to load a candidate
convention set side-by-side -- every request is annotated against both
sets, callers see only the primary's answers, and per-suffix
disagreement accumulates in the metrics.  ``repro-hoiho shadow-report``
renders the ledger from a running server (``--host``/``--port``) or
from saved ``--metrics`` snapshots; ``POST /admin/shadow/promote``
swaps the candidate in, gated by ``--promote-threshold`` when set::

    repro-hoiho serve-http --conventions live.json --shadow cand.json \
        --promote-threshold 0.01 --workers 4
    repro-hoiho shadow-report --port 8080

Hostname files carry one ``hostname asn`` pair per line for learn/report
(`#` comments allowed); for apply/annotate/serve, a bare hostname per
line suffices.

``--jobs N`` fans learning out over N worker processes (0 = one per
CPU); results are bit-identical to serial runs.  ``repro-hoiho bench``
runs the learner benchmark suite and refreshes ``BENCH_learner.json``.

``--retries N`` arms the fault-tolerant dispatcher on every parallel
fan-out (worker crashes rebuild the pool and replay in-flight work;
transient faults retry with deterministic backoff -- see
``docs/ROBUSTNESS.md``).  For ``annotate``, ``--checkpoint FILE``
records progress after every flushed chunk; rerunning an interrupted
command with the same flags resumes where it left off and produces
byte-identical output.

``--cache-dir DIR`` (or the ``REPRO_CACHE_DIR`` environment variable)
points at a persistent artifact store: experiment runs reuse generated
worlds/timelines and ``learn``/``report`` reuse learned conventions
across invocations; ``--no-cache`` disables the store for one run.
``repro-hoiho cache info`` and ``repro-hoiho cache clear`` inspect and
empty the store (``cache info --json`` for machine consumption, with
per-namespace entry counts and bytes; ``cache clear --namespace
suffixes`` flushes one namespace).  With a store attached, timeline
learning is incremental at suffix granularity -- only suffixes whose
training data changed since the cached snapshot relearn;
``--no-suffix-cache`` disables that layer for one run.

Observability (see ``docs/OBSERVABILITY.md``)::

    repro-hoiho run --scale small --trace-out trace.jsonl
    repro-hoiho trace summary trace.jsonl --top 15
    repro-hoiho serve-stats --metrics snap.json --format prom

``run`` executes the core pipeline end to end (world, timeline,
learned conventions).  ``--trace-out FILE`` -- honoured by ``run`` and
every experiment command -- records a span trace as JSONL and writes a
run manifest (config fingerprint, versions, per-stage durations,
metric snapshot) next to it; ``--manifest-out`` overrides the manifest
path.  ``trace summary`` renders a recorded trace: the per-stage tree
(worker-side snapshot and suffix spans included), the slowest
suffixes, and resilience/cache tables.  ``serve-stats --format prom``
emits any metrics snapshot in Prometheus text exposition format, and
``--json`` on ``serve-stats``/``cache info`` emits raw JSON.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional, Tuple

from repro.core.hoiho import Hoiho, HoihoConfig, HoihoResult
from repro.core.io import conventions_to_json
from repro.core.parallel import ParallelConfig
from repro.core.resilience import RetryPolicy
from repro.core.report import render_result
from repro.core.types import TrainingItem, group_by_suffix
from repro.eval import (
    ExperimentContext,
    Scale,
    ablation,
    appendix_a,
    figure5,
    figure6,
    section5,
    section7,
    sensitivity,
    table1,
    table2,
)
from repro.obs.manifest import write_manifest
from repro.obs.metrics import render_snapshot
from repro.obs.prom import to_prometheus
from repro.obs.summary import render_summary
from repro.obs.trace import NULL_TRACER, Tracer, load_trace
from repro.serve import AnnotationService, BulkAnnotator, iter_hostnames
from repro.serve.engine import Checkpoint, DEFAULT_CHUNK_SIZE, SINKS
from repro.serve.memo import DEFAULT_MEMO_SIZE
from repro.serve.service import warmed_service
from repro.store import KIND_HOIHO, KINDS, ArtifactStore

_EXPERIMENTS = {
    "figure5": figure5,
    "figure6": figure6,
    "table1": table1,
    "table2": table2,
    "section5": section5,
    "section7": section7,
    "sensitivity": sensitivity,
    "appendix-a": appendix_a,
    "ablation": ablation,
}

_WORKFLOWS = ("learn", "report", "apply", "annotate", "serve",
              "serve-http", "loadgen", "serve-stats", "shadow-report",
              "watch", "slo-report", "bench", "cache", "run", "trace")

#: ``--format`` values that are renderers, not streaming sinks.
_RENDER_FORMATS = ("prom", "text")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hoiho",
        description="Reproduce 'Learning to Extract and Use ASNs in "
                    "Hostnames' (IMC 2020) on a synthetic Internet, or "
                    "run the learner on your own hostname data.")
    parser.add_argument("command",
                        choices=sorted(_EXPERIMENTS) + ["all"]
                        + list(_WORKFLOWS),
                        help="experiment to reproduce, or workflow verb")
    parser.add_argument("subcommand", nargs="?", default=None,
                        help="cache: 'info' (default) or 'clear'; "
                             "trace: 'summary'")
    parser.add_argument("target", nargs="?", default=None,
                        help="trace summary: the trace JSONL file to "
                             "render")
    parser.add_argument("--seed", type=int, default=2020,
                        help="master seed for the synthetic world")
    parser.add_argument("--scale", choices=[s.value for s in Scale],
                        default=Scale.SMALL.value,
                        help="world size (tiny/small/full)")
    parser.add_argument("--hostnames", metavar="FILE",
                        help="input file ('hostname asn' lines for "
                             "learn/report; bare hostnames for "
                             "apply/annotate; '-' reads stdin)")
    parser.add_argument("--save", metavar="FILE",
                        help="learn: write conventions JSON here")
    parser.add_argument("--conventions", metavar="FILE",
                        help="apply: conventions JSON from a prior learn")
    parser.add_argument("--shadow", metavar="FILE",
                        help="serve/serve-http: candidate conventions "
                             "JSON to annotate side-by-side (shadow "
                             "deployment; results never returned)")
    parser.add_argument("--promote-threshold", type=float, default=None,
                        metavar="FRACTION",
                        help="serve-http: refuse /admin/shadow/promote "
                             "while the merged disagreement fraction "
                             "exceeds this (default: no gate)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for learning "
                             "(1 = serial, 0 = one per CPU)")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="extra attempts per parallel work item "
                             "(0 = fail fast; >0 arms worker-loss "
                             "recovery and transient-fault retry)")
    parser.add_argument("--retry-backoff", type=float, default=0.05,
                        metavar="SECONDS",
                        help="base delay before the first retry "
                             "(doubles per attempt, deterministic)")
    parser.add_argument("--checkpoint", metavar="FILE",
                        help="annotate: progress sidecar; an "
                             "interrupted run rerun with the same "
                             "flags resumes where it left off")
    parser.add_argument("--output", metavar="FILE",
                        default="BENCH_learner.json",
                        help="bench: where to write the JSON report")
    parser.add_argument("--cache-dir", metavar="DIR",
                        default=os.environ.get("REPRO_CACHE_DIR"),
                        help="persistent artifact store for worlds, "
                             "timelines, and learned conventions "
                             "(default: $REPRO_CACHE_DIR, else off)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore the artifact store for this run")
    parser.add_argument("--no-suffix-cache", action="store_true",
                        help="disable the per-suffix incremental cache "
                             "layer (whole-result caching still applies)")
    parser.add_argument("--namespace", choices=KINDS, metavar="KIND",
                        help="cache clear: restrict the sweep to one "
                             "namespace (%s)" % "/".join(KINDS))
    parser.add_argument("--chunk-size", type=int,
                        default=None, metavar="N",
                        help="annotate: hostnames per dispatched chunk "
                             "(default: adaptive ramp, %d fixed for "
                             "the serial path)" % DEFAULT_CHUNK_SIZE)
    parser.add_argument("--memo-size", type=int,
                        default=DEFAULT_MEMO_SIZE, metavar="N",
                        help="annotate/serve: hostname-memo capacity "
                             "(0 disables memoization; default %d)"
                             % DEFAULT_MEMO_SIZE)
    parser.add_argument("--format",
                        choices=sorted(list(SINKS) + list(_RENDER_FORMATS)),
                        default="tsv", dest="sink_format",
                        help="annotate: output format (default tsv); "
                             "serve-stats: 'prom' or 'text' rendering "
                             "of a --metrics snapshot")
    parser.add_argument("--out", metavar="FILE", default="-",
                        help="annotate: output destination "
                             "(default '-' = stdout)")
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="serve/serve-http: write a metrics "
                             "snapshot JSON here on exit (serve also "
                             "flushes it on SIGTERM/SIGINT)")
    parser.add_argument("--metrics", metavar="FILE", action="append",
                        help="serve-stats: render this metrics "
                             "snapshot instead of the bench section "
                             "(repeat to merge several additively)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="serve-http/loadgen: bind/connect address "
                             "(default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8080, metavar="N",
                        help="serve-http/loadgen: TCP port (0 lets "
                             "the kernel pick; default 8080)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="serve-http: pre-fork worker processes "
                             "(1 = single process; default 1)")
    parser.add_argument("--max-body", type=int,
                        default=None, metavar="BYTES",
                        help="serve-http: reject request bodies larger "
                             "than this with 413 (default 8 MiB)")
    parser.add_argument("--max-inflight", type=int,
                        default=None, metavar="N",
                        help="serve-http: per-worker bound on "
                             "concurrent annotation requests; excess "
                             "gets 429 (default 64)")
    parser.add_argument("--drain-grace", type=float, default=0.0,
                        metavar="SECONDS",
                        help="serve-http: keep accepting (readyz 503) "
                             "this long after SIGTERM so load "
                             "balancers observe the drain (default 0)")
    parser.add_argument("--mode", choices=("closed", "open"),
                        default="closed",
                        help="loadgen: closed loop (capacity) or open "
                             "loop (fixed offered rate)")
    parser.add_argument("--concurrency", type=int, default=4,
                        metavar="N",
                        help="loadgen: client connections/threads "
                             "(default 4)")
    parser.add_argument("--requests", type=int, default=1000,
                        metavar="N",
                        help="loadgen: total requests to issue "
                             "(default 1000)")
    parser.add_argument("--rate", type=float, default=100.0,
                        metavar="PER_SECOND",
                        help="loadgen open loop: offered request rate "
                             "(default 100/s)")
    parser.add_argument("--batch-size", type=int, default=1,
                        metavar="N",
                        help="loadgen: hostnames per request (1 = "
                             "POST /annotate, else /annotate/batch)")
    parser.add_argument("--loadgen-out", metavar="FILE",
                        help="loadgen: also write the report as JSON "
                             "here")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="run/experiments: record a span trace "
                             "here (JSONL) and write a run manifest "
                             "next to it; serve-http: JSONL sink for "
                             "--trace-sample request spans")
    parser.add_argument("--access-log", metavar="PATH",
                        help="serve-http: structured JSON access log, "
                             "one line per request ('-' = stderr; "
                             "default off)")
    parser.add_argument("--trace-sample", type=int, default=0,
                        metavar="N",
                        help="serve-http: trace 1-in-N requests as "
                             "spans to --trace-out (0 = off)")
    parser.add_argument("--history", metavar="FILE",
                        help="serve-http: append timestamped merged "
                             "metrics snapshots here (JSONL; default "
                             "<cache-dir>/history/serve-http.jsonl "
                             "when a cache dir is configured); "
                             "shadow-report/slo-report: read this "
                             "history instead of a live server")
    parser.add_argument("--history-interval", type=float, default=10.0,
                        metavar="SECONDS",
                        help="serve-http: seconds between history "
                             "appends (default 10)")
    parser.add_argument("--slo", metavar="FILE",
                        help="slo-report: declarative SLO target JSON "
                             "(see docs/OBSERVABILITY.md)")
    parser.add_argument("--interval", type=float, default=2.0,
                        metavar="SECONDS",
                        help="watch: refresh period (default 2)")
    parser.add_argument("--iterations", type=int, default=0,
                        metavar="N",
                        help="watch: stop after N frames (0 = until "
                             "interrupted)")
    parser.add_argument("--manifest-out", metavar="FILE",
                        help="override the manifest path (default: "
                             "<trace-out stem>.manifest.json)")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="trace summary: slowest-suffix rows to "
                             "show (default 10)")
    parser.add_argument("--json", action="store_true",
                        help="cache info / serve-stats: emit raw JSON "
                             "instead of the human rendering")
    return parser


def _resolve_policies(args: argparse.Namespace) -> None:
    """Validate ``--jobs``/``--retries``/``--retry-backoff`` once, up
    front, and attach the resulting :class:`ParallelConfig` and
    :class:`RetryPolicy` (or ``None``) to ``args`` for every command.

    Raises ``ValueError`` on bad values (``--jobs -1``,
    ``--retries -1``); :func:`main` turns that into exit code 2 instead
    of a traceback."""
    args.parallel = ParallelConfig.from_jobs(args.jobs)
    args.retry = RetryPolicy.from_flags(args.retries,
                                        backoff=args.retry_backoff)


def _store_from_args(args: argparse.Namespace) -> Optional[ArtifactStore]:
    """The artifact store the flags select, or ``None`` when caching
    is off (no ``--cache-dir``/``REPRO_CACHE_DIR``, or ``--no-cache``)."""
    if args.no_cache or not args.cache_dir:
        return None
    return ArtifactStore(args.cache_dir)


def _read_training(path: str) -> List[TrainingItem]:
    items: List[TrainingItem] = []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) < 2:
                print("skipping malformed line: %r" % raw,
                      file=sys.stderr)
                continue
            items.append(TrainingItem(hostname=fields[0],
                                      train_asn=int(fields[1])))
    return items


def _run_experiment(name: str, context: ExperimentContext) -> str:
    module = _EXPERIMENTS[name]
    result = module.run(context)
    return module.render(result)


def _learn_items(items: List[TrainingItem],
                 args: argparse.Namespace) -> HoihoResult:
    """Learn conventions for ``items``, via the artifact store if on.

    The store key is the full training data plus the learner config,
    so any change to either re-learns; worker count is deliberately
    not keyed (parallel results are bit-identical to serial).
    """
    store = _store_from_args(args)
    payload = {"kind": "learn-cli",
               "items": [(it.hostname, it.train_asn) for it in items],
               "hoiho_config": HoihoConfig()}
    if store is not None:
        cached = store.get(KIND_HOIHO, payload)
        if cached is not None:
            return cached
    suffix_store = None if args.no_suffix_cache else store
    result = Hoiho(parallel=args.parallel, retry=args.retry,
                   store=suffix_store).run(items)
    if store is not None:
        store.put(KIND_HOIHO, payload, result)
    return result


def _cmd_learn(args: argparse.Namespace) -> int:
    if args.hostnames is None:
        print("learn requires --hostnames FILE", file=sys.stderr)
        return 2
    items = _read_training(args.hostnames)
    result = _learn_items(items, args)
    for suffix in sorted(result.conventions):
        convention = result.conventions[suffix]
        print("%s [%s] atp=%d ppv=%.2f" % (suffix,
                                           convention.nc_class.value,
                                           convention.score.atp,
                                           convention.score.ppv))
        for pattern in convention.patterns():
            print("    %s" % pattern)
    print("# %d suffixes examined, %d conventions learned"
          % (result.suffixes_examined, len(result.conventions)))
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            handle.write(conventions_to_json(result))
        print("# conventions written to %s" % args.save)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.hostnames is None:
        print("report requires --hostnames FILE", file=sys.stderr)
        return 2
    items = _read_training(args.hostnames)
    result = _learn_items(items, args)
    print(render_result(result, group_by_suffix(items)))
    return 0


def _cmd_annotate(args: argparse.Namespace) -> int:
    """Bulk annotation through :mod:`repro.serve` (and the ``apply``
    alias): streaming input, chunked ``--jobs`` fan-out, TSV/JSONL
    sinks.  Memory stays bounded by the chunk window however large the
    input is."""
    if args.sink_format not in SINKS:
        print("%s --format must be a sink format (%s), not %r"
              % (args.command, "/".join(sorted(SINKS)), args.sink_format),
              file=sys.stderr)
        return 2
    if args.conventions is None or args.hostnames is None:
        print("%s requires --conventions FILE and --hostnames FILE "
              "('-' = stdin)" % args.command, file=sys.stderr)
        return 2
    if args.checkpoint and args.out == "-":
        print("--checkpoint requires --out FILE (stdout cannot be "
              "resumed)", file=sys.stderr)
        return 2
    if args.memo_size < 0:
        print("--memo-size must be >= 0, got %d" % args.memo_size,
              file=sys.stderr)
        return 2
    service = AnnotationService.from_json_file(args.conventions,
                                               memo_size=args.memo_size)
    service.warm()
    annotator = BulkAnnotator(service,
                              parallel=args.parallel,
                              chunk_size=args.chunk_size,
                              retry=args.retry)
    checkpoint = Checkpoint(args.checkpoint) if args.checkpoint else None
    source = sys.stdin if args.hostnames == "-" \
        else open(args.hostnames, encoding="utf-8")
    resuming = checkpoint is not None and checkpoint.path.exists()
    sink = sys.stdout if args.out == "-" \
        else _open_sink(args.out, resuming=resuming)
    try:
        summary = annotator.annotate_to(iter_hostnames(source), sink,
                                        fmt=args.sink_format,
                                        checkpoint=checkpoint)
    finally:
        if source is not sys.stdin:
            source.close()
        if sink is not sys.stdout:
            sink.close()
    tail = ", %d dead-lettered" % summary["errors"] \
        if summary["errors"] else ""
    print("# %d hostname(s): %d annotated, %d unannotated%s"
          % (summary["requests"], summary["annotated"],
             summary["misses"], tail), file=sys.stderr)
    return 0


def _open_sink(path: str, resuming: bool):
    """Open the annotate output file: truncate on a fresh run, but keep
    existing bytes when a checkpoint may resume into them ('r+' so the
    engine can truncate back to the last durable line itself)."""
    if resuming and os.path.exists(path):
        return open(path, "r+", encoding="utf-8")
    return open(path, "w", encoding="utf-8")


def _cmd_apply(args: argparse.Namespace) -> int:
    """Thin alias: ``apply`` is ``annotate`` with the historical
    defaults (TSV to stdout)."""
    return _cmd_annotate(args)


def _serve_args_ok(args: argparse.Namespace) -> bool:
    """The ``--conventions``/``--memo-size`` checks ``serve`` and
    ``serve-http`` share; prints the complaint and returns False."""
    if args.conventions is None:
        print("%s requires --conventions FILE" % args.command,
              file=sys.stderr)
        return False
    if args.memo_size < 0:
        print("--memo-size must be >= 0, got %d" % args.memo_size,
              file=sys.stderr)
        return False
    return True


def _serving_service(args: argparse.Namespace,
                     ) -> Tuple[AnnotationService, int]:
    """The warmed ``(service, plan count)`` ``serve``/``serve-http``
    run, shadowing ``--shadow`` when given."""
    with open(args.conventions, encoding="utf-8") as handle:
        conventions_json = handle.read()
    return warmed_service(conventions_json, memo_size=args.memo_size,
                          shadow=args.shadow, log=sys.stderr)


def _write_metrics_snapshot(path: str, service: AnnotationService) -> None:
    import json as _json
    with open(path, "w", encoding="utf-8") as handle:
        _json.dump(service.stats(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _cmd_serve(args: argparse.Namespace) -> int:
    """Line-oriented serving loop: hostnames in on stdin, annotations
    out on stdout (one TSV line per request, flushed), metrics summary
    on stderr at EOF.  SIGTERM/SIGINT also flush ``--metrics-out``
    before exiting -- an interrupted session keeps its numbers."""
    import signal as _signal

    from repro.serve.shadow import render_shadow_report

    if not _serve_args_ok(args):
        return 2
    service, warmed = _serving_service(args)
    print("# serving %d convention(s) from %s"
          % (warmed, args.conventions), file=sys.stderr)

    def _render_exit_stats() -> None:
        if args.metrics_out:
            _write_metrics_snapshot(args.metrics_out, service)
        if args.shadow:
            print(render_shadow_report(service.report()), file=sys.stderr)
        print(service.metrics.render(), file=sys.stderr)

    def _flush_and_exit(signum: int, frame: object) -> None:
        # PEP 475 auto-retries the blocked stdin read after this
        # handler returns, so a "stop" flag would never be seen;
        # flush here and leave directly instead.
        _render_exit_stats()
        sys.exit(0)

    previous = [_signal.signal(_signal.SIGTERM, _flush_and_exit),
                _signal.signal(_signal.SIGINT, _flush_and_exit)]
    try:
        for hostname in iter_hostnames(sys.stdin):
            asn = service.annotate_one(hostname)
            print("%s\t%s" % (hostname, asn if asn is not None else "-"),
                  flush=True)
    finally:
        _signal.signal(_signal.SIGTERM, previous[0])
        _signal.signal(_signal.SIGINT, previous[1])
    _render_exit_stats()
    return 0


def _cmd_serve_http(args: argparse.Namespace) -> int:
    """The network annotation server (see :mod:`repro.serve.http`)."""
    from repro.serve.http import HttpConfig, serve_http

    if not _serve_args_ok(args):
        return 2
    history = args.history
    if history is None and args.cache_dir and not args.no_cache:
        # The tentpole default: persisted telemetry lives with the
        # other durable artifacts, so successive lifetimes accumulate
        # into one comparable history.
        history = os.path.join(args.cache_dir, "history",
                               "serve-http.jsonl")
    config = HttpConfig(host=args.host, port=args.port,
                        workers=args.workers,
                        drain_grace=args.drain_grace,
                        conventions=args.conventions,
                        shadow=args.shadow,
                        promote_threshold=args.promote_threshold,
                        metrics_out=args.metrics_out,
                        access_log=args.access_log,
                        trace_sample=args.trace_sample,
                        trace_out=args.trace_out,
                        history=history,
                        history_interval=args.history_interval)
    if args.max_body is not None:
        config.max_body = args.max_body
    if args.max_inflight is not None:
        config.max_inflight = args.max_inflight
    try:
        config.validate()
    except ValueError as exc:
        print("repro-hoiho serve-http: %s" % exc, file=sys.stderr)
        return 2
    service, warmed = _serving_service(args)

    def _ready(port: int) -> None:
        print("# serving %d convention(s) on http://%s:%d (%d worker%s)"
              % (warmed, args.host, port, args.workers,
                 "" if args.workers == 1 else "s"),
              file=sys.stderr, flush=True)

    return serve_http(service, config, ready=_ready)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a running ``serve-http`` instance and report throughput
    and latency percentiles.  The hostname stream is ``--hostnames``
    (bare hostnames) or, by default, the bench's deterministic Zipf
    stream -- the same workload the in-process serve bench measures,
    so the numbers are comparable."""
    import json as _json

    from repro.serve.loadgen import LoadGenConfig, run_loadgen

    if args.hostnames:
        source = sys.stdin if args.hostnames == "-" \
            else open(args.hostnames, encoding="utf-8")
        try:
            hostnames = list(iter_hostnames(source))
        finally:
            if source is not sys.stdin:
                source.close()
        if not hostnames:
            print("loadgen: no hostnames in %s" % args.hostnames,
                  file=sys.stderr)
            return 2
    else:
        from repro.bench import zipf_hostnames
        hostnames = zipf_hostnames()
    config = LoadGenConfig(host=args.host, port=args.port,
                           mode=args.mode, requests=args.requests,
                           concurrency=args.concurrency, rate=args.rate,
                           batch_size=args.batch_size)
    try:
        config.validate()
    except ValueError as exc:
        print("repro-hoiho loadgen: %s" % exc, file=sys.stderr)
        return 2
    result = run_loadgen(config, hostnames)
    print(_json.dumps(result, indent=2, sort_keys=True))
    if args.loadgen_out:
        with open(args.loadgen_out, "w", encoding="utf-8") as handle:
            _json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


def _cmd_serve_stats(args: argparse.Namespace) -> int:
    """Render a saved metrics snapshot (``--metrics FILE``, repeatable
    -- several files merge additively via ``merge_snapshot``, e.g. the
    per-worker flushes of a pre-fork server) or the ``serve`` section
    of the bench report (``--output``, default ``BENCH_learner.json``).
    A ``--metrics`` snapshot additionally renders as Prometheus text
    exposition (``--format prom``) or raw JSON (``--json``)."""
    import json as _json
    if args.metrics:
        snapshots = []
        for path in args.metrics:
            try:
                with open(path, encoding="utf-8") as handle:
                    snapshots.append(_json.load(handle))
            except (OSError, ValueError) as exc:
                print("cannot read metrics snapshot %s: %s"
                      % (path, exc), file=sys.stderr)
                return 2
        if len(snapshots) == 1:
            # One file renders verbatim, extras (memo, fused_plans)
            # included; merging would drop non-instrument keys.
            snapshot = snapshots[0]
        else:
            from repro.obs.metrics import MetricsRegistry
            merged = MetricsRegistry()
            try:
                for payload in snapshots:
                    merged.merge_snapshot(payload)
            except ValueError as exc:
                print("cannot merge metrics snapshots: %s" % exc,
                      file=sys.stderr)
                return 2
            snapshot = merged.snapshot()
        if args.json:
            print(_json.dumps(snapshot, indent=2, sort_keys=True))
        elif args.sink_format == "prom":
            print(to_prometheus(snapshot), end="")
        else:
            print(render_snapshot(snapshot))
        return 0
    if args.sink_format == "prom":
        print("serve-stats --format prom requires --metrics FILE "
              "(the bench serve section is not a metrics snapshot)",
              file=sys.stderr)
        return 2
    from repro.bench import render_serve_section
    try:
        with open(args.output, encoding="utf-8") as handle:
            report = _json.load(handle)
    except (OSError, ValueError) as exc:
        print("cannot read bench report %s: %s" % (args.output, exc),
              file=sys.stderr)
        return 2
    section = report.get("serve")
    if not section:
        print("no serve section in %s (run `make annotate-bench`)"
              % args.output, file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(section, indent=2, sort_keys=True))
        return 0
    print(render_serve_section(section))
    return 0


def _cmd_shadow_report(args: argparse.Namespace) -> int:
    """The shadow disagreement ledger, three ways: live from a running
    ``serve-http`` (``GET /admin/shadow/report`` on ``--host``/
    ``--port``), offline by merging saved ``--metrics`` snapshots
    (e.g. a pre-fork server's per-worker flushes, or the
    ``--metrics-out`` file it writes at shutdown), or across time from
    the persisted ``--history`` file -- one report per entry, so
    successive candidates compare across server lifetimes."""
    import json as _json

    from repro.serve.shadow import merge_shadow_reports, \
        render_shadow_report

    if args.history:
        return _render_shadow_history(args)
    if args.metrics:
        snapshots = []
        for path in args.metrics:
            try:
                with open(path, encoding="utf-8") as handle:
                    snapshots.append(_json.load(handle))
            except (OSError, ValueError) as exc:
                print("cannot read metrics snapshot %s: %s"
                      % (path, exc), file=sys.stderr)
                return 2
        report = merge_shadow_reports(snapshots)
    else:
        import http.client
        try:
            conn = http.client.HTTPConnection(args.host, args.port,
                                              timeout=10.0)
            try:
                conn.request("GET", "/admin/shadow/report")
                response = conn.getresponse()
                body = response.read()
            finally:
                conn.close()
        except OSError as exc:
            print("cannot reach http://%s:%d: %s (is serve-http "
                  "running? or pass --metrics FILE)"
                  % (args.host, args.port, exc), file=sys.stderr)
            return 2
        if response.status != 200:
            print("GET /admin/shadow/report returned %d: %s"
                  % (response.status, body.decode("utf-8", "replace")),
                  file=sys.stderr)
            return 1
        report = _json.loads(body.decode("utf-8"))
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(render_shadow_report(report, top=args.top))
    return 0


def _render_shadow_history(args: argparse.Namespace) -> int:
    """``shadow-report --history``: one ledger row per history entry."""
    import json as _json
    from datetime import datetime, timezone

    from repro.obs.timeseries import HistoryStore
    from repro.serve.shadow import shadow_report_from_snapshot

    entries = HistoryStore(args.history).entries()
    if not entries:
        print("no history entries in %s" % args.history, file=sys.stderr)
        return 1
    reports = [dict(ts=entry.get("ts"),
                    **shadow_report_from_snapshot(
                        entry.get("snapshot") or {}))
               for entry in entries]
    if args.json:
        print(_json.dumps(reports, indent=2, sort_keys=True))
        return 0
    lines = ["shadow history: %d entr%s from %s"
             % (len(reports), "y" if len(reports) == 1 else "ies",
                args.history),
             "  %-20s %-8s %-10s %-9s %-9s %s"
             % ("ts", "active", "requests", "disagree", "fraction",
                "candidate")]
    for report in reports:
        ts = report.get("ts")
        stamp = (datetime.fromtimestamp(ts, tz=timezone.utc)
                 .strftime("%Y-%m-%dT%H:%M:%SZ") if ts else "-")
        lines.append("  %-20s %-8s %-10d %-9d %-9s %s"
                     % (stamp,
                        "yes" if report.get("active") else "no",
                        report.get("requests", 0),
                        report.get("disagreements", 0),
                        "%.2f%%" % (100.0
                                    * report.get("disagreement_fraction",
                                                 0.0)),
                        report.get("candidate_suffixes")
                        if report.get("candidate_suffixes") is not None
                        else "-"))
    print("\n".join(lines))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """A refreshing terminal dashboard over ``GET /admin/status``.

    Clears the screen between frames on a TTY; plain sequential frames
    otherwise (so piping to a file keeps every sample)."""
    import http.client
    import json as _json

    frame = 0
    while True:
        try:
            conn = http.client.HTTPConnection(args.host, args.port,
                                              timeout=5.0)
            try:
                conn.request("GET", "/admin/status")
                response = conn.getresponse()
                body = response.read()
            finally:
                conn.close()
        except OSError as exc:
            print("cannot reach http://%s:%d: %s (is serve-http "
                  "running?)" % (args.host, args.port, exc),
                  file=sys.stderr)
            return 1
        if response.status != 200:
            print("GET /admin/status returned %d" % response.status,
                  file=sys.stderr)
            return 1
        status = _json.loads(body.decode("utf-8"))
        frame += 1
        if sys.stdout.isatty():
            sys.stdout.write("\x1b[2J\x1b[H")
        print(_render_watch_frame(status, args.host, args.port, frame,
                                  args.interval))
        sys.stdout.flush()
        if args.iterations and frame >= args.iterations:
            return 0
        time.sleep(max(args.interval, 0.1))


def _render_watch_frame(status: dict, host: str, port: int,
                        frame: int, interval: float) -> str:
    window = status.get("window") or {}
    latency = window.get("latency") or {}
    ages = status.get("snapshot_age_seconds") or {}
    lines = [
        "repro-hoiho watch -- http://%s:%d  (frame %d, %.1fs refresh)"
        % (host, port, frame, interval),
        "  state %-9s uptime %-9s workers %-3d answering-worker %-3s "
        "inflight %d"
        % (status.get("status", "?"),
           "%.0fs" % status.get("uptime_seconds", 0.0),
           status.get("workers", 1),
           status.get("worker", "?"),
           status.get("inflight", 0)),
        "  window %.0fs of %.0fs x %d: %d requests  %.1f req/s  "
        "errors %d (%.2f%%)"
        % (window.get("covered_seconds", 0.0),
           window.get("width_seconds", 0.0),
           window.get("count", 0),
           window.get("requests", 0),
           window.get("requests_per_second", 0.0),
           window.get("errors", 0),
           100.0 * window.get("error_rate", 0.0)),
    ]
    if latency:
        lines.append("  latency " + "  ".join(
            "%s %.3fms" % (key, latency[key] * 1e3)
            for key in sorted(latency)))
    else:
        lines.append("  latency (no samples in window)")
    if ages:
        lines.append("  snapshot age " + "  ".join(
            "w%s %.1fs" % (worker, ages[worker])
            for worker in sorted(ages, key=int)))
    return "\n".join(lines)


def _cmd_slo_report(args: argparse.Namespace) -> int:
    """Evaluate a declarative SLO target against a persisted history;
    exit 0 when every check holds, 1 on breach (CI-gateable)."""
    import json as _json

    from repro.obs.slo import SloTarget, evaluate_history, \
        render_slo_report
    from repro.obs.timeseries import HistoryStore

    history = args.history
    if history is None and args.cache_dir and not args.no_cache:
        history = os.path.join(args.cache_dir, "history",
                               "serve-http.jsonl")
    if not history:
        print("slo-report requires --history FILE (or a --cache-dir "
              "with a serving history)", file=sys.stderr)
        return 2
    if not args.slo:
        print("slo-report requires --slo FILE (the target JSON)",
              file=sys.stderr)
        return 2
    try:
        target = SloTarget.from_file(args.slo)
    except (OSError, ValueError, TypeError) as exc:
        print("cannot load SLO target %s: %s" % (args.slo, exc),
              file=sys.stderr)
        return 2
    entries = HistoryStore(history).entries()
    if not entries:
        print("no history entries in %s" % history, file=sys.stderr)
        return 2
    report = evaluate_history(entries, target)
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_slo_report(report))
    return 0 if report["ok"] else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import render_report, write_report
    jobs = args.jobs if args.jobs != 1 else None
    report = write_report(args.output, jobs=jobs)
    print(render_report(report))
    print("# report written to %s" % args.output)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    if not args.cache_dir:
        print("cache requires --cache-dir DIR (or REPRO_CACHE_DIR)",
              file=sys.stderr)
        return 2
    store = ArtifactStore(args.cache_dir)
    action = args.subcommand or "info"
    if action == "clear":
        removed = store.clear(kind=args.namespace)
        scope = " (namespace %s)" % args.namespace if args.namespace else ""
        print("cleared %d cached artifact(s) from %s%s"
              % (removed, store.root, scope))
        return 0
    if action != "info":
        print("unknown cache subcommand %r (expected info or clear)"
              % action, file=sys.stderr)
        return 2
    info = store.info()
    if args.json:
        import json as _json
        print(_json.dumps(info, indent=2, sort_keys=True))
        return 0
    print("artifact store: %s (schema v%s)" % (info["root"], info["schema"]))
    kinds = info["kinds"]
    if not info["entries"]:
        print("  empty")
        return 0
    # Human rendering shows only populated namespaces; --json reports
    # every registered one (including zeros).
    for kind in sorted(kinds):
        entry = kinds[kind]
        if not entry["entries"]:
            continue
        print("  %-10s %4d entr%s  %10d bytes"
              % (kind, entry["entries"],
                 "y" if entry["entries"] == 1 else "ies", entry["bytes"]))
    print("  total      %4d entries  %10d bytes"
          % (info["entries"], info["bytes"]))
    return 0


def _tracer_from_args(args: argparse.Namespace):
    """The tracer ``--trace-out`` selects (the no-op one without it)."""
    return Tracer(path=args.trace_out) if args.trace_out else NULL_TRACER


def _finish_trace(context: ExperimentContext, args: argparse.Namespace,
                  wall_seconds: float) -> None:
    """Close the trace sink and write the run manifest next to it.

    The tracer must be closed *before* the manifest is built so any
    still-open spans contribute their final durations to the export.
    """
    tracer = context.tracer
    if not tracer.enabled:
        return
    tracer.close()
    manifest_path = args.manifest_out or \
        os.path.splitext(args.trace_out)[0] + ".manifest.json"
    write_manifest(manifest_path,
                   context.manifest(wall_seconds,
                                    trace_path=args.trace_out))
    print("# trace written to %s" % args.trace_out, file=sys.stderr)
    print("# manifest written to %s" % manifest_path, file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    """The whole core pipeline, end to end: generate (or reload) the
    world, build every training-set snapshot, learn conventions for all
    of them.  The canonical traced entry point -- each stage is a
    top-level span, so the manifest's per-stage durations account for
    the run's full wall time."""
    context = ExperimentContext(seed=args.seed, scale=Scale(args.scale),
                                parallel=args.parallel,
                                store=_store_from_args(args),
                                retry=args.retry,
                                tracer=_tracer_from_args(args),
                                suffix_cache=not args.no_suffix_cache)
    started = time.perf_counter()
    timeline = context.timeline
    learned = context.learn_timeline()
    wall = time.perf_counter() - started
    conventions = sum(len(result.conventions)
                      for result in learned.values())
    items = sum(len(training_set.items) for training_set in timeline)
    print("run complete: %d training set(s), %d item(s), "
          "%d convention(s) learned in %.2fs"
          % (len(timeline), items, conventions, wall))
    _finish_trace(context, args, wall)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Render a recorded trace file (``trace summary FILE``)."""
    action = args.subcommand or "summary"
    if action != "summary":
        print("unknown trace subcommand %r (expected summary)"
              % action, file=sys.stderr)
        return 2
    if not args.target:
        print("usage: repro-hoiho trace summary FILE [--top N]",
              file=sys.stderr)
        return 2
    try:
        records = load_trace(args.target)
    except (OSError, ValueError) as exc:
        print("cannot read trace %s: %s" % (args.target, exc),
              file=sys.stderr)
        return 2
    print(render_summary(records, top=args.top))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro-hoiho`` console script."""
    args = _build_parser().parse_args(argv)
    try:
        _resolve_policies(args)
    except ValueError as exc:
        print("repro-hoiho: %s" % exc, file=sys.stderr)
        return 2
    if args.command == "learn":
        return _cmd_learn(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "apply":
        return _cmd_apply(args)
    if args.command == "annotate":
        return _cmd_annotate(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "serve-http":
        return _cmd_serve_http(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "serve-stats":
        return _cmd_serve_stats(args)
    if args.command == "shadow-report":
        return _cmd_shadow_report(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "slo-report":
        return _cmd_slo_report(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "trace":
        return _cmd_trace(args)
    context = ExperimentContext(seed=args.seed, scale=Scale(args.scale),
                                parallel=args.parallel,
                                store=_store_from_args(args),
                                retry=args.retry,
                                tracer=_tracer_from_args(args),
                                suffix_cache=not args.no_suffix_cache)
    names = sorted(_EXPERIMENTS) if args.command == "all" \
        else [args.command]
    started = time.perf_counter()
    for index, name in enumerate(names):
        if index:
            print("\n" + "=" * 70 + "\n")
        print(_run_experiment(name, context))
    _finish_trace(context, args, time.perf_counter() - started)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
