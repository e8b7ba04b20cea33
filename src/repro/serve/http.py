"""``repro.serve.http`` -- the network-facing annotation server.

Promotes the stdin/stdout serving loop to a real concurrent network
service over the existing :class:`~repro.serve.service.AnnotationService`
-- stdlib only (``http.server`` + ``socket`` + ``os.fork``), because the
hot path is the service's ``annotate_batch`` and the transport just has
to stay out of its way.

Endpoints (JSON in/out, HTTP/1.1 keep-alive):

* ``POST /annotate`` -- ``{"hostname": ...}`` ->
  ``{"hostname": ..., "asn": ...}`` (``asn`` null on miss/malformed);
* ``POST /annotate/batch`` -- ``{"hostnames": [...]}`` ->
  ``{"count": N, "asns": [...]}``, result-identical to
  ``AnnotationService.annotate_batch`` on the same list;
* ``GET /metrics`` -- Prometheus text exposition
  (:func:`repro.obs.prom.to_prometheus`) of the **merged** per-worker
  registries (see below);
* ``GET /healthz`` -- liveness: 200 as long as the worker can answer,
  including while draining;
* ``GET /readyz`` -- readiness: 200 while accepting new work, 503 once
  draining (the load-balancer signal);
* ``GET /admin/status`` -- uptime, inflight, and *windowed* health
  (req/s, error rate, p50/p90/p99 over the rolling windows of
  :mod:`repro.obs.timeseries`, fleet-merged) -- what ``repro-hoiho
  watch`` renders;
* ``POST /admin/reload`` -- re-read the configured conventions file and
  atomically hot-swap every worker's convention set via the service's
  ``reload_*`` machinery (in-flight requests keep the old index);
* ``POST /admin/shadow`` -- (re)load the configured ``--shadow``
  candidate conventions file side-by-side (see
  :mod:`repro.serve.shadow`): every subsequent request is annotated
  against primary *and* candidate, callers keep seeing only the
  primary's answers;
* ``GET /admin/shadow/report`` -- the JSON per-suffix disagreement
  ledger, merged across every pre-fork worker;
* ``POST /admin/shadow/promote`` -- swap the candidate in as the new
  primary (atomic, via the same ``reload_result`` machinery), gated by
  ``--promote-threshold`` when configured.

The three hot-swap verbs -- reload, shadow-load, promote -- are rows
of one table, :data:`ADMIN_VERBS`.  Each row names its endpoint, its
signal (SIGHUP:reload :: SIGUSR1:shadow-load :: SIGUSR2:promote), the
service call it makes, its success/error counters, and its ``*_failed``
log event, and the table drives every place a verb appears: one
endpoint flow (not configured -> 409, request naming another file ->
400, pre-fork -> signal the parent and answer 202, single process ->
run inline and answer 200, failure -> 500), the workers' signal
handlers, and the pre-fork parent's broadcast set.  Pre-fork, one
worker cannot swap its siblings' state, so the parent re-sends the
signal to every worker.  Promote puts its merged-report gate in front
of that flow.  The report merges per-worker ``stats()`` snapshots from
the shared metrics directory through
:func:`repro.serve.shadow.merge_shadow_reports` (staleness bounded by
``flush_interval``; the serving worker flushes itself first).  "Shadow
mode" means ``HttpConfig.shadow`` is set; the candidate itself lives
in the :class:`~repro.serve.service.AnnotationService`.

Protection: request bodies above ``max_body`` are rejected with 413
(and the connection closed -- the body is never read); when more than
``max_inflight`` annotation requests are already executing in a worker,
new ones get 429 + ``Retry-After`` (bounded in-flight budget =
backpressure instead of collapse).  Handler exceptions never kill a
worker: anything unexpected becomes a 500 JSON response.

Scale-out is a **pre-fork worker pool**: the parent builds and warms
the service once, then forks ``workers`` processes that inherit the
fully-built fused :class:`~repro.serve.index.DispatchIndex` (the PR-6
fork-inheritance property -- no per-worker JSON re-parse, no duplicate
compile work).  Where ``SO_REUSEPORT`` exists the parent *binds without
listening* to reserve the port (resolving ``port=0`` once) and each
worker opens its own listening socket on it, giving kernel-level accept
balancing; elsewhere the workers share the parent's inherited listener.

Metrics aggregation: after ``fork`` each worker's registry diverges, so
workers periodically flush ``service.stats()`` snapshots to a shared
metrics directory (atomic ``os.replace``), and ``GET /metrics`` merges
every worker's latest snapshot through
:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot` -- one
scrape, fleet-wide counters (staleness bounded by ``flush_interval``).

Shutdown: SIGTERM/SIGINT starts a **graceful drain** -- ``/readyz``
flips to 503, responses carry ``Connection: close``, the worker keeps
serving (so ``/healthz`` stays green) for ``drain_grace`` seconds and
until in-flight annotation requests hit zero (bounded by
``drain_timeout``), then stops accepting, flushes a final metrics
snapshot, and exits 0.  The parent forwards signals, reaps every
worker, merges their final snapshots, and writes ``metrics_out``.
The admin verbs' signals are the out-of-band broadcasts their
endpoints use to reach sibling workers.

``ServerProcess`` wraps the whole tree (parent + workers) in one child
process for tests, benchmarks, and the load generator
(:mod:`repro.serve.loadgen`).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.logjson import JsonLogger, new_request_id, open_json_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import to_prometheus
from repro.obs.timeseries import HistoryStore, RollingWindows
from repro.obs.trace import Tracer
from repro.serve.service import AnnotationService, NoCandidateError, \
    warmed_service
from repro.serve.shadow import merge_shadow_reports, \
    merge_shadow_snapshots, shadow_report_from_snapshot

#: Default request-body ceiling (bytes): 8 MiB fits ~100k hostnames.
DEFAULT_MAX_BODY = 8 * 1024 * 1024

#: Default bound on concurrently executing annotation requests/worker.
DEFAULT_MAX_INFLIGHT = 64

#: Prometheus text exposition content type.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Sentinel for "the 4xx reply already went out" -- distinct from any
#: parsed JSON value (a body of literal ``null`` parses to ``None``).
_READ_ERROR = object()


def reuse_port_available() -> bool:
    """Whether this platform offers ``SO_REUSEPORT``."""
    return hasattr(socket, "SO_REUSEPORT")


@dataclass
class HttpConfig:
    """Everything ``serve-http`` needs to run a server tree."""

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 1
    max_body: int = DEFAULT_MAX_BODY
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    #: Seconds a draining worker keeps accepting (readyz 503, healthz
    #: 200) so load balancers can observe the drain before the listener
    #: closes.
    drain_grace: float = 0.0
    #: Hard ceiling on the whole drain (grace + in-flight wait).
    drain_timeout: float = 10.0
    #: Worker metrics snapshots older than this may be re-flushed.
    flush_interval: float = 1.0
    #: Conventions JSON file ``/admin/reload`` (and SIGHUP) re-reads.
    conventions: Optional[str] = None
    #: Candidate conventions JSON file ``/admin/shadow`` (and SIGUSR1)
    #: re-reads; also loaded at startup when set.
    shadow: Optional[str] = None
    #: Refuse ``/admin/shadow/promote`` while the merged disagreement
    #: fraction exceeds this (``None`` = no gate).
    promote_threshold: Optional[float] = None
    #: Where the parent writes the merged snapshot after shutdown.
    metrics_out: Optional[str] = None
    #: Shared snapshot directory (default: a private temp dir).
    metrics_dir: Optional[str] = None
    #: Force/forbid per-worker ``SO_REUSEPORT`` sockets (None = auto).
    reuse_port: Optional[bool] = None
    backlog: int = 128
    #: Structured JSON access log: a path (workers append; O_APPEND +
    #: one-write-per-line keeps lines whole across processes), ``"-"``
    #: for stderr, ``None`` to disable.
    access_log: Optional[str] = None
    #: Trace 1-in-N requests as spans to ``trace_out`` (0 = off).
    trace_sample: int = 0
    #: JSONL sink for sampled request spans.
    trace_out: Optional[str] = None
    #: JSONL history of merged snapshots (``HistoryStore``); the
    #: parent appends every ``history_interval`` seconds and once at
    #: shutdown, so even a short run leaves one comparable entry.
    history: Optional[str] = None
    history_interval: float = 10.0
    #: Rolling-window geometry behind ``/admin/status`` (aligned
    #: windows of ``window_seconds``, newest ``window_count`` kept).
    window_seconds: float = 10.0
    window_count: int = 60

    def validate(self) -> None:
        """Raise ``ValueError`` on nonsensical settings."""
        if self.workers < 1:
            raise ValueError("--workers must be >= 1, got %d" % self.workers)
        if not 0 <= self.port <= 65535:
            raise ValueError("--port must be 0..65535, got %d" % self.port)
        if self.max_body < 1:
            raise ValueError("--max-body must be >= 1 byte, got %d"
                             % self.max_body)
        if self.max_inflight < 1:
            raise ValueError("--max-inflight must be >= 1, got %d"
                             % self.max_inflight)
        if self.drain_grace < 0 or self.drain_timeout < 0:
            raise ValueError("drain timings must be >= 0")
        if self.promote_threshold is not None \
                and not 0.0 <= self.promote_threshold <= 1.0:
            raise ValueError(
                "--promote-threshold is a fraction in [0, 1], got %r"
                % self.promote_threshold)
        if self.trace_sample < 0:
            raise ValueError("--trace-sample must be >= 0, got %d"
                             % self.trace_sample)
        if self.trace_sample > 0 and not self.trace_out:
            raise ValueError("--trace-sample needs --trace-out (the "
                             "JSONL sink for sampled request spans)")
        if self.history_interval <= 0:
            raise ValueError("history interval must be > 0 seconds")
        if self.window_seconds <= 0 or self.window_count < 1:
            raise ValueError("window geometry must be positive")


@dataclass(frozen=True)
class AdminVerb:
    """One hot-swap admin verb: a row of :data:`ADMIN_VERBS`."""

    #: ``POST`` endpoint.
    path: str
    #: Signal a worker runs the verb on; the pre-fork parent forwards it.
    signum: int
    #: The swap itself, given the server; returns the new plan count.
    run: Callable[["AnnotationHTTPServer"], int]
    #: Counters bumped on success / on failure.
    ok_counter: str
    error_counter: str
    #: Log event when a signalled run fails.
    failed_event: str
    #: ``HttpConfig`` field that must be set for the verb to apply.
    config_field: str
    #: The error text when it is not (409).
    unconfigured: str
    #: Response keys: the verb's outcome and its plan count.
    done_key: str
    count_key: str
    #: "<what> failed: ..." in a 500 body.
    what: str
    #: Request/response/log key echoing the configured file, and the
    #: 400 text when a request names a different one (``None``: the
    #: verb reads no file).
    echo_key: Optional[str] = None
    wrong_file: Optional[str] = None
    #: Runs between the 409 check and the swap; returns extra response
    #: fields, or ``None`` once it has replied itself.
    gate: Optional[Callable[["AnnotationHandler"],
                            Optional[Dict[str, object]]]] = None

    def echo(self, config: HttpConfig) -> Dict[str, object]:
        """``{echo_key: configured file}``, or nothing."""
        if self.echo_key is None:
            return {}
        return {self.echo_key: getattr(config, self.config_field)}


def create_listener(host: str, port: int, reuse_port: bool = False,
                    backlog: int = 128) -> socket.socket:
    """A bound, listening TCP socket (``SO_REUSEPORT`` optional)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if reuse_port:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    sock.listen(backlog)
    return sock


def _reserve_port(host: str, port: int) -> socket.socket:
    """Bind (without listening) to reserve ``port`` for the workers.

    A bound-but-not-listening socket never receives connections -- TCP
    lookup only considers listeners -- so the parent can hold this open
    for the server's lifetime while every worker's own ``SO_REUSEPORT``
    listener takes the traffic.  Binding to port 0 here resolves the
    ephemeral port exactly once, before any worker exists.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    return sock


class MetricsDir:
    """The shared per-worker snapshot directory behind ``/metrics``.

    Each worker owns one file (``worker-<id>.json``), written atomically
    (temp file + ``os.replace``) so a concurrent reader never sees a
    torn snapshot.  Extra keys in a snapshot (``memo``, ``fused_plans``
    from ``AnnotationService.stats()``) ride along untouched;
    ``merge_snapshot`` ignores them.  ``flush`` stamps ``ts`` (epoch
    seconds) and ``worker_id`` into every file, so scrape staleness is
    observable (:meth:`ages`, the ``repro_snapshot_age_seconds`` gauge
    on ``/metrics``) instead of inferred from ``flush_interval``.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def flush(self, worker_id: int, snapshot: Dict[str, object]) -> None:
        """Atomically publish ``worker_id``'s current snapshot."""
        snapshot = dict(snapshot)
        snapshot["ts"] = time.time()
        snapshot["worker_id"] = worker_id
        target = os.path.join(self.path, "worker-%d.json" % worker_id)
        fd, tmp = tempfile.mkstemp(prefix=".worker-%d." % worker_id,
                                   dir=self.path)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(snapshot, handle, sort_keys=True)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def snapshots(self) -> Iterator[Dict[str, object]]:
        """Every worker's latest snapshot (unreadable files skipped)."""
        try:
            names = sorted(os.listdir(self.path))
        except OSError:
            return
        for name in names:
            if not (name.startswith("worker-") and name.endswith(".json")):
                continue
            try:
                with open(os.path.join(self.path, name),
                          encoding="utf-8") as handle:
                    yield json.load(handle)
            except (OSError, ValueError):
                continue  # mid-replace or already gone

    def merged(self) -> Dict[str, object]:
        """One registry snapshot folding every worker's together."""
        registry = MetricsRegistry()
        for snapshot in self.snapshots():
            registry.merge_snapshot(snapshot)
        return registry.snapshot()

    def merged_with_shadow(self) -> Dict[str, object]:
        """The merged snapshot with the folded ``shadow`` extra attached.

        What the serving history persists: counters *and* the ledger
        meta, so ``shadow-report --history`` can compare candidates
        across server lifetimes.
        """
        return merge_shadow_snapshots(self.snapshots())

    def ages(self, now: Optional[float] = None) -> Dict[int, float]:
        """Per-worker snapshot age in seconds, from the stamped ``ts``.

        Workers whose files predate the stamp (or are unreadable) are
        omitted rather than reported with a made-up age.
        """
        now = time.time() if now is None else now
        ages: Dict[int, float] = {}
        for snapshot in self.snapshots():
            ts = snapshot.get("ts")
            worker_id = snapshot.get("worker_id")
            if ts is None or worker_id is None:
                continue
            ages[int(worker_id)] = max(0.0, now - float(ts))
        return ages


class AnnotationHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one annotation service.

    One instance per worker process (and the whole server when
    ``workers=1``).  Connections get a thread each (keep-alive held
    across requests); annotation work is bounded by the in-flight
    budget, not the thread count.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, service: AnnotationService, config: HttpConfig,
                 sock: Optional[socket.socket] = None,
                 worker_id: int = 0,
                 metrics_dir: Optional[MetricsDir] = None) -> None:
        self.service = service
        self.config = config
        self.worker_id = worker_id
        self.metrics_dir = metrics_dir
        #: Parent pid an admin verb signals for a fleet-wide swap
        #: (pre-fork workers only; ``None`` means run it inline).
        self.broadcast_pid: Optional[int] = None
        self.draining = threading.Event()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._last_flush = 0.0
        self.started_monotonic = time.monotonic()
        self.started_ts = time.time()
        #: Windowed telemetry behind ``/admin/status``; fed the fleet's
        #: merged snapshot (or the live stats when single-process) by
        #: the flush loop and on-demand by the status endpoint.
        self.windows = RollingWindows(config.window_seconds,
                                      config.window_count)
        # Baseline at boot: the first real sample then diffs against
        # zero, so requests served before the first flush-loop pass
        # still land in a window (http_* counters start at 0 here).
        self.windows.record({})
        #: Structured diagnostics (replaces print-to-stderr); each
        #: forked worker rebuilds it with its own ``worker_id``.
        self.log = JsonLogger(worker_id=worker_id)
        # Buffered: the per-request cost is an enqueue; a drainer
        # thread batches the JSON lines out (see repro.obs.logjson).
        self.access_log = open_json_logger(config.access_log,
                                           worker_id=worker_id,
                                           buffered=True)
        self._tracer: Optional[Tracer] = None
        self._trace_lock = threading.Lock()
        self._trace_seq = 0
        if config.trace_sample > 0 and config.trace_out:
            # Append mode: in pre-fork mode every worker writes spans
            # to the same file, and one-write-per-record keeps the
            # JSONL whole (same discipline as the access log).
            self._tracer = Tracer(
                stream=open(config.trace_out, "a", encoding="utf-8"))
        #: HistoryStore in single-process mode (the pre-fork parent
        #: owns the history instead -- see ``_serve_prefork``).
        self.history: Optional[HistoryStore] = None
        address = (config.host, config.port)
        super().__init__(address, AnnotationHandler,
                         bind_and_activate=False)
        if sock is not None:
            self.socket.close()
            self.socket = sock
            self.server_address = sock.getsockname()
            self.server_name = config.host
            self.server_port = self.server_address[1]
        else:
            self.server_bind()
            self.server_activate()

    # -- in-flight budget --------------------------------------------------

    def try_begin_request(self) -> bool:
        """Admit one annotation request, or refuse at the budget."""
        with self._inflight_lock:
            if self._inflight >= self.config.max_inflight:
                return False
            self._inflight += 1
            return True

    def end_request(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        """Annotation requests currently executing."""
        return self._inflight

    # -- metrics -----------------------------------------------------------

    def flush_metrics(self) -> None:
        """Publish this worker's snapshot to the shared directory."""
        if self.metrics_dir is not None:
            self.metrics_dir.flush(self.worker_id, self.service.stats())
        self._last_flush = time.monotonic()

    def maybe_flush(self) -> None:
        """Flush if the published snapshot has gone stale."""
        if self.metrics_dir is None:
            return
        if time.monotonic() - self._last_flush >= self.config.flush_interval:
            self.flush_metrics()

    def merged_metrics(self) -> str:
        """Prometheus exposition of the whole fleet's counters.

        Pre-fork, the text ends with a hand-rendered
        ``repro_snapshot_age_seconds`` gauge (one sample per worker,
        from the ``ts`` stamped into each flushed file) --
        ``to_prometheus`` only knows the three registry instrument
        kinds, and a gauge that *should* go down is exactly what they
        are not.
        """
        if self.metrics_dir is None:
            return to_prometheus(self.service.stats())
        self.flush_metrics()  # the merge must include this worker, live
        text = to_prometheus(self.metrics_dir.merged())
        ages = self.metrics_dir.ages()
        if ages:
            lines = ["# HELP repro_snapshot_age_seconds Age of each "
                     "worker's flushed metrics snapshot.",
                     "# TYPE repro_snapshot_age_seconds gauge"]
            lines += ["repro_snapshot_age_seconds{worker=\"%d\"} %.6f"
                      % (worker, age)
                      for worker, age in sorted(ages.items())]
            text += "\n".join(lines) + "\n"
        return text

    # -- windowed telemetry ------------------------------------------------

    def telemetry_snapshot(self) -> Dict[str, object]:
        """The cumulative snapshot the time axis samples.

        Fleet-wide when a metrics dir exists (any worker can then
        answer ``/admin/status`` for the whole fleet), this worker's
        live ``stats()`` otherwise.
        """
        if self.metrics_dir is not None:
            return self.metrics_dir.merged()
        return self.service.stats()

    def record_windows(self, ts: Optional[float] = None) -> None:
        """Fold the current cumulative snapshot into the windows."""
        self.windows.record(self.telemetry_snapshot(), ts)

    def status_payload(self) -> Dict[str, object]:
        """The ``GET /admin/status`` body: uptime + windowed health."""
        if self.metrics_dir is not None:
            self.flush_metrics()  # the window must see this worker, live
        self.record_windows()
        now = time.time()
        window = self.windows.window_snapshot(now)
        counters = window.get("counters") or {}
        requests = counters.get("http_requests", 0)
        by_status = (window.get("labelled") or {}).get(
            "http_responses", {})
        errors = sum(count for status, count in by_status.items()
                     if str(status).startswith("5"))
        covered = self.windows.covered_seconds(now)
        payload: Dict[str, object] = {
            "status": "draining" if self.draining.is_set() else "ok",
            "worker": self.worker_id,
            "workers": self.config.workers,
            "uptime_seconds": time.monotonic() - self.started_monotonic,
            "started_ts": self.started_ts,
            "inflight": self.inflight,
            "window": {
                "covered_seconds": covered,
                "width_seconds": self.windows.width_seconds,
                "count": self.windows.count,
                "requests": requests,
                "requests_per_second": (requests / covered
                                        if covered else 0.0),
                "errors": errors,
                "error_rate": errors / requests if requests else 0.0,
                "latency": self.windows.percentiles(
                    "http_request_seconds", now=now),
            },
        }
        if self.metrics_dir is not None:
            payload["snapshot_age_seconds"] = {
                str(worker): age for worker, age
                in sorted(self.metrics_dir.ages(now).items())}
        return payload

    # -- request trace sampling --------------------------------------------

    def sample_span(self, method: str, path: str) -> Optional["object"]:
        """A span for this request if it is 1-in-N sampled, else None.

        The tracer is single-threaded by design, so span creation is
        locked and the new span is immediately popped off the tracer's
        stack -- concurrent sampled requests must emit as independent
        top-level spans, not accidentally nested ones.
        """
        if self._tracer is None:
            return None
        with self._trace_lock:
            self._trace_seq += 1
            if self._trace_seq % self.config.trace_sample != 0:
                return None
            span = self._tracer.span("http.request", method=method,
                                     path=path, worker=self.worker_id)
            try:
                self._tracer._stack.remove(span)
            except ValueError:
                pass
            return span

    def finish_span(self, span: "object", **attrs: object) -> None:
        """Stamp final attrs and emit a sampled request span."""
        with self._trace_lock:
            span.set(**attrs)  # type: ignore[attr-defined]
            span.finish()  # type: ignore[attr-defined]
            # The tracer also accumulates records in memory for
            # programmatic use; a long-lived server only needs the
            # JSONL sink, so drop them as they emit.
            self._tracer.records.clear()

    def start_flush_loop(self) -> None:
        """Keep the published snapshot fresh even with zero traffic.

        Flushes otherwise happen only on the request path, so a worker
        that stops receiving connections would publish its last
        snapshot forever -- and a sibling answering
        ``/admin/shadow/report`` (or the promote gate) would keep
        reading it as current.  This loop bounds every worker's
        staleness to ~2x ``flush_interval`` regardless of traffic;
        ``maybe_flush`` already skips when the request path kept the
        file fresh.  The sleep is floored: ``flush_interval=0.0``
        means flush-per-request on the serving path, not a busy-spin
        here that would starve the request threads.

        The same cadence feeds the rolling windows: each pass records
        the merged (or live) cumulative snapshot, so ``/admin/status``
        answers from fresh windows even on an idle server.
        """
        delay = max(self.config.flush_interval, 0.05)

        def _loop() -> None:
            while not self.draining.is_set():
                time.sleep(delay)
                try:
                    self.maybe_flush()
                    self.record_windows()
                except OSError:
                    pass  # the final drain-time flush will retry

        threading.Thread(target=_loop, daemon=True).start()

    def start_history_loop(self) -> None:
        """Append the cumulative snapshot to the history periodically.

        Single-process mode only (the pre-fork parent runs its own
        loop over the metrics dir); a final append happens at drain
        time so even a short-lived run leaves one comparable entry.
        """
        if self.history is None:
            return
        delay = max(self.config.history_interval, 0.05)

        def _loop() -> None:
            while not self.draining.wait(delay):
                try:
                    self.history.append(self.service.stats())
                except OSError:
                    pass

        threading.Thread(target=_loop, daemon=True).start()

    def server_close(self) -> None:
        """Close the socket, then drain the buffered access log."""
        super().server_close()
        self.access_log.close()

    # -- admin verbs ---------------------------------------------------------

    def run_admin(self, verb: AdminVerb) -> int:
        """Run ``verb`` in this process; returns the new plan count.

        Raises when the verb is not configured or its file does not
        load -- and the previous state stays live, because every swap
        happens only after a successful build.
        """
        if not getattr(self.config, verb.config_field):
            raise LookupError(verb.unconfigured)
        count = verb.run(self)
        self.service.metrics.counter(verb.ok_counter).inc()
        return count

    def admin_from_signal(self, verb: AdminVerb) -> None:
        """A verb's signal entry: run it, never raise (workers must
        survive)."""
        try:
            self.run_admin(verb)
        except Exception as exc:
            self.service.metrics.counter(verb.error_counter).inc()
            self.log.log(verb.failed_event, level="error", error=str(exc),
                         **verb.echo(self.config))
        if self.metrics_dir is not None:
            self.flush_metrics()  # publish the new state or error now

    def shadow_report(self) -> Dict[str, object]:
        """The disagreement report this worker can see.

        Pre-fork: flush this worker's live counters, then fold every
        worker's latest snapshot (``merge_shadow_reports``).  Single
        process: straight from the live ``stats()``.
        """
        if self.metrics_dir is not None:
            self.flush_metrics()
            return merge_shadow_reports(self.metrics_dir.snapshots())
        return shadow_report_from_snapshot(self.service.stats())

    # -- drain -------------------------------------------------------------

    def drain(self) -> None:
        """Graceful shutdown: linger, wait out in-flight work, stop.

        Must not run on the ``serve_forever`` thread (``shutdown``
        waits for that loop to exit) -- signal handlers spawn a thread.
        """
        self.draining.set()
        started = time.monotonic()
        deadline = started + max(self.config.drain_timeout,
                                 self.config.drain_grace)
        while time.monotonic() < deadline:
            grace_over = (time.monotonic() - started
                          >= self.config.drain_grace)
            if grace_over and self.inflight == 0:
                break
            time.sleep(0.01)
        self.shutdown()


class AnnotationHandler(BaseHTTPRequestHandler):
    """Request handler: route, guard, annotate, count."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve-http/1.0"
    #: TCP_NODELAY: headers and body flush as separate writes, and
    #: Nagle + delayed ACK would otherwise add ~40ms to every response.
    disable_nagle_algorithm = True
    #: Socket timeout: bounds idle keep-alive reads and lying
    #: Content-Length headers.
    timeout = 30

    server: AnnotationHTTPServer  # for type checkers

    def log_message(self, format: str, *args: object) -> None:
        """Quiet: request accounting happens in the registry."""

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        registry = self.server.service.metrics
        started = time.perf_counter()
        self._last_status: Optional[int] = None
        self._bytes_sent = 0
        # Honour a caller-supplied id (so a proxy's id threads through
        # our logs) or mint one; either way it is echoed in the
        # ``X-Request-Id`` response header and stamped on the access
        # line and any sampled span.
        self._request_id = (self.headers.get("X-Request-Id")
                            or new_request_id())
        path = self.path.split("?", 1)[0]
        span = self.server.sample_span(method, path)
        try:
            by_method = _ROUTES.get(path)
            if by_method is None:
                self._send_json(404, {"error": "no such endpoint",
                                      "path": path})
            else:
                route = by_method.get(method)
                if route is None:
                    self._send_json(
                        405, {"error": "method not allowed"},
                        headers={"Allow": ", ".join(sorted(by_method))})
                else:
                    route(self)
        except (BrokenPipeError, ConnectionResetError, socket.timeout):
            self.close_connection = True
        except Exception as exc:  # a handler bug must not kill the worker
            try:
                self._send_json(500, {
                    "error": "internal server error",
                    "detail": "%s: %s" % (type(exc).__name__, exc)})
            except OSError:
                self.close_connection = True
        finally:
            elapsed = time.perf_counter() - started
            registry.counter("http_requests").inc()
            if self._last_status is not None:
                registry.labelled("http_responses").inc(
                    str(self._last_status))
            registry.histogram("http_request_seconds").observe(elapsed)
            self.server.access_log.log(
                "access", method=method, path=path,
                status=self._last_status, bytes=self._bytes_sent,
                latency_seconds=round(elapsed, 9),
                request_id=self._request_id)
            if span is not None:
                self.server.finish_span(
                    span, status=self._last_status,
                    bytes=self._bytes_sent,
                    request_id=self._request_id)
            self.server.maybe_flush()

    # -- response plumbing -------------------------------------------------

    def _send_bytes(self, status: int, body: bytes, content_type: str,
                    headers: Optional[Dict[str, str]] = None) -> None:
        self._last_status = status
        self._bytes_sent = len(body)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id",
                         getattr(self, "_request_id", None)
                         or new_request_id())
        if headers:
            for name, value in headers.items():
                self.send_header(name, value)
        if self.server.draining.is_set() or self.close_connection:
            # Draining (get keep-alive clients off this worker) or the
            # stream is unusable (e.g. an unread 413 body): say so.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Dict[str, object],
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode("utf-8") + b"\n"
        self._send_bytes(status, body, "application/json", headers)

    def _read_json(self, allow_empty: bool = False) -> object:
        """The request's JSON payload, or ``_READ_ERROR`` after a reply.

        Enforces ``max_body`` *before* reading (an oversized body is
        refused and the connection closed -- the bytes never transit),
        requires ``Content-Length`` (411 without it), and turns bad
        UTF-8 or bad JSON into a 400 instead of an exception.  The
        error sentinel is not ``None`` because ``None`` is a valid
        parse (a body of literal ``null``) that must reach the
        endpoint's own shape validation.
        """
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            self._send_json(411, {"error": "Content-Length required"})
            return _READ_ERROR
        try:
            length = int(raw_length)
        except ValueError:
            self._send_json(400, {"error": "malformed Content-Length"})
            return _READ_ERROR
        if length < 0:
            self._send_json(400, {"error": "malformed Content-Length"})
            return _READ_ERROR
        if length > self.server.config.max_body:
            self.close_connection = True  # unread body: unusable stream
            self._send_json(413, {
                "error": "request body exceeds %d bytes"
                         % self.server.config.max_body,
                "max_body": self.server.config.max_body})
            return _READ_ERROR
        body = self.rfile.read(length)
        if not body and allow_empty:
            return {}
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError:
            self._send_json(400, {"error": "body is not valid UTF-8"})
            return _READ_ERROR
        try:
            return json.loads(text)
        except ValueError:
            self._send_json(400, {"error": "body is not valid JSON"})
            return _READ_ERROR

    # -- endpoints ---------------------------------------------------------

    def _ep_healthz(self) -> None:
        self._send_json(200, {"status": "ok",
                              "worker": self.server.worker_id,
                              "draining": self.server.draining.is_set()})

    def _ep_readyz(self) -> None:
        if self.server.draining.is_set():
            self._send_json(503, {"status": "draining"})
        else:
            self._send_json(200, {"status": "ready"})

    def _ep_metrics(self) -> None:
        self._send_bytes(200, self.server.merged_metrics().encode("utf-8"),
                         PROM_CONTENT_TYPE)

    def _ep_status(self) -> None:
        """GET /admin/status: uptime, inflight, windowed health."""
        self._send_json(200, self.server.status_payload())

    def _ep_annotate(self) -> None:
        server = self.server
        if not server.try_begin_request():
            self._send_json(429, {"error": "overloaded",
                                  "inflight": server.inflight},
                            headers={"Retry-After": "1"})
            return
        try:
            payload = self._read_json()
            if payload is _READ_ERROR:
                return
            if not isinstance(payload, dict) or "hostname" not in payload:
                self._send_json(400, {
                    "error": 'expected {"hostname": ...}'})
                return
            hostname = payload["hostname"]
            asn = server.service.annotate_one(hostname)
            self._send_json(200, {"hostname": hostname, "asn": asn})
        finally:
            server.end_request()

    def _ep_annotate_batch(self) -> None:
        server = self.server
        if not server.try_begin_request():
            self._send_json(429, {"error": "overloaded",
                                  "inflight": server.inflight},
                            headers={"Retry-After": "1"})
            return
        try:
            payload = self._read_json()
            if payload is _READ_ERROR:
                return
            if (not isinstance(payload, dict)
                    or not isinstance(payload.get("hostnames"), list)):
                self._send_json(400, {
                    "error": 'expected {"hostnames": [...]}'})
                return
            hostnames = payload["hostnames"]
            asns = server.service.annotate_batch(hostnames)
            self._send_json(200, {"count": len(asns), "asns": asns})
        finally:
            server.end_request()

    def _ep_shadow_report(self) -> None:
        """GET /admin/shadow/report: the merged disagreement ledger."""
        server = self.server
        report = server.shadow_report()
        report["promote_threshold"] = server.config.promote_threshold
        self._send_json(200, report)

    def _ep_admin(self, verb: AdminVerb) -> None:
        """POST to an admin verb: the flow reload, shadow-load and
        promote share (see the module docstring)."""
        server = self.server
        payload = self._read_json(allow_empty=True)
        if payload is _READ_ERROR:
            return
        configured = getattr(server.config, verb.config_field)
        if not configured:
            self._send_json(409, {"error": verb.unconfigured})
            return
        echo = verb.echo(server.config)
        if echo and isinstance(payload, dict) \
                and payload.get(verb.echo_key) \
                and payload[verb.echo_key] != configured:
            self._send_json(400, {"error": verb.wrong_file, **echo})
            return
        extra: Optional[Dict[str, object]] = {}
        if verb.gate is not None:
            extra = verb.gate(self)
            if extra is None:
                return
        if server.broadcast_pid is not None:
            # Pre-fork: signal the parent, which broadcasts to every
            # worker (including this one).  Asynchronous by construction.
            os.kill(server.broadcast_pid, verb.signum)
            self._send_json(202, {verb.done_key: "signalled",
                                  "workers": server.config.workers,
                                  **echo, **extra})
            return
        try:
            count = server.run_admin(verb)
        except NoCandidateError as exc:
            self._send_json(409, {"error": str(exc)})
            return
        except Exception as exc:
            server.service.metrics.counter(verb.error_counter).inc()
            self._send_json(500, {"error": "%s failed: %s" % (verb.what, exc),
                                  **echo})
            return
        self._send_json(200, {verb.done_key: True, verb.count_key: count,
                              **echo, **extra})

    def _promote_gate(self) -> Optional[Dict[str, object]]:
        """Promote's gate, on the *merged* report (every worker's
        ledger), before any swap happens anywhere."""
        report = self.server.shadow_report()
        if not report["active"]:
            self._send_json(409, {
                "error": "no shadow candidate loaded; nothing to promote"})
            return None
        threshold = self.server.config.promote_threshold
        fraction = report["disagreement_fraction"]
        if threshold is not None and fraction > threshold:
            self._send_json(409, {
                "error": "disagreement %.4f exceeds --promote-threshold "
                         "%.4f; refusing to promote" % (fraction, threshold),
                "disagreement_fraction": fraction,
                "promote_threshold": threshold,
                "disagreements": report["disagreements"],
                "requests": report["requests"]})
            return None
        return {"disagreement_fraction": fraction}


#: The hot-swap admin verbs (see the module docstring).
ADMIN_VERBS: Tuple[AdminVerb, ...] = (
    AdminVerb(
        path="/admin/reload", signum=signal.SIGHUP,
        run=lambda server: server.service.reload_json_file(
            server.config.conventions),
        ok_counter="reloads", error_counter="reload_errors",
        failed_event="reload_failed", config_field="conventions",
        unconfigured="server was not started from a conventions file; "
                     "nothing to reload",
        done_key="reloaded", count_key="suffixes", what="reload",
        echo_key="conventions",
        wrong_file="reload re-reads the configured conventions file; "
                   "restart to change it"),
    AdminVerb(
        path="/admin/shadow", signum=signal.SIGUSR1,
        run=lambda server: server.service.load_candidate_file(
            server.config.shadow),
        ok_counter="shadow_loads", error_counter="shadow_load_errors",
        failed_event="shadow_load_failed", config_field="shadow",
        unconfigured="server was not started with --shadow; nothing to "
                     "load",
        done_key="shadow", count_key="candidate_suffixes",
        what="shadow load", echo_key="candidate",
        wrong_file="shadow load re-reads the configured --shadow file; "
                   "restart to change it"),
    AdminVerb(
        path="/admin/shadow/promote", signum=signal.SIGUSR2,
        run=lambda server: server.service.promote(),
        ok_counter="shadow_promotes", error_counter="shadow_promote_errors",
        failed_event="shadow_promote_failed", config_field="shadow",
        unconfigured="server was not started with --shadow; nothing to "
                     "promote",
        done_key="promoted", count_key="suffixes", what="promote",
        gate=AnnotationHandler._promote_gate),
)

_ROUTES: Dict[str, Dict[str, Callable[[AnnotationHandler], None]]] = {
    "/healthz": {"GET": AnnotationHandler._ep_healthz},
    "/readyz": {"GET": AnnotationHandler._ep_readyz},
    "/metrics": {"GET": AnnotationHandler._ep_metrics},
    "/annotate": {"POST": AnnotationHandler._ep_annotate},
    "/annotate/batch": {"POST": AnnotationHandler._ep_annotate_batch},
    "/admin/status": {"GET": AnnotationHandler._ep_status},
    "/admin/shadow/report": {"GET": AnnotationHandler._ep_shadow_report},
}
_ROUTES.update((verb.path, {"POST": partial(AnnotationHandler._ep_admin,
                                            verb=verb)})
               for verb in ADMIN_VERBS)

#: What the pre-fork parent passes on to every worker: the drain
#: signals (SIGINT as SIGTERM) and each admin verb's broadcast.
PREFORK_FORWARDED = (signal.SIGTERM, signal.SIGINT) + tuple(
    verb.signum for verb in ADMIN_VERBS)


# -- process orchestration -------------------------------------------------


def _install_worker_signals(server: AnnotationHTTPServer) -> None:
    """SIGTERM/SIGINT drain; each admin verb's signal runs that verb.

    All run off-thread: ``shutdown`` must not be called from the
    ``serve_forever`` thread, and admin work should never stall
    accepts.  The verb signals are the broadcast halves of the admin
    endpoints.
    """
    verbs = {verb.signum: verb for verb in ADMIN_VERBS}

    def _term(signum: int, frame: object) -> None:
        threading.Thread(target=server.drain, daemon=True).start()

    def _admin(signum: int, frame: object) -> None:
        threading.Thread(target=server.admin_from_signal,
                         args=(verbs[signum],), daemon=True).start()

    signal.signal(signal.SIGTERM, _term)
    signal.signal(signal.SIGINT, _term)
    for signum in verbs:
        signal.signal(signum, _admin)


def _forward_signals(pids: List[int]) -> None:
    """Pre-fork parent: pass every :data:`PREFORK_FORWARDED` signal on
    to the workers."""

    def _forward(signum: int, frame: object) -> None:
        for pid in pids:
            try:
                os.kill(pid, signum if signum != signal.SIGINT
                        else signal.SIGTERM)
            except ProcessLookupError:
                pass

    for signum in PREFORK_FORWARDED:
        signal.signal(signum, _forward)


def _write_metrics_out(path: str, snapshot: Dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _serve_single(service: AnnotationService, config: HttpConfig,
                  ready: Optional[Callable[[int], None]] = None) -> int:
    """One process, one threading server (``workers=1``)."""
    sock = create_listener(config.host, config.port,
                           backlog=config.backlog)
    server = AnnotationHTTPServer(service, config, sock=sock)
    if config.history:
        server.history = HistoryStore(config.history)
    _install_worker_signals(server)
    server.start_flush_loop()  # no metrics dir: feeds the windows only
    server.start_history_loop()
    if ready is not None:
        ready(server.server_port)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    if server.history is not None:
        # Final entry: even a run shorter than history_interval leaves
        # one snapshot to compare against the next lifetime's.
        server.history.append(service.stats())
    if config.metrics_out:
        _write_metrics_out(config.metrics_out, service.stats())
    return 0


def _worker_main(service: AnnotationService, config: HttpConfig,
                 shared: Optional[socket.socket], port: int,
                 worker_id: int, metrics_dir: MetricsDir,
                 parent_pid: int, ready_fd: int) -> None:
    """A forked worker's whole life; never returns (``os._exit``)."""
    code = 1
    try:
        if shared is None:
            sock = create_listener(config.host, port, reuse_port=True,
                                   backlog=config.backlog)
        else:
            sock = shared
        server = AnnotationHTTPServer(service, config, sock=sock,
                                      worker_id=worker_id,
                                      metrics_dir=metrics_dir)
        server.broadcast_pid = parent_pid
        _install_worker_signals(server)
        server.start_flush_loop()
        os.write(ready_fd, b"1")
        os.close(ready_fd)
        server.serve_forever(poll_interval=0.05)
        server.flush_metrics()  # final snapshot: drain must not lose it
        server.server_close()
        code = 0
    except Exception:
        import traceback
        traceback.print_exc(file=sys.stderr)
    finally:
        os._exit(code)


def _serve_prefork(service: AnnotationService, config: HttpConfig,
                   ready: Optional[Callable[[int], None]] = None) -> int:
    """Fork ``config.workers`` servers sharing one warmed service."""
    reuse = config.reuse_port if config.reuse_port is not None \
        else reuse_port_available()
    owns_metrics_dir = config.metrics_dir is None
    metrics_path = config.metrics_dir or tempfile.mkdtemp(
        prefix="repro-serve-http-")
    metrics_dir = MetricsDir(metrics_path)
    reservation: Optional[socket.socket] = None
    shared: Optional[socket.socket] = None
    if reuse:
        reservation = _reserve_port(config.host, config.port)
        port = reservation.getsockname()[1]
    else:
        shared = create_listener(config.host, config.port,
                                 backlog=config.backlog)
        port = shared.getsockname()[1]

    parent_pid = os.getpid()
    parent_log = JsonLogger()  # supervisor diagnostics on stderr
    pids: List[int] = []
    ready_fds: List[int] = []
    for worker_id in range(config.workers):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            for fd in ready_fds:
                os.close(fd)
            _worker_main(service, config, shared, port, worker_id,
                         metrics_dir, parent_pid, write_fd)
            # _worker_main never returns
        os.close(write_fd)
        pids.append(pid)
        ready_fds.append(read_fd)
    if shared is not None:
        shared.close()  # the workers hold their inherited copies

    failures = 0
    for pid, read_fd in zip(pids, ready_fds):
        if os.read(read_fd, 1) != b"1":
            failures += 1
            parent_log.log("worker_start_failed", level="error", pid=pid)
        os.close(read_fd)

    _forward_signals(pids)

    if ready is not None:
        ready(port)

    history: Optional[HistoryStore] = None
    history_stop = threading.Event()
    if config.history:
        history = HistoryStore(config.history)

        def _history_loop() -> None:
            delay = max(config.history_interval, 0.05)
            while not history_stop.wait(delay):
                try:
                    history.append(metrics_dir.merged_with_shadow())
                except OSError:
                    pass

        threading.Thread(target=_history_loop, daemon=True).start()

    status = 1 if failures else 0
    remaining = set(pids)
    while remaining:
        pid, wait_status = os.waitpid(-1, 0)
        if pid in remaining:
            remaining.discard(pid)
            code = os.waitstatus_to_exitcode(wait_status)
            if code != 0:
                status = 1
            parent_log.log("worker_exit",
                           level="error" if code != 0 else "info",
                           pid=pid, exit_code=code)

    history_stop.set()
    if history is not None:
        # Final fleet-wide entry (ledger included): short smoke runs
        # still leave one snapshot for slo-report / shadow-report.
        history.append(metrics_dir.merged_with_shadow())

    merged = metrics_dir.merged()
    if config.metrics_out:
        _write_metrics_out(config.metrics_out, merged)
    if reservation is not None:
        reservation.close()
    if owns_metrics_dir:
        shutil.rmtree(metrics_path, ignore_errors=True)
    return status


def serve_http(service: AnnotationService, config: HttpConfig,
               ready: Optional[Callable[[int], None]] = None) -> int:
    """Run the server tree; blocks until drained.  Returns exit code.

    ``ready(port)`` fires once every worker is listening -- with
    ``port=0`` this is how the caller learns the bound port.
    """
    config.validate()
    if config.workers == 1:
        return _serve_single(service, config, ready=ready)
    return _serve_prefork(service, config, ready=ready)


# -- test/bench harness ----------------------------------------------------


def wait_ready(host: str, port: int, timeout: float = 10.0) -> bool:
    """Poll ``/healthz`` until the server answers (or timeout)."""
    import http.client

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            conn = http.client.HTTPConnection(host, port, timeout=1.0)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return True
            finally:
                conn.close()
        except OSError:
            time.sleep(0.05)
    return False


def _server_process_entry(conventions_json: str, config: HttpConfig,
                          memo_size: int, conn: object) -> None:
    """Child entry for :class:`ServerProcess` (module-level: picklable)."""
    service, _ = warmed_service(conventions_json, memo_size=memo_size,
                                shadow=config.shadow)
    code = serve_http(service, config,
                      ready=lambda port: conn.send(port))  # type: ignore
    sys.exit(code)


class ServerProcess:
    """A whole server tree (pre-fork parent + workers) as one child.

    The handle tests, benchmarks, and the load generator share::

        with ServerProcess(conventions_json, config) as server:
            ...  # server.host, server.port are live and ready

    ``stop()`` sends SIGTERM (graceful drain) and returns the parent's
    exit code; leaving the ``with`` block does the same.
    """

    def __init__(self, conventions_json: str, config: HttpConfig,
                 memo_size: int = 65536) -> None:
        self.conventions_json = conventions_json
        self.config = config
        self.memo_size = memo_size
        self.host = config.host
        self.port: Optional[int] = None
        self._process = None
        self.exitcode: Optional[int] = None

    def start(self, timeout: float = 30.0) -> "ServerProcess":
        import multiprocessing

        parent_conn, child_conn = multiprocessing.Pipe()
        self._process = multiprocessing.Process(
            target=_server_process_entry,
            args=(self.conventions_json, self.config, self.memo_size,
                  child_conn))
        self._process.start()
        child_conn.close()
        if not parent_conn.poll(timeout):
            self.stop()
            raise RuntimeError("server did not report ready in %.0fs"
                               % timeout)
        self.port = parent_conn.recv()
        parent_conn.close()
        if not wait_ready(self.host, self.port, timeout=timeout):
            self.stop()
            raise RuntimeError("server bound but never answered /healthz")
        return self

    def signal(self, signum: int) -> None:
        """Deliver ``signum`` to the server parent (e.g. SIGHUP)."""
        if self._process is not None and self._process.pid:
            os.kill(self._process.pid, signum)

    def stop(self, timeout: float = 15.0) -> Optional[int]:
        """SIGTERM the tree, join it, and return the exit code."""
        if self._process is None:
            return self.exitcode
        if self._process.is_alive():
            try:
                self.signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
        self._process.join(timeout)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(5.0)
        self.exitcode = self._process.exitcode
        self._process = None
        return self.exitcode

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
