"""The benchmark's four workloads.

Each workload function takes a ``Settings`` and returns a ``Result``
holding every end-to-end metric (untraced run) or every per-layer
metric (traced run), plus the count of operations attempted and
failed.  A wrong answer, a non-zero exit, a non-200 response or a
transport error counts as a failed operation.

Measured jobs repeat until ``seconds`` have passed (at least once), and
the reported value is their median.  Set-up repeats ``SETUP_REPEATS``
times where it is cheap enough, and ``setup_s`` is the median.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import re
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import layers
import loadclient
from common import (NPROC, STATE_DIR, Child, Proc, cli_child, median,
                    percentile, python_child, read_json, run_child,
                    source_digest, tree_size, write_json)
from workload_gen import (BATCH_SIZE, UNIQUE_HOSTNAMES, Request,
                          expected_line, reference_index, request_hostnames,
                          shapes_from, unique_hostnames, zipf_requests)

SETUP_REPEATS = 2
#: Requests in one closed-loop pass of the served workload, sent over
#: one keep-alive connection: with more, client threads and server
#: workers contend for the CPUs and the pass time mostly measures that.
CLOSED_REQUESTS = 2000
CLOSED_CONNECTIONS = 1
#: Open-loop ladder (requests/s), seconds per step, the rate the
#: latency metrics are read at, and the p99 limit of goodput.  Chosen
#: from ten ladders (seeds 1-5, two back to back each, 3 s steps, small
#: scale, 2 workers and 2 senders on a 2-CPU VM): p99 ranged 1.4-5.8 ms
#: at 400/s, 1.7-4.9 ms at 800/s, 1.9-23 ms at 1600/s and 9-68 ms at
#: 2400/s; at 3200/s six of ten steps fell behind (p99 0.5-1.2 s,
#: generator lateness growing by hundreds of ms) and four held at
#: 42-66 ms.  So the ladder runs from light load past that knee, the
#: reference is the rate with the tightest p99 spread, and the limit
#: is about twice the worst p99 seen below the knee.
LADDER = (400, 800, 1600, 2400, 3200)
LADDER_STEP_S = 3.0
REFERENCE_RATE = 800
P99_LIMIT_MS = 50.0
#: Closed passes on each side of the served tracing overhead.
OVERHEAD_PASSES = 3
#: Seconds a server tree may take to answer, and to drain.
SERVER_START_S = 60.0
SERVER_STOP_S = 30.0

DIGEST_DIR = os.path.join(STATE_DIR, "digests")


@dataclass
class Settings:
    seed: int
    seconds: float
    trace: bool
    workdir: str
    #: The world scale the pipeline and conventions run at; tiny only
    #: in the smoke mode the benchmark's own tests use.
    scale: str = "small"
    unique_hostnames: int = UNIQUE_HOSTNAMES
    closed_requests: int = CLOSED_REQUESTS
    ladder_step_s: float = LADDER_STEP_S

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)

    def count(self, attempted: int, failed: int, why: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append("%d failed: %s" % (failed, why))


def _repeat_for(seconds: float, job: Callable[[], object],
                minimum: int = 1) -> List[object]:
    """Run ``job`` until ``seconds`` have passed, at least ``minimum``
    times."""
    values = []
    started = time.perf_counter()
    while True:
        values.append(job())
        if len(values) >= minimum \
                and time.perf_counter() - started >= seconds:
            return values


def _child_ok(result: Result, proc: Proc, what: str) -> bool:
    if proc.ok:
        return True
    result.notes.append("%s exited %d: %s" % (what, proc.returncode,
                                              proc.stderr[-2000:]))
    return False


def _overhead(traced_s: float, untraced_s: float) -> float:
    return traced_s / untraced_s - 1.0


def _report_jobs(result: Result, setup_times: List[float],
                 procs: List[Proc]) -> None:
    """End-to-end metrics of repeated child-process jobs."""
    walls = [p.wall_s for p in procs]
    result.details.update(setup_s=setup_times, run_s=walls,
                          cpu_s=[p.cpu_s for p in procs])
    result.metrics.update({
        "setup_s": median(setup_times),
        "run_s": median(walls),
        "peak_rss_mb": median([p.peak_rss_mb for p in procs])})


# -- pipeline_cold and relearn ---------------------------------------------


def _record_digest(result: Result, seed: int, scale: str, digest: str,
                   source: str) -> bool:
    """Check ``digest`` against the first one recorded for this seed
    and this version of the program's sources.

    Runs of one seed must learn identical conventions, and relearn over
    a warm timeline must learn what a cold run learns; the record is
    shared by both workloads.  It is keyed by ``source_digest()``, so a
    change to ``src/`` starts a new record instead of failing against
    the old one.
    """
    path = os.path.join(DIGEST_DIR, "%s-%d-%s.json"
                        % (scale, seed, source_digest()[:16]))
    known = read_json(path)
    if known is None:
        write_json(path, {"digest": digest, "source": source})
        return True
    if known["digest"] == digest:
        return True
    result.notes.append("conventions digest %s differs from %s's %s"
                        % (digest[:12], known["source"],
                           known["digest"][:12]))
    return False


def _pipeline_job(settings: Settings, result: Result, workload: str,
                  cache_dir: Optional[str], trace_out: str = "",
                  layers_out: str = "") -> Proc:
    digest_path = settings.path("digest.json")
    if os.path.exists(digest_path):
        os.remove(digest_path)
    argv = python_child("run", "--seed", str(settings.seed),
                        "--scale", settings.scale,
                        "--digest-out", digest_path)
    if cache_dir:
        argv += ["--cache-dir", cache_dir]
    if trace_out:
        argv += ["--trace-out", trace_out]
    if layers_out:
        argv += ["--layers-out", layers_out]
    proc = run_child(argv, settings.workdir)
    ok = _child_ok(result, proc, "run")
    if ok:
        document = read_json(digest_path) or {}
        digest = document.get("digest", "")
        ok = bool(document.get("conventions")) and _record_digest(
            result, settings.seed, settings.scale, digest, workload)
    result.count(1, 0 if ok else 1, "pipeline run")
    return proc


def _pipeline(settings: Settings, workload: str,
              setup: Callable[[], List[float]],
              prepare: Callable[[], None],
              cache_dir: Optional[str], minimum_jobs: int) -> Result:
    """Untraced: repeated jobs.  Traced: three jobs -- plain, with the
    program's spans only (so the overhead is the tracer's alone), and
    with the benchmark's probes only."""
    result = Result()
    setup_times = setup()
    if not settings.trace:
        def job() -> Proc:
            prepare()
            return _pipeline_job(settings, result, workload, cache_dir)

        procs = _repeat_for(settings.seconds, job, minimum_jobs)
        _report_jobs(result, setup_times, procs)
        return result
    prepare()
    plain = _pipeline_job(settings, result, workload, cache_dir)
    prepare()
    store_before = tree_size(cache_dir) if cache_dir else 0
    trace_path = settings.path("trace.jsonl")
    traced = _pipeline_job(settings, result, workload, cache_dir,
                           trace_out=trace_path)
    store_bytes = (tree_size(cache_dir) - store_before) if cache_dir else 0
    prepare()
    probes_path = settings.path("layers.json")
    probed = _pipeline_job(settings, result, workload, cache_dir,
                           layers_out=probes_path)
    probes = read_json(probes_path)
    if traced.ok and probed.ok and probes:
        spans = layers.load_spans(trace_path)
        result.metrics.update(layers.pipeline_layers(spans, probes,
                                                     store_bytes))
    result.metrics.update({
        "proc.cpu_s": plain.cpu_s,
        "obs.trace_overhead_fraction": _overhead(traced.wall_s,
                                                 plain.wall_s)})
    return result


def pipeline_cold(settings: Settings) -> Result:
    """A researcher's first ``run``: fresh process, no artifact store.

    Set-up is what every cold run pays before its own work: starting
    the interpreter and loading the CLI (``cache info`` on an empty
    store).
    """
    empty = settings.path("empty-store")

    def setup() -> List[float]:
        times = []
        for _ in range(SETUP_REPEATS + 1):
            proc = run_child(cli_child("cache", "info", "--cache-dir",
                                       empty), settings.workdir)
            times.append(proc.wall_s)
        return times

    return _pipeline(settings, "pipeline_cold", setup, lambda: None, None,
                     minimum_jobs=1)


def relearn(settings: Settings) -> Result:
    """``run`` against a store whose world and timeline are warm, with
    the ``hoiho`` and ``suffixes`` namespaces cleared before each job.

    Set-up fills the store once (world and 19-set timeline, built with
    one worker per CPU); it is too long to repeat inside one run.  Jobs
    run at least three times: over sets of ten seeds on a 2-CPU VM, the
    quartile spread of ``run_s`` was 0.26 of the median with one job,
    0.11 to 0.28 with two (two sets of five over 0.25) and 0.16 and
    0.19 with three.  Most of what is left is the machine's speed
    drifting between runs.
    """
    from repro.store import KIND_HOIHO, KIND_SUFFIX, ArtifactStore

    store_dir = settings.path("store")

    def setup() -> List[float]:
        proc = run_child(python_child("warm", "--seed", str(settings.seed),
                                      "--scale", settings.scale,
                                      "--cache-dir", store_dir,
                                      "--jobs", str(NPROC)),
                         settings.workdir)
        if not proc.ok:
            raise RuntimeError("warming the store failed: %s"
                               % proc.stderr[-2000:])
        return [proc.wall_s]

    def prepare() -> None:
        store = ArtifactStore(store_dir)
        store.clear(KIND_HOIHO)
        store.clear(KIND_SUFFIX)

    return _pipeline(settings, "relearn", setup, prepare, store_dir,
                     minimum_jobs=3)


# -- serving inputs ----------------------------------------------------------


def _serving_inputs(settings: Settings) -> "tuple[str, list]":
    """Learn the conventions and derive the hostname shapes."""
    from repro.psl import default_psl

    out = settings.path("inputs")
    proc = run_child(python_child("conventions", "--seed",
                                  str(settings.seed), "--scale",
                                  settings.scale, "--out", out),
                     settings.workdir)
    if not proc.ok:
        raise RuntimeError("learning the conventions failed: %s"
                           % proc.stderr[-2000:])
    with open(os.path.join(out, "conventions.json"),
              encoding="utf-8") as handle:
        conventions = handle.read()
    with open(os.path.join(out, "templates.txt"), encoding="utf-8") as handle:
        templates = [line.strip() for line in handle if line.strip()]
    psl = default_psl()
    return conventions, shapes_from(templates, psl.registered_domain)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# -- annotate_unique ---------------------------------------------------------


def _write_unique_stream(settings: Settings, shapes: list) -> str:
    from repro.serve.loadgen import workload_fingerprint

    path = settings.path("unique.txt")
    with open(path, "w", encoding="utf-8") as out:
        def tee():
            for hostname in unique_hostnames(shapes, settings.seed,
                                             settings.unique_hostnames):
                out.write(hostname + "\n")
                yield hostname

        return workload_fingerprint(tee())


def _check_annotations(stream: str, output: str, index) -> int:
    """Lines of ``output`` that differ from the reference (a missing or
    extra line counts as one wrong answer)."""
    wrong = 0
    with open(stream, encoding="utf-8") as names, \
            open(output, encoding="utf-8") as lines:
        for hostname, line in itertools.zip_longest(names, lines):
            if hostname is None or line is None or expected_line(
                    index, hostname.rstrip("\n")) != line.rstrip("\n"):
                wrong += 1
    return wrong


def annotate_unique(settings: Settings) -> Result:
    """``repro-hoiho annotate --jobs NPROC`` over a stream of distinct
    hostnames, so nearly every lookup misses the memo."""
    result = Result()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        conventions, shapes = _serving_inputs(settings)
        fingerprint = _write_unique_stream(settings, shapes)
        setup_times.append(time.perf_counter() - started)
    conventions_path = settings.path("inputs", "conventions.json")
    stream = settings.path("unique.txt")
    index = reference_index(conventions)
    total = settings.unique_hostnames
    verified: Dict[str, int] = {}
    result.details.update(stream_fingerprint=fingerprint,
                          hostnames=total, shapes=len(shapes))

    def check(output: str) -> None:
        digest = _sha256(output)
        if digest not in verified:
            verified[digest] = _check_annotations(stream, output, index)
        result.count(total, verified[digest], "annotations differ from "
                     "the sequential reference")
        os.remove(output)

    def job() -> Proc:
        output = settings.path("annotated.tsv")
        proc = run_child(cli_child("annotate", "--conventions",
                                   conventions_path, "--hostnames", stream,
                                   "--jobs", str(NPROC), "--format", "tsv",
                                   "--out", output), settings.workdir)
        if _child_ok(result, proc, "annotate"):
            check(output)
        else:
            result.count(total, total, "annotate failed")
        return proc

    if not settings.trace:
        procs = _repeat_for(settings.seconds, job)
        _report_jobs(result, setup_times, procs)
        return result
    plain = job()
    output = settings.path("annotated.tsv")
    timings_path = settings.path("timings.json")
    layers_path = settings.path("layers.json")
    common_args = ("--conventions", conventions_path, "--hostnames", stream,
                   "--jobs", str(NPROC), "--out", output)
    timed = run_child(python_child(
        "annotate-overhead", *common_args, "--trace-out",
        settings.path("trace.jsonl"), "--layers-out", timings_path),
        settings.workdir)
    if not _child_ok(result, timed, "traced annotate"):
        result.count(total, total, "traced annotate failed")
        return result
    check(output)
    probed = run_child(python_child("annotate-layers", *common_args,
                                    "--layers-out", layers_path),
                       settings.workdir)
    if not _child_ok(result, probed, "probed annotate"):
        result.count(total, total, "probed annotate failed")
        return result
    check(output)
    timings = read_json(timings_path)
    probes = read_json(layers_path)

    def per_call(name: str) -> float:
        probe = probes[name]
        return probe["ns"] / probe["calls"] if probe["calls"] else 0.0

    normalized = probes["normalize"]["calls"]
    summary = probes["summary"]
    result.metrics.update({
        "serve.index.normalize_ns": per_call("normalize"),
        "serve.index.lookup_ns": per_call("lookup"),
        "serve.index.extract_ns": per_call("extract"),
        "serve.index.fused_fraction": probes["fused_plans"] / probes["plans"]
        if probes["plans"] else 0.0,
        "serve.index.annotated_fraction": summary["annotated"]
        / summary["requests"],
        "serve.service.per_hostname_ns": probes["service_ns"],
        "serve.engine.read_ns": per_call("read"),
        "serve.engine.sink_ns": per_call("sink"),
        "serve.engine.chunks": probes["chunks"],
        "serve.engine.workers": probes["workers"],
        "serve.memo.hit_rate": (normalized - probes["memo_put"]["calls"])
        / normalized if normalized else 0.0,
        "serve.memo.evictions": probes["evictions"],
        "proc.cpu_s": plain.cpu_s,
        "obs.trace_overhead_fraction": _overhead(
            median(timings["traced_s"]), median(timings["plain_s"]))})
    result.details["annotate_to_s"] = timings
    return result


# -- serve_http_zipf ---------------------------------------------------------


class _Server:
    """A live pre-fork server tree, started by a ``child.py serve``
    process of its own so that ``wait4`` on that process measures the
    tree's CPU and peak RSS and nothing of the benchmark's."""

    def __init__(self, settings: Settings, traced: bool = False) -> None:
        name = "server-%d" % time.monotonic_ns()
        ready = settings.path(name + ".json")
        argv = python_child("serve", "--conventions",
                            settings.path("inputs", "conventions.json"),
                            "--jobs", str(NPROC), "--out", ready)
        if traced:
            argv += ["--trace-out", settings.path(name + "-trace.jsonl")]
        self.child = Child(argv, settings.workdir, name=name,
                           new_session=True)
        self.client: Optional[loadclient.Connection] = None
        try:
            deadline = time.monotonic() + SERVER_START_S
            while not os.path.exists(ready):
                if self._exited() or time.monotonic() > deadline:
                    raise RuntimeError("server did not start")
                time.sleep(0.02)
            address = read_json(ready)
            self.host, self.port = address["host"], address["port"]
        except BaseException as exc:
            proc = self.stop()
            raise RuntimeError("%s: %s" % (exc, proc.stderr[-2000:]))
        self.client = loadclient.Connection(self.host, self.port)

    def _exited(self) -> bool:
        pid = self.child.process.pid
        return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG
                         | os.WNOWAIT) is not None

    def metrics(self) -> Dict[str, float]:
        """Merged ``/metrics`` counters, by Prometheus sample name."""
        values = {}
        for line in self.client.get("/metrics").splitlines():
            match = re.match(r"^([a-zA-Z_:][\w:]*) ([-+\deE.]+|NaN)$", line)
            if match:
                values[match.group(1)] = float(match.group(2))
        return values

    def stop(self) -> Proc:
        """Drain the tree (SIGTERM) and measure it; anything of the
        tree still alive after that is killed."""
        if self.client is not None:
            self.client.close()
        process = self.child.process
        try:
            os.kill(process.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        proc = self.child.wait(timeout=SERVER_STOP_S)
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        return proc


def _prom(values: Dict[str, float], suffix: str) -> float:
    """The one sample whose name ends with ``suffix`` (0 if absent)."""
    for name, value in values.items():
        if name.endswith(suffix):
            return value
    return 0.0


def _warm_server(server: _Server, universe: Sequence[str]) -> None:
    batches = [Request(True, list(universe[i:i + BATCH_SIZE]))
               for i in range(0, len(universe), BATCH_SIZE)]
    loadclient.closed_pass(server.host, server.port, batches, NPROC)


def _check_samples(result: Result, requests: Sequence[Request],
                   samples: Sequence[loadclient.Sample],
                   expected: dict) -> List[bool]:
    oks = [loadclient.answer_ok(requests[s.index], s.status, s.body,
                                expected) for s in samples]
    missing = len(requests) - len(samples)
    result.count(len(requests), oks.count(False) + missing,
                 "HTTP answers differ from the sequential reference "
                 "or failed")
    return oks


def _ladder(server: _Server, settings: Settings, shapes: list,
            expected_for: Callable[[Sequence[str]], dict],
            result: Result) -> "tuple[Dict[str, float], float]":
    """The open-loop rate ladder: per-layer metrics of the HTTP path,
    and the count of requests the server timed."""
    before = server.metrics()
    latencies, steps, sent_total, rejected = [], [], 0, 0
    reference: Dict[str, List[float]] = {}
    for rate in LADDER:
        count = max(1, int(rate * settings.ladder_step_s))
        _, requests = zipf_requests(shapes, settings.seed, count)
        expected = expected_for(list(request_hostnames(requests)))
        samples = loadclient.open_loop(server.host, server.port, requests,
                                       rate, NPROC)
        oks = _check_samples(result, requests, samples, expected)
        sent_total += len(samples)
        rejected += sum(1 for s in samples if s.status == 429)
        latencies += [(s.done - s.sent) * 1000.0 for s in samples]
        steps.append(loadclient.step_summary(rate, requests, samples, oks))
        if rate == REFERENCE_RATE:
            for kind in ("single", "batch"):
                reference[kind] = [
                    s.latency_ms for s in samples
                    if requests[s.index].batch == (kind == "batch")]
            reference["late"] = [s.late_ms for s in samples]
    time.sleep(0.5)  # past one flush interval: /metrics covers the ladder
    after = server.metrics()
    count = _prom(after, "http_request_seconds_count") \
        - _prom(before, "http_request_seconds_count")
    server_s = _prom(after, "http_request_seconds_sum") \
        - _prom(before, "http_request_seconds_sum")
    server_mean_ms = server_s / count * 1000.0 if count else 0.0
    hits = _prom(after, "memo_hits") - _prom(before, "memo_hits")
    misses = _prom(after, "memo_misses") - _prom(before, "memo_misses")
    result.details["ladder"] = steps
    return {
        "loadgen.single_p50_ms": percentile(reference["single"], 50),
        "loadgen.single_p99_ms": percentile(reference["single"], 99),
        "loadgen.batch_p50_ms": percentile(reference["batch"], 50),
        "loadgen.batch_p99_ms": percentile(reference["batch"], 99),
        "loadgen.goodput_rps": loadclient.goodput(steps, P99_LIMIT_MS),
        "loadgen.late_ms": sum(reference["late"]) / len(reference["late"]),
        "loadgen.sent": sent_total,
        "serve.http.server_mean_ms": server_mean_ms,
        "serve.http.wait_ms": max(0.0, sum(latencies) / len(latencies)
                                  - server_mean_ms),
        "serve.http.rejected": rejected,
        "serve.memo.hit_rate": hits / (hits + misses) if hits + misses
        else 0.0,
        "serve.memo.evictions": _prom(after, "memo_evictions")
        - _prom(before, "memo_evictions"),
    }, count


def serve_http_zipf(settings: Settings) -> Result:
    """A pre-fork server answering Zipf-skewed singles and batches.

    Untraced: ``run_s`` is a closed-loop pass of a fixed request list
    and ``peak_rss_mb`` the server tree's.  Traced: one server per
    measurement, each booted and warmed the same way -- warm-up only
    (the CPU baseline), closed passes (``proc.cpu_s``), the open-loop
    rate ladder, and closed passes with every request traced.
    """
    result = Result()
    setup_times = []
    server: Optional[_Server] = None

    def start(traced: bool = False) -> _Server:
        nonlocal server
        server = _Server(settings, traced=traced)
        _warm_server(server, universe)
        return server

    def stop() -> Proc:
        nonlocal server
        proc = server.stop()
        server = None
        if proc.returncode != 0:
            result.notes.append("server exited %d: %s"
                                % (proc.returncode, proc.stderr[-2000:]))
            result.count(1, 1, "server did not drain cleanly")
        return proc

    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                stop()
            started = time.perf_counter()
            conventions, shapes = _serving_inputs(settings)
            universe, requests = zipf_requests(shapes, settings.seed,
                                               settings.closed_requests)
            start()
            setup_times.append(time.perf_counter() - started)
        index = reference_index(conventions)
        expected = {h: index.annotate(h) for h in universe}

        def expected_for(hostnames: Sequence[str]) -> dict:
            return {h: index.annotate(h) for h in set(hostnames)}

        from repro.serve.loadgen import workload_fingerprint
        result.details.update(
            universe_fingerprint=workload_fingerprint(universe),
            requests_fingerprint=workload_fingerprint(
                list(request_hostnames(requests))))

        def job() -> float:
            wall, samples = loadclient.closed_pass(
                server.host, server.port, requests, CLOSED_CONNECTIONS)
            _check_samples(result, requests, samples, expected)
            return wall

        if not settings.trace:
            walls = _repeat_for(settings.seconds, job)
            tree = stop()
            result.details.update(setup_s=setup_times, run_s=walls)
            result.metrics.update({"setup_s": median(setup_times),
                                   "run_s": median(walls),
                                   "peak_rss_mb": tree.peak_rss_mb})
            return result
        baseline = stop()
        start()
        plain = [job() for _ in range(OVERHEAD_PASSES)]
        cpu_s = stop().cpu_s
        start()
        metrics, count = _ladder(server, settings, shapes, expected_for,
                                 result)
        ladder_cpu_s = stop().cpu_s - baseline.cpu_s
        start(traced=True)
        traced = [job() for _ in range(OVERHEAD_PASSES)]
        stop()
        result.metrics.update(metrics)
        result.metrics.update({
            "serve.http.worker_cpu_ms_per_request":
                ladder_cpu_s * 1000.0 / count if count else 0.0,
            "proc.cpu_s": cpu_s,
            "obs.trace_overhead_fraction": _overhead(median(traced),
                                                     median(plain))})
        return result
    finally:
        if server is not None:
            stop()


WORKLOADS = {
    "pipeline_cold": pipeline_cold,
    "relearn": relearn,
    "annotate_unique": annotate_unique,
    "serve_http_zipf": serve_http_zipf,
}
