"""Telemetry tests for the serving stack: access log + request ids,
trace sampling, ``/admin/status`` windows, snapshot-age gauge,
structured diagnostics, and the watch / shadow-report --history CLIs.

Endpoint mechanics live in ``test_http.py``; everything here is about
what the server *tells you* while serving.
"""

import http.client
import io
import json
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.bench import serve_conventions
from repro.cli import main
from repro.core.io import conventions_to_json
from repro.obs.logjson import JsonLogger
from repro.obs.timeseries import HistoryStore
from repro.serve.http import (
    ADMIN_VERBS,
    PREFORK_FORWARDED,
    AnnotationHTTPServer,
    HttpConfig,
    MetricsDir,
    ServerProcess,
    _forward_signals,
    _install_worker_signals,
    create_listener,
)
from repro.serve.service import AnnotationService

RELOAD, SHADOW_LOAD, PROMOTE = ADMIN_VERBS


@pytest.fixture(scope="module")
def conventions_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("telemetry") / "conventions.json"
    path.write_text(conventions_to_json(serve_conventions()),
                    encoding="utf-8")
    return str(path)


@contextmanager
def live_server(conventions_path, metrics_dir=None, **overrides):
    """An in-thread server on an ephemeral port; yields (server, port)."""
    service = AnnotationService.from_json_file(conventions_path)
    service.warm()
    config = HttpConfig(port=0, conventions=conventions_path,
                        **overrides)
    config.validate()
    sock = create_listener(config.host, 0)
    server = AnnotationHTTPServer(service, config, sock=sock,
                                  metrics_dir=metrics_dir)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        yield server, server.server_port
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)


def request(port, method, path, payload=None, headers=None,
            host="127.0.0.1"):
    """One request on a fresh connection: (status, headers, body)."""
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        body = None if payload is None else json.dumps(payload)
        sent = {"Content-Type": "application/json"}
        sent.update(headers or {})
        conn.request(method, path, body=body, headers=sent)
        response = conn.getresponse()
        raw = response.read()
        got = dict(response.getheaders())
        if "application/json" in got.get("Content-Type", ""):
            return response.status, got, json.loads(raw)
        return response.status, got, raw.decode("utf-8", "replace")
    finally:
        conn.close()


def read_jsonl(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def wait_for_access_lines(server, path, count, timeout=5.0):
    """Poll until ``count`` access lines hit disk.

    The access line is emitted after the response bytes, so the client
    can observe its reply before the handler has enqueued the record.
    """
    deadline = time.time() + timeout
    while True:
        server.access_log.flush()
        records = read_jsonl(path) if path.exists() else []
        if len(records) >= count or time.time() > deadline:
            return records
        time.sleep(0.01)


class TestAccessLog:
    def test_one_line_per_request_with_echoed_id(self, conventions_path,
                                                 tmp_path):
        log_path = tmp_path / "access.jsonl"
        with live_server(conventions_path,
                         access_log=str(log_path)) as (server, port):
            status, headers, _ = request(
                port, "POST", "/annotate",
                {"hostname": "as3356.lon1.example.com"})
            assert status == 200
            echoed = headers["X-Request-Id"]
            assert len(echoed) == 16
            request(port, "GET", "/healthz")
            records = wait_for_access_lines(server, log_path, 2)
        by_path = {record["path"]: record for record in records
                   if record["event"] == "access"}
        annotate = by_path["/annotate"]
        assert annotate["method"] == "POST"
        assert annotate["status"] == 200
        assert annotate["bytes"] > 0
        assert annotate["latency_seconds"] > 0
        assert annotate["request_id"] == echoed
        assert by_path["/healthz"]["method"] == "GET"

    def test_client_supplied_request_id_threads_through(
            self, conventions_path, tmp_path):
        log_path = tmp_path / "access.jsonl"
        with live_server(conventions_path,
                         access_log=str(log_path)) as (server, port):
            _, headers, _ = request(
                port, "GET", "/healthz",
                headers={"X-Request-Id": "proxy-id-042"})
            records = wait_for_access_lines(server, log_path, 1)
        assert headers["X-Request-Id"] == "proxy-id-042"
        assert records[-1]["request_id"] == "proxy-id-042"

    def test_unknown_routes_are_logged_too(self, conventions_path,
                                           tmp_path):
        log_path = tmp_path / "access.jsonl"
        with live_server(conventions_path,
                         access_log=str(log_path)) as (server, port):
            status, _, _ = request(port, "GET", "/nope")
            assert status == 404
            records = wait_for_access_lines(server, log_path, 1)
        assert records[-1]["path"] == "/nope"
        assert records[-1]["status"] == 404

    def test_disabled_by_default(self, conventions_path):
        with live_server(conventions_path) as (server, port):
            request(port, "GET", "/healthz")
            assert server.access_log.enabled is False


class TestTraceSampling:
    def test_sample_every_request(self, conventions_path, tmp_path):
        trace_out = tmp_path / "spans.jsonl"
        with live_server(conventions_path, trace_sample=1,
                         trace_out=str(trace_out)) as (server, port):
            for _ in range(3):
                request(port, "GET", "/healthz")
        spans = [record for record in read_jsonl(trace_out)
                 if record.get("name") == "http.request"]
        assert len(spans) == 3
        for span in spans:
            attrs = span["attrs"]
            assert attrs["method"] == "GET"
            assert attrs["path"] == "/healthz"
            assert attrs["status"] == 200
            assert attrs["request_id"]

    def test_one_in_n_sampling(self, conventions_path, tmp_path):
        trace_out = tmp_path / "spans.jsonl"
        with live_server(conventions_path, trace_sample=3,
                         trace_out=str(trace_out)) as (server, port):
            for _ in range(9):
                request(port, "GET", "/healthz")
        spans = [record for record in read_jsonl(trace_out)
                 if record.get("name") == "http.request"]
        assert len(spans) == 3

    def test_trace_sample_requires_sink(self, conventions_path):
        with pytest.raises(ValueError, match="--trace-out"):
            HttpConfig(port=0, conventions=conventions_path,
                       trace_sample=2).validate()


class TestAdminStatus:
    def test_status_reports_windowed_traffic(self, conventions_path):
        with live_server(conventions_path) as (server, port):
            for _ in range(5):
                request(port, "POST", "/annotate",
                        {"hostname": "as3356.lon1.example.com"})
            # A request is counted after its response bytes go out, so
            # the last annotate may not be windowed yet: poll briefly.
            deadline = time.time() + 5.0
            while True:
                status, _, payload = request(port, "GET",
                                             "/admin/status")
                if payload["window"]["requests"] >= 5 or \
                        time.time() > deadline:
                    break
                time.sleep(0.01)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["workers"] == 1
        assert payload["uptime_seconds"] >= 0
        window = payload["window"]
        assert window["width_seconds"] == server.config.window_seconds
        assert window["count"] == server.config.window_count
        # The 5 annotations (and the status request itself) all land
        # inside the ten-minute horizon.
        assert window["requests"] >= 5
        assert window["requests_per_second"] > 0
        assert window["errors"] == 0
        assert window["error_rate"] == 0.0
        assert set(window["latency"]) == {"p50", "p90", "p99"}
        assert all(value >= 0 for value in window["latency"].values())

    def test_idle_server_answers_with_empty_window(self,
                                                   conventions_path):
        with live_server(conventions_path) as (server, port):
            status, _, payload = request(port, "GET", "/admin/status")
        assert status == 200
        # The status request itself may already be windowed; rates and
        # errors must still be well-formed numbers.
        assert payload["window"]["errors"] == 0
        assert payload["window"]["requests_per_second"] >= 0


class TestSnapshotAgeGauge:
    def test_metrics_dir_stamps_ts_and_worker(self, tmp_path):
        metrics_dir = MetricsDir(str(tmp_path))
        before = time.time()
        metrics_dir.flush(3, {"counters": {"c": 1}})
        payload = json.loads((tmp_path / "worker-3.json").read_text())
        assert payload["worker_id"] == 3
        assert before <= payload["ts"] <= time.time()
        ages = metrics_dir.ages()
        assert set(ages) == {3}
        assert 0.0 <= ages[3] < 5.0

    def test_unstamped_snapshots_have_no_age(self, tmp_path):
        (tmp_path / "worker-9.json").write_text(
            json.dumps({"counters": {}}))
        assert MetricsDir(str(tmp_path)).ages() == {}

    def test_metrics_endpoint_exposes_age_gauge(self, conventions_path,
                                                tmp_path):
        metrics_dir = MetricsDir(str(tmp_path))
        with live_server(conventions_path,
                         metrics_dir=metrics_dir) as (server, port):
            status, _, prom = request(port, "GET", "/metrics")
        assert status == 200
        lines = [line for line in prom.splitlines()
                 if line.startswith("repro_snapshot_age_seconds")]
        assert any('worker="0"' in line for line in lines)
        assert "# TYPE repro_snapshot_age_seconds gauge" in prom

    def test_status_reports_snapshot_ages(self, conventions_path,
                                          tmp_path):
        metrics_dir = MetricsDir(str(tmp_path))
        with live_server(conventions_path,
                         metrics_dir=metrics_dir) as (server, port):
            status, _, payload = request(port, "GET", "/admin/status")
        assert status == 200
        assert "0" in payload["snapshot_age_seconds"]


class TestStructuredDiagnostics:
    def test_reload_failure_is_an_event(self, conventions_path,
                                        tmp_path):
        with live_server(conventions_path) as (server, port):
            stream = io.StringIO()
            server.log = JsonLogger(stream=stream, worker_id=0)
            server.config.conventions = str(tmp_path / "missing.json")
            server.admin_from_signal(RELOAD)  # must not raise
            (record,) = read_stream(stream)
        assert record["event"] == "reload_failed"
        assert record["level"] == "error"
        assert "missing.json" in record["conventions"]

    def test_shadow_load_failure_is_an_event(self, conventions_path):
        with live_server(conventions_path) as (server, port):
            stream = io.StringIO()
            server.log = JsonLogger(stream=stream, worker_id=0)
            server.admin_from_signal(SHADOW_LOAD)  # not in shadow mode
            (record,) = read_stream(stream)
        assert record["event"] == "shadow_load_failed"
        assert record["level"] == "error"

    def test_shadow_promote_failure_is_an_event(self, conventions_path):
        with live_server(conventions_path) as (server, port):
            stream = io.StringIO()
            server.log = JsonLogger(stream=stream, worker_id=0)
            server.admin_from_signal(PROMOTE)
            (record,) = read_stream(stream)
        assert record["event"] == "shadow_promote_failed"


def verb_id(verb):
    return verb.path


def counters(server):
    return server.service.stats()["counters"]


@contextmanager
def restored_signals():
    """Put back every handler the server trees install."""
    saved = {signum: signal.getsignal(signum)
             for signum in PREFORK_FORWARDED}
    try:
        yield
    finally:
        for signum, handler in saved.items():
            signal.signal(signum, handler)


class TestAdminTable:
    """Each row of the admin-verb table, through the signal path: what
    it counts, what it logs, and that both the workers and the pre-fork
    parent listen for its signal."""

    @pytest.mark.parametrize("verb", ADMIN_VERBS, ids=verb_id)
    def test_signal_success_counts(self, conventions_path, verb):
        with live_server(conventions_path,
                         shadow=conventions_path) as (server, port):
            server.service.load_candidate_file(conventions_path)
            server.admin_from_signal(verb)
            counts = counters(server)
        assert counts[verb.ok_counter] == 1
        assert counts.get(verb.error_counter, 0) == 0

    @pytest.mark.parametrize("verb", ADMIN_VERBS, ids=verb_id)
    def test_signal_failure_counts_and_logs(self, conventions_path,
                                            tmp_path, verb):
        missing = str(tmp_path / "missing.json")
        with live_server(conventions_path) as (server, port):
            # Both files unreadable, and no candidate to promote.
            server.config.conventions = missing
            server.config.shadow = missing
            stream = io.StringIO()
            server.log = JsonLogger(stream=stream, worker_id=0)
            server.admin_from_signal(verb)  # must not raise
            counts = counters(server)
            (record,) = read_stream(stream)
        assert counts[verb.error_counter] == 1
        assert counts.get(verb.ok_counter, 0) == 0
        assert record["event"] == verb.failed_event
        assert record["level"] == "error"

    @pytest.mark.parametrize("verb", ADMIN_VERBS, ids=verb_id)
    def test_unconfigured_verb_is_409_whatever_file_is_named(
            self, conventions_path, verb):
        with live_server(conventions_path) as (server, port):
            setattr(server.config, verb.config_field, None)
            status, _, body = request(port, "POST", verb.path,
                                      {verb.echo_key or "file": "x"})
        assert status == 409
        assert body == {"error": verb.unconfigured}

    @pytest.mark.parametrize("verb", ADMIN_VERBS, ids=verb_id)
    def test_worker_handler_runs_the_verb(self, conventions_path, verb):
        with restored_signals(), live_server(
                conventions_path, shadow=conventions_path) as (server,
                                                               port):
            server.service.load_candidate_file(conventions_path)
            _install_worker_signals(server)
            handler = signal.getsignal(verb.signum)
            assert callable(handler), "worker ignores %s" % verb.path
            handler(verb.signum, None)
            deadline = time.monotonic() + 10
            while counters(server).get(verb.ok_counter, 0) < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)

    @pytest.mark.parametrize("verb", ADMIN_VERBS, ids=verb_id)
    def test_prefork_parent_forwards_the_signal(self, verb):
        child = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            with restored_signals():
                _forward_signals([child.pid])
                handler = signal.getsignal(verb.signum)
                assert callable(handler), \
                    "parent does not forward %s" % verb.path
                handler(verb.signum, None)
            assert child.wait(10) == -verb.signum
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()


def read_stream(stream: io.StringIO):
    return [json.loads(line) for line in
            stream.getvalue().splitlines()]


class TestWorkerExitEvent:
    def test_parent_logs_structured_worker_exit(self, capfd):
        config = HttpConfig(port=0, workers=2, flush_interval=0.0)
        with ServerProcess(conventions_to_json(serve_conventions()),
                           config) as server:
            status, _, _ = request(server.port, "GET", "/healthz")
            assert status == 200
        err = capfd.readouterr().err
        exits = [json.loads(line) for line in err.splitlines()
                 if line.startswith("{") and "worker_exit" in line]
        assert len(exits) == 2, \
            "expected a worker_exit per worker on stderr:\n%s" % err
        for record in exits:
            assert record["event"] == "worker_exit"
            assert record["exit_code"] == 0
            assert record["level"] == "info"
            assert record["pid"] > 0


class TestWatchCli:
    def test_watch_renders_frames_and_exits(self, conventions_path,
                                            capsys):
        with live_server(conventions_path) as (server, port):
            request(port, "GET", "/healthz")
            assert main(["watch", "--port", str(port),
                         "--iterations", "2", "--interval", "0"]) == 0
        out = capsys.readouterr().out
        assert "repro-hoiho watch" in out
        assert "frame 2" in out
        assert "window" in out

    def test_watch_fails_cleanly_when_unreachable(self, capsys):
        sock = create_listener("127.0.0.1", 0)
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here any more
        assert main(["watch", "--port", str(port),
                     "--iterations", "1"]) == 1
        assert "cannot reach" in capsys.readouterr().err


class TestShadowReportHistoryCli:
    def test_history_rows_render(self, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        store = HistoryStore(str(history))
        snapshot = {"counters": {"http_requests": 10},
                    "shadow": {"active": True, "requests": 10,
                               "disagreements": 1}}
        store.append(snapshot, ts=1700000000.0)
        store.append(snapshot, ts=1700000600.0)
        assert main(["shadow-report", "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "shadow history: 2 entries" in out
        assert "disagree" in out

    def test_empty_history_exits_one(self, tmp_path, capsys):
        history = tmp_path / "none.jsonl"
        assert main(["shadow-report", "--history", str(history)]) == 1


class TestHistoryLoop:
    def test_single_process_server_appends_history(self,
                                                   conventions_path,
                                                   tmp_path):
        history = tmp_path / "history.jsonl"
        with live_server(conventions_path,
                         history=str(history),
                         history_interval=0.05) as (server, port):
            server.history = HistoryStore(str(history))
            server.start_history_loop()
            request(port, "POST", "/annotate",
                    {"hostname": "as3356.lon1.example.com"})
            deadline = time.time() + 5.0
            while time.time() < deadline:
                if HistoryStore(str(history)).entries():
                    break
                time.sleep(0.05)
        entries = HistoryStore(str(history)).entries()
        assert entries
        snapshot = entries[-1]["snapshot"]
        assert snapshot["counters"]["http_requests"] >= 1
