"""HTTP clients for the serving workload.

``closed_pass`` keeps ``connections`` keep-alive connections busy
(each sends its next request when the previous answer lands) and
measures how long a fixed request list takes.  ``open_loop`` releases
requests on a fixed schedule whatever the server does and times each
one from its *scheduled* send, so a stall is charged to every request
queued behind it; it also records how late the generator itself ran.
Both keep raw per-request samples; percentiles are computed from them,
not from histogram buckets.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from common import median, percentile
from workload_gen import Request

SINGLE_PATH = "/annotate"
BATCH_PATH = "/annotate/batch"


class Connection:
    """One persistent keep-alive connection; reconnects after errors."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def post(self, path: str, body: bytes) -> "tuple[int, bytes]":
        """POST ``body``; ``(status, response body)``, status 0 on a
        transport error."""
        try:
            if self._conn is None:
                conn = http.client.HTTPConnection(self.host, self.port,
                                                  timeout=self.timeout)
                conn.connect()
                conn.sock.setsockopt(socket.IPPROTO_TCP,
                                     socket.TCP_NODELAY, 1)
                self._conn = conn
            self._conn.request("POST", path, body=body, headers={
                "Content-Type": "application/json"})
            response = self._conn.getresponse()
            data = response.read()
            if response.will_close:
                self.close()
            return response.status, data
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def get(self, path: str) -> str:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("GET", path)
            return conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()


def encode(request: Request) -> "tuple[str, bytes]":
    if request.batch:
        return BATCH_PATH, json.dumps(
            {"hostnames": request.hostnames}).encode("utf-8")
    return SINGLE_PATH, json.dumps(
        {"hostname": request.hostnames[0]}).encode("utf-8")


def answer_ok(request: Request, status: int, body: bytes,
              expected: dict) -> bool:
    """Whether a response is the reference answer for ``request``."""
    if status != 200:
        return False
    try:
        payload = json.loads(body)
    except ValueError:
        return False
    want = [expected[h] for h in request.hostnames]
    if request.batch:
        return payload.get("count") == len(want) \
            and payload.get("asns") == want
    return payload.get("hostname") == request.hostnames[0] \
        and payload.get("asn") == want[0]


@dataclass
class Sample:
    """One request's outcome; times are ``perf_counter`` seconds."""

    index: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return max(0.0, self.sent - self.due) * 1000.0


def _drive(host: str, port: int, requests: Sequence[Request],
           connections: int, due: Optional[Sequence[float]]) -> List[Sample]:
    """Send every request once over ``connections`` threads.

    With ``due`` (absolute ``perf_counter`` times) a thread waits for a
    request's slot before sending it -- the open loop; without, it
    sends as soon as it is free -- the closed loop.
    """
    bodies = [encode(request) for request in requests]
    samples: List[Optional[Sample]] = [None] * len(requests)
    cursor = [0]
    lock = threading.Lock()
    errors: List[BaseException] = []

    def worker() -> None:
        client = Connection(host, port)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(bodies):
                        return
                    cursor[0] = index + 1
                slot = None
                if due is not None:
                    slot = due[index]
                    delay = slot - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                sent = time.perf_counter()
                path, body = bodies[index]
                status, data = client.post(path, body)
                done = time.perf_counter()
                samples[index] = Sample(index, sent if slot is None
                                        else slot, sent, done, status, data)
        except BaseException as exc:  # recorded, re-raised below
            errors.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [sample for sample in samples if sample is not None]


def closed_pass(host: str, port: int, requests: Sequence[Request],
                connections: int) -> "tuple[float, List[Sample]]":
    """Wall time to answer every request in ``requests``, closed loop."""
    started = time.perf_counter()
    samples = _drive(host, port, requests, connections, None)
    return time.perf_counter() - started, samples


def open_loop(host: str, port: int, requests: Sequence[Request],
              rate: float, senders: int) -> List[Sample]:
    """Release ``requests`` at ``rate`` per second, open loop."""
    start = time.perf_counter() + 0.05
    due = [start + i / rate for i in range(len(requests))]
    return _drive(host, port, requests, senders, due)


def step_summary(rate: float, requests: Sequence[Request],
                 samples: Sequence[Sample], oks: Sequence[bool]) -> dict:
    """One ladder step: per request kind, sent/succeeded/failed counts
    and raw-sample p50/p99; generator lateness in the first and the
    last quarter of the step (lateness that grows means the generator
    fell behind its schedule)."""
    step = {"rate": rate, "requests": len(requests)}
    for kind in ("single", "batch"):
        mine = [(s, ok) for s, ok in zip(samples, oks)
                if requests[s.index].batch == (kind == "batch")]
        latencies = [s.latency_ms for s, _ in mine]
        step[kind] = {
            "sent": len(mine),
            "succeeded": sum(1 for _, ok in mine if ok),
            "failed": sum(1 for _, ok in mine if not ok),
            "p50_ms": percentile(latencies, 50),
            "p99_ms": percentile(latencies, 99)}
    late = [s.late_ms for s in samples]
    quarter = max(1, len(late) // 4)
    step.update(
        p99_ms=percentile([s.latency_ms for s in samples], 99),
        failed=len(requests) - sum(1 for ok in oks if ok),
        late_first_ms=median(late[:quarter]) if late else 0.0,
        late_last_ms=median(late[-quarter:]) if late else 0.0)
    return step


def goodput(steps: Sequence[dict], p99_limit_ms: float,
            late_growth_ms: float = 1.0) -> float:
    """The highest step rate whose p99 meets the limit, with no failed
    request and generator lateness that did not grow."""
    best = 0.0
    for step in steps:
        if step["failed"] == 0 and step["p99_ms"] <= p99_limit_ms \
                and step["late_last_ms"] <= step["late_first_ms"] \
                + late_growth_ms:
            best = max(best, float(step["rate"]))
    return best
