"""``repro.serve`` -- the inference/serving side of the reproduction.

Where :mod:`repro.core` *learns* naming conventions from training
pairs, this package *applies* them at production rates, in four layers:

* :mod:`repro.serve.index` -- :class:`DispatchIndex`, a reversed-label
  suffix trie mapping a hostname to its owning convention's
  pre-compiled :class:`AnnotationPlan` in O(labels), replacing the
  per-hostname public-suffix-list scan of ``HoihoResult.extract``;
  each plan's pattern list is additionally fused -- when provably
  equivalent -- into a single alternation regex so one ``re.match``
  replaces the sequential first-match loop;
* :mod:`repro.serve.memo` -- :class:`AnnotationMemo`, the bounded LRU
  memo fronting dispatch on Zipf-skewed hostname streams;
* :mod:`repro.serve.service` -- :class:`AnnotationService`, the
  embeddable façade: load/warm/reload conventions (JSON or
  :class:`~repro.store.ArtifactStore`), ``annotate_one`` /
  ``annotate_batch``, graceful malformed-hostname handling, and shadow
  mode (``load_candidate`` / ``report`` / ``promote``: a candidate
  convention set annotated side-by-side, callers seeing only the live
  set's answers);
* :mod:`repro.serve.engine` -- :class:`BulkAnnotator`, chunked
  order-preserving streaming over files/stdin with optional process
  fan-out (byte-identical to serial; packed single-buffer chunk IPC,
  fork-inherited dispatch index, adaptive chunk sizing) and TSV/JSONL
  sinks;
* :mod:`repro.serve.http` -- the network front-end: a pre-fork
  keep-alive HTTP server (single + batch annotate, ``/metrics``,
  health/readiness, graceful SIGTERM drain, and the reload /
  shadow-load / promote admin verbs driven from one table) whose
  workers fork-inherit one warmed service;
* :mod:`repro.serve.loadgen` -- open/closed-loop HTTP load generator
  reporting throughput and latency percentiles;
* :mod:`repro.serve.shadow` -- :class:`ShadowLedger`, the per-suffix
  disagreement ledger behind shadow mode, and the report builders
  that merge it across workers (the validate-before-trust half of
  tracking a changing Internet).

The metrics primitives (:class:`MetricsRegistry` and friends) live in
:mod:`repro.obs.metrics` and are re-exported here.

CLI surface: ``repro-hoiho annotate`` (bulk), ``repro-hoiho serve``
(line-oriented stdin/stdout loop), ``repro-hoiho serve-http``
(network server), ``repro-hoiho loadgen`` (load generator),
``repro-hoiho serve-stats`` (metrics/bench rendering); ``repro-hoiho
apply`` is a thin alias of ``annotate``.  See ``docs/SERVING.md``.
"""

from repro.serve.engine import (
    BulkAnnotator,
    Checkpoint,
    DEFAULT_CHUNK_SIZE,
    DeadLetter,
    SINKS,
    iter_hostnames,
    jsonl_line,
    tsv_line,
)
from repro.serve.http import (
    AnnotationHTTPServer,
    HttpConfig,
    ServerProcess,
    serve_http,
    wait_ready,
)
from repro.serve.index import (
    AnnotationPlan,
    DispatchIndex,
    MAX_FUSED_GROUPS,
    fuse_patterns,
    normalize_hostname,
)
from repro.serve.memo import (
    ABSENT,
    AnnotationMemo,
    DEFAULT_MEMO_SIZE,
)
from repro.serve.loadgen import (
    LoadGenConfig,
    run_loadgen,
    workload_fingerprint,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    LabelledCounter,
    MetricsRegistry,
    render_snapshot,
)
from repro.serve.service import AnnotationService
from repro.serve.shadow import (
    EXAMPLE_CAP,
    ShadowLedger,
    merge_shadow_reports,
    render_shadow_report,
    shadow_report_from_snapshot,
)

__all__ = [
    "ABSENT",
    "AnnotationHTTPServer",
    "AnnotationMemo",
    "AnnotationPlan",
    "AnnotationService",
    "BulkAnnotator",
    "Checkpoint",
    "Counter",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_MEMO_SIZE",
    "DeadLetter",
    "DispatchIndex",
    "EXAMPLE_CAP",
    "Histogram",
    "HttpConfig",
    "LabelledCounter",
    "LoadGenConfig",
    "MAX_FUSED_GROUPS",
    "MetricsRegistry",
    "SINKS",
    "ServerProcess",
    "ShadowLedger",
    "fuse_patterns",
    "iter_hostnames",
    "jsonl_line",
    "merge_shadow_reports",
    "normalize_hostname",
    "render_shadow_report",
    "render_snapshot",
    "run_loadgen",
    "serve_http",
    "shadow_report_from_snapshot",
    "tsv_line",
    "wait_ready",
]
