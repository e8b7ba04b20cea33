"""The embeddable annotation service: lifecycle, per-request API, metrics.

:class:`AnnotationService` is the serving counterpart to the learning
engine's :class:`~repro.core.hoiho.Hoiho`: where Hoiho turns training
pairs into a :class:`HoihoResult`, the service turns a ``HoihoResult``
into an always-on annotator with

* **lifecycle** -- load from an in-memory result, a conventions JSON
  string/file (the ``repro-hoiho learn --save`` format), or an
  :class:`~repro.store.ArtifactStore` entry; ``warm()`` pre-compiles
  every plan; ``reload_*`` swaps in a new convention set without
  recreating the service (in-flight callers keep the old index);
* **per-request API** -- :meth:`annotate_one` / :meth:`annotate_batch`
  / :meth:`annotate_pairs`, all tolerant of malformed hostnames
  (``None``/empty/non-string inputs annotate as ``None`` and count as
  ``malformed``, they never raise);
* **observability** -- every request updates the service's
  :class:`~repro.obs.metrics.MetricsRegistry`: ``requests``,
  ``annotated``, ``misses`` (known suffix, no pattern match, plus
  unknown suffixes), ``malformed``, per-suffix ``extracted`` counts,
  a ``latency_seconds`` histogram, and the memo's
  ``memo_hits``/``memo_misses``/``memo_evictions``;
* **memoization** -- a bounded LRU
  :class:`~repro.serve.memo.AnnotationMemo` keyed on the normalized
  hostname fronts the trie + regex pipeline (production PTR streams
  are Zipf-skewed, so repeats dominate).  The live ``(index, memo)``
  pair is published as one tuple, read once per request, and swapped
  as one assignment on ``reload_*`` -- a request always sees a
  consistent pair and a reload atomically invalidates the memo;
* **shadow mode** -- :meth:`load_candidate` loads a second convention
  set beside the live one (an inner service with its own registry and
  memo).  Every request is then annotated against both, callers only
  ever see the live set's answer, and the per-suffix agreement folds
  into a :class:`~repro.serve.shadow.ShadowLedger` until
  :meth:`promote` swaps the candidate in.  A service that never loads
  a candidate carries no ledger and snapshots exactly like one that
  cannot shadow.

Latency semantics: :meth:`annotate_one` records its own wall time per
request.  :meth:`annotate_batch` runs a tight aggregated loop for
throughput and records the batch's *amortised per-item* latency once
per item -- the histogram still counts every request, but batch
percentiles describe the mean item, not the slowest one.

Bulk file/stdin workloads should go through
:class:`~repro.serve.engine.BulkAnnotator`, which wraps a service in
chunked streaming and optional process fan-out.
"""

from __future__ import annotations

import threading
import time
from typing import IO, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.hoiho import HoihoResult
from repro.core.io import conventions_from_json, conventions_to_json
from repro.serve.index import DispatchIndex, normalize_hostname
from repro.serve.memo import ABSENT, AnnotationMemo, DEFAULT_MEMO_SIZE
from repro.obs.metrics import MetricsRegistry
from repro.serve.shadow import ShadowLedger, shadow_report_from_snapshot
from repro.store import KIND_HOIHO, ArtifactStore

#: Shared ``(asn, suffix)`` entry for malformed inputs and plain
#: misses -- one allocation for the whole module.
_NO_MATCH: Tuple[None, None] = (None, None)


class NoCandidateError(LookupError):
    """:meth:`AnnotationService.promote` with no shadow candidate."""


class AnnotationService:
    """Hostname -> ASN annotation over a learned convention set.

    >>> from repro.core.hoiho import Hoiho
    >>> from repro.core.types import TrainingItem
    >>> result = Hoiho().run([
    ...     TrainingItem("as%d.pop%d.example.com" % (a, i % 3), a)
    ...     for i, a in enumerate([3356, 1299, 174, 2914, 6453])])
    >>> service = AnnotationService(result)
    >>> service.annotate_one("as8075.pop9.example.com")
    8075
    >>> service.annotate_one("AS8075.pop9.Example.Com.")   # normalised
    8075
    >>> service.annotate_one("www.unknown.net") is None
    True
    >>> service.metrics.counter("requests").value
    3
    """

    def __init__(self, result: HoihoResult,
                 metrics: Optional[MetricsRegistry] = None,
                 usable_only: bool = False,
                 memo_size: int = DEFAULT_MEMO_SIZE,
                 fuse: bool = True) -> None:
        self.metrics = metrics or MetricsRegistry()
        self.usable_only = usable_only
        self.memo_size = memo_size
        self.fuse = fuse
        self.result = result
        self._index = DispatchIndex.from_result(result, usable_only,
                                                fuse=fuse)
        # The authoritative (index, memo) pair: read once per request,
        # swapped as one assignment on reload, so every request sees a
        # consistent index/memo combination (GIL-atomic either way).
        self._state: Tuple[DispatchIndex, Optional[AnnotationMemo]] = (
            self._index,
            AnnotationMemo(memo_size) if memo_size else None)
        # Counters retired from memos replaced by reloads, so memo
        # totals stay cumulative over the service's lifetime.
        self._memo_retired = {"hits": 0, "misses": 0, "evictions": 0}
        # Created up front so snapshots show zeros before traffic.
        self._requests = self.metrics.counter("requests")
        self._annotated = self.metrics.counter("annotated")
        self._misses = self.metrics.counter("misses")
        self._malformed = self.metrics.counter("malformed")
        self._extracted = self.metrics.labelled("extracted")
        self._latency = self.metrics.histogram("latency_seconds")
        self._memo_hits = self.metrics.counter("memo_hits")
        self._memo_misses = self.metrics.counter("memo_misses")
        self._memo_evictions = self.metrics.counter("memo_evictions")
        #: The shadow candidate: published by single assignment
        #: (GIL-atomic), read once per request; ``None`` = not shadowing.
        self._candidate: Optional[AnnotationService] = None
        #: Created by the first ``load_candidate`` (so a service that
        #: never shadows has no ``shadow_*`` instruments) and kept for
        #: good: after a promote it still reports the empty epoch.
        self._ledger: Optional[ShadowLedger] = None
        #: Serializes candidate load and promote (readers never take it).
        self._swap_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def from_json(cls, text: str, **kwargs: object) -> "AnnotationService":
        """Build from :func:`conventions_to_json` output."""
        return cls(conventions_from_json(text), **kwargs)  # type: ignore

    @classmethod
    def from_json_file(cls, path: str,
                       **kwargs: object) -> "AnnotationService":
        """Build from a conventions JSON file (``learn --save``)."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(handle.read(), **kwargs)

    @classmethod
    def from_store(cls, store: ArtifactStore, payload: Mapping,
                   **kwargs: object) -> "AnnotationService":
        """Build from a cached learning result in ``store``.

        ``payload`` is the fingerprint payload the result was stored
        under (see ``_learn_items`` in :mod:`repro.cli`).  Raises
        :class:`LookupError` when the store has no such artifact.
        """
        result = store.get(KIND_HOIHO, payload)
        if result is None:
            raise LookupError(
                "no cached conventions for payload (fingerprint %s)"
                % store.fingerprint(payload))
        return cls(result, **kwargs)  # type: ignore[arg-type]

    def to_json(self) -> str:
        """The current convention set, serialized."""
        return conventions_to_json(self.result)

    @property
    def index(self) -> DispatchIndex:
        """The live dispatch index."""
        return self._state[0]

    @property
    def memo(self) -> Optional[AnnotationMemo]:
        """The live annotation memo (``None`` when ``memo_size=0``)."""
        return self._state[1]

    def warm(self) -> int:
        """Pre-compile every plan; returns the number of plans.  (A
        shadow candidate is warmed when it loads.)"""
        return self._state[0].warm()

    def reload_result(self, result: HoihoResult) -> int:
        """Swap in a new convention set; returns the new plan count.

        The replacement index is fully built (and warmed) and paired
        with a **fresh memo** before the single-assignment swap, so
        concurrent readers only ever see a complete index together with
        a memo whose entries were computed against that same index --
        the reload invalidates the memo atomically.  The replaced
        memo's counters are retired into the cumulative totals.
        """
        index = DispatchIndex.from_result(result, self.usable_only,
                                          fuse=self.fuse)
        index.warm()
        old_memo = self._state[1]
        if old_memo is not None:
            retired = self._memo_retired
            retired["hits"] += old_memo.hits
            retired["misses"] += old_memo.misses
            retired["evictions"] += old_memo.evictions
        memo = AnnotationMemo(self.memo_size) if self.memo_size else None
        self.result = result
        self._index = index
        self._state = (index, memo)
        self._sync_memo_counters(memo)
        if self._ledger is not None:
            # Comparisons against the old set are no longer meaningful.
            self._ledger.clear()
        return len(index)

    def reload_json(self, text: str) -> int:
        """Reload from serialized conventions."""
        return self.reload_result(conventions_from_json(text))

    def reload_json_file(self, path: str) -> int:
        """Reload from a conventions JSON file."""
        with open(path, encoding="utf-8") as handle:
            return self.reload_json(handle.read())

    def reload_store(self, store: ArtifactStore, payload: Mapping) -> int:
        """Reload from a cached learning result in ``store``."""
        result = store.get(KIND_HOIHO, payload)
        if result is None:
            raise LookupError(
                "no cached conventions for payload (fingerprint %s)"
                % store.fingerprint(payload))
        return self.reload_result(result)  # type: ignore[arg-type]

    # -- shadow mode -------------------------------------------------------

    @property
    def candidate(self) -> Optional["AnnotationService"]:
        """The candidate-side service (``None`` when not shadowing)."""
        return self._candidate

    def load_candidate(self, result: HoihoResult) -> int:
        """Load (or replace) the shadow candidate; returns its plan count.

        The candidate gets its own registry (its counters must not
        pollute this one -- request accounting stays identical to a
        plain service) and its own memo, built and warmed before the
        swap.  Loading starts a fresh ledger epoch.

        >>> from repro.core.hoiho import Hoiho
        >>> from repro.core.types import TrainingItem
        >>> old = Hoiho().run([
        ...     TrainingItem("as%d.pop%d.example.com" % (a, i), a)
        ...     for i, a in enumerate([3356, 1299, 174, 2914])])
        >>> service = AnnotationService(old)
        >>> service.load_candidate(old) > 0     # identical candidate
        True
        >>> service.annotate_one("as8075.pop1.example.com")
        8075
        >>> service.report()["disagreements"]
        0
        """
        candidate = AnnotationService(result, metrics=MetricsRegistry(),
                                      usable_only=self.usable_only,
                                      memo_size=self.memo_size,
                                      fuse=self.fuse)
        candidate.warm()
        with self._swap_lock:
            if self._ledger is None:
                self._ledger = ShadowLedger(self.metrics)
            self._candidate = candidate
            self._ledger.clear()
        return len(candidate.index)

    def load_candidate_json(self, text: str) -> int:
        """Load the candidate from serialized conventions."""
        return self.load_candidate(conventions_from_json(text))

    def load_candidate_file(self, path: str) -> int:
        """Load the candidate from a conventions JSON file."""
        with open(path, encoding="utf-8") as handle:
            return self.load_candidate_json(handle.read())

    def promote(self) -> int:
        """Make the candidate the live set; returns the new plan count.

        The swap rides :meth:`reload_result` (built and warmed before
        the single-assignment publish; in-flight requests keep the old
        index), which also clears the ledger, and the candidate slot
        empties -- the service keeps serving, now from the promoted
        set, until the next ``load_candidate``.  Raises
        :class:`NoCandidateError` (a ``LookupError``) when no candidate
        is loaded.
        """
        with self._swap_lock:
            candidate = self._candidate
            if candidate is None:
                raise NoCandidateError(
                    "no shadow candidate loaded; nothing to promote")
            self._candidate = None
            return self.reload_result(candidate.result)

    def disagreement_fraction(self) -> float:
        """Current epoch's disagreeing-request fraction (0 if none)."""
        ledger = self._ledger
        return ledger.disagreement_fraction() if ledger is not None \
            else 0.0

    def report(self) -> dict:
        """This process's disagreement report (see
        :func:`~repro.serve.shadow.shadow_report_from_snapshot`)."""
        return shadow_report_from_snapshot(self.stats())

    def _shadow_outcome(self, candidate: "AnnotationService",
                        hostname: object,
                        ) -> Tuple[Optional[int], Optional[str]]:
        # Normalize once, annotate twice: both sides see the same key,
        # and the dual-annotation overhead stays regex work, not
        # repeated string scrubbing.
        key = normalize_hostname(hostname)
        entry = self.annotate_outcome(key, prenormalized=True)
        shadow_entry = candidate.annotate_outcome(key, prenormalized=True)
        self._ledger.observe_one(hostname, entry, shadow_entry)
        return entry

    def _shadow_batch(self, candidate: "AnnotationService",
                      hostnames: Iterable[object],
                      ) -> List[Tuple[Optional[int], Optional[str]]]:
        if not isinstance(hostnames, (list, tuple)):
            hostnames = list(hostnames)  # both sides must see one stream
        keys = [normalize_hostname(hostname) for hostname in hostnames]
        entries = self.annotate_batch_entries(keys, prenormalized=True)
        shadow_entries = candidate.annotate_batch_entries(
            keys, prenormalized=True)
        self._ledger.observe_entries(hostnames, entries, shadow_entries)
        return entries

    # -- per-request API ---------------------------------------------------

    def annotate_one(self, hostname: object) -> Optional[int]:
        """Annotate one hostname; ``None`` on miss or malformed input."""
        return self.annotate_outcome(hostname)[0]

    def annotate_outcome(self, hostname: object, *,
                         prenormalized: bool = False,
                         ) -> Tuple[Optional[int], Optional[str]]:
        """Annotate one hostname, returning ``(asn, suffix)``.

        The suffix is the convention that supplied the extraction
        (``None`` on miss or malformed input).  This is what shadow
        mode compares across convention sets; metrics accounting is
        identical to :meth:`annotate_one`.

        ``prenormalized=True`` asserts the input is already a
        :func:`normalize_hostname` output (a lowercase key, or ``None``
        for malformed) and annotates against this service's own set
        only.  Shadow mode uses it for each side of a request it has
        normalized once; anything else must leave it off, because an
        unnormalized key would poison the memo.
        """
        candidate = self._candidate
        if candidate is not None and not prenormalized:
            return self._shadow_outcome(candidate, hostname)
        start = time.perf_counter()
        self._requests.inc()
        index, memo = self._state
        normalized = hostname if prenormalized \
            else normalize_hostname(hostname)
        if normalized is None:
            self._malformed.inc()
            self._misses.inc()
            self._latency.observe(time.perf_counter() - start)
            return _NO_MATCH
        entry = memo.get(normalized) if memo is not None else ABSENT
        if entry is ABSENT:
            plan = index.lookup_normalized(normalized)
            asn = plan.extract(normalized) if plan is not None else None
            suffix = plan.suffix if asn is not None else None
            entry = (asn, suffix)
            if memo is not None:
                memo.put(normalized, entry)
        else:
            asn, suffix = entry
        if asn is None:
            self._misses.inc()
        else:
            self._annotated.inc()
            self._extracted.inc(suffix)
        self._latency.observe(time.perf_counter() - start)
        return entry

    def annotate_batch(self,
                       hostnames: Iterable[object]) -> List[Optional[int]]:
        """Annotate many hostnames, preserving input order.

        A thin projection of :meth:`annotate_batch_entries` down to the
        ASN column -- the shape every existing consumer wants.
        """
        return [entry[0] for entry in self.annotate_batch_entries(hostnames)]

    def annotate_batch_entries(
            self, hostnames: Iterable[object], *,
            prenormalized: bool = False,
    ) -> List[Tuple[Optional[int], Optional[str]]]:
        """Annotate many hostnames into ``(asn, suffix)`` entries.

        This is the single-core throughput path: one tight loop over a
        consistent ``(index, memo)`` snapshot, metrics folded in as
        aggregates at the end.  It reaches into the memo's internals
        (one dict probe per hit, counters banked once per batch)
        because a bound-method call per hostname is measurable at
        millions of requests per second.  On a memo hit the stored
        entry tuple is appended as-is, so the hot path allocates
        nothing per hostname.  The latency histogram records the
        batch's amortised per-item time once per request, keeping
        ``count == requests``.

        ``prenormalized=True`` asserts every item is already a
        :func:`normalize_hostname` output (a lowercase key, or ``None``
        for malformed), so the loop skips re-normalizing, and annotates
        against this service's own set only.  Shadow mode uses it to
        pay normalization once for two convention sets; anything else
        must leave it off, because an unnormalized key would poison the
        memo.
        """
        candidate = self._candidate
        if candidate is not None and not prenormalized:
            return self._shadow_batch(candidate, hostnames)
        start = time.perf_counter()
        index, memo = self._state
        results: List[Tuple[Optional[int], Optional[str]]] = []
        append = results.append
        lookup = index.lookup_normalized
        annotated = misses = malformed = 0
        suffix_counts: dict = {}
        if memo is None:
            for hostname in hostnames:
                normalized = hostname if prenormalized \
                    else normalize_hostname(hostname)
                if normalized is None:
                    malformed += 1
                    misses += 1
                    append(_NO_MATCH)
                    continue
                plan = lookup(normalized)
                asn = plan.extract(normalized) if plan is not None else None
                if asn is None:
                    misses += 1
                    append(_NO_MATCH)
                else:
                    annotated += 1
                    suffix = plan.suffix
                    suffix_counts[suffix] = suffix_counts.get(suffix, 0) + 1
                    append((asn, suffix))
        else:
            data = memo.data
            probe = data.get
            touch = data.move_to_end
            put = memo.put
            hits = probes = 0
            for hostname in hostnames:
                normalized = hostname if prenormalized \
                    else normalize_hostname(hostname)
                if normalized is None:
                    malformed += 1
                    misses += 1
                    append(_NO_MATCH)
                    continue
                probes += 1
                entry = probe(normalized, ABSENT)
                if entry is ABSENT:
                    plan = lookup(normalized)
                    asn = plan.extract(normalized) \
                        if plan is not None else None
                    suffix = plan.suffix if asn is not None else None
                    entry = (asn, suffix)
                    put(normalized, entry)
                else:
                    hits += 1
                    try:
                        touch(normalized)
                    except KeyError:
                        pass  # concurrently evicted
                    asn, suffix = entry
                if asn is None:
                    misses += 1
                else:
                    annotated += 1
                    suffix_counts[suffix] = suffix_counts.get(suffix, 0) + 1
                append(entry)
            memo.hits += hits
            memo.misses += probes - hits
        count = len(results)
        self._requests.inc(count)
        self._annotated.inc(annotated)
        self._misses.inc(misses)
        if malformed:
            self._malformed.inc(malformed)
        extracted = self._extracted
        for suffix, n in suffix_counts.items():
            extracted.inc(suffix, n)
        if count:
            self._latency.observe_many(
                (time.perf_counter() - start) / count, count)
        return results

    def annotate_pairs(self, hostnames: Iterable[str],
                       ) -> Iterator[Tuple[str, Optional[int]]]:
        """Lazily yield ``(hostname, annotation)`` in input order."""
        for hostname in hostnames:
            yield hostname, self.annotate_one(hostname)

    # -- observability -----------------------------------------------------

    def _sync_memo_counters(self, memo: Optional[AnnotationMemo]) -> None:
        """Catch the registry's memo counters up to ``memo``'s tallies.

        The hot path banks hits/misses on the memo object itself (plain
        int adds) rather than going through ``Counter.inc`` per probe;
        this folds cumulative totals -- retired memos plus the live one
        -- into the registry before anyone reads a snapshot.  The memo
        is passed in (not re-read from ``self._state``) so callers that
        also read the state tuple describe one consistent state.
        """
        retired = self._memo_retired
        totals = dict(retired)
        if memo is not None:
            totals["hits"] += memo.hits
            totals["misses"] += memo.misses
            totals["evictions"] += memo.evictions
        for counter, key in ((self._memo_hits, "hits"),
                             (self._memo_misses, "misses"),
                             (self._memo_evictions, "evictions")):
            delta = totals[key] - counter.value
            if delta > 0:
                counter.inc(delta)

    def stats(self) -> dict:
        """JSON-ready metrics snapshot (see ``MetricsRegistry``).

        The ``(index, memo)`` tuple is read exactly once and threaded
        through: reading it again after ``snapshot()`` would let a
        concurrent reload pair one state's counters with another
        state's memo/fused-plan fields.
        """
        index, memo = self._state
        self._sync_memo_counters(memo)
        snapshot = self.metrics.snapshot()
        snapshot["suffixes_indexed"] = len(index)
        snapshot["fused_plans"] = index.fused_plans()
        snapshot["memo"] = memo.stats() if memo is not None else None
        ledger = self._ledger
        if ledger is not None:
            # The ledger counts already ride the instrument maps; the
            # extra carries what instruments cannot.  The registry merge
            # ignores it; ``merge_shadow_reports`` folds it across
            # workers.
            candidate = self._candidate
            snapshot["shadow"] = {
                "active": candidate is not None,
                "candidate_suffixes": (len(candidate.index)
                                       if candidate is not None else None),
                "examples": ledger.examples(),
            }
        return snapshot

    def __repr__(self) -> str:
        text = "AnnotationService(%d suffixes, %d requests" % (
            len(self._index), self._requests.value)
        if self._ledger is not None:
            candidate = self._candidate
            text += ", candidate=%s" % (len(candidate.index)
                                        if candidate is not None
                                        else "none")
        return text + ")"


def warmed_service(conventions_json: str,
                   memo_size: int = DEFAULT_MEMO_SIZE,
                   shadow: Optional[str] = None,
                   log: Optional[IO[str]] = None,
                   ) -> Tuple[AnnotationService, int]:
    """Build and warm a service, plus its ``shadow`` candidate file if
    given; returns the service and its live plan count.

    Everything loads here, before a pre-fork server forks, so every
    worker inherits the warmed candidate alongside the live index.
    ``log`` receives the ``# shadowing N candidate convention(s) from
    FILE`` line the serving commands print.
    """
    service = AnnotationService.from_json(conventions_json,
                                          memo_size=memo_size)
    warmed = service.warm()
    if shadow:
        loaded = service.load_candidate_file(shadow)
        if log is not None:
            print("# shadowing %d candidate convention(s) from %s"
                  % (loaded, shadow), file=log)
    return service, warmed
