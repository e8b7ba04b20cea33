"""Persistent content-addressed artifact store.

Every expensive pipeline artifact -- a generated :class:`World`, a
timeline of training sets, a learned :class:`HoihoResult` -- is a pure
function of its configuration.  The store exploits that: artifacts are
keyed by a **fingerprint**, the SHA-256 of a canonical JSON rendering of
everything the artifact depends on (master seed, world/scale config,
snapshot spec, learner config) plus a schema version.  Any config
change, however small, changes the fingerprint, so stale artifacts are
never served -- they are simply never looked up again (invalidation by
construction).

Layout on disk::

    <root>/
      worlds/<fingerprint>.pkl        pickled artifact
      worlds/<fingerprint>.json       the fingerprint payload, for humans
      timelines/...
      hoiho/...                       whole-result learned conventions
      suffixes/...                    per-suffix learned conventions
                                      (content-addressed by training set
                                      + learner config; the incremental
                                      relearning substrate)

``repro-hoiho cache info`` and ``repro-hoiho cache clear`` operate on a
store; :class:`~repro.eval.context.ExperimentContext` consults one when
constructed with ``store=``.  Bump :data:`STORE_SCHEMA_VERSION` whenever
the pickled representation of an artifact changes shape.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pickle
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

logger = logging.getLogger(__name__)

#: Version of the pickled artifact layouts and the fingerprint keying
#: scheme; part of every fingerprint.  v2: dict keys are type-tagged
#: tokens and the payload nests beside the schema version.  v3: the
#: route table's prefix trie (pickled inside worlds and timelines) is
#: one dict per prefix length.  v4: ``RouterGraph`` has no
#: ``ixp_subsequent`` field, and timelines carry router graphs only for
#: bdrmapIT snapshots.
STORE_SCHEMA_VERSION = 4

#: Artifact kinds the store recognises (a kind is just a subdirectory).
KIND_WORLD = "worlds"
KIND_TIMELINE = "timelines"
KIND_HOIHO = "hoiho"
KIND_SUFFIX = "suffixes"

#: Every registered namespace, in display order.  Maintenance methods
#: (:meth:`ArtifactStore.entries`, :meth:`ArtifactStore.info`,
#: :meth:`ArtifactStore.clear`, :meth:`ArtifactStore.stale_tmp`) derive
#: their walk from this tuple -- a namespace that is not registered
#: here cannot be written at all (:meth:`ArtifactStore.path_for`
#: rejects it), so a new artifact kind can never silently be omitted
#: from info/clear/stale-tmp reaping.
KINDS = (KIND_WORLD, KIND_TIMELINE, KIND_HOIHO, KIND_SUFFIX)


def _key_token(key: object) -> str:
    """A JSON dict key that is both *sortable* and *type-faithful*.

    Plain ``str(key)`` would alias ``{1: x}`` with ``{"1": x}`` (two
    distinct configs sharing a cache entry), and ``sorted(items())`` on
    mixed-type keys raises ``TypeError``.  Prefixing every key with a
    type tag fixes both: tokens are plain strings (always sortable) and
    keys of different types can never collide.
    """
    if isinstance(key, str):
        return "s:" + key
    if isinstance(key, bool):  # before int: bool is an int subclass
        return "b:%r" % key
    if isinstance(key, int):
        return "i:%d" % key
    if isinstance(key, float):
        return "f:%r" % key
    if key is None:
        return "n:"
    return "r:" + repr(key)


def _canonical(value: object) -> object:
    """Make ``value`` JSON-stable: dataclasses become sorted dicts,
    tuples become lists, sets become sorted lists, and dict keys become
    type-tagged tokens sorted by their stringified form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {token: _canonical(item)
                for token, item in sorted(
                    (_key_token(k), v) for k, v in value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def fingerprint(payload: Mapping) -> str:
    """SHA-256 of the canonical JSON of ``payload`` + schema version.

    The payload nests under its own key so none of its entries can
    collide with the envelope -- a payload key named ``"schema"`` must
    not overwrite the store schema version, or version bumps would stop
    invalidating exactly the entries that carry that key.
    """
    keyed = {"schema": STORE_SCHEMA_VERSION,
             "payload": _canonical(payload)}
    text = json.dumps(keyed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class StoreStats:
    """Hit/miss counters for one store instance's lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class ArtifactStore:
    """A content-addressed pickle store rooted at a directory.

    The store is safe to share across runs and configurations: a lookup
    with a payload that does not exactly reproduce a prior ``put``'s
    payload misses.  Corrupt or unreadable entries read as misses (and
    the offending files are ignored, not deleted).
    """

    def __init__(self, root: Union[str, Path], tracer=None,
                 metrics=None) -> None:
        from repro.obs.trace import NULL_TRACER
        self.root = Path(root)
        self.stats = StoreStats()
        # Attachable after construction too (ExperimentContext wires
        # its tracer into a store the CLI built earlier).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics

    # -- keying ------------------------------------------------------------

    @staticmethod
    def fingerprint(payload: Mapping) -> str:
        """Expose :func:`fingerprint` on the class for convenience."""
        return fingerprint(payload)

    def path_for(self, kind: str, payload: Mapping) -> Path:
        """Where the artifact for ``payload`` lives (existing or not).

        ``kind`` must be a registered namespace (:data:`KINDS`) --
        writing into an unregistered subdirectory would create entries
        invisible to :meth:`info`/:meth:`clear`.
        """
        _check_kind(kind)
        return self.root / kind / (fingerprint(payload) + ".pkl")

    # -- access ------------------------------------------------------------

    def contains(self, kind: str, payload: Mapping) -> bool:
        """True when an artifact for ``payload`` is on disk."""
        return self.path_for(kind, payload).is_file()

    def get(self, kind: str, payload: Mapping) -> Optional[object]:
        """The stored artifact, or ``None`` on miss/corruption."""
        path = self.path_for(kind, payload)
        with self.tracer.span("store.get", kind=kind,
                              fingerprint=path.stem) as span:
            artifact = self._read(path)
            hit = artifact is not None
            span.set(hit=hit)
            if hit:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
            if self.metrics is not None:
                name = "store_hits" if hit else "store_misses"
                self.metrics.counter(name).inc()
        return artifact

    def _read(self, path: Path) -> Optional[object]:
        if not path.is_file():
            return None
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except Exception as exc:  # corrupt entry reads as a miss
            logger.warning("store: unreadable entry %s (%s)", path, exc)
            return None

    def put(self, kind: str, payload: Mapping, artifact: object) -> Path:
        """Persist ``artifact`` under ``payload``'s fingerprint.

        Both the pickle and its ``.json`` sidecar go through a
        temporary file + atomic rename, so a crashed run never leaves a
        half-written pickle *or* a truncated sidecar next to a valid
        one.  Orphaned temporaries from crashes are reaped by
        :meth:`clear` and reported by :meth:`info`.
        """
        path = self.path_for(kind, payload)
        with self.tracer.span("store.put", kind=kind,
                              fingerprint=path.stem):
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".pkl.tmp.%d" % os.getpid())
            try:
                with open(tmp, "wb") as handle:
                    pickle.dump(artifact, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            finally:
                if tmp.exists():
                    tmp.unlink()
            meta = path.with_suffix(".json")
            meta_tmp = path.with_suffix(".json.tmp.%d" % os.getpid())
            try:
                with open(meta_tmp, "w", encoding="utf-8") as handle:
                    json.dump({"schema": STORE_SCHEMA_VERSION,
                               "payload": _canonical(payload)},
                              handle, indent=2, sort_keys=True)
                    handle.write("\n")
                os.replace(meta_tmp, meta)
            finally:
                if meta_tmp.exists():
                    meta_tmp.unlink()
            self.stats.writes += 1
            if self.metrics is not None:
                self.metrics.counter("store_writes").inc()
        return path

    # -- maintenance -------------------------------------------------------

    def entries(self, kind: Optional[str] = None) -> List[Path]:
        """Every pickled artifact currently on disk.

        The walk is derived from the registered namespaces
        (:data:`KINDS`), never a glob over arbitrary subdirectories, so
        adding a namespace without registering it is a loud failure
        (in :meth:`path_for`) rather than a silent maintenance gap.
        ``kind`` restricts the listing to one namespace.
        """
        selected = _selected_kinds(kind)  # validate before the root check
        if not self.root.is_dir():
            return []
        found: List[Path] = []
        for name in selected:
            found.extend((self.root / name).glob("*.pkl"))
        return sorted(found)

    def stale_tmp(self, kind: Optional[str] = None) -> List[Path]:
        """Orphaned temporaries left behind by crashed writers."""
        selected = _selected_kinds(kind)
        if not self.root.is_dir():
            return []
        found: List[Path] = []
        for name in selected:
            found.extend((self.root / name).glob("*.tmp.*"))
        return sorted(found)

    def info(self) -> Dict[str, object]:
        """Summary for ``repro-hoiho cache info``.

        Every registered namespace is reported, including empty ones
        (zero entries, zero bytes) -- consumers see the full namespace
        inventory, not just the populated corners.
        """
        kinds: Dict[str, Dict[str, int]] = {
            name: {"entries": 0, "bytes": 0} for name in KINDS}
        total_bytes = 0
        for path in self.entries():
            size = path.stat().st_size
            entry = kinds[path.parent.name]
            entry["entries"] += 1
            entry["bytes"] += size
            total_bytes += size
        return {
            "root": str(self.root),
            "schema": STORE_SCHEMA_VERSION,
            "kinds": kinds,
            "entries": sum(k["entries"] for k in kinds.values()),
            "bytes": total_bytes,
            "stale_tmp": len(self.stale_tmp()),
            "session": self.stats.as_dict(),
        }

    def clear(self, kind: Optional[str] = None) -> int:
        """Delete artifacts (plus sidecars and any stale temporaries
        left by crashed writers); returns entries removed.

        ``kind`` restricts the sweep to one namespace -- e.g. flushing
        ``suffixes`` without nuking warm world/timeline artifacts.
        Stale temporaries do not count as entries.
        """
        removed = 0
        for path in self.entries(kind):
            sidecar = path.with_suffix(".json")
            path.unlink()
            if sidecar.is_file():
                sidecar.unlink()
            removed += 1
        for tmp in self.stale_tmp(kind):
            tmp.unlink()
        return removed


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError("unknown artifact namespace %r (registered: %s)"
                         % (kind, ", ".join(KINDS)))


def _selected_kinds(kind: Optional[str]) -> Tuple[str, ...]:
    """The namespaces a maintenance walk covers (all, or one)."""
    if kind is None:
        return KINDS
    _check_kind(kind)
    return (kind,)
