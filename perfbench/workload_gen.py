"""Seeded inputs for the serving workloads.

The conventions are learned from the latest ITDK training set of the
seed's small world.  Hostname streams are built from that snapshot's
named hostnames: each hostname becomes a *shape* -- its digit runs
outside the registered domain turned into slots -- and a stream fills
the slots with seeded numbers.  The registered domain is computed once
per template hostname, never per draw.

Every stream a program sees is generated here from the seed alone, so
the same seed gives byte-identical inputs; ``workload_fingerprint``
records that.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Stream sizes.  The unique stream is far above the 65,536-entry
#: annotation memo, so nearly every lookup misses it; the Zipf universe
#: fits in it, so the served stream mostly hits.
UNIQUE_HOSTNAMES = 600_000
#: The served traffic follows the repository's own HTTP benchmark
#: (``repro.bench.run_http_bench`` over ``zipf_hostnames``): a
#: 3,000-name universe drawn with Zipf exponent 1.1, and 40 batches of
#: 500 hostnames for every 600 single requests -- one request in 16 is
#: a batch.
ZIPF_UNIVERSE = 3000
ZIPF_EXPONENT = 1.1
BATCH_PROBABILITY = 40 / 640
BATCH_SIZE = 500

#: Prime modulus of the per-shape counter permutation that keeps the
#: unique stream free of repeats.
_PERMUTATION_MODULUS = 1_000_003
_DIGITS = re.compile(r"(\d+)")


@dataclass(frozen=True)
class Shape:
    """A hostname with its digit runs outside the registered domain
    turned into slots.  ``pieces`` interleave with the slots
    (``len(pieces) == len(widths) + 1``); ``key`` is the slot whose
    value makes each draw of the shape distinct."""

    pieces: Tuple[str, ...]
    widths: Tuple[int, ...]
    domain: str
    key: int

    def fill(self, values: Sequence[str]) -> str:
        parts = [self.pieces[0]]
        for value, piece in zip(values, self.pieces[1:]):
            parts.append(value)
            parts.append(piece)
        parts.append(self.domain)
        return "".join(parts)


def shapes_from(hostnames: Iterable[str], registered_domain) -> List[Shape]:
    """Distinct shapes of ``hostnames``, sorted for determinism.

    ``registered_domain`` is called once per hostname.  Hostnames
    without a registered domain, or without a digit run outside it,
    cannot be renumbered and are skipped.  Two shapes never fill to the
    same hostname: re-slotting a filled hostname's maximal digit runs
    gives its shape back.
    """
    shapes = set()
    for hostname in hostnames:
        hostname = hostname.lower()
        domain = registered_domain(hostname)
        if not domain or not hostname.endswith("." + domain):
            continue
        parts = _DIGITS.split(hostname[:-len(domain)])
        pieces, digits = tuple(parts[0::2]), parts[1::2]
        if not digits:
            continue
        widths = tuple(len(run) for run in digits)
        shapes.add(Shape(pieces=pieces, widths=widths, domain=domain,
                         key=widths.index(max(widths))))
    return sorted(shapes, key=lambda s: (s.domain, s.pieces, s.widths))


def unique_hostnames(shapes: Sequence[Shape], seed: int,
                     count: int) -> Iterator[str]:
    """``count`` distinct hostnames, drawn uniformly over ``shapes``.

    A shape's key slot takes the next value of a seeded affine
    permutation of its draw counter, so a shape never repeats a value;
    the other slots take seeded numbers of their template width.
    """
    if not shapes:
        raise ValueError("no renumberable hostnames to build a stream from")
    rng = random.Random("unique-%d" % seed)
    modulus = _PERMUTATION_MODULUS
    affine = [(rng.randrange(1, modulus), rng.randrange(modulus))
              for _ in shapes]
    drawn = [0] * len(shapes)
    pick = rng.randrange
    total = len(shapes)
    for _ in range(count):
        index = pick(total)
        shape = shapes[index]
        k = drawn[index]
        if k >= modulus:
            raise ValueError("stream too long for the shape count")
        drawn[index] = k + 1
        scale, offset = affine[index]
        values = ["%0*d" % (width, pick(10 ** width))
                  for width in shape.widths]
        values[shape.key] = str((scale * k + offset) % modulus)
        yield shape.fill(values)


@dataclass
class Request:
    """One served request: ``hostnames`` has one entry for a single
    ``POST /annotate`` and ``BATCH_SIZE`` for a batch."""

    batch: bool
    hostnames: List[str]


def zipf_requests(shapes: Sequence[Shape], seed: int,
                  count: int) -> Tuple[List[str], List[Request]]:
    """A fixed Zipf universe and ``count`` requests drawn from it.

    Singles and batches interleave at random (``BATCH_PROBABILITY``);
    every hostname is a Zipf(``ZIPF_EXPONENT``) draw over the universe.
    """
    universe = list(unique_hostnames(shapes, seed + 7919, ZIPF_UNIVERSE))
    rng = random.Random("zipf-%d" % seed)
    rng.shuffle(universe)
    cumulative = []
    running = 0.0
    for rank in range(len(universe)):
        running += 1.0 / (rank + 1) ** ZIPF_EXPONENT
        cumulative.append(running)

    def draw() -> str:
        position = bisect.bisect_left(cumulative, rng.random() * running)
        return universe[min(position, len(universe) - 1)]

    requests = []
    for _ in range(count):
        if rng.random() < BATCH_PROBABILITY:
            requests.append(Request(True, [draw()
                                           for _ in range(BATCH_SIZE)]))
        else:
            requests.append(Request(False, [draw()]))
    return universe, requests


def request_hostnames(requests: Iterable[Request]) -> Iterator[str]:
    for request in requests:
        yield from request.hostnames


def conventions_digest(results: Dict[str, object]) -> str:
    """SHA-256 over every label's conventions JSON, in label order."""
    from repro.core.io import conventions_to_json
    digest = hashlib.sha256()
    for label in sorted(results):
        digest.update(label.encode("utf-8"))
        digest.update(b"\0")
        digest.update(conventions_to_json(results[label]).encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def reference_index(conventions_json: str):
    """The sequential reference every served answer is checked against."""
    from repro.core.io import conventions_from_json
    from repro.serve.index import DispatchIndex
    return DispatchIndex.from_result(conventions_from_json(conventions_json),
                                     fuse=False)


def expected_line(index, hostname: str) -> str:
    asn: Optional[int] = index.annotate(hostname)
    return "%s\t%s" % (hostname, "-" if asn is None else asn)
