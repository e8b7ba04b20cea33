"""DRoP-style learning of geolocation hints in hostnames (section 2.2).

Huffaker et al.'s DRoP [13] infers, per suffix, which hostname position
carries a location code, validating candidate hints against delay
constraints: a router cannot answer a vantage point faster than light
travels between the claimed location and the VP.  This module implements
that capability over the synthetic substrate -- the loc codes our
operators embed map to real metro coordinates
(:mod:`repro.topology.geo`), and traceroute RTTs bound feasibility.

Together with the router-name and AS-name/ASN modes, this rounds out
the family of hostname-learning systems the paper situates itself in.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.regex_model import Regex, escape_literal
from repro.psl import PublicSuffixList, default_psl
from repro.topology import geo
from repro.traceroute.probe import Trace
from repro.util.strings import split_segments


@dataclass(frozen=True)
class GeoItem:
    """One hostname with its RTT evidence.

    ``rtt_samples`` holds (vp_location, rtt_ms) pairs -- the minimum
    observed RTT from each vantage point location.
    """

    hostname: str
    rtt_samples: Tuple[Tuple[str, float], ...] = ()


@dataclass
class GeoScore:
    """Feasibility-based score for a geo-capture regex."""

    consistent: int = 0      # matched hostnames passing all constraints
    violated: int = 0        # matched hostnames failing a constraint
    unknown: int = 0         # captured token is not a known code

    @property
    def atp(self) -> int:
        return self.consistent - self.violated

    @property
    def consistency(self) -> float:
        total = self.consistent + self.violated
        return self.consistent / total if total else 0.0


@dataclass
class GeoConvention:
    """A learned geolocation convention for one suffix."""

    suffix: str
    regex: Regex
    score: GeoScore
    codes: Set[str] = field(default_factory=set)

    def locate(self, hostname: str) -> Optional[str]:
        """The location code embedded in ``hostname``, if any."""
        hit = self.regex.extract(hostname.lower())
        if hit is None:
            return None
        token = hit[0]
        return token if token in geo.COORDS else None


@dataclass
class GeoLearnerConfig:
    """Gates, mirroring DRoP's requirements."""

    min_hostnames: int = 4
    min_codes: int = 3          # distinct known location codes
    min_consistency: float = 0.8
    slack_ms: float = 2.0
    max_candidates: int = 300
    generation_sample: int = 50


def rtt_table_from_traces(traces: Iterable[Trace],
                          ) -> Dict[int, Dict[str, float]]:
    """Per-address minimum RTT per vantage-point location."""
    table: Dict[int, Dict[str, float]] = defaultdict(dict)
    for trace in traces:
        if not trace.vp_loc:
            continue
        for address, rtt in trace.hop_rtts():
            best = table[address].get(trace.vp_loc)
            if best is None or rtt < best:
                table[address][trace.vp_loc] = rtt
    return table


def geo_items_from_traces(hostnames: Dict[int, str],
                          traces: Iterable[Trace]) -> List[GeoItem]:
    """Assemble geo items for every named address with RTT evidence."""
    rtts = rtt_table_from_traces(traces)
    items: List[GeoItem] = []
    for address in sorted(hostnames):
        samples = rtts.get(address)
        if not samples:
            continue
        items.append(GeoItem(
            hostname=hostnames[address].lower(),
            rtt_samples=tuple(sorted(samples.items()))))
    return items


def _candidate_patterns(suffix: str, hostname: str) -> List[str]:
    """Patterns capturing each alphabetic segment of the local part."""
    tail = "." + suffix
    if not hostname.endswith(tail) or hostname == suffix:
        return []
    local = hostname[:-len(tail)]
    tokens = split_segments(local)
    patterns: List[str] = []
    for seg_index in range(0, len(tokens), 2):
        segment = tokens[seg_index]
        # Location codes are short alphabetic tokens, possibly with a
        # trailing unit digit (fra2); capture the alpha part.
        alpha = segment.rstrip("0123456789")
        if not (2 <= len(alpha) <= 4) or not alpha.isalpha():
            continue
        parts: List[str] = ["^"]
        for tok_index, token in enumerate(tokens):
            if tok_index == seg_index:
                parts.append("([a-z]+)")
                if token != alpha:
                    parts.append("\\d+")
            elif tok_index % 2 == 1:
                parts.append(escape_literal(token))
            else:
                delimiter = tokens[tok_index + 1] \
                    if tok_index + 1 < len(tokens) else "."
                if token:
                    parts.append("[^%s]+" % escape_literal(delimiter))
        parts.append(escape_literal(tail))
        parts.append("$")
        patterns.append("".join(parts))
    return patterns


def evaluate_geo_regex(regex: Regex, items: Sequence[GeoItem],
                       slack_ms: float = 2.0) -> Tuple[GeoScore, Set[str]]:
    """Validate a geo-capture regex against the RTT evidence."""
    score = GeoScore()
    codes: Set[str] = set()
    for item in items:
        hit = regex.extract(item.hostname)
        if hit is None:
            continue
        token = hit[0]
        if token not in geo.COORDS:
            score.unknown += 1
            continue
        ok = all(geo.feasible(vp_loc, token, rtt, slack_ms)
                 for vp_loc, rtt in item.rtt_samples)
        if ok:
            score.consistent += 1
            codes.add(token)
        else:
            score.violated += 1
    return score, codes


def learn_geo_suffix(suffix: str, items: Sequence[GeoItem],
                     config: Optional[GeoLearnerConfig] = None,
                     ) -> Optional[GeoConvention]:
    """Learn a geolocation convention for one suffix, or None."""
    config = config or GeoLearnerConfig()
    if len(items) < config.min_hostnames:
        return None
    seen: Set[str] = set()
    candidates: List[Regex] = []
    visited = 0
    for item in items:
        if visited >= config.generation_sample:
            break
        patterns = _candidate_patterns(suffix, item.hostname)
        if patterns:
            visited += 1
        for pattern in patterns:
            if pattern not in seen:
                seen.add(pattern)
                candidates.append(Regex.raw(pattern))
                if len(candidates) >= config.max_candidates:
                    break
        if len(candidates) >= config.max_candidates:
            break

    best: Optional[Tuple[GeoScore, Regex, Set[str]]] = None
    for regex in candidates:
        score, codes = evaluate_geo_regex(regex, items, config.slack_ms)
        if len(codes) < config.min_codes:
            continue
        if score.consistency < config.min_consistency:
            continue
        key = (score.atp, len(codes))
        if best is None or key > (best[0].atp, len(best[2])):
            best = (score, regex, codes)
    if best is None:
        return None
    score, regex, codes = best
    return GeoConvention(suffix=suffix, regex=regex, score=score,
                         codes=codes)


def learn_geo_conventions(hostnames: Dict[int, str],
                          traces: Iterable[Trace],
                          config: Optional[GeoLearnerConfig] = None,
                          psl: Optional[PublicSuffixList] = None,
                          ) -> Dict[str, GeoConvention]:
    """Learn geolocation conventions from an ITDK-style snapshot."""
    psl = psl or default_psl()
    items = geo_items_from_traces(hostnames, traces)
    by_suffix: Dict[str, List[GeoItem]] = defaultdict(list)
    for item in items:
        suffix = psl.registered_domain(item.hostname)
        if suffix is not None:
            by_suffix[suffix].append(item)
    conventions: Dict[str, GeoConvention] = {}
    for suffix in sorted(by_suffix):
        convention = learn_geo_suffix(suffix, by_suffix[suffix], config)
        if convention is not None:
            conventions[suffix] = convention
    return conventions
