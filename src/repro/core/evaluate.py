"""Scoring regexes and regex sets against a suffix dataset.

A *naming convention* (NC) is an ordered list of regexes; the first regex
that matches a hostname supplies the extraction.  Scores follow section
3.1: ATP = TP - (FP + FN); PPV = TP / (TP + FP); plus the count of
distinct congruent extracted ASNs that gates usability (section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Tuple

from repro.core.congruence import Outcome, classify_extraction
from repro.core.regex_model import Regex
from repro.core.types import SuffixDataset

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.matchcache import MatchCache


@dataclass
class NCScore:
    """Aggregate score of a regex or regex set over one dataset."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    matches: int = 0
    distinct_asns: Set[int] = field(default_factory=set)
    # item index -> (outcome, extracted text or None)
    outcomes: List[Tuple[Outcome, Optional[str]]] = field(
        default_factory=list)

    @property
    def atp(self) -> int:
        """Absolute true positives: TP - (FP + FN)."""
        return self.tp - (self.fp + self.fn)

    @property
    def ppv(self) -> float:
        """Positive predictive value; 0 when nothing was extracted."""
        total = self.tp + self.fp
        return self.tp / total if total else 0.0

    @property
    def distinct(self) -> int:
        """Number of distinct congruent extracted ASNs."""
        return len(self.distinct_asns)

    def rank_key(self) -> Tuple:
        """Sort key: better scores first (use with ``sorted(...)``)."""
        return (-self.atp, -self.tp, self.fp, self.fn)

    def __repr__(self) -> str:
        return ("NCScore(tp=%d fp=%d fn=%d atp=%d matches=%d "
                "distinct=%d ppv=%.3f)"
                % (self.tp, self.fp, self.fn, self.atp, self.matches,
                   self.distinct, self.ppv))


def evaluate_nc(regexes: Sequence[Regex], dataset: SuffixDataset,
                keep_outcomes: bool = False,
                cache: "Optional[MatchCache]" = None) -> NCScore:
    """Score an ordered regex set over ``dataset``.

    The first matching regex supplies the extraction for a hostname;
    hostnames matching no regex are FNs when they contain an apparent
    ASN.  With ``keep_outcomes`` the per-item classifications are
    retained (used by phase analysis and reporting).  With ``cache`` (a
    :class:`~repro.core.matchcache.MatchCache` bound to ``dataset``) the
    score is composed from per-regex match vectors, so already-scored
    regexes are never re-matched.
    """
    if cache is not None:
        return cache.score_nc(regexes, keep_outcomes=keep_outcomes)
    score = NCScore()
    for index, item in enumerate(dataset.items):
        extracted: Optional[str] = None
        span: Optional[Tuple[int, int]] = None
        for regex in regexes:
            hit = regex.extract(item.hostname)
            if hit is not None:
                extracted, span = hit
                break
        outcome = classify_extraction(extracted, span, item.hostname,
                                      item.train_asn,
                                      dataset.ip_spans(index))
        if extracted is not None:
            score.matches += 1
        if outcome is Outcome.TP:
            score.tp += 1
            score.distinct_asns.add(int(extracted))  # type: ignore[arg-type]
        elif outcome is Outcome.FP:
            score.fp += 1
        elif outcome is Outcome.FN:
            score.fn += 1
        if keep_outcomes:
            score.outcomes.append((outcome, extracted))
    return score


def evaluate_regex(regex: Regex, dataset: SuffixDataset,
                   keep_outcomes: bool = False,
                   cache: "Optional[MatchCache]" = None) -> NCScore:
    """Score a single regex (an NC of one)."""
    if cache is not None:
        return cache.score_regex(regex, keep_outcomes=keep_outcomes)
    return evaluate_nc((regex,), dataset, keep_outcomes=keep_outcomes)


def matched_indices(regex: Regex, dataset: SuffixDataset,
                    cache: "Optional[MatchCache]" = None) -> List[int]:
    """Indices of items the regex matches (used by phase 3)."""
    if cache is not None:
        return cache.matched_indices(regex)
    out: List[int] = []
    for index, item in enumerate(dataset.items):
        if regex.compiled.match(item.hostname) is not None:
            out.append(index)
    return out
