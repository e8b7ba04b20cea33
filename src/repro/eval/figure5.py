"""Figure 5: classification of naming conventions across training sets.

The paper's figure plots, per training set, how many conventions Hoiho
classified good/promising/poor, finding 12-55 good NCs per ITDK with
clear growth over time, 55 good NCs for the February 2020 PeeringDB
snapshot, and 206 usable suffixes across all 19 sets.  This experiment
reproduces the series and the aggregates (including the ITDK/PeeringDB
suffix overlap analysis in section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from repro.eval.common import render_table
from repro.eval.context import ExperimentContext


@dataclass
class Figure5Row:
    """One training set's classification counts."""

    label: str
    kind: str
    method: str
    year: float
    good: int
    promising: int
    poor: int

    @property
    def usable(self) -> int:
        return self.good + self.promising


@dataclass
class Figure5Result:
    """Series plus the section-4 aggregates."""

    rows: List[Figure5Row] = field(default_factory=list)
    total_usable_suffixes: int = 0
    overlap_suffixes: int = 0          # latest ITDK ∩ latest PeeringDB
    overlap_identical: int = 0         # ... with byte-identical regexes
    itdk_only: int = 0
    pdb_only: int = 0


def run(context: ExperimentContext) -> Figure5Result:
    """Learn conventions for every training set and classify them."""
    result = Figure5Result()
    usable_suffixes: Set[str] = set()
    for training_set in context.timeline:
        learned = context.learned(training_set.label)
        counts = learned.class_counts()
        result.rows.append(Figure5Row(
            label=training_set.label, kind=training_set.kind,
            method=training_set.method, year=training_set.year,
            good=counts["good"], promising=counts["promising"],
            poor=counts["poor"]))
        usable_suffixes.update(c.suffix for c in learned.usable())
    result.total_usable_suffixes = len(usable_suffixes)

    itdk = context.learned(context.latest_itdk().label)
    pdb = context.learned(context.latest_pdb().label)
    itdk_usable = {c.suffix: c for c in itdk.usable()}
    pdb_usable = {c.suffix: c for c in pdb.usable()}
    common = set(itdk_usable) & set(pdb_usable)
    result.overlap_suffixes = len(common)
    result.overlap_identical = sum(
        1 for suffix in common
        if itdk_usable[suffix].patterns() == pdb_usable[suffix].patterns())
    result.itdk_only = len(set(itdk_usable) - set(pdb_usable))
    result.pdb_only = len(set(pdb_usable) - set(itdk_usable))
    return result


def render(result: Figure5Result) -> str:
    """The figure as a table plus the aggregate lines."""
    table = render_table(
        ["set", "kind", "method", "good", "promising", "poor", "usable"],
        [(row.label, row.kind, row.method, row.good, row.promising,
          row.poor, row.usable) for row in result.rows],
        title="Figure 5: NC classification per training set")
    lines = [
        table,
        "",
        "usable suffixes across all sets: %d" % result.total_usable_suffixes,
        "latest ITDK vs PeeringDB usable suffixes: %d common "
        "(%d with identical regexes), %d ITDK-only, %d PeeringDB-only"
        % (result.overlap_suffixes, result.overlap_identical,
           result.itdk_only, result.pdb_only),
    ]
    return "\n".join(lines)
