"""Tests for the traced learning variant."""

import pytest

from repro.core.hoiho import learn_suffix, learn_suffix_traced
from repro.core.types import SuffixDataset, TrainingItem
from repro.paperdata import FIGURE4_ITEMS


@pytest.fixture(scope="module")
def figure4():
    return SuffixDataset("equinix.com", FIGURE4_ITEMS)


class TestLearnTrace:
    def test_trace_matches_untraced_result(self, figure4):
        convention, trace = learn_suffix_traced(figure4)
        plain = learn_suffix(figure4)
        assert convention is not None and plain is not None
        assert convention.patterns() == plain.patterns()
        assert convention.score.atp == plain.score.atp

    def test_phases_recorded(self, figure4):
        _, trace = learn_suffix_traced(figure4)
        assert trace is not None
        assert trace.phase1_generated > 0
        assert trace.phase1_scored
        assert trace.phase2_added        # the (?:p|s)? merge
        assert trace.phase3_added        # the [a-z\d]+ embedding
        assert trace.conventions
        assert trace.rejected_reason is None

    def test_best_phase1_ranked(self, figure4):
        _, trace = learn_suffix_traced(figure4)
        best = trace.best_phase1(3)
        atps = [score.atp for _, score in best]
        assert atps == sorted(atps, reverse=True)
        # The paper's regex #4 tops the base ranking at ATP -4.
        assert best[0][1].atp == -4

    def test_rejection_reason_recorded(self):
        dataset = SuffixDataset("x.com", [TrainingItem("a.x.com", 1)])
        convention, trace = learn_suffix_traced(dataset)
        assert convention is None
        assert trace is not None
        assert trace.rejected_reason == "too few hostnames"

    def test_no_trace_mode(self, figure4):
        convention, trace = learn_suffix_traced(figure4, trace=False)
        assert convention is not None
        assert trace is None

    def test_gate_rejection_reason(self):
        # Enough hostnames but only one distinct ASN.
        items = [TrainingItem("as9.p%d.x.com" % i, 9) for i in range(6)]
        _, trace = learn_suffix_traced(SuffixDataset("x.com", items))
        assert trace.rejected_reason == "single training ASN"
