"""Unit tests for the agreement/accuracy metrics."""

from repro.alias.midar import AliasResolution, InferredNode
from repro.asn.org import ASOrgMap
from repro.bdrmapit.metrics import (
    AccuracyMetrics,
    AgreementMetrics,
    accuracy_against_truth,
)


def _resolution():
    resolution = AliasResolution()
    for node_id, truth in (("a", 10), ("b", 20), ("c", None)):
        node = InferredNode(node_id=node_id, addresses=[])
        if truth is not None:
            node.true_asns.add(truth)
        resolution.nodes[node_id] = node
    return resolution


class TestAgreementMetrics:
    def test_empty(self):
        metrics = AgreementMetrics()
        assert metrics.total == 0
        assert metrics.rate == 0.0
        assert metrics.error_ratio is None

    def test_describe(self):
        metrics = AgreementMetrics(agree=9, disagree=1)
        text = metrics.describe()
        assert "90.0%" in text
        assert "1/10.0" in text

    def test_describe_no_errors(self):
        metrics = AgreementMetrics(agree=5, disagree=0)
        assert "1/inf" in metrics.describe()


class TestAccuracyAgainstTruth:
    def test_basic(self):
        metrics = accuracy_against_truth({"a": 10, "b": 99},
                                         _resolution())
        assert metrics.correct == 1
        assert metrics.wrong == 1
        assert metrics.rate == 0.5
        assert metrics.error_ratio == 2.0

    def test_unknown_truth_counted_separately(self):
        metrics = accuracy_against_truth({"c": 5}, _resolution())
        assert metrics.total == 0
        assert metrics.unknown == 1

    def test_node_filter(self):
        metrics = accuracy_against_truth({"a": 10, "b": 99},
                                         _resolution(), nodes=["a"])
        assert metrics.total == 1
        assert metrics.correct == 1

    def test_sibling_credit(self):
        orgs = ASOrgMap()
        orgs.assign(10, "o")
        orgs.assign(11, "o")
        metrics = accuracy_against_truth({"a": 11}, _resolution(), orgs)
        assert metrics.correct == 1

    def test_missing_nodes_skipped(self):
        metrics = accuracy_against_truth({"zz": 1}, _resolution())
        assert metrics.total == 0

    def test_error_ratio_none_when_perfect(self):
        metrics = AccuracyMetrics(correct=5, wrong=0)
        assert metrics.error_ratio is None
