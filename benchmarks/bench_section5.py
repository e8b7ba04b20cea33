"""Benchmark + reproduction of the section-5 headline numbers.

Prints agreement/error-rate/usage statistics and asserts the paper's
shape: feeding extracted ASNs back into bdrmapIT raises the agreement
between inferred and extracted ASNs (87.4% -> 97.1% in the paper),
reduces the error rate several-fold (1/7.9 -> 1/34.5), improves
ground-truth accuracy, and extractions from good conventions are used
at a higher rate than from poorer classes.
"""

from benchmarks.conftest import run_once
from repro.eval import section5


def test_section5(benchmark, context):
    result = run_once(benchmark, section5.run, context)
    print()
    print(section5.render(result))

    before = result.agreement_before
    after = result.agreement_after
    assert before.total > 20

    # Initial agreement sits in the high-80s band; the feedback loop
    # pushes it well past it (paper: 87.4% -> 97.1%).
    assert 0.70 < before.rate < 0.97
    assert after.rate > before.rate
    assert after.rate > 0.93

    # Error rate improves by at least ~3x (paper: 7.9 -> 34.5).
    if before.error_ratio is not None and after.error_ratio is not None:
        assert after.error_ratio > 2.5 * before.error_ratio

    # Ground-truth accuracy on the labelled routers improves too: the
    # hostnames were right more often than the heuristic.
    assert result.accuracy_after.rate >= result.accuracy_before.rate

    # Usage ordering by convention class (paper: 82.5/44.0/18.2%).
    # Poor conventions contribute very few incongruent extractions in
    # small worlds, so only assert the ordering with a real sample.
    used = result.used_by_class
    if "good" in used and "poor" in used and used["poor"][1] >= 8:
        good_rate = used["good"][0] / used["good"][1]
        poor_rate = used["poor"][0] / used["poor"][1]
        assert good_rate >= poor_rate
