"""Benchmark + reproduction of Table 2 (validation of decisions).

Prints the 2x2 decision matrix per ground-truth source and asserts the
paper's shape: the modified bdrmapIT decides correctly for around nine
in ten incongruent hostnames (92.5% in the paper), using most correct
hostnames while rejecting most incorrect ones.
"""

from benchmarks.conftest import run_once
from repro.eval import table2


def test_table2(benchmark, context):
    result = run_once(benchmark, table2.run, context)
    print()
    print(table2.render(result))

    totals = result.totals()
    assert totals.total >= 10, "too few validated decisions to assess"

    correct_rate = totals.correct_decisions / totals.total
    # Paper: 92.5%.  Small validation samples (a few dozen decisions)
    # carry binomial noise, so the floor scales with sample size.
    assert correct_rate > (0.80 if totals.total >= 30 else 0.65)

    correct_hostnames = totals.tp + totals.fn
    if correct_hostnames >= 10:
        used_correct = totals.tp / correct_hostnames
        assert used_correct > 0.75     # paper: 92.7%
    incorrect_hostnames = totals.fp + totals.tn
    if incorrect_hostnames >= 10:
        used_incorrect = totals.fp / incorrect_hostnames
        assert used_incorrect < 0.5    # paper: 8.4%
