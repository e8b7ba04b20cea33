"""Benchmark + section-6 sensitivity study.

Prints the staleness sweep and asserts the limitation the paper states:
hostname errors degrade what the regexes deliver -- convention PPV
falls monotonically with staleness -- while the topological
reasonableness test keeps wrongly-used extractions a small minority of
decisions at every level.
"""

from benchmarks.conftest import run_once
from repro.eval import sensitivity


def test_sensitivity(benchmark, context):
    result = run_once(benchmark, sensitivity.run, context)
    print()
    print(sensitivity.render(result))

    rows = result.rows
    assert len(rows) == 3

    # Training-side damage: usable-NC PPV degrades as staleness rises.
    assert rows[0].usable_ppv > rows[-1].usable_ppv

    # The feedback loop still helps at every staleness level...
    for row in rows:
        assert row.agreement_after >= row.agreement_before

    # ...and the topology test keeps wrong usage bounded.
    for row in rows:
        if row.decisions >= 10:
            assert row.decision_rate > 0.6
            assert row.wrongly_used <= row.decisions * 0.35
