"""Benchmark + reproduction of Figure 5 (NC classification over time).

Prints the per-training-set good/promising/poor series and asserts the
paper's shape: usable conventions grow over the study period, and the
late (bdrmapIT-era) snapshots find substantially more good conventions
than the early RouterToAsAssignment era.
"""

from benchmarks.conftest import run_once
from repro.eval import figure5


def test_figure5(benchmark, context):
    result = run_once(benchmark, figure5.run, context)
    print()
    print(figure5.render(result))

    itdk_rows = [row for row in result.rows if row.kind == "itdk"]
    assert len(itdk_rows) == 17
    pdb_rows = [row for row in result.rows if row.kind == "peeringdb"]
    assert len(pdb_rows) == 2

    # Shape: the usable count grows over time (paper: 12 -> 55 good).
    early = [row.usable for row in itdk_rows[:4]]
    late = [row.usable for row in itdk_rows[-4:]]
    assert sum(late) / len(late) > 1.5 * max(sum(early) / len(early), 1)

    # PeeringDB contributes its own usable conventions (paper: 55 good
    # for the Feb-2020 snapshot) and overlaps partially with the ITDK.
    assert all(row.usable > 0 for row in pdb_rows)
    assert result.total_usable_suffixes >= max(r.usable for r in result.rows)
    assert result.overlap_suffixes >= 1
    assert result.overlap_identical <= result.overlap_suffixes
