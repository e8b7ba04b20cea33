"""Benchmark + reproduction of Figure 6 (PPV of usable conventions).

Prints the PPV series and asserts the paper's ordering: training data
from bdrmapIT-era snapshots agrees with extracted ASNs more than the
RouterToAsAssignment era (83.7-87.4% vs 74.8-80.7% in the paper), the
operator-curated PeeringDB training is best (96.0%), and crediting
sibling ASNs adds roughly one to two points.
"""

from benchmarks.conftest import run_once
from repro.eval import figure6


def _mean(rows):
    """Mean PPV over rows that extracted anything at all.

    Sparse early snapshots can yield no usable conventions (an empty
    row); those carry no PPV information and are excluded, as an empty
    point would be in the paper's figure.
    """
    values = [row.ppv for row in rows if row.tp + row.fp > 0]
    return sum(values) / len(values) if values else 0.0


def test_figure6(benchmark, context):
    result = run_once(benchmark, figure6.run, context)
    print()
    print(figure6.render(result))

    rtaa = [row for row in result.rows if row.method == "rtaa"]
    bdrmapit = [row for row in result.rows if row.method == "bdrmapit"]
    pdb = [row for row in result.rows if row.method == "operator"]
    assert rtaa and bdrmapit and pdb

    rtaa_ppv = _mean(rtaa)
    bdrmapit_ppv = _mean(bdrmapit)
    pdb_ppv = _mean(pdb)

    # Who wins, in order: PeeringDB > bdrmapIT > RouterToAsAssignment.
    assert pdb_ppv > bdrmapit_ppv > rtaa_ppv

    # Rough bands (paper: ~75-81%, ~84-87%, 96%).
    assert 0.55 < rtaa_ppv < 0.88
    assert 0.75 < bdrmapit_ppv < 0.95
    assert pdb_ppv > 0.88

    # Sibling adjustment helps but only by a few points.
    for row in result.rows:
        assert row.ppv <= row.ppv_with_siblings <= row.ppv + 0.12
