"""Benchmark + reproduction of Table 1 (ASN placement taxonomy).

Prints the taxonomy of usable conventions and asserts the paper's
headline observation: operators that label the *neighbor* ASN most
often place it at the start of the hostname (50.8% of usable NCs in
the paper), and every class is represented.
"""

from benchmarks.conftest import run_once
from repro.core.taxonomy import Taxonomy
from repro.eval import table1


def test_table1(benchmark, context):
    result = run_once(benchmark, table1.run, context)
    print()
    print(table1.render(result))

    assert result.n_usable > 0
    shares = {taxonomy: result.usable[taxonomy] / result.n_usable
              for taxonomy in Taxonomy}

    # Start placement is the most common single class among
    # neighbor-labelling styles (paper: 50.8%).
    non_complex = {t: shares[t] for t in
                   (Taxonomy.SIMPLE, Taxonomy.START, Taxonomy.END,
                    Taxonomy.BARE)}
    assert max(non_complex, key=non_complex.get) in (Taxonomy.START,
                                                     Taxonomy.SIMPLE)
    assert shares[Taxonomy.START] >= shares[Taxonomy.BARE]

    # All placement classes occur somewhere in a full run.
    observed = sum(1 for t in Taxonomy if result.usable[t] > 0)
    assert observed >= 4
