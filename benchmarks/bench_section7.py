"""Benchmark + reproduction of the section-7 preliminary investigations.

Prints the AS-name learning summary and the expansion-beyond-traceroute
counts, asserting the paper's qualitative claims: AS-name conventions
are learnable without a dictionary and extract mostly-correct operators,
and the learned regexes match more hostnames in the full reverse zone
than traceroute ever observed (5.4K -> 22.5K in the paper).
"""

from benchmarks.conftest import run_once
from repro.eval import section7


def test_section7(benchmark, context):
    result = run_once(benchmark, section7.run, context)
    print()
    print(section7.render(result))

    # AS-name conventions exist beyond the ASN-convention suffixes and
    # their extractions are mostly correct against ground truth.
    assert result.name_suffixes >= 1
    if result.name_checked >= 10:
        assert result.name_accuracy > 0.7

    # The full reverse zone contains strictly more matching hostnames
    # than the traceroute-observed subset (cold backup links etc.).
    assert result.observed_matches > 0
    assert result.full_zone_matches > result.observed_matches
    assert result.expansion_factor > 1.1
