"""Benchmark + reproduction of Appendix A (merging vs regex sets).

Prints the scores of the three equivalent Equinix conventions (figure 7)
and asserts they score identically on the figure-4 data, with the
learner selecting the paper's preferred two-regex NC #7.
"""

from benchmarks.conftest import run_once
from repro.eval import appendix_a


def test_appendix_a(benchmark, context):
    result = run_once(benchmark, appendix_a.run)
    print()
    print(appendix_a.render(result))

    atps = {name: score.atp for name, _, score in result.scores}
    assert atps == {"NC #7": 8, "NC #7a": 8, "NC #7b": 8}

    sizes = {name: n for name, n, _ in result.scores}
    assert sizes == {"NC #7": 2, "NC #7a": 1, "NC #7b": 4}

    assert result.learned is not None
    assert result.learned_matches_nc7
