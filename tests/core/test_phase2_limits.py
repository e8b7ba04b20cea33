"""Edge-case tests for phase-2 merging limits."""

from repro.core.phase2 import _MAX_OPTIONS, merge_regexes
from repro.core.regex_model import Cap, Exclude, Lit, Regex


def _family(prefixes, suffix="x.com"):
    return [Regex(([Lit(p)] if p else []) + [Cap(), Lit("."),
                                             Exclude(frozenset("."))],
                  suffix)
            for p in prefixes]


class TestMergeLimits:
    def test_option_count_cap(self):
        # More than _MAX_OPTIONS distinct literals: no merge produced
        # for the oversized group.
        prefixes = ["p%d" % i for i in range(_MAX_OPTIONS + 2)]
        merged = merge_regexes(_family(prefixes))
        for regex in merged:
            assert regex.pattern.count("|") <= _MAX_OPTIONS - 1

    def test_long_literals_not_merged(self):
        long_a = "a" * 20
        long_b = "b" * 20
        merged = merge_regexes(_family([long_a, long_b]))
        assert all(long_a not in r.pattern for r in merged)

    def test_merged_not_duplicating_pool(self):
        pool = _family(["p", "s", ""])
        merged = merge_regexes(pool)
        pool_patterns = {r.pattern for r in pool}
        assert all(r.pattern not in pool_patterns for r in merged)

    def test_three_way_merge(self):
        merged = merge_regexes(_family(["p", "s", "gw"]))
        assert any("(?:gw|p|s)" in r.pattern for r in merged)

    def test_optional_only_with_empty_variant(self):
        with_empty = merge_regexes(_family(["p", "s", ""]))
        without_empty = merge_regexes(_family(["p", "s"]))
        assert any("(?:p|s)?" in r.pattern for r in with_empty)
        assert all("(?:p|s)?" not in r.pattern for r in without_empty)
