"""Unit tests for repro.util.strings."""

from repro.util.strings import (
    DigitRun,
    common_prefix_len,
    common_suffix_len,
    damerau_levenshtein,
    digit_runs,
    is_punct,
    iter_subruns,
    split_segments,
)


class TestDigitRuns:
    def test_single_run(self):
        runs = digit_runs("p24115.mel")
        assert [(r.start, r.end, r.text) for r in runs] == [(1, 6, "24115")]

    def test_multiple_runs(self):
        runs = digit_runs("te-4-0-0-85.53w")
        assert [r.text for r in runs] == ["4", "0", "0", "85", "53"]

    def test_no_digits(self):
        assert digit_runs("alter.net") == []

    def test_all_digits(self):
        runs = digit_runs("12345")
        assert len(runs) == 1
        assert runs[0].text == "12345"
        assert runs[0].start == 0
        assert runs[0].end == 5

    def test_empty_string(self):
        assert digit_runs("") == []

    def test_value_and_len(self):
        run = digit_runs("as064")[0]
        assert run.value == 64
        assert len(run) == 3

    def test_runs_are_maximal(self):
        runs = digit_runs("1a2b34")
        assert [r.text for r in runs] == ["1", "2", "34"]


class TestIterSubruns:
    def test_longest_first(self):
        run = DigitRun(0, 4, "1234")
        texts = [r.text for r in iter_subruns(run, min_len=3)]
        assert texts == ["1234", "123", "234"]

    def test_offsets_track_parent(self):
        run = DigitRun(5, 8, "987")
        subs = list(iter_subruns(run, min_len=2))
        assert (subs[1].start, subs[1].end, subs[1].text) == (5, 7, "98")


class TestDamerauLevenshtein:
    def test_identity(self):
        assert damerau_levenshtein("24115", "24115") == 0

    def test_transposition_is_one(self):
        # Figure 4 hostname h: 22822 vs training 22282.
        assert damerau_levenshtein("22822", "22282") == 1

    def test_deletion_is_one(self):
        # Figure 3a: 605 extracted vs training 6057.
        assert damerau_levenshtein("605", "6057") == 1

    def test_substitution_is_one(self):
        assert damerau_levenshtein("20940", "24940") == 1

    def test_insertion_is_one(self):
        assert damerau_levenshtein("1299", "12909") == 1

    def test_empty_strings(self):
        assert damerau_levenshtein("", "") == 0
        assert damerau_levenshtein("", "abc") == 3
        assert damerau_levenshtein("abc", "") == 3

    def test_unrelated(self):
        assert damerau_levenshtein("109", "714") == 3

    def test_figure3a_pairs(self):
        # Every figure-3a pair is at distance exactly one.
        pairs = [("201", "701"), ("85", "855"), ("605", "6057"),
                 ("24940", "20940"), ("202073", "205073"),
                 ("20732", "207032")]
        for extracted, training in pairs:
            assert damerau_levenshtein(extracted, training) == 1, \
                (extracted, training)

    def test_symmetric(self):
        assert damerau_levenshtein("12345", "13245") == \
            damerau_levenshtein("13245", "12345")


class TestSegments:
    def test_round_trip(self):
        text = "p24115.mel-ix"
        assert "".join(split_segments(text)) == text

    def test_alternation(self):
        tokens = split_segments("a.b-c")
        assert tokens == ["a", ".", "b", "-", "c"]

    def test_leading_punct(self):
        assert split_segments("-a") == ["", "-", "a"]

    def test_trailing_punct(self):
        assert split_segments("a.") == ["a", ".", ""]

    def test_empty(self):
        assert split_segments("") == [""]

    def test_is_punct(self):
        assert is_punct(".")
        assert is_punct("-")
        assert is_punct("_")
        assert not is_punct("a")
        assert not is_punct("1")


class TestCommonAffixes:
    def test_prefix(self):
        assert common_prefix_len(["as1299", "as209"]) == 2

    def test_prefix_empty_list(self):
        assert common_prefix_len([]) == 0

    def test_prefix_no_overlap(self):
        assert common_prefix_len(["abc", "xyz"]) == 0

    def test_suffix(self):
        assert common_suffix_len(["lon-ix", "fra-ix"]) == 3
