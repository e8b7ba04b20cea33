"""Unit tests for AS-name token generation."""

from repro.naming.asnames import as_name_tokens


class TestAsNameTokens:
    def test_full_slug_first(self):
        assert as_name_tokens("seabone")[0] == "seabone"

    def test_short_slug(self):
        tokens = as_name_tokens("gtt")
        assert tokens == ["gtt"]

    def test_truncation_variant(self):
        assert "seabon" in as_name_tokens("seabone")

    def test_vowel_squeeze(self):
        tokens = as_name_tokens("telia")
        assert any(len(t) < len("telia") for t in tokens)

    def test_three_letter_variant(self):
        assert "sea" in as_name_tokens("seabone")

    def test_no_duplicates(self):
        for slug in ("seabone", "telia", "init", "gtt", "lumen",
                     "novaglo", "interquant"):
            tokens = as_name_tokens(slug)
            assert len(tokens) == len(set(tokens)), slug

    def test_all_tokens_nonempty(self):
        for slug in ("ab", "abc", "abcd", "abcdefgh"):
            for token in as_name_tokens(slug):
                assert token
