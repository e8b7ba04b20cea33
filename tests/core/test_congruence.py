"""Unit tests for the section-3.1 congruence and classification rules."""

from repro.core.congruence import (
    Outcome,
    apparent_asn_runs,
    classify_extraction,
    congruent,
)
from repro.util.ipaddr import embedded_ip_spans


class TestCongruent:
    def test_exact(self):
        assert congruent("24115", 24115)

    def test_leading_zeros(self):
        assert congruent("064500", 64500)

    def test_transposition_guarded(self):
        # 22822 vs 22282: distance one, first/last chars match, len >= 3.
        assert congruent("22822", 22282)

    def test_deletion_guarded(self):
        # Figure 3a: 605 vs 6057 - first char 6, last char differs...
        # 605 ends in 5, 6057 ends in 7: guard fails, so NOT congruent.
        assert not congruent("605", 6057)

    def test_first_char_guard(self):
        # 201 vs 701 are distance one but first chars differ.
        assert not congruent("201", 701)

    def test_length_guard(self):
        # Short numbers never use the edit-distance rule.
        assert not congruent("85", 855)
        assert not congruent("12", 21)

    def test_substitution_guarded_accept(self):
        # 202073 vs 205073: middle substitution, first/last same.
        assert congruent("202073", 205073)

    def test_incongruent(self):
        assert not congruent("109", 122)

    def test_distance_two_rejected(self):
        assert not congruent("15576", 15677)

    def test_non_digits(self):
        assert not congruent("", 123)
        assert not congruent("abc", 123)


class TestApparentRuns:
    def test_finds_congruent_run(self):
        runs = apparent_asn_runs("as24115.mel.example.com", 24115, [])
        assert [r.text for r in runs] == ["24115"]

    def test_ip_span_excluded(self):
        hostname = "209-201-58-109.dia.example.net"
        spans = embedded_ip_spans(hostname)
        runs = apparent_asn_runs(hostname, 209, spans)
        assert runs == []

    def test_without_span_ip_octet_matches(self):
        # Demonstrates why the IP rule matters: without spans the 209
        # octet would look like an apparent ASN.
        hostname = "209-201-58-109.dia.example.net"
        runs = apparent_asn_runs(hostname, 209, [])
        assert [r.text for r in runs] == ["209"]

    def test_multiple_runs(self):
        runs = apparent_asn_runs("64500-2.pop64500.example.com", 64500, [])
        assert len(runs) == 2

    def test_no_apparent(self):
        assert apparent_asn_runs("lo0.cr1.fra.example.com", 3356, []) == []


class TestClassification:
    def test_tp(self):
        outcome = classify_extraction("24115", (2, 7),
                                      "as24115.example.com", 24115, [])
        assert outcome is Outcome.TP

    def test_fp_wrong_number(self):
        outcome = classify_extraction("8069", (0, 4),
                                      "8069.tyo.example.com", 8075, [])
        assert outcome is Outcome.FP

    def test_fp_inside_ip(self):
        hostname = "122-216-236-50.example.net"
        spans = embedded_ip_spans(hostname)
        # Even a numerically congruent extraction is an FP inside an IP.
        outcome = classify_extraction("122", (0, 3), hostname, 122, spans)
        assert outcome is Outcome.FP

    def test_fn_when_apparent_exists(self):
        outcome = classify_extraction(None, None,
                                      "as24115.example.com", 24115, [])
        assert outcome is Outcome.FN

    def test_none_when_no_apparent(self):
        outcome = classify_extraction(None, None,
                                      "lo0.cr1.example.com", 24115, [])
        assert outcome is Outcome.NONE

    def test_guarded_typo_is_tp(self):
        # Figure 4 hostname h: extraction 22822, training 22282.
        outcome = classify_extraction("22822", (0, 5),
                                      "22822-2.tyo.equinix.com", 22282, [])
        assert outcome is Outcome.TP
