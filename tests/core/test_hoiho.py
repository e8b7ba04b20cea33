"""Tests for the end-to-end learner driver and its gates."""

from repro.core.hoiho import Hoiho, HoihoConfig, _has_enough_apparent, \
    learn_suffix
from repro.core.select import NCClass
from repro.core.types import SuffixDataset, TrainingItem


def _items(template, asns, **kw):
    return [TrainingItem(template.format(asn=asn, i=i), asn)
            for i, asn in enumerate(asns)]


class TestHasEnoughApparent:
    """Boundary behaviour of the cheap apparent-ASN pre-check."""

    def test_exactly_min_apparent_and_two_distinct_passes(self):
        # Exactly min_apparent annotated hostnames, exactly 2 ASNs.
        config = HoihoConfig(min_apparent=2)
        dataset = SuffixDataset("x.com", [
            TrainingItem("as3356.pop.x.com", 3356),
            TrainingItem("as1299.pop.x.com", 1299),
            TrainingItem("lo0.cr1.x.com", 174),
        ])
        assert _has_enough_apparent(dataset, config)

    def test_one_below_min_apparent_fails(self):
        config = HoihoConfig(min_apparent=3)
        dataset = SuffixDataset("x.com", [
            TrainingItem("as3356.pop.x.com", 3356),
            TrainingItem("as1299.pop.x.com", 1299),
            TrainingItem("lo0.cr1.x.com", 174),
        ])
        assert not _has_enough_apparent(dataset, config)

    def test_single_distinct_asn_fails_even_with_enough_apparent(self):
        config = HoihoConfig(min_apparent=2)
        dataset = SuffixDataset("x.com", [
            TrainingItem("as3356.pop1.x.com", 3356),
            TrainingItem("as3356.pop2.x.com", 3356),
            TrainingItem("as3356.pop3.x.com", 3356),
        ])
        assert not _has_enough_apparent(dataset, config)

    def test_no_apparent_asns_fails_regardless_of_threshold(self):
        # min_apparent=0 must not pass vacuously: two distinct apparent
        # ASNs are still required.
        config = HoihoConfig(min_apparent=0)
        dataset = SuffixDataset("x.com", [
            TrainingItem("lo0.cr1.x.com", 3356),
            TrainingItem("lo0.cr2.x.com", 1299),
        ])
        assert not _has_enough_apparent(dataset, config)


class TestGates:
    def test_too_few_hostnames(self):
        dataset = SuffixDataset("x.com", _items("as{asn}.x.com", [1, 2]))
        assert learn_suffix(dataset) is None

    def test_single_training_asn_rejected(self):
        # Figure-2 rule precursor: one ASN cannot establish a convention.
        items = _items("as{asn}.pop{i}.x.com", [64500] * 8)
        dataset = SuffixDataset("x.com", items)
        assert learn_suffix(dataset) is None

    def test_figure2_own_asn_convention_rejected(self):
        # nts.ch style: every hostname embeds the supplier's own ASN.
        items = [
            TrainingItem("ge0-2.01.p.ost.ch.as15576.nts.ch", 15576),
            TrainingItem("lo1000.01.lns.czh.ch.as15576.nts.ch", 15576),
            TrainingItem("te0-0-24.01.p.bre.ch.as15576.nts.ch", 15576),
            TrainingItem("01.r.cba.ch.bl.cust.as15576.nts.ch", 44879),
            TrainingItem("02.r.czh.ch.sda.cust.as15576.nts.ch", 51768),
            TrainingItem("01.r.cbs.ch.wwc.cust.as15576.nts.ch", 206616),
        ]
        dataset = SuffixDataset("nts.ch", items)
        assert learn_suffix(dataset) is None

    def test_ip_derived_suffix_rejected(self):
        # Figure-3b style: hostnames derive from addresses; octets that
        # coincide with training ASNs must not produce a convention.
        items = [
            TrainingItem("50-236-216-122-static.hfc.x.net", 122,
                         address="50.236.216.122"),
            TrainingItem("209-201-58-109.dia.stat.x.net", 209,
                         address="209.201.58.109"),
            TrainingItem("12-17-5-77-static.hfc.x.net", 12,
                         address="12.17.5.77"),
            TrainingItem("99-3-4-5-static.hfc.x.net", 99,
                         address="99.3.4.5"),
            TrainingItem("73-9-8-7-static.hfc.x.net", 73,
                         address="73.9.8.7"),
        ]
        dataset = SuffixDataset("x.net", items)
        assert learn_suffix(dataset) is None

    def test_geo_suffix_rejected(self):
        items = _items("xe0-1.cr{i}.fra.x.com", [3356, 1299, 174, 2914, 13])
        dataset = SuffixDataset("x.com", items)
        assert learn_suffix(dataset) is None


class TestLearning:
    def test_simple_convention(self):
        items = _items("as{asn}.x.com", [3356, 1299, 174, 2914, 6453])
        dataset = SuffixDataset("x.com", items)
        convention = learn_suffix(dataset)
        assert convention is not None
        assert convention.patterns() == [r"^as(\d+)\.x\.com$"]
        assert convention.nc_class is NCClass.GOOD

    def test_start_convention_with_decoration(self):
        asns = [3356, 1299, 174, 2914, 6453, 64500]
        items = [TrainingItem("as%d-10ge-fra%d.x.com" % (a, i % 3), a)
                 for i, a in enumerate(asns)]
        convention = learn_suffix(SuffixDataset("x.com", items))
        assert convention is not None
        assert convention.score.tp == len(asns)
        assert all(convention.extract(i.hostname) == i.train_asn
                   for i in items)

    def test_mixed_formats_learn_regex_set(self):
        a_format = [TrainingItem("as%d-lon%d.x.com" % (a, i % 3), a)
                    for i, a in enumerate((3356, 1299, 174, 2914))]
        b_format = [TrainingItem("fra%d.cust.as%d.x.com" % (i % 3, a), a)
                    for i, a in enumerate((6453, 6461, 64500, 4637))]
        # Plain infrastructure names that match neither format.
        noise = [TrainingItem("lo0.cr%d.par.x.com" % i, 3356)
                 for i in range(3)]
        convention = learn_suffix(
            SuffixDataset("x.com", a_format + b_format + noise))
        assert convention is not None
        assert convention.score.tp == 8
        assert convention.score.fn == 0
        for item in a_format + b_format:
            assert convention.extract(item.hostname) == item.train_asn

    def test_stale_heavy_suffix_is_poor_or_rejected(self):
        # Mostly-wrong training: PPV < 50% forces poor (or rejection).
        good = [TrainingItem("as%d.c%d.x.com" % (a, i), a)
                for i, a in enumerate((3356, 1299))]
        stale = [TrainingItem("as%d.c%d.x.com" % (a + 7, i + 10), a)
                 for i, a in enumerate((174, 2914, 6453, 6461, 7018))]
        convention = learn_suffix(SuffixDataset("x.com", good + stale))
        if convention is not None:
            assert convention.nc_class is NCClass.POOR

    def test_disable_sets_yields_single_regex(self):
        a_format = [TrainingItem("as%d-lon.x.com" % a, a)
                    for a in (3356, 1299, 174)]
        b_format = [TrainingItem("fra.cust.as%d.x.com" % a, a)
                    for a in (6453, 6461, 64500)]
        config = HoihoConfig(enable_sets=False)
        convention = learn_suffix(
            SuffixDataset("x.com", a_format + b_format), config)
        assert convention is not None
        assert convention.single


class TestDriver:
    def test_run_groups_by_suffix(self):
        items = (_items("as{asn}.alpha.com", [1239, 3356, 701, 7018, 209])
                 + _items("as{asn}.beta.net", [6453, 6461, 2914, 3491, 1299])
                 + _items("lo0.cr{i}.gamma.org", [174] * 5))
        result = Hoiho().run(items)
        assert set(result.conventions) == {"alpha.com", "beta.net"}
        assert result.suffixes_examined == 3

    def test_extract_through_result(self):
        items = _items("as{asn}.alpha.com", [1239, 3356, 701, 7018, 209])
        result = Hoiho().run(items)
        assert result.extract("as8075.alpha.com") == 8075
        assert result.extract("as8075.unknown.com") is None
        assert result.extract("bare") is None

    def test_class_counts(self):
        items = _items("as{asn}.alpha.com", [1239, 3356, 701, 7018, 209])
        result = Hoiho().run(items)
        counts = result.class_counts()
        assert counts["good"] == 1
        assert counts["promising"] == 0
        assert counts["poor"] == 0

    def test_determinism(self):
        items = (_items("as{asn}-fra{i}.alpha.com",
                        [1239, 3356, 701, 7018, 209])
                 + _items("p{asn}.lon.beta.net",
                          [6453, 6461, 2914, 3491, 1299]))
        first = Hoiho().run(items)
        second = Hoiho().run(items)
        assert {s: c.patterns() for s, c in first.conventions.items()} == \
            {s: c.patterns() for s, c in second.conventions.items()}

    def test_uppercase_hostnames_normalised(self):
        items = [TrainingItem("AS%d.ALPHA.COM" % a, a)
                 for a in (1239, 3356, 701, 7018, 209)]
        result = Hoiho().run(items)
        assert "alpha.com" in result.conventions
