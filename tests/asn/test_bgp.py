"""Unit tests for the route table / IP-to-AS substrate."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.asn.bgp import IXP_ASN, UNKNOWN_ASN, RouteTable
from repro.util.ipaddr import IPv4Prefix, ip_to_int


@pytest.fixture
def table():
    t = RouteTable()
    t.announce(IPv4Prefix.parse("10.0.0.0/8"), 3356)
    t.announce(IPv4Prefix.parse("10.1.0.0/16"), 64500)
    t.add_ixp_prefix(IPv4Prefix.parse("206.0.0.0/24"))
    return t


class TestOrigin:
    def test_longest_match(self, table):
        assert table.origin(ip_to_int("10.1.2.3")) == 64500
        assert table.origin(ip_to_int("10.2.2.3")) == 3356

    def test_unrouted(self, table):
        assert table.origin(ip_to_int("192.0.2.1")) == UNKNOWN_ASN

    def test_ixp(self, table):
        assert table.origin(ip_to_int("206.0.0.5")) == IXP_ASN
        assert table.is_ixp(ip_to_int("206.0.0.5"))
        assert not table.is_ixp(ip_to_int("10.0.0.1"))

    def test_origin_prefix(self, table):
        prefix, origin = table.origin_prefix(ip_to_int("10.1.2.3"))
        assert str(prefix) == "10.1.0.0/16"
        assert origin == 64500

    def test_prefixes_of(self, table):
        assert [str(p) for p in table.prefixes_of(3356)] == ["10.0.0.0/8"]
        assert table.prefixes_of(999) == []

    def test_ixp_prefixes(self, table):
        assert [str(p) for p in table.ixp_prefixes()] == ["206.0.0.0/24"]

    def test_len(self, table):
        assert len(table) == 3


class TestSerialization:
    def test_round_trip(self, table):
        parsed = RouteTable.from_lines(table.to_lines())
        assert parsed.origin(ip_to_int("10.1.2.3")) == 64500
        assert parsed.origin(ip_to_int("206.0.0.9")) == IXP_ASN
        assert len(parsed) == len(table)

    def test_describe(self, table):
        text = table.describe(ip_to_int("10.1.2.3"))
        assert "10.1.0.0/16" in text and "AS64500" in text
        assert "unrouted" in table.describe(ip_to_int("192.0.2.1"))
        assert "IXP" in table.describe(ip_to_int("206.0.0.1"))


class TestReannounce:
    def test_reannounce_moves_the_prefix(self):
        table = RouteTable()
        prefix = IPv4Prefix.parse("10.0.0.0/8")
        table.announce(prefix, 1)
        table.announce(prefix, 1)
        table.announce(prefix, 2)
        assert table.origin(ip_to_int("10.0.0.1")) == 2
        assert table.prefixes_of(1) == []
        assert table.prefixes_of(2) == [prefix]
        parsed = RouteTable.from_lines(table.to_lines())
        assert parsed.prefixes_of(2) == [prefix]

    def test_ixp_lan_reannounced_as_unicast(self):
        table = RouteTable()
        lan = IPv4Prefix.parse("206.0.0.0/24")
        table.add_ixp_prefix(lan, org_asn=7)
        table.announce(lan, 3)
        assert table.ixp_prefixes() == []
        assert table.ixp_org(ip_to_int("206.0.0.1")) is None
        assert table.prefixes_of(3) == [lan]


#: Announcements over a few nesting prefixes: (prefix, origin, org),
#: where origin IXP_ASN adds an IXP LAN with optional operator ``org``.
_announcements = st.lists(
    st.tuples(st.sampled_from(["10.0.0.0/8", "10.0.0.0/16", "10.0.0.0/24",
                               "10.1.0.0/16", "0.0.0.0/0", "10.0.0.1/32"]),
              st.sampled_from([1, 2, 3, IXP_ASN]),
              st.one_of(st.none(), st.integers(min_value=100,
                                               max_value=102))),
    max_size=12)
_probes = [ip_to_int(a) for a in ("10.0.0.1", "10.0.0.2", "10.0.1.1",
                                  "10.1.2.3", "10.9.9.9", "192.0.2.1")]


def _state(table):
    return ([table.origin(a) for a in _probes],
            [table.ixp_org(a) for a in _probes],
            {origin: sorted(table.prefixes_of(origin))
             for origin in (1, 2, 3)},
            sorted(table.ixp_prefixes()), len(table))


@given(_announcements)
def test_serialization_round_trip_is_lossless(announcements):
    table = RouteTable()
    last = {}
    for text, origin, org in announcements:
        prefix = IPv4Prefix.parse(text)
        if origin == IXP_ASN:
            table.add_ixp_prefix(prefix, org_asn=org)
        else:
            table.announce(prefix, origin)
        last[prefix] = (origin, org if origin == IXP_ASN else None)
    # Bookkeeping agrees with the latest announcement of each prefix.
    for origin in (1, 2, 3, IXP_ASN):
        assert sorted(table.prefixes_of(origin)) == sorted(
            p for p, (o, _) in last.items() if o == origin)
    for prefix, (origin, org) in last.items():
        if origin == IXP_ASN:
            assert table.ixp_org(prefix.network) == org \
                or table.origin_prefix(prefix.network)[0] != prefix
    parsed = RouteTable.from_lines(table.to_lines())
    assert _state(parsed) == _state(table)
    assert list(parsed.to_lines()) == list(table.to_lines())
