"""Unit tests for the radix trie."""

from repro.util.ipaddr import IPv4Prefix, ip_to_int
from repro.util.radix import RadixTrie


class TestRadixTrie:
    def test_empty_lookup(self):
        trie = RadixTrie()
        assert trie.lookup(ip_to_int("10.0.0.1")) is None
        assert len(trie) == 0

    def test_longest_prefix_wins(self):
        trie = RadixTrie()
        trie.insert(IPv4Prefix.parse("10.0.0.0/8"), "eight")
        trie.insert(IPv4Prefix.parse("10.1.0.0/16"), "sixteen")
        trie.insert(IPv4Prefix.parse("10.1.2.0/24"), "twentyfour")
        assert trie.lookup(ip_to_int("10.1.2.3")) == "twentyfour"
        assert trie.lookup(ip_to_int("10.1.9.9")) == "sixteen"
        assert trie.lookup(ip_to_int("10.9.9.9")) == "eight"
        assert trie.lookup(ip_to_int("11.0.0.0")) is None

    def test_lookup_prefix_returns_prefix(self):
        trie = RadixTrie()
        prefix = IPv4Prefix.parse("10.1.0.0/16")
        trie.insert(prefix, "value")
        hit = trie.lookup_prefix(ip_to_int("10.1.2.3"))
        assert hit == (prefix, "value")

    def test_replace_value(self):
        trie = RadixTrie()
        prefix = IPv4Prefix.parse("10.0.0.0/8")
        trie.insert(prefix, "old")
        trie.insert(prefix, "new")
        assert trie.lookup(ip_to_int("10.0.0.1")) == "new"
        assert len(trie) == 1

    def test_default_route(self):
        trie = RadixTrie()
        trie.insert(IPv4Prefix(0, 0), "default")
        assert trie.lookup(ip_to_int("192.0.2.1")) == "default"

    def test_host_route(self):
        trie = RadixTrie()
        address = ip_to_int("10.0.0.1")
        trie.insert(IPv4Prefix(address, 32), "host")
        assert trie.lookup(address) == "host"
        assert trie.lookup(address + 1) is None

    def test_exact(self):
        trie = RadixTrie()
        trie.insert(IPv4Prefix.parse("10.0.0.0/8"), "v")
        assert trie.exact(IPv4Prefix.parse("10.0.0.0/8")) == "v"
        assert trie.exact(IPv4Prefix.parse("10.0.0.0/9")) is None
        assert trie.exact(IPv4Prefix.parse("11.0.0.0/8")) is None

    def test_items_round_trip(self):
        trie = RadixTrie()
        prefixes = [IPv4Prefix.parse(p) for p in
                    ("10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/24",
                     "0.0.0.0/0")]
        for index, prefix in enumerate(prefixes):
            trie.insert(prefix, index)
        collected = dict(trie.items())
        assert collected == {p: i for i, p in enumerate(prefixes)}

    def test_adjacent_slash31(self):
        trie = RadixTrie()
        trie.insert(IPv4Prefix.parse("10.0.0.0/31"), "a")
        trie.insert(IPv4Prefix.parse("10.0.0.2/31"), "b")
        assert trie.lookup(ip_to_int("10.0.0.1")) == "a"
        assert trie.lookup(ip_to_int("10.0.0.2")) == "b"
        assert trie.lookup(ip_to_int("10.0.0.4")) is None
