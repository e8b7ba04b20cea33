"""Longest-prefix match over IPv4 prefixes: one hash table per length.

This is the substrate for the BGP-derived prefix-to-AS mapping used by
RouterToAsAssignment and bdrmapIT (section 2.1 of the paper).  The
table stores one value per prefix; lookups return the value attached to
the longest prefix covering an address.

Prefixes are kept in one dict per prefix length present, mapping the
network address to the stored ``(prefix, value)`` pair.  A lookup masks
the address to each present length, longest first, and the first dict
hit is the answer: at most one probe per distinct length (a routing
table has a handful), no per-bit walk and no allocation on a match.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.util.ipaddr import IPv4Prefix

V = TypeVar("V")


class RadixTrie(Generic[V]):
    """Maps IPv4 prefixes to values, answering longest-prefix-match queries.

    >>> trie = RadixTrie()
    >>> trie.insert(IPv4Prefix.parse("10.0.0.0/8"), "coarse")
    >>> trie.insert(IPv4Prefix.parse("10.1.0.0/16"), "fine")
    >>> from repro.util.ipaddr import ip_to_int
    >>> trie.lookup(ip_to_int("10.1.2.3"))
    'fine'
    >>> trie.lookup(ip_to_int("10.2.2.3"))
    'coarse'
    >>> trie.lookup(ip_to_int("11.0.0.1")) is None
    True
    """

    def __init__(self) -> None:
        #: length -> {network -> (prefix, value)}.
        self._tables: Dict[int, Dict[int, Tuple[IPv4Prefix, V]]] = {}
        #: (mask, table) for every present length, longest first.
        self._probes: List[Tuple[int, Dict[int, Tuple[IPv4Prefix, V]]]] = []

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())

    def insert(self, prefix: IPv4Prefix, value: V) -> None:
        """Attach ``value`` to ``prefix``, replacing any existing value."""
        table = self._tables.get(prefix.length)
        if table is None:
            table = self._tables[prefix.length] = {}
            self._probes = [(IPv4Prefix(0, length).mask, self._tables[length])
                            for length in sorted(self._tables, reverse=True)]
        table[prefix.network] = (prefix, value)

    def lookup(self, address: int) -> Optional[V]:
        """Return the value of the longest prefix covering ``address``."""
        result = self.lookup_prefix(address)
        return result[1] if result is not None else None

    def lookup_prefix(self, address: int) -> Optional[Tuple[IPv4Prefix, V]]:
        """Like :meth:`lookup` but also return the matching prefix."""
        for mask, table in self._probes:
            hit = table.get(address & mask)
            if hit is not None:
                return hit
        return None

    def exact(self, prefix: IPv4Prefix) -> Optional[V]:
        """Return the value stored exactly at ``prefix``, if any."""
        hit = self._tables.get(prefix.length, {}).get(prefix.network)
        return hit[1] if hit is not None else None

    def items(self) -> Iterator[Tuple[IPv4Prefix, V]]:
        """Yield every (prefix, value) pair in (network, length) order."""
        pairs = [pair for table in self._tables.values()
                 for pair in table.values()]
        pairs.sort(key=lambda pair: (pair[0].network, pair[0].length))
        return iter(pairs)
