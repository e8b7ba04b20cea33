"""AS-to-organization mapping (the role CAIDA's AS2Org dataset plays).

Two ASNs are *siblings* when the same organization operates both, e.g.
Microsoft's AS8075/AS8069/AS12076.  The paper uses siblings twice: the
section 4 PPV adjustment (an extracted ASN that is a sibling of the
training ASN is not an error) and the section 5 reasonableness test.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, Optional, Set, Tuple


class ASOrgMap:
    """Maps ASNs to organization identifiers and answers sibling queries.

    >>> orgs = ASOrgMap()
    >>> orgs.assign(8075, "ORG-MSFT")
    >>> orgs.assign(8069, "ORG-MSFT")
    >>> orgs.siblings(8075) == {8075, 8069}
    True
    >>> orgs.are_siblings(8075, 8069)
    True
    >>> orgs.are_siblings(8075, 3356)
    False
    """

    def __init__(self) -> None:
        self._org_of: Dict[int, str] = {}
        self._members: Dict[str, Set[int]] = defaultdict(set)
        self._names: Dict[str, str] = {}

    def assign(self, asn: int, org_id: str,
               org_name: Optional[str] = None) -> None:
        """Place ``asn`` inside organization ``org_id``.

        Reassigning an ASN moves it between organizations.
        """
        previous = self._org_of.get(asn)
        if previous is not None and previous != org_id:
            self._members[previous].discard(asn)
            if not self._members[previous]:
                del self._members[previous]
        self._org_of[asn] = org_id
        self._members[org_id].add(asn)
        if org_name is not None:
            self._names[org_id] = org_name

    def org_of(self, asn: int) -> Optional[str]:
        """Organization identifier operating ``asn``, if known."""
        return self._org_of.get(asn)

    def org_name(self, org_id: str) -> Optional[str]:
        """Human-readable name of ``org_id``, if recorded."""
        return self._names.get(org_id)

    def members(self, org_id: str) -> Set[int]:
        """All ASNs operated by ``org_id``."""
        return set(self._members.get(org_id, ()))

    def siblings(self, asn: int) -> Set[int]:
        """All ASNs sharing an organization with ``asn`` (incl. itself)."""
        org = self._org_of.get(asn)
        if org is None:
            return {asn}
        return set(self._members[org])

    def are_siblings(self, a: int, b: int) -> bool:
        """True when one organization operates both ``a`` and ``b``."""
        if a == b:
            return True
        org_a = self._org_of.get(a)
        return org_a is not None and org_a == self._org_of.get(b)

    def organizations(self) -> Iterator[Tuple[str, Set[int]]]:
        """Yield (org_id, members) pairs."""
        for org_id, members in self._members.items():
            yield org_id, set(members)

    # -- serialization (jsonl-ish, AS2Org-flavoured) ----------------------

    def to_lines(self) -> Iterator[str]:
        """Serialize to ``asn|org_id|org_name`` lines."""
        for asn in sorted(self._org_of):
            org = self._org_of[asn]
            yield "%d|%s|%s" % (asn, org, self._names.get(org, ""))

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "ASOrgMap":
        """Parse lines produced by :meth:`to_lines`."""
        orgs = cls()
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("|")
            if len(fields) < 2:
                raise ValueError("malformed org line: %r" % raw)
            asn, org_id = int(fields[0]), fields[1]
            name = fields[2] if len(fields) > 2 and fields[2] else None
            orgs.assign(asn, org_id, name)
        return orgs
