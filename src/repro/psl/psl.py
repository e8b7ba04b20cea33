"""Parser and lookup for public-suffix-list rule files.

Implements the algorithm from https://publicsuffix.org/list/:

* rules are matched label-by-label from the right;
* ``*`` matches exactly one label;
* exception rules (``!``) defeat a matching wildcard rule;
* among matching rules the one with the most labels wins;
* if no rule matches, the public suffix is the rightmost label.

Rules live in a reversed-label tree, so a lookup follows the hostname's
labels (and any ``*`` branches) from the right instead of testing every
rule.

The *registered domain* (what the paper calls the suffix an operator
registers, e.g. ``example.com``) is the public suffix plus one more label.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.psl.list_data import EMBEDDED_PSL


class PublicSuffixList:
    """A parsed public suffix list supporting registered-domain extraction.

    >>> psl = default_psl()
    >>> psl.registered_domain("ge0-2.01.p.ost.ch.as15576.nts.ch")
    'nts.ch'
    >>> psl.registered_domain("foo.example.co.uk")
    'example.co.uk'
    >>> psl.public_suffix("foo.example.co.uk")
    'co.uk'
    """

    def __init__(self, rules: Iterable[str]) -> None:
        # Reversed-label tree: each node maps a label (or ``*``) to its
        # child; a node ending a rule holds that rule's
        # ``(labels, is_exception)`` under the ``None`` key, which no
        # label can collide with.
        self._tree: Dict[Optional[str], object] = {}
        self._size = 0
        for raw in rules:
            line = raw.strip()
            if not line or line.startswith("//"):
                continue
            # Rules may carry trailing whitespace-separated comments.
            line = line.split()[0]
            exception = line.startswith("!")
            if exception:
                line = line[1:]
            labels = tuple(reversed(line.lower().lstrip(".").split(".")))
            if labels and all(labels):
                node: Dict = self._tree
                for label in labels:
                    node = node.setdefault(label, {})
                if None not in node:
                    self._size += 1
                node[None] = (labels, exception)

    @classmethod
    def from_text(cls, text: str) -> "PublicSuffixList":
        """Parse a PSL-format string (one rule per line, // comments)."""
        return cls(text.splitlines())

    @classmethod
    def from_file(cls, path: str) -> "PublicSuffixList":
        """Parse a PSL-format file from disk."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_text(handle.read())

    def __len__(self) -> int:
        return self._size

    def _matching_rules(
            self, labels: List[str]) -> List[Tuple[Tuple[str, ...], bool]]:
        """All rules matching the reversed label list ``labels``: a walk
        down the tree following each label's exact and ``*`` children."""
        matches = []
        frontier = [self._tree]
        for label in labels:
            keys = (label, "*") if label != "*" else ("*",)
            below = []
            for node in frontier:
                for key in keys:
                    child = node.get(key)
                    if child is not None:
                        below.append(child)
                        rule = child.get(None)
                        if rule is not None:
                            matches.append(rule)
            if not below:
                break
            frontier = below
        return matches

    def public_suffix(self, hostname: str) -> Optional[str]:
        """Return the public suffix of ``hostname`` (lower-cased).

        Returns ``None`` for an empty hostname.
        """
        hostname = hostname.strip(".").lower()
        if not hostname:
            return None
        labels = list(reversed(hostname.split(".")))
        matches = self._matching_rules(labels)
        exception = [m for m in matches if m[1]]
        if exception:
            # An exception rule's suffix is the rule minus its first label.
            rule = max(exception, key=lambda m: len(m[0]))[0]
            width = len(rule) - 1
        elif matches:
            width = max(len(rule) for rule, _ in matches)
        else:
            width = 1  # default rule: "*" (rightmost label)
        width = min(width, len(labels))
        return ".".join(reversed(labels[:width]))

    def registered_domain(self, hostname: str) -> Optional[str]:
        """Return the registerable domain of ``hostname``.

        This is the public suffix plus one label -- the unit the paper
        trains one naming convention for.  Returns ``None`` when the
        hostname *is* a public suffix (nothing was registered under it).
        """
        hostname = hostname.strip(".").lower()
        suffix = self.public_suffix(hostname)
        if suffix is None:
            return None
        labels = hostname.split(".")
        suffix_width = suffix.count(".") + 1
        if len(labels) <= suffix_width:
            return None
        return ".".join(labels[-(suffix_width + 1):])


_DEFAULT: Optional[PublicSuffixList] = None


def default_psl() -> PublicSuffixList:
    """The embedded snapshot, parsed once and cached."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PublicSuffixList.from_text(EMBEDDED_PSL)
    return _DEFAULT
