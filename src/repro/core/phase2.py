"""Phase 2: merge regexes that differ by a single simple string (§3.3).

Regexes sharing every element except one alphanumeric literal merge into
one regex with an or-group over the differing literals; a regex matching
the shared skeleton with *no* literal in that slot makes the group
optional (``(?:p|s)?``).  This phase is what turns the three top regexes
of figure 4 into ``^(?:p|s)?(\\d+)\\.[^\\.]+\\.equinix\\.com$``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.regex_model import Alt, Element, Lit, Regex

_MAX_OPTIONS = 6
_MAX_OPTION_LEN = 8


def _signature(elements: Sequence[Element], start: int,
               end: int) -> Tuple:
    """Hashable identity of a regex with elements[start:end] removed."""
    return (tuple(el.key() for el in elements[:start]),
            tuple(el.key() for el in elements[end:]))


def merge_regexes(pool: Sequence[Regex]) -> List[Regex]:
    """Return new regexes created by merging members of ``pool``.

    Only simple (alphanumeric) literals merge; punctuation and the suffix
    are structure, not content.  Produced regexes are deduplicated against
    the input pool.
    """
    if not pool:
        return []
    suffix = pool[0].suffix
    # signature -> {option text -> skeleton (prefix, suffix) elements}
    groups: Dict[Tuple, Dict[str, Tuple[Tuple[Element, ...],
                                        Tuple[Element, ...]]]] = \
        defaultdict(dict)

    for regex in pool:
        elements = regex.elements
        for index, element in enumerate(elements):
            if isinstance(element, Lit) and element.is_simple \
                    and len(element.text) <= _MAX_OPTION_LEN:
                sig = _signature(elements, index, index + 1)
                groups[sig].setdefault(
                    element.text,
                    (elements[:index], elements[index + 1:]))
        # The same regex can supply the *empty* option at every split
        # position: a skeleton with nothing where others have a literal.
        for position in range(len(elements) + 1):
            sig = _signature(elements, position, position)
            groups[sig].setdefault(
                "", (elements[:position], elements[position:]))

    existing: Set[str] = {regex.pattern for regex in pool}
    merged: List[Regex] = []
    for options_map in groups.values():
        options = sorted(options_map)
        non_empty = [o for o in options if o]
        if len(non_empty) < 2 or len(non_empty) > _MAX_OPTIONS:
            continue
        optional = "" in options
        prefix, tail = options_map[non_empty[0]]
        alt = Alt(tuple(non_empty), optional=optional)
        candidate = Regex(tuple(prefix) + (alt,) + tuple(tail), suffix)
        if candidate.pattern not in existing:
            existing.add(candidate.pattern)
            merged.append(candidate)
    merged.sort(key=lambda r: r.pattern)
    return merged
