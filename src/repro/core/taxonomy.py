"""Taxonomy of how and where conventions embed ASNs (Table 1).

* **simple** -- the hostname is exactly ``as<ASN>`` under the suffix;
* **start** -- ``as<ASN>`` at the start, with more information after it;
* **end** -- ``as<ASN>`` in the final portion before the suffix, with
  information before it;
* **bare** -- the ASN appears with no alphabetic preface;
* **complex** -- mid-hostname placement, an annotation other than "as",
  or a convention needing multiple regexes.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence, Tuple

from repro.core.regex_model import Alt, Element, Lit, Regex


class Taxonomy(enum.Enum):
    """Table-1 classes."""

    SIMPLE = "simple"
    START = "start"
    END = "end"
    BARE = "bare"
    COMPLEX = "complex"


def _portion_boundaries(elements: Sequence[Element],
                        cap_index: int) -> Tuple[int, int]:
    """Element range [lo, hi) of the punctuation-delimited portion
    containing the capture."""
    lo = cap_index
    while lo > 0:
        prev = elements[lo - 1]
        if isinstance(prev, Lit) and prev.is_punct:
            break
        lo -= 1
    hi = cap_index + 1
    while hi < len(elements):
        nxt = elements[hi]
        if isinstance(nxt, Lit) and nxt.is_punct:
            break
        hi += 1
    return lo, hi


def _preface(elements: Sequence[Element], lo: int,
             cap_index: int) -> Optional[str]:
    """The literal text immediately before the capture in its portion.

    Returns ``None`` when the preface is variable (an or-group counts as
    a variable preface only when optional)."""
    parts = []
    for element in elements[lo:cap_index]:
        if isinstance(element, Lit):
            parts.append(element.text)
        elif isinstance(element, Alt):
            return None
        else:
            return None
    return "".join(parts)


def taxonomy_of(regexes: Sequence[Regex]) -> Taxonomy:
    """Classify a convention per Table 1."""
    if len(regexes) != 1:
        return Taxonomy.COMPLEX
    regex = regexes[0]
    elements = regex.elements
    cap_index = regex.cap_index()
    lo, hi = _portion_boundaries(elements, cap_index)
    at_start = lo == 0
    at_end = hi == len(elements)
    preface = _preface(elements, lo, cap_index)

    if preface is None:
        # Variable preface (or-groups like (?:p|s)?) defies the simple
        # classes; the paper files these as complex.
        return Taxonomy.COMPLEX
    preface_alpha = "".join(c for c in preface if c.isalpha())
    if not preface_alpha:
        return Taxonomy.BARE
    if preface_alpha != "as":
        return Taxonomy.COMPLEX
    if at_start and at_end and lo == 0 and hi == len(elements) \
            and cap_index == hi - 1 and preface == "as":
        # Nothing besides as<ASN> in the local part.
        return Taxonomy.SIMPLE
    if at_start:
        return Taxonomy.START
    if at_end:
        return Taxonomy.END
    return Taxonomy.COMPLEX
