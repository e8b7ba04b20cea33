"""Low-level utilities shared by every subsystem.

The modules in this package deliberately avoid importing from the rest of
:mod:`repro`, so they can be used from any layer without creating import
cycles:

* :mod:`repro.util.strings` -- digit-run extraction and the
  Damerau-Levenshtein distance used by the congruence rules of the paper
  (section 3.1).
* :mod:`repro.util.ipaddr` -- small IPv4 helpers plus detection of IP
  addresses embedded in hostnames (figure 3b of the paper).
* :mod:`repro.util.radix` -- longest-prefix match over one hash table
  per prefix length, the substrate for prefix-to-AS lookups.
* :mod:`repro.util.rand` -- deterministic random substreams so that every
  experiment is reproducible from a single seed.
"""

from repro.util.strings import damerau_levenshtein, digit_runs, DigitRun
from repro.util.ipaddr import (
    IPv4Prefix,
    ip_to_int,
    int_to_ip,
    embedded_ip_spans,
)
from repro.util.radix import RadixTrie
from repro.util.rand import substream

__all__ = [
    "damerau_levenshtein",
    "digit_runs",
    "DigitRun",
    "IPv4Prefix",
    "ip_to_int",
    "int_to_ip",
    "embedded_ip_spans",
    "RadixTrie",
    "substream",
]
