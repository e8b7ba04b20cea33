"""Golden outputs of a ``run``, pinned by digest.

The conventions digest is SHA-256 over every training set's conventions
JSON in label order (label, NUL, JSON, NUL), as ``repro-hoiho run`` at
the default seed learns them.  The substrate digest covers what the
conventions do not: the latest ITDK snapshot's traces (hops, RTTs,
reached) and its bdrmapIT annotations.  Rewrites of the substrate the
training sets are built on (prefix lookup, public suffixes, geographic
delays, router graphs, traceroute expansion) must leave both unchanged.
"""

import hashlib

import pytest

from repro.core.io import conventions_to_json
from repro.eval import ExperimentContext, Scale


def _conventions_digest(scale: str, seed: int = 2020) -> str:
    context = ExperimentContext(seed=seed, scale=Scale(scale))
    learned = context.learn_timeline()
    digest = hashlib.sha256()
    for label in sorted(learned):
        digest.update(label.encode("utf-8") + b"\0")
        digest.update(conventions_to_json(learned[label]).encode("utf-8")
                      + b"\0")
    return digest.hexdigest()


def _substrate_digest(scale: str, seed: int = 2020) -> str:
    context = ExperimentContext(seed=seed, scale=Scale(scale),
                                include_pdb=False)
    result = context.latest_itdk().snapshot
    digest = hashlib.sha256()
    for trace in result.traces:
        digest.update(repr((trace.hops, trace.rtts,
                            trace.reached)).encode("utf-8") + b"\0")
    digest.update(repr(sorted(result.annotations.items())).encode("utf-8"))
    return digest.hexdigest()


def test_tiny_run_conventions_digest():
    assert _conventions_digest("tiny") == \
        "ccf4cee0b0be224a65a21601a907d1ac24f8b425e2367175acb3bad7723e2083"


@pytest.mark.slow
def test_small_run_conventions_digest():
    assert _conventions_digest("small") == \
        "3c238175983e7b2f0fef1bbd601a220030fb2e2eb6d55ac2cdf84b70ff382fb3"


def test_tiny_latest_itdk_traces_and_annotations_digest():
    assert _substrate_digest("tiny") == \
        "16402346a2c1a32c0cea04b9c575bd0c98c55fcd60efaecd4d635a5c584f86ce"
