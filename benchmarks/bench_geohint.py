"""Benchmark + evaluation of the DRoP-style geolocation mode.

Runs the delay-validated location-hint learner on the latest synthetic
ITDK and checks DRoP's headline property: hints that survive the RTT
feasibility constraints identify the router's true location almost
always.
"""

from benchmarks.conftest import run_once
from repro.core.geohint import learn_geo_conventions


def _geo_quality(context):
    training_set = context.latest_itdk()
    snapshot_result = training_set.snapshot
    assert snapshot_result is not None
    world = context.world

    conventions = learn_geo_conventions(
        snapshot_result.snapshot.hostnames, snapshot_result.traces)
    checked = correct = 0
    for address, hostname in snapshot_result.snapshot.named_addresses():
        iface = world.topology.interfaces_by_address.get(address)
        if iface is None:
            continue
        for suffix, convention in conventions.items():
            if hostname.endswith("." + suffix):
                located = convention.locate(hostname)
                if located is not None:
                    checked += 1
                    correct += located == iface.router.loc
                break
    return conventions, checked, correct


def test_geohint_accuracy(benchmark, context):
    conventions, checked, correct = run_once(benchmark, _geo_quality,
                                             context)
    accuracy = correct / checked if checked else 0.0
    print()
    print("geo conventions learned: %d" % len(conventions))
    print("hostnames located: %d, correct: %d (%.1f%%)"
          % (checked, correct, 100.0 * accuracy))
    for suffix, convention in sorted(conventions.items())[:5]:
        print("  %-22s %s (%d codes)"
              % (suffix, convention.regex.pattern, len(convention.codes)))

    assert len(conventions) >= 5
    assert checked >= 50
    assert accuracy > 0.9
