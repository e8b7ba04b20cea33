"""Benchmark + evaluation of the router-name (Hoiho-2019) mode.

The ASN learner is a modification of Hoiho's router-name learner
(section 2.2); this benchmark runs the router-name mode on the latest
synthetic ITDK and checks that the alias sets it proposes are precise
against ground truth -- the property that made the 2019 system useful.
"""

from benchmarks.conftest import run_once
from repro.core.routername import RouterItem, learn_router_names


def _alias_quality(context):
    training_set = context.latest_itdk()
    snapshot_result = training_set.snapshot
    assert snapshot_result is not None
    resolution = snapshot_result.snapshot.resolution

    items = []
    hostname_router = {}
    for address, hostname in snapshot_result.snapshot.named_addresses():
        node_id = resolution.node_of_address.get(address)
        if node_id is None:
            continue
        items.append(RouterItem(hostname, node_id))
        hostname_router[hostname.lower()] = node_id

    conventions = learn_router_names(items)
    proposed = correct = 0
    for convention in conventions.values():
        in_suffix = [h for h in hostname_router
                     if h.endswith("." + convention.suffix)]
        for group in convention.aliases(in_suffix):
            members = sorted(group)
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    proposed += 1
                    if hostname_router[a] == hostname_router[b]:
                        correct += 1
    return conventions, proposed, correct


def test_routername_alias_precision(benchmark, context):
    conventions, proposed, correct = run_once(benchmark, _alias_quality,
                                              context)
    precision = correct / proposed if proposed else 0.0
    print()
    print("router-name conventions learned: %d" % len(conventions))
    print("alias pairs proposed: %d, correct: %d (precision %.1f%%)"
          % (proposed, correct, 100.0 * precision))
    for suffix, convention in sorted(conventions.items())[:6]:
        print("  %-22s %s" % (suffix, convention.regex.pattern))

    assert len(conventions) >= 3
    assert proposed >= 20
    # Hoiho-2019 reported high-confidence alias inferences; the
    # synthetic reproduction should be similarly precise.
    assert precision > 0.85
