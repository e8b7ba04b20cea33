"""Property-based tests (hypothesis) for core data structures and
invariants."""

import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.congruence import congruent
from repro.core.regex_model import (
    Alt,
    Cap,
    CLASS_ALPHA,
    CLASS_DIGIT,
    ClassSeq,
    Exclude,
    Lit,
    Regex,
    escape_literal,
)
from repro.core.types import SuffixDataset, TrainingItem
from repro.core.evaluate import evaluate_regex
from repro.psl import PublicSuffixList, default_psl
from repro.util.ipaddr import IPv4Prefix, int_to_ip, ip_to_int
from repro.util.radix import RadixTrie
from repro.util.strings import damerau_levenshtein, digit_runs, split_segments

# ---------------------------------------------------------------------------
# Damerau-Levenshtein: metric axioms against a reference implementation.
# ---------------------------------------------------------------------------

digits = st.text(alphabet="0123456789", min_size=0, max_size=8)


def _reference_dl(a, b):
    """Straightforward re-implementation used as an oracle."""
    la, lb = len(a), len(b)
    d = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la + 1):
        d[i][0] = i
    for j in range(lb + 1):
        d[0][j] = j
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + cost)
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] \
                    and a[i - 2] == b[j - 1]:
                d[i][j] = min(d[i][j], d[i - 2][j - 2] + 1)
    return d[la][lb]


@given(digits, digits)
def test_dl_matches_reference(a, b):
    assert damerau_levenshtein(a, b) == _reference_dl(a, b)


@given(digits, digits)
def test_dl_symmetry(a, b):
    assert damerau_levenshtein(a, b) == damerau_levenshtein(b, a)


@given(digits)
def test_dl_identity(a):
    assert damerau_levenshtein(a, a) == 0


@given(digits, digits, digits)
def test_dl_triangle_inequality(a, b, c):
    assert damerau_levenshtein(a, c) <= \
        damerau_levenshtein(a, b) + damerau_levenshtein(b, c)


# ---------------------------------------------------------------------------
# Congruence invariants.
# ---------------------------------------------------------------------------

asns = st.integers(min_value=1, max_value=4200000000)


@given(asns)
def test_congruent_reflexive(asn):
    assert congruent(str(asn), asn)


@given(asns, asns)
def test_congruent_requires_close_numbers(a, b):
    if congruent(str(a), b) and a != b:
        assert damerau_levenshtein(str(a), str(b)) == 1
        assert str(a)[0] == str(b)[0]
        assert str(a)[-1] == str(b)[-1]
        assert len(str(a)) >= 3 and len(str(b)) >= 3


# ---------------------------------------------------------------------------
# IPv4 and radix trie.
# ---------------------------------------------------------------------------

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)


@given(addresses)
def test_ip_round_trip(value):
    assert ip_to_int(int_to_ip(value)) == value


#: Addresses that nest: a handful of networks under 10.0.0.0/8 (so
#: random lengths over them produce covering and covered prefixes),
#: mixed with the whole address space.
nesting_addresses = st.one_of(
    st.sampled_from([0x0A000000, 0x0A000001, 0x0A000002, 0x0A000003,
                     0x0A010000, 0x0A0100FF, 0x0AFFFFFF]),
    addresses)
#: Prefix lengths biased to the edges of the range.
prefix_lengths = st.one_of(st.sampled_from([0, 31, 32]),
                           st.integers(min_value=0, max_value=32))


def _masked(address, length):
    mask = 0 if length == 0 else (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
    return IPv4Prefix(address & mask, length)


@given(st.lists(st.tuples(nesting_addresses, prefix_lengths), max_size=40),
       st.lists(nesting_addresses, min_size=1, max_size=8))
def test_radix_matches_linear_scan(entries, probes):
    trie = RadixTrie()
    stored = {}
    for index, (address, length) in enumerate(entries):
        prefix = _masked(address, length)
        trie.insert(prefix, index)
        stored[prefix] = index
    assert len(trie) == len(stored)
    # items(): every pair once, in (network, length) order -- the
    # depth-first order of a binary trie.
    assert list(trie.items()) == sorted(
        stored.items(), key=lambda item: (item[0].network, item[0].length))
    for prefix, value in stored.items():
        assert trie.exact(prefix) == value
    for probe in probes:
        covering = [prefix for prefix in stored if prefix.contains(probe)]
        expected = None
        if covering:
            best = max(covering, key=lambda prefix: prefix.length)
            expected = (best, stored[best])
        assert trie.lookup_prefix(probe) == expected
        assert trie.lookup(probe) == (expected[1] if expected else None)
        host = IPv4Prefix(probe, 32)
        assert trie.exact(host) == stored.get(host)


# ---------------------------------------------------------------------------
# Public suffix list: the label tree against a naive linear rule matcher.
# ---------------------------------------------------------------------------

psl_labels = st.sampled_from(["a", "b", "c", "com"])
psl_rules = st.lists(
    st.tuples(st.booleans(),
              st.lists(st.one_of(psl_labels, st.just("*")),
                       min_size=1, max_size=3)),
    max_size=12)
psl_hostnames = st.lists(st.one_of(psl_labels, st.just("d")),
                         min_size=1, max_size=5)


def _naive_public_suffix(rules, hostname):
    """The PSL algorithm as a linear scan over every rule."""
    parsed = {}
    for exception, labels in rules:
        parsed[tuple(reversed(labels))] = exception
    labels = list(reversed(hostname.split(".")))
    matches = [(rule, exception) for rule, exception in parsed.items()
               if len(rule) <= len(labels)
               and all(r == "*" or r == label
                       for r, label in zip(rule, labels))]
    exceptions = [len(rule) - 1 for rule, exception in matches if exception]
    if exceptions:
        width = max(exceptions)
    elif matches:
        width = max(len(rule) for rule, _ in matches)
    else:
        width = 1
    return ".".join(reversed(labels[:min(width, len(labels))]))


@given(psl_rules, psl_hostnames)
def test_psl_matches_naive_rule_scan(rules, host_labels):
    text = "\n".join(("!" if exception else "") + ".".join(labels)
                     for exception, labels in rules)
    psl = PublicSuffixList.from_text(text)
    hostname = ".".join(host_labels)
    suffix = _naive_public_suffix(rules, hostname)
    assert psl.public_suffix(hostname) == suffix
    width = suffix.count(".") + 1
    expected_domain = (".".join(host_labels[-(width + 1):])
                       if len(host_labels) > width else None)
    assert psl.registered_domain(hostname) == expected_domain
    assert len(psl) == len({tuple(labels) for _, labels in rules})


# ---------------------------------------------------------------------------
# String segmentation.
# ---------------------------------------------------------------------------

hostname_chars = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789.-_", min_size=0,
    max_size=30)


@given(hostname_chars)
def test_split_segments_round_trip(text):
    tokens = split_segments(text)
    assert "".join(tokens) == text
    # Odd positions are single punctuation characters.
    for index, token in enumerate(tokens):
        if index % 2 == 1:
            assert len(token) == 1 and token in ".-_"
        else:
            assert all(c not in ".-_" for c in token)


@given(hostname_chars)
def test_digit_runs_are_maximal_and_ordered(text):
    runs = digit_runs(text)
    previous_end = -1
    for run in runs:
        assert run.start > previous_end
        assert text[run.start:run.end] == run.text
        assert run.text.isdigit()
        if run.start > 0:
            assert not text[run.start - 1].isdigit()
        if run.end < len(text):
            assert not text[run.end].isdigit()
        previous_end = run.end


# ---------------------------------------------------------------------------
# Regex AST: rendered patterns always compile; literals match themselves.
# ---------------------------------------------------------------------------

literals = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789",
                   min_size=1, max_size=6)


@st.composite
def elements(draw):
    kind = draw(st.integers(min_value=0, max_value=4))
    if kind == 0:
        return Lit(draw(literals))
    if kind == 1:
        return Lit(draw(st.sampled_from([".", "-", "_"])))
    if kind == 2:
        return Exclude(frozenset(draw(st.sampled_from([".", "-", "_"]))))
    if kind == 3:
        atoms = draw(st.sets(st.sampled_from(
            [CLASS_ALPHA, CLASS_DIGIT, "-", "_"]), min_size=1))
        return ClassSeq(frozenset(atoms))
    options = tuple(sorted(draw(st.sets(literals, min_size=1,
                                        max_size=3))))
    return Alt(options, optional=draw(st.booleans()))


@given(st.lists(elements(), min_size=0, max_size=5))
def test_rendered_patterns_compile(elems):
    regex = Regex(list(elems) + [Cap()], suffix="example.com")
    compiled = regex.compiled       # must not raise
    assert compiled.groups >= 1


@given(literals)
def test_escaped_literal_matches_itself(text):
    assert re.fullmatch(escape_literal(text), text)


@given(st.text(max_size=10))
def test_escape_literal_never_changes_semantics(text):
    pattern = escape_literal(text)
    assert re.fullmatch(pattern, text)


# ---------------------------------------------------------------------------
# Match cache: cached scoring is equivalent to the uncached reference.
# ---------------------------------------------------------------------------

@st.composite
def cache_scenarios(draw):
    """Random regex sets over random datasets under one suffix."""
    suffix = "example.com"
    regexes = tuple(
        Regex(draw(st.lists(elements(), max_size=4)) + [Cap()],
              suffix=suffix)
        for _ in range(draw(st.integers(min_value=0, max_value=4))))
    items = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        asn = draw(st.integers(min_value=100, max_value=99999))
        label = draw(st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz0123456789-.",
            min_size=0, max_size=12))
        if draw(st.booleans()):    # sometimes embed the training ASN
            label = "%s%d%s" % (label, asn, draw(st.sampled_from(
                ["", "-pop", ".ge0"])))
        hostname = (label + "." + suffix) if label else suffix
        items.append(TrainingItem(hostname, asn))
    return regexes, SuffixDataset(suffix, items)


@given(cache_scenarios())
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cached_evaluate_nc_matches_reference(scenario):
    from repro.core.evaluate import evaluate_nc
    from repro.core.matchcache import ComposedNC, MatchCache
    regexes, dataset = scenario
    cache = MatchCache(dataset)
    reference = evaluate_nc(regexes, dataset, keep_outcomes=True)
    cached = cache.score_nc(regexes, keep_outcomes=True)
    assert (cached.tp, cached.fp, cached.fn, cached.matches,
            cached.distinct_asns, cached.outcomes) == \
        (reference.tp, reference.fp, reference.fn, reference.matches,
         reference.distinct_asns, reference.outcomes)
    # Incremental composition agrees with the full evaluation at every
    # prefix of the set.
    composed = ComposedNC.empty(cache)
    for end, regex in enumerate(regexes, start=1):
        composed = composed.extend(regex)
        prefix = evaluate_nc(regexes[:end], dataset)
        assert (composed.score.tp, composed.score.fp, composed.score.fn,
                composed.score.matches, composed.score.distinct_asns) == \
            (prefix.tp, prefix.fp, prefix.fn, prefix.matches,
             prefix.distinct_asns)


# ---------------------------------------------------------------------------
# Learner invariants on synthetic suffix data.
# ---------------------------------------------------------------------------

@st.composite
def simple_suffix_items(draw):
    asn_list = draw(st.lists(st.integers(min_value=100, max_value=99999),
                             min_size=4, max_size=10, unique=True))
    return [TrainingItem("as%d.pop%d.example.com" % (asn, i % 3), asn)
            for i, asn in enumerate(asn_list)]


@given(simple_suffix_items())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_learner_perfect_on_clean_simple_data(items):
    from repro.core.hoiho import learn_suffix
    dataset = SuffixDataset("example.com", items)
    convention = learn_suffix(dataset)
    assert convention is not None
    score = convention.score
    assert score.fn == 0
    assert score.fp == 0
    assert score.tp == len(items)
    for item in items:
        assert convention.extract(item.hostname) == item.train_asn


@given(simple_suffix_items())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_nc_score_never_below_best_phase1(items):
    """Phases 2-4 must never select something worse than phase 1's best."""
    from repro.core.evaluate import evaluate_regex
    from repro.core.hoiho import learn_suffix
    from repro.core.phase1 import generate_base_regexes
    dataset = SuffixDataset("example.com", items)
    base = generate_base_regexes(dataset)
    best_base = max((evaluate_regex(r, dataset).atp for r in base),
                    default=0)
    convention = learn_suffix(dataset)
    assert convention is not None
    assert convention.score.atp >= best_base


# ---------------------------------------------------------------------------
# PSL: registered domain always ends with its public suffix.
# ---------------------------------------------------------------------------

labels = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789",
                 min_size=1, max_size=6)


@given(st.lists(labels, min_size=1, max_size=5))
def test_psl_invariants(parts):
    hostname = ".".join(parts)
    psl = default_psl()
    suffix = psl.public_suffix(hostname)
    assert suffix is not None
    assert hostname.endswith(suffix)
    registered = psl.registered_domain(hostname)
    if registered is not None:
        assert registered.endswith(suffix)
        assert registered.count(".") == suffix.count(".") + 1
        assert hostname.endswith(registered)


# ---------------------------------------------------------------------------
# Serialization round-trips on randomly generated data.
# ---------------------------------------------------------------------------

@st.composite
def itdk_like(draw):
    from repro.alias.midar import AliasResolution, InferredNode
    from repro.itdk.snapshot import ITDKSnapshot
    n_nodes = draw(st.integers(min_value=1, max_value=6))
    resolution = AliasResolution()
    used = set()
    for index in range(n_nodes):
        addresses = draw(st.lists(addresses_unique, min_size=1,
                                  max_size=4, unique=True))
        addresses = [a for a in addresses if a not in used]
        if not addresses:
            continue
        used.update(addresses)
        node = InferredNode(node_id="N%d" % index, addresses=addresses)
        resolution.nodes[node.node_id] = node
        for address in addresses:
            resolution.node_of_address[address] = node.node_id
    snapshot = ITDKSnapshot(label="prop", resolution=resolution)
    for node_id in sorted(resolution.nodes):
        if draw(st.booleans()):
            snapshot.annotations[node_id] = draw(
                st.integers(min_value=1, max_value=400000))
    snapshot.method = "bdrmapit"
    for address in sorted(used):
        if draw(st.booleans()):
            label = draw(st.text(
                alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                min_size=1, max_size=12)).strip("-")
            if label:
                snapshot.hostnames[address] = label + ".example.net"
    return snapshot


addresses_unique = st.integers(min_value=1, max_value=0xFFFFFFFE)


@given(itdk_like())
@settings(max_examples=30, deadline=None)
def test_itdk_serialization_round_trip(snapshot):
    from repro.itdk.snapshot import ITDKSnapshot
    parsed = ITDKSnapshot.from_lines(
        snapshot.label, snapshot.nodes_lines(),
        snapshot.node_as_lines(), snapshot.dns_lines())
    assert parsed.annotations == snapshot.annotations
    assert parsed.hostnames == snapshot.hostnames
    assert {n.node_id: sorted(n.addresses)
            for n in parsed.nodes()} == \
        {n.node_id: sorted(n.addresses) for n in snapshot.nodes()}


@given(st.lists(st.tuples(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-.",
            min_size=1, max_size=20),
    st.integers(min_value=1, max_value=4200000000)), max_size=20))
@settings(max_examples=30, deadline=None)
def test_training_jsonl_round_trip(pairs):
    from repro.core.io import training_from_jsonl, training_to_jsonl
    from repro.core.types import TrainingItem
    items = [TrainingItem(hostname=h, train_asn=a) for h, a in pairs]
    assert training_from_jsonl(training_to_jsonl(items)) == items


@st.composite
def hoiho_results(draw):
    """Random learning results: arbitrary suffixes, regex sets built
    from the element strategy, arbitrary scores and classes."""
    from repro.core.evaluate import NCScore
    from repro.core.hoiho import HoihoResult
    from repro.core.select import LearnedConvention, NCClass
    result = HoihoResult(
        suffixes_examined=draw(st.integers(min_value=0, max_value=500)))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        suffix = ".".join(draw(st.lists(labels, min_size=2, max_size=3)))
        if suffix in result.conventions:
            continue
        regexes = tuple(
            Regex(draw(st.lists(elements(), max_size=4)) + [Cap()],
                  suffix=suffix)
            for _ in range(draw(st.integers(min_value=1, max_value=3))))
        score = NCScore(tp=draw(st.integers(0, 50)),
                        fp=draw(st.integers(0, 50)),
                        fn=draw(st.integers(0, 50)),
                        matches=draw(st.integers(0, 100)))
        score.distinct_asns = set(draw(st.lists(
            st.integers(min_value=1, max_value=400000), max_size=6)))
        result.conventions[suffix] = LearnedConvention(
            suffix=suffix, regexes=regexes, score=score,
            nc_class=draw(st.sampled_from(list(NCClass))))
    return result


@given(hoiho_results())
@settings(max_examples=40, deadline=None)
def test_conventions_json_round_trip(result):
    """The serving layer loads conventions from JSON; the round trip
    must be faithful: same suffixes, patterns (in evaluation order),
    scores, classes -- and a second round trip is a fixed point."""
    from repro.core.io import conventions_from_json, conventions_to_json
    serialized = conventions_to_json(result)
    restored = conventions_from_json(serialized)
    assert restored.suffixes_examined == result.suffixes_examined
    assert set(restored.conventions) == set(result.conventions)
    for suffix, convention in result.conventions.items():
        twin = restored.conventions[suffix]
        assert twin.patterns() == convention.patterns()
        assert twin.nc_class is convention.nc_class
        assert (twin.score.tp, twin.score.fp, twin.score.fn,
                twin.score.matches, twin.score.distinct_asns) == \
            (convention.score.tp, convention.score.fp, convention.score.fn,
             convention.score.matches, convention.score.distinct_asns)
    assert conventions_to_json(restored) == serialized


@given(hoiho_results(),
       st.lists(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-.",
                        min_size=1, max_size=24), max_size=10))
@settings(max_examples=25, deadline=None)
def test_round_tripped_conventions_annotate_identically(result, hostnames):
    """A service built from serialized conventions annotates exactly
    like one built from the in-memory result."""
    from repro.core.io import conventions_to_json
    from repro.serve.service import AnnotationService
    original = AnnotationService(result)
    restored = AnnotationService.from_json(conventions_to_json(result))
    for hostname in hostnames:
        assert original.annotate_one(hostname) == \
            restored.annotate_one(hostname)


# ---------------------------------------------------------------------------
# Naming-layer invariants across seeds.
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=30),
       st.integers(min_value=0, max_value=30))
@settings(max_examples=6, deadline=None)
def test_naming_invariants(world_seed, naming_seed):
    from repro.naming.assigner import NamingConfig, assign_hostnames
    from repro.naming.conventions import EmbedKind
    from repro.topology.world import WorldConfig, generate_world
    world = generate_world(world_seed, WorldConfig.tiny())
    outcome = assign_hostnames(world, naming_seed,
                               NamingConfig(year=2020.0))
    for record in outcome.records.values():
        # Hostnames are DNS-safe and live under the namer's domain.
        assert record.hostname.endswith("." + record.domain) \
            or record.hostname == record.domain
        assert all(c.isalnum() or c in ".-_" for c in record.hostname)
        # Whatever digits were embedded literally appear in the name.
        if record.embedded_text is not None:
            assert record.embedded_text in record.hostname
            assert record.subject_asn is not None
        # Hazard flags only make sense alongside an embedded ASN.
        if record.stale or record.typo or record.sibling:
            assert record.embedded_text is not None
        # Non-hazarded neighbor annotations describe the subject.
        # (A NEIGHBOR_ASN operator still writes plain labels before its
        # adoption year and on its own link ends: no embedded text.)
        if record.embed is EmbedKind.NEIGHBOR_ASN \
                and record.embedded_text is not None \
                and not (record.stale or record.typo or record.sibling):
            assert record.embedded_text == str(record.subject_asn)


# ---------------------------------------------------------------------------
# Valley-free property of generated routing.
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=10, deadline=None)
def test_generated_routes_valley_free(seed):
    from repro.topology.asgraph import ASGraphConfig, generate_asgraph
    from repro.traceroute.routing import RoutingModel
    graph = generate_asgraph(seed, ASGraphConfig(
        n_clique=2, n_transit=3, n_access=5, n_stub=6, n_content=1,
        n_ixps=1))
    routing = RoutingModel(graph)
    asns = graph.asns()
    rels = graph.relationships
    for src in asns[:6]:
        for dst in asns[-6:]:
            path = routing.as_path(src, dst)
            if path is not None:
                assert rels.valley_free(tuple(path)), (seed, path)
