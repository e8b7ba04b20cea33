"""Unit tests for the section-5 modification (extraction hints)."""

from repro.alias.midar import AliasResolution, InferredNode
from repro.asn.bgp import RouteTable
from repro.asn.org import ASOrgMap
from repro.asn.relationships import ASRelationships
from repro.bdrmapit.graph import build_router_graph
from repro.bdrmapit.hints import (
    ExtractionHint,
    apply_hints,
    hints_from_conventions,
)
from repro.bdrmapit.metrics import agreement_metrics
from repro.core.evaluate import NCScore
from repro.core.regex_model import Regex
from repro.core.select import LearnedConvention, NCClass
from repro.itdk.snapshot import ITDKSnapshot
from repro.traceroute.probe import Trace
from repro.util.ipaddr import IPv4Prefix, ip_to_int

P, C, OTHER = 3356, 64500, 8888


def _setup(traces):
    table = RouteTable()
    table.announce(IPv4Prefix.parse("10.0.0.0/8"), P)
    table.announce(IPv4Prefix.parse("20.0.0.0/8"), C)
    table.announce(IPv4Prefix.parse("80.0.0.0/8"), OTHER)
    resolution = AliasResolution()
    for node_id, addresses in {
            "cB": ["10.0.1.1"], "cI": ["20.0.0.5"]}.items():
        node = InferredNode(node_id=node_id,
                            addresses=[ip_to_int(a) for a in addresses])
        resolution.nodes[node_id] = node
        for address in node.addresses:
            resolution.node_of_address[address] = node_id
    graph = build_router_graph(resolution, traces, table)
    rels = ASRelationships()
    rels.add_p2c(P, C)
    return graph, rels


def _hint(extracted, nc_class=NCClass.GOOD, node_id="cB",
          address="10.0.1.1"):
    return ExtractionHint(node_id=node_id, address=ip_to_int(address),
                          hostname="h.example.net", suffix="example.net",
                          extracted_asn=extracted, nc_class=nc_class)


def _forward_trace():
    return Trace(vp_asn=1, dst_address=ip_to_int("20.9.9.9"), dst_asn=C,
                 hops=[ip_to_int("10.0.1.1"), ip_to_int("20.0.0.5"),
                       ip_to_int("20.9.9.9")], reached=True)


class TestApplyHints:
    def test_correct_hostname_overrides_wrong_inference(self):
        graph, rels = _setup([_forward_trace()])
        # Pretend bdrmapIT wrongly said P for the customer border.
        annotations = {"cB": P, "cI": C}
        outcome = apply_hints(graph, annotations, [_hint(C)], rels)
        assert outcome.annotations["cB"] == C
        decision = outcome.decisions[0]
        assert decision.used
        assert not decision.congruent

    def test_stale_hostname_rejected(self):
        graph, rels = _setup([_forward_trace()])
        annotations = {"cB": C, "cI": C}
        # OTHER appears nowhere in cB's subsequent/dest sets.
        outcome = apply_hints(graph, annotations, [_hint(OTHER)], rels)
        assert outcome.annotations["cB"] == C
        assert not outcome.decisions[0].used

    def test_congruent_hint_untouched(self):
        graph, rels = _setup([_forward_trace()])
        annotations = {"cB": C}
        outcome = apply_hints(graph, annotations, [_hint(C)], rels)
        assert outcome.decisions[0].congruent
        assert not outcome.decisions[0].used
        assert outcome.annotations["cB"] == C

    def test_sibling_of_constraint_is_reasonable(self):
        graph, rels = _setup([_forward_trace()])
        orgs = ASOrgMap()
        orgs.assign(C, "org-c")
        orgs.assign(OTHER, "org-c")     # OTHER is C's sibling
        annotations = {"cB": P}
        outcome = apply_hints(graph, annotations, [_hint(OTHER)], rels,
                              orgs)
        assert outcome.annotations["cB"] == OTHER

    def test_provider_of_constraint_is_reasonable(self):
        graph, rels = _setup([_forward_trace()])
        # Extracted P: P is a provider of C which is in the dest set.
        annotations = {"cB": OTHER}
        outcome = apply_hints(graph, annotations, [_hint(P)], rels)
        assert outcome.annotations["cB"] == P

    def test_majority_extraction_prefers_good_class(self):
        graph, rels = _setup([_forward_trace()])
        annotations = {"cB": P}
        hints = [_hint(OTHER, NCClass.POOR), _hint(OTHER, NCClass.POOR),
                 _hint(C, NCClass.GOOD)]
        outcome = apply_hints(graph, annotations, hints, rels)
        # Class weighting cannot beat a 2:1 majority here, but the
        # chosen extraction must be deterministic; OTHER is unreasonable
        # so nothing changes; C alone would have been used.
        assert outcome.annotations["cB"] in (P, C)

    def test_used_rate_by_class(self):
        graph, rels = _setup([_forward_trace()])
        annotations = {"cB": P}
        outcome = apply_hints(graph, annotations,
                              [_hint(C, NCClass.GOOD)], rels)
        rates = outcome.used_rate_by_class()
        assert rates["good"] == (1, 1)


class TestHintsFromConventions:
    def test_extraction_flow(self):
        resolution = AliasResolution()
        node = InferredNode(node_id="N1",
                            addresses=[ip_to_int("10.0.1.1")])
        resolution.nodes["N1"] = node
        resolution.node_of_address[ip_to_int("10.0.1.1")] = "N1"
        snapshot = ITDKSnapshot(label="t", resolution=resolution)
        snapshot.hostnames[ip_to_int("10.0.1.1")] = "as64500.example.com"
        convention = LearnedConvention(
            suffix="example.com",
            regexes=(Regex.raw(r"^as(\d+)\.example\.com$"),),
            score=NCScore(tp=5), nc_class=NCClass.GOOD)
        hints = hints_from_conventions(snapshot,
                                       {"example.com": convention})
        assert len(hints) == 1
        assert hints[0].extracted_asn == 64500
        assert hints[0].node_id == "N1"

    def test_uncovered_suffix_skipped(self):
        resolution = AliasResolution()
        node = InferredNode(node_id="N1",
                            addresses=[ip_to_int("10.0.1.1")])
        resolution.nodes["N1"] = node
        resolution.node_of_address[ip_to_int("10.0.1.1")] = "N1"
        snapshot = ITDKSnapshot(label="t", resolution=resolution)
        snapshot.hostnames[ip_to_int("10.0.1.1")] = "as64500.other.com"
        assert hints_from_conventions(snapshot, {}) == []


class TestAgreementMetrics:
    def test_agreement(self):
        hints = [_hint(C, node_id="a"), _hint(OTHER, node_id="b")]
        metrics = agreement_metrics({"a": C, "b": C}, hints)
        assert metrics.agree == 1
        assert metrics.disagree == 1
        assert metrics.rate == 0.5
        assert metrics.error_ratio == 2.0

    def test_any_hint_matching_counts(self):
        hints = [_hint(OTHER, node_id="a"), _hint(C, node_id="a")]
        metrics = agreement_metrics({"a": C}, hints)
        assert metrics.agree == 1
        assert metrics.disagree == 0

    def test_sibling_agreement(self):
        orgs = ASOrgMap()
        orgs.assign(C, "o")
        orgs.assign(OTHER, "o")
        metrics = agreement_metrics({"a": C}, [_hint(OTHER, node_id="a")],
                                    orgs)
        assert metrics.agree == 1

    def test_unannotated_nodes_skipped(self):
        metrics = agreement_metrics({}, [_hint(C, node_id="a")])
        assert metrics.total == 0
        assert metrics.error_ratio is None
