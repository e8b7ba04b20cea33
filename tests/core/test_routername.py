"""Tests for the router-name (alias resolution) learning mode."""

from repro.core.regex_model import Regex
from repro.core.routername import (
    RouterDataset,
    RouterItem,
    RouterNameConfig,
    candidate_patterns,
    evaluate_router_regex,
    learn_router_names,
    learn_router_suffix,
)


def _rocketfuel_style():
    """port.router.loc hostnames: the router name spans two segments."""
    items = []
    for router, loc, rid in (("cr1", "fra", "R1"), ("cr2", "fra", "R2"),
                             ("cr1", "lon", "R3"), ("br1", "ams", "R4")):
        for port in ("ae2", "xe0", "ge3"):
            items.append(RouterItem("%s.%s.%s.example.net"
                                    % (port, router, loc), rid))
    return RouterDataset("example.net", items)


class TestCandidates:
    def test_capture_over_segment_ranges(self):
        dataset = _rocketfuel_style()
        patterns = candidate_patterns(dataset, dataset.items[0])
        # Captures over 1, 2 and 3 segments all appear.
        assert any(p.count("[a-z\\d]+") == 3 for p in patterns)
        assert r"^[^\.]+\.([a-z\d]+\.[a-z\d]+)\.example\.net$" in patterns

    def test_no_candidates_for_bare_suffix(self):
        dataset = RouterDataset("example.net",
                                [RouterItem("example.net", "R1")])
        assert candidate_patterns(dataset, dataset.items[0]) == []


class TestEvaluate:
    def test_perfect_regex(self):
        dataset = _rocketfuel_style()
        regex = Regex.raw(
            r"^[^\.]+\.([a-z\d]+\.[a-z\d]+)\.example\.net$")
        score = evaluate_router_regex(regex, dataset)
        assert score.tp == 12
        assert score.fp == 0
        assert score.fn == 0

    def test_loc_only_capture_merges_routers(self):
        """Capturing just the loc merges cr1.fra with cr2.fra: FPs."""
        dataset = _rocketfuel_style()
        regex = Regex.raw(r"^[^\.]+\.[^\.]+\.([a-z\d]+)\.example\.net$")
        score = evaluate_router_regex(regex, dataset)
        assert score.fp >= 6          # both fra routers merged
        assert score.atp < 12

    def test_port_capture_splits_routers(self):
        """Capturing the port gives each interface its own name."""
        dataset = _rocketfuel_style()
        regex = Regex.raw(r"^([a-z\d]+)\.[^\.]+\.[^\.]+\.example\.net$")
        score = evaluate_router_regex(regex, dataset)
        assert score.tp == 0

    def test_unmatched_multi_router_is_fn(self):
        dataset = _rocketfuel_style()
        regex = Regex.raw(r"^nomatch\.([a-z\d]+)\.example\.net$")
        score = evaluate_router_regex(regex, dataset)
        assert score.fn == 12


class TestLearn:
    def test_learns_router_name_position(self):
        convention = learn_router_suffix(_rocketfuel_style())
        assert convention is not None
        assert convention.name_of("hu9.cr1.fra.example.net") == "cr1.fra"
        assert convention.score.tp == 12
        assert convention.score.fp == 0

    def test_alias_grouping(self):
        convention = learn_router_suffix(_rocketfuel_style())
        groups = convention.aliases([
            "ae2.cr1.fra.example.net", "xe0.cr1.fra.example.net",
            "ae2.cr2.fra.example.net", "lone.cr9.tyo.example.net"])
        assert {"ae2.cr1.fra.example.net",
                "xe0.cr1.fra.example.net"} in groups
        assert all(len(group) >= 2 for group in groups)

    def test_rejects_no_structure(self):
        # Hostnames whose routers share no common extractable portion.
        items = [RouterItem("host%d.example.net" % i, "R%d" % i)
                 for i in range(8)]
        assert learn_router_suffix(RouterDataset("example.net", items)) \
            is None

    def test_min_multi_routers_gate(self):
        items = [RouterItem("ae%d.cr1.fra.example.net" % i, "R1")
                 for i in range(4)]
        config = RouterNameConfig(min_multi_routers=2)
        assert learn_router_suffix(RouterDataset("example.net", items),
                                   config) is None

    def test_group_and_learn_many_suffixes(self):
        items = []
        for suffix in ("alpha.net", "beta.com"):
            for router, rid in (("cr1", "A"), ("cr2", "B"), ("er1", "C")):
                for port in ("ae0", "xe1"):
                    items.append(RouterItem(
                        "%s.%s.fra.%s" % (port, router, suffix),
                        "%s-%s" % (suffix, rid)))
        conventions = learn_router_names(items)
        assert set(conventions) == {"alpha.net", "beta.com"}

    def test_on_synthetic_world(self):
        """Router names learned from a synthetic ITDK recover true
        aliases with high precision."""
        from repro import METHOD_BDRMAPIT, SnapshotSpec, WorldConfig, \
            generate_world, run_snapshot
        world = generate_world(77, WorldConfig.tiny())
        result = run_snapshot(world, SnapshotSpec(
            label="t", year=2020.0, method=METHOD_BDRMAPIT, n_vps=8,
            seed=5))
        items = []
        for address, hostname in result.snapshot.named_addresses():
            node_id = result.snapshot.resolution.node_of_address.get(
                address)
            if node_id is not None:
                items.append(RouterItem(hostname, node_id))
        conventions = learn_router_names(items)
        # Any learned convention must be cohesion-positive by the gate.
        for convention in conventions.values():
            assert convention.score.atp > 0
