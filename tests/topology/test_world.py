"""Unit tests for the World container and geography substrate."""

import pytest

from repro.topology import WorldConfig, generate_world
from repro.topology import geo
from repro.topology.asgraph import _LOC_CODES


@pytest.fixture(scope="module")
def world():
    return generate_world(42, WorldConfig.tiny())


class TestWorld:
    def test_stats_keys(self, world):
        stats = world.stats()
        for key in ("ases", "ixps", "routers", "interfaces", "links",
                    "interdomain_links", "prefixes"):
            assert stats[key] > 0

    def test_true_owner(self, world):
        iface = world.interfaces()[0]
        assert world.true_owner(iface.address) == iface.router.asn

    def test_true_owner_unknown_address(self, world):
        from repro.util.ipaddr import ip_to_int
        assert world.true_owner(ip_to_int("203.0.113.1")) is None

    def test_origin_matches_plan(self, world):
        asn = world.graph.asns()[0]
        prefix = world.plan.prefixes(asn)[0]
        assert world.origin(prefix.network) == asn

    def test_determinism(self):
        a = generate_world(9, WorldConfig.tiny())
        b = generate_world(9, WorldConfig.tiny())
        assert a.stats() == b.stats()
        assert [r.rid for r in a.routers()] == [r.rid for r in b.routers()]

    def test_router_locs_have_coordinates(self, world):
        """Every location code used by routers is geolocatable."""
        for router in world.routers():
            assert router.loc in geo.COORDS


class TestGeoTable:
    def test_all_loc_codes_covered(self):
        for code in _LOC_CODES:
            assert code in geo.COORDS, code

    def test_coordinates_in_range(self):
        for code, (lat, lon) in geo.COORDS.items():
            assert -90 <= lat <= 90, code
            assert -180 <= lon <= 180, code

    def test_triangle_inequality_sample(self):
        a, b, c = "fra", "nyc", "syd"
        assert geo.distance_km(a, c) <= \
            geo.distance_km(a, b) + geo.distance_km(b, c) + 1e-6

    def test_min_rtt_below_propagation_rtt(self):
        # The feasibility floor must be optimistic (no path stretch).
        assert geo.min_rtt_ms("fra", "nyc") <= \
            2.0 * geo.propagation_ms("fra", "nyc")

    def test_memoised_delays_equal_the_formula_exactly(self):
        # The memo must hand back the bit-identical float, on the first
        # call (miss) and on every later one (hit), for every pair.
        geo.propagation_ms.cache_clear()
        codes = sorted(geo.COORDS) + ["zzz"]
        for a in codes:
            for b in codes:
                distance = geo.distance_km(a, b)
                delay = 0.0 if distance is None \
                    else distance * geo._PATH_STRETCH / geo._FIBER_KM_PER_MS
                for _ in range(2):
                    assert geo.propagation_ms(a, b) == delay
                    assert geo.propagation_ms.__wrapped__(a, b) == delay
