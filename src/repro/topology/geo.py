"""Geography for the synthetic Internet: city coordinates and delays.

The location codes used in router names map to real metro coordinates,
and link delays follow great-circle distance at the speed of light in
fiber.  Link delays are memoised per location-code pair (at most
``len(COORDS) ** 2`` entries for the codes routers carry; traceroute
simulation asks for them millions of times); a memo hit returns the
bit-identical float the formula computed.  This is the substrate the
DRoP-style geolocation learner (:mod:`repro.core.geohint`) validates
hostname location hints against: an RTT sample bounds how far a router
can be from the vantage point.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Optional, Tuple

#: Approximate (latitude, longitude) per location code used in names.
COORDS: Dict[str, Tuple[float, float]] = {
    "nyc": (40.71, -74.01), "lax": (34.05, -118.24),
    "chi": (41.88, -87.63), "dfw": (32.90, -97.04),
    "sea": (47.61, -122.33), "mia": (25.77, -80.19),
    "iad": (38.95, -77.45), "sjc": (37.36, -121.93),
    "atl": (33.64, -84.43), "den": (39.74, -104.99),
    "lon": (51.51, -0.13), "fra": (50.11, 8.68),
    "ams": (52.37, 4.90), "par": (48.86, 2.35),
    "zrh": (47.38, 8.54), "vie": (48.21, 16.37),
    "mil": (45.46, 9.19), "mad": (40.42, -3.70),
    "waw": (52.23, 21.01), "sto": (59.33, 18.07),
    "osl": (59.91, 10.75), "hel": (60.17, 24.94),
    "cph": (55.68, 12.57), "prg": (50.08, 14.44),
    "gru": (-23.55, -46.64), "mex": (19.43, -99.13),
    "yyz": (43.65, -79.38), "syd": (-33.87, 151.21),
    "tyo": (35.68, 139.69), "sel": (37.57, 126.98),
    "bom": (19.08, 72.88), "jnb": (-26.20, 28.05),
    "eze": (-34.60, -58.38), "scl": (-33.45, -70.67),
    "mvd": (-34.90, -56.16), "bru": (50.85, 4.35),
    "dub": (53.35, -6.26), "akl": (-36.85, 174.76),
    "mel": (-37.81, 144.96), "hkg": (22.32, 114.17),
    "sin": (1.35, 103.82), "muc": (48.14, 11.58),
    "dus": (51.22, 6.77), "ber": (52.52, 13.40),
    "ham": (53.55, 9.99), "man": (53.48, -2.24),
    "bos": (42.36, -71.06), "phl": (39.95, -75.17),
    "slc": (40.76, -111.89), "phx": (33.45, -112.07),
}

_EARTH_RADIUS_KM = 6371.0

#: Light in fiber travels roughly 200 km per millisecond; real paths
#: are not great circles, so effective speed is lower.
_FIBER_KM_PER_MS = 200.0
_PATH_STRETCH = 1.3


def distance_km(a: str, b: str) -> Optional[float]:
    """Great-circle distance between two location codes, in km.

    Returns ``None`` when either code is unknown.
    """
    if a not in COORDS or b not in COORDS:
        return None
    (lat1, lon1), (lat2, lon2) = COORDS[a], COORDS[b]
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    h = (math.sin(dphi / 2.0) ** 2
         + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2)
    return 2.0 * _EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


@functools.lru_cache(maxsize=None)
def propagation_ms(a: str, b: str) -> float:
    """One-way propagation delay between two location codes (ms).

    Unknown codes contribute zero (co-located assumption), which keeps
    delays optimistic -- exactly what a feasibility *lower bound* needs.
    """
    distance = distance_km(a, b)
    if distance is None:
        return 0.0
    return distance * _PATH_STRETCH / _FIBER_KM_PER_MS


def min_rtt_ms(a: str, b: str) -> float:
    """The physical floor on RTT between two locations (ms)."""
    distance = distance_km(a, b)
    if distance is None:
        return 0.0
    # The floor uses the true great circle without stretch: no real
    # path can beat it.
    return 2.0 * distance / _FIBER_KM_PER_MS


def feasible(vp_loc: str, candidate_loc: str, rtt_ms: float,
             slack_ms: float = 2.0) -> bool:
    """Could a router in ``candidate_loc`` answer ``vp_loc`` in
    ``rtt_ms``?  (The DRoP-style constraint.)"""
    return rtt_ms + slack_ms >= min_rtt_ms(vp_loc, candidate_loc)
