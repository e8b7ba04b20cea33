"""Synthetic AS-level Internet generation.

Produces an AS graph with the structural features the paper's inference
problem depends on: a transit-free clique, regional transit providers,
access networks, stubs and content networks, sibling organizations owning
several ASNs, and IXPs with member sets.  Relationship semantics follow
CAIDA's serial-1 dataset (provider-customer, peer-peer).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.asn.org import ASOrgMap
from repro.asn.relationships import ASRelationships
from repro.util.rand import substream


class Tier(enum.Enum):
    """Coarse role of an AS in the synthetic hierarchy."""

    CLIQUE = "clique"      # transit-free backbone (tier 1)
    TRANSIT = "transit"    # regional/national transit provider
    ACCESS = "access"      # access/eyeball ISP, sells to stubs
    STUB = "stub"          # enterprise or small network, buys transit only
    CONTENT = "content"    # content/CDN network, peers widely


# Pools used to synthesize operator slugs and location codes.  The slugs
# intentionally look like real operator shortnames so that generated
# hostnames resemble the paper's examples.
_SYLLABLES = [
    "tel", "net", "com", "link", "core", "via", "trans", "glo", "uni",
    "inter", "fast", "metro", "nova", "alt", "path", "wave", "peak",
    "iron", "star", "blue", "red", "north", "south", "east", "west",
    "sky", "terra", "aqua", "volt", "giga", "zet", "lumen", "dex",
    "quant", "hyper", "omni", "axi", "vec", "nex",
]

_COUNTRIES: List[Tuple[str, str]] = [
    # (country code, preferred TLD for operator domains)
    ("us", "net"), ("us", "com"), ("de", "de"), ("fr", "fr"), ("ch", "ch"),
    ("at", "at"), ("it", "it"), ("es", "es"), ("pl", "pl"), ("se", "se"),
    ("no", "no"), ("fi", "fi"), ("dk", "dk"), ("cz", "cz"), ("br", "com.br"),
    ("mx", "mx"), ("ca", "ca"), ("au", "net.au"), ("jp", "ne.jp"),
    ("kr", "kr"), ("in", "in"), ("za", "co.za"), ("ar", "com.ar"),
    ("cl", "cl"), ("uy", "net.uy"), ("be", "be"), ("nl", "nl"),
    ("gb", "co.uk"), ("nz", "net.nz"), ("lu", "lu"),
]

_LOC_CODES = [
    "nyc", "lax", "chi", "dfw", "sea", "mia", "iad", "sjc", "atl", "den",
    "lon", "fra", "ams", "par", "zrh", "vie", "mil", "mad", "waw", "sto",
    "osl", "hel", "cph", "prg", "gru", "mex", "yyz", "syd", "tyo", "sel",
    "bom", "jnb", "eze", "scl", "mvd", "bru", "dub", "akl", "mel", "hkg",
    "sin", "muc", "dus", "ber", "ham", "man", "bos", "phl", "slc", "phx",
]


@dataclass
class ASNode:
    """One autonomous system in the synthetic Internet."""

    asn: int
    tier: Tier
    slug: str                 # short operator name, e.g. "gtt" or "nts"
    org_id: str
    country: str
    domain: str               # registered domain the operator names under
    loc_codes: List[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        """Human-ish operator name derived from the slug."""
        return self.slug.capitalize()


@dataclass
class IXPSpec:
    """An Internet exchange point: shared peering LAN plus member set."""

    ixp_id: int
    slug: str                 # e.g. "akl-ix"
    domain: str               # e.g. "akl-ix.nz"
    country: str
    #: ASN of the exchange operator (route servers, management).  The
    #: LAN prefix is registered to this ASN, which is what pre-bdrmap
    #: election heuristics credit for LAN addresses.
    org_asn: int = 0
    members: List[int] = field(default_factory=list)
    # Peerings established across the LAN, as (a, b) ASN pairs.
    lan_peerings: List[Tuple[int, int]] = field(default_factory=list)


@dataclass
class ASGraphConfig:
    """Knobs controlling AS-graph generation."""

    n_clique: int = 5
    n_transit: int = 30
    n_access: int = 90
    n_stub: int = 140
    n_content: int = 15
    n_ixps: int = 18
    sibling_org_fraction: float = 0.08     # orgs owning several ASNs
    max_siblings: int = 3                  # extra ASNs per sibling org
    peering_prob: float = 0.15             # same-tier private peering
    ixp_member_fraction: float = 0.35      # transit/access/content at IXPs
    ixp_peering_prob: float = 0.35         # member pairs peering over LAN


@dataclass
class ASGraph:
    """The generated AS-level Internet."""

    nodes: Dict[int, ASNode]
    relationships: ASRelationships
    orgs: ASOrgMap
    ixps: List[IXPSpec]

    def node(self, asn: int) -> ASNode:
        """The :class:`ASNode` for ``asn`` (KeyError when absent)."""
        return self.nodes[asn]

    def asns(self) -> List[int]:
        """All ASNs, ascending."""
        return sorted(self.nodes)

    def by_tier(self, tier: Tier) -> List[ASNode]:
        """All nodes of ``tier``, ascending by ASN."""
        return [self.nodes[a] for a in self.asns()
                if self.nodes[a].tier is tier]

    def ixp_of_peering(self, a: int, b: int) -> Optional[IXPSpec]:
        """The IXP across whose LAN ``a`` and ``b`` peer, if any."""
        key = (min(a, b), max(a, b))
        for ixp in self.ixps:
            for pa, pb in ixp.lan_peerings:
                if (min(pa, pb), max(pa, pb)) == key:
                    return ixp
        return None


def _make_slug(rng, used: Set[str]) -> str:
    """Generate a fresh two-syllable operator slug."""
    for _ in range(1000):
        slug = rng.choice(_SYLLABLES) + rng.choice(_SYLLABLES)
        if rng.random() < 0.25:
            slug += str(rng.randint(1, 9))
        if slug not in used:
            used.add(slug)
            return slug
    raise RuntimeError("slug pool exhausted")


def _alloc_asn(rng, used: Set[int], tier: Tier) -> int:
    """Pick an unused ASN from a tier-appropriate range.

    Clique/transit networks get low, old-looking ASNs; stubs often get
    32-bit-era ASNs, matching the flavour of the paper's examples.
    """
    ranges = {
        Tier.CLIQUE: (174, 7018),
        Tier.TRANSIT: (701, 25000),
        Tier.ACCESS: (3000, 50000),
        Tier.CONTENT: (8000, 40000),
        Tier.STUB: (20000, 213000),
    }
    lo, hi = ranges[tier]
    for _ in range(10000):
        asn = rng.randint(lo, hi)
        if asn not in used:
            used.add(asn)
            return asn
    raise RuntimeError("ASN pool exhausted")


def generate_asgraph(seed: int,
                     config: Optional[ASGraphConfig] = None) -> ASGraph:
    """Build a deterministic synthetic AS graph from ``seed``.

    The construction proceeds top-down: the transit-free clique is fully
    meshed with peer links; each transit AS buys from 1-3 clique/transit
    networks; access networks buy from transit; stubs and content buy from
    access/transit; content networks peer widely.  A fraction of
    organizations receive sibling ASNs.  IXPs select members and establish
    LAN peerings among them.
    """
    config = config or ASGraphConfig()
    rng = substream(seed, "asgraph")
    used_slugs: Set[str] = set()
    used_asns: Set[int] = set()
    nodes: Dict[int, ASNode] = {}
    rels = ASRelationships()
    orgs = ASOrgMap()

    def new_node(tier: Tier) -> ASNode:
        slug = _make_slug(rng, used_slugs)
        asn = _alloc_asn(rng, used_asns, tier)
        country, tld = rng.choice(_COUNTRIES)
        domain = "%s.%s" % (slug, tld)
        org_id = "org-%s" % slug
        n_locs = {Tier.CLIQUE: 12, Tier.TRANSIT: 8, Tier.ACCESS: 5,
                  Tier.CONTENT: 6, Tier.STUB: 2}[tier]
        locs = rng.sample(_LOC_CODES, min(n_locs, len(_LOC_CODES)))
        node = ASNode(asn=asn, tier=tier, slug=slug, org_id=org_id,
                      country=country, domain=domain, loc_codes=locs)
        nodes[asn] = node
        orgs.assign(asn, org_id, node.name)
        return node

    clique = [new_node(Tier.CLIQUE) for _ in range(config.n_clique)]
    transit = [new_node(Tier.TRANSIT) for _ in range(config.n_transit)]
    access = [new_node(Tier.ACCESS) for _ in range(config.n_access)]
    content = [new_node(Tier.CONTENT) for _ in range(config.n_content)]
    stubs = [new_node(Tier.STUB) for _ in range(config.n_stub)]

    # Clique: full mesh of peerings.
    for i, a in enumerate(clique):
        for b in clique[i + 1:]:
            rels.add_p2p(a.asn, b.asn)

    # Transit networks buy from the clique (and occasionally each other).
    for node in transit:
        n_prov = rng.randint(1, 3)
        providers = rng.sample(clique, min(n_prov, len(clique)))
        for prov in providers:
            rels.add_p2c(prov.asn, node.asn)
    for i, a in enumerate(transit):
        for b in transit[i + 1:]:
            if rng.random() < config.peering_prob:
                rels.add_p2p(a.asn, b.asn)

    # Access networks buy from transit (sometimes two), peer occasionally.
    for node in access:
        n_prov = rng.randint(1, 2)
        providers = rng.sample(transit, min(n_prov, len(transit)))
        for prov in providers:
            rels.add_p2c(prov.asn, node.asn)
    for i, a in enumerate(access):
        for b in access[i + 1:]:
            if rng.random() < config.peering_prob / 3:
                rels.add_p2p(a.asn, b.asn)

    # Content networks buy a little transit and peer widely.
    for node in content:
        prov = rng.choice(transit)
        rels.add_p2c(prov.asn, node.asn)
        for other in transit + access:
            if rng.random() < config.peering_prob:
                rels.add_p2p(node.asn, other.asn)

    # Stubs buy from access/transit networks.
    pool = access + transit
    for node in stubs:
        n_prov = 1 if rng.random() < 0.7 else 2
        providers = rng.sample(pool, n_prov)
        for prov in providers:
            rels.add_p2c(prov.asn, node.asn)

    # Sibling organizations: merge a few orgs so one org owns 2-4 ASNs.
    candidates = transit + access + content
    n_sib_orgs = int(len(candidates) * config.sibling_org_fraction)
    sib_parents = rng.sample(candidates, n_sib_orgs)
    for parent in sib_parents:
        n_extra = rng.randint(1, config.max_siblings)
        extras = rng.sample(stubs + access, n_extra)
        for extra in extras:
            if extra.asn == parent.asn or extra in sib_parents:
                continue
            orgs.assign(extra.asn, parent.org_id, parent.name)

    # IXPs: members drawn from transit/access/content, LAN peerings among
    # members (valley-free peers).
    ixps: List[IXPSpec] = []
    member_pool = transit + access + content
    for ixp_id in range(config.n_ixps):
        country, tld = rng.choice(_COUNTRIES)
        loc = rng.choice(_LOC_CODES)
        slug = "%s-ix" % loc
        if any(x.slug == slug for x in ixps):
            slug = "%s-ix%d" % (loc, ixp_id)
        domain = "%s.%s" % (slug, tld)
        size = max(3, int(len(member_pool) * config.ixp_member_fraction
                          * rng.uniform(0.2, 0.7)))
        members = rng.sample(member_pool, min(size, len(member_pool)))
        org_asn = _alloc_asn(rng, used_asns, Tier.STUB)
        spec = IXPSpec(ixp_id=ixp_id, slug=slug, domain=domain,
                       country=country, org_asn=org_asn,
                       members=[m.asn for m in members])
        # Some exchanges are quiet: members keep ports (and PeeringDB
        # records) but route little traffic over the LAN, so traceroute
        # rarely observes them -- these exchanges become the
        # "PeeringDB-only" suffixes of section 4.
        activity = 0.12 if rng.random() < 0.3 else 1.0
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if rels.relationship(a.asn, b.asn) is not None:
                    continue
                if rng.random() < config.ixp_peering_prob * activity:
                    rels.add_p2p(a.asn, b.asn)
                    spec.lan_peerings.append((a.asn, b.asn))
        ixps.append(spec)

    return ASGraph(nodes=nodes, relationships=rels, orgs=orgs, ixps=ixps)
