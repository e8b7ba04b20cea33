"""Assign hostnames to every interface of a world.

The assigner walks all interfaces, determines the *naming operator* (the
AS supplying the address space, or the IXP for LAN addresses), renders a
label from that operator's :class:`~repro.naming.conventions.ConventionProfile`,
and injects the paper's data hazards:

* **sibling annotations** -- the hostname embeds a sibling ASN of the
  router's operator (Microsoft 8069/8075 in the paper's validation);
* **stale hostnames** -- the embedded ASN belongs to a previous customer
  of the supplying AS (section 6);
* **typos** -- a single Damerau-Levenshtein edit of the digit string
  (figure 3a), usually one Hoiho's guarded edit-distance rule can still
  accept, occasionally not.

The outcome records, per address, the ground truth needed by the
validation experiments: which ASN the convention *intended* to describe,
which digit string was actually embedded, and which hazards fired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.naming.asnames import as_name_tokens
from repro.naming.conventions import (
    ConventionProfile,
    EmbedKind,
    IXPNamingMode,
    Style,
    asname_label,
    geo_label,
    ip_label,
    ixp_mode_for,
    member_ixp_label,
    neighbor_label,
    operator_ixp_label,
    own_decor_label,
    plain_label,
    profile_for_as,
)
from repro.topology.routers import Interface, InterfaceKind
from repro.topology.world import World
from repro.util.ipaddr import int_to_ip
from repro.util.rand import substream


@dataclass
class NamingConfig:
    """Data-quality knobs for one snapshot's hostname assignment."""

    year: float = 2020.0
    stale_rate: float = 0.02        # embedded ASN is a previous neighbor
    typo_rate: float = 0.004        # single-edit digit typo
    typo_rescuable: float = 0.75    # fraction of typos the guarded rule saves
    sibling_embed_rate: float = 0.35  # subject orgs with siblings: embed one
    near_side_hazard: bool = True   # operators that label their own side too
    # A few operators neglect reverse DNS badly: most of their ASN
    # hostnames are stale.  These suffixes yield *poor* conventions and
    # feed Table 2's "incorrect hostname" population.
    sloppy_operator_rate: float = 0.04
    sloppy_stale_rate: float = 0.35
    # IXP LANs are curated: ports get renamed when members churn, so the
    # stale/sibling rates are lower than general infrastructure zones
    # (PeeringDB training PPV was 96% in the paper).
    ixp_stale_rate: float = 0.012
    ixp_sibling_rate: float = 0.08
    # Location codes also go stale when gear moves between sites
    # (DRoP's motivation); a small fraction of names carry the wrong
    # metro code.
    misloc_rate: float = 0.02


@dataclass
class HostnameRecord:
    """Ground truth about one assigned hostname."""

    address: int
    hostname: str
    namer_asn: int                   # AS (or -ixp_id-1 for IXPs) that named it
    domain: str
    subject_asn: Optional[int]       # ASN the convention meant to describe
    embedded_text: Optional[str]     # digit string actually embedded
    stale: bool = False
    typo: bool = False
    sibling: bool = False
    embed: Optional[EmbedKind] = None
    style: Optional[Style] = None

    @property
    def embedded_asn(self) -> Optional[int]:
        """The embedded digits as an integer, when present."""
        return int(self.embedded_text) if self.embedded_text else None

    @property
    def correct(self) -> Optional[bool]:
        """Does the hostname describe the intended ASN without hazards?

        ``None`` when the hostname embeds no ASN at all.
        """
        if self.embedded_text is None or self.subject_asn is None:
            return None
        return not self.stale and str(self.subject_asn) == self.embedded_text


@dataclass
class NamingOutcome:
    """All hostname assignments for one snapshot."""

    config: NamingConfig
    records: Dict[int, HostnameRecord] = field(default_factory=dict)
    profiles: Dict[int, ConventionProfile] = field(default_factory=dict)
    ixp_modes: Dict[int, IXPNamingMode] = field(default_factory=dict)

    def hostname(self, address: int) -> Optional[str]:
        """Hostname for ``address``, if one was assigned."""
        record = self.records.get(address)
        return record.hostname if record is not None else None

    def record(self, address: int) -> Optional[HostnameRecord]:
        """Ground-truth record for ``address``."""
        return self.records.get(address)


class _HazardInjector:
    """Applies sibling/stale/typo hazards to an embedded ASN string."""

    def __init__(self, world: World, config: NamingConfig, seed: int) -> None:
        self._world = world
        self._config = config
        self._rng = substream(seed, "hazards")
        self._all_asns = world.graph.asns()
        # Deterministically mark the sloppy operators (keyed by the world
        # seed so a given operator is consistently sloppy over time).
        sloppy_rng = substream(world.seed, "sloppy")
        self._sloppy = {asn for asn in self._all_asns
                        if sloppy_rng.random() < config.sloppy_operator_rate}

    def stale_rate_for(self, namer: int) -> float:
        """Per-operator staleness (sloppy operators neglect their zones)."""
        if namer < 0:
            return self._config.ixp_stale_rate
        if namer in self._sloppy:
            return self._config.sloppy_stale_rate
        return self._config.stale_rate

    def sibling_rate_for(self, namer: int) -> float:
        """Sibling-annotation rate (lower on curated IXP LANs)."""
        if namer < 0:
            return self._config.ixp_sibling_rate
        return self._config.sibling_embed_rate

    def apply(self, subject: int, namer: int):
        """Return (digit string to embed, stale?, typo?, sibling?)."""
        rng = self._rng
        config = self._config
        embedded = subject
        stale = sibling = typo = False
        siblings = sorted(self._world.graph.orgs.siblings(subject) - {subject})
        if siblings and rng.random() < self.sibling_rate_for(namer):
            embedded = rng.choice(siblings)
            sibling = True
        if rng.random() < self.stale_rate_for(namer):
            embedded = self._stale_asn(namer, embedded, rng)
            stale = True
        text = str(embedded)
        if rng.random() < config.typo_rate:
            text = self._typo(text, rng)
            typo = True
        return text, stale, typo, sibling

    def _stale_asn(self, namer: int, current: int, rng) -> int:
        """A plausible previous neighbor of the naming AS."""
        rels = self._world.graph.relationships
        candidates = sorted((rels.customers(namer) | rels.peers(namer))
                            - {current})
        if candidates and rng.random() < 0.8:
            return rng.choice(candidates)
        for _ in range(10):
            asn = rng.choice(self._all_asns)
            if asn != current:
                return asn
        return current + 1

    @staticmethod
    def _typo(text: str, rng) -> str:
        """Apply one Damerau-Levenshtein edit to a digit string."""
        if len(text) < 3:
            return text + str(rng.randint(0, 9))
        rescuable = rng.random() < 0.75
        if rescuable and len(text) >= 4:
            # Transpose two interior digits: first/last preserved, so the
            # paper's guarded rule still accepts the hostname as a TP.
            i = rng.randint(1, len(text) - 3)
            chars = list(text)
            chars[i], chars[i + 1] = chars[i + 1], chars[i]
            out = "".join(chars)
            if out != text:
                return out
            return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
        # Non-rescuable: damage the first digit (never producing a leading 0).
        first = str((int(text[0]) % 9) + 1)
        return first + text[1:]


def assign_hostnames(world: World, seed: int,
                     config: Optional[NamingConfig] = None) -> NamingOutcome:
    """Assign hostnames to every interface in ``world``.

    ``seed`` keys the snapshot-specific randomness (hazards, decoration);
    the per-operator profiles are keyed by ``world.seed`` so operators are
    consistent across snapshots of the same world.
    """
    config = config or NamingConfig()
    outcome = NamingOutcome(config=config)
    hazards = _HazardInjector(world, config, seed)
    rng = substream(seed, "labels")

    for asn in world.graph.asns():
        outcome.profiles[asn] = profile_for_as(world.seed, world.node(asn))
    for ixp in world.graph.ixps:
        outcome.ixp_modes[ixp.ixp_id] = ixp_mode_for(world.seed, ixp)

    for router in world.routers():
        for iface in router.interfaces:
            record = _name_interface(world, iface, outcome, hazards, config,
                                     rng)
            if record is not None:
                iface.hostname = record.hostname
                outcome.records[iface.address] = record
            else:
                iface.hostname = None

    return outcome


def host_hostname(world: World, address: int, outcome: NamingOutcome,
                  seed: int) -> Optional[HostnameRecord]:
    """Hostname for a non-router (destination host) address, if any.

    Consumer access networks with IP-derived conventions publish PTR
    records for end-host space; infrastructure operators generally do not.
    The record is memoised into ``outcome``.
    """
    existing = outcome.records.get(address)
    if existing is not None:
        return existing
    origin = world.origin(address)
    if origin <= 0:
        return None
    profile = outcome.profiles.get(origin)
    if profile is None or profile.embed is not EmbedKind.IP_DERIVED:
        return None
    rng = substream(seed, "host", address)
    label = ip_label(int_to_ip(address), rng)
    record = HostnameRecord(
        address=address, hostname="%s.%s" % (label, profile.domain),
        namer_asn=origin, domain=profile.domain, subject_asn=None,
        embedded_text=None, embed=EmbedKind.IP_DERIVED)
    outcome.records[address] = record
    return record


def _wrong_loc(world: World, current: str, rng) -> str:
    """A different location code (gear moved, name not updated)."""
    from repro.topology.asgraph import _LOC_CODES
    for _ in range(5):
        candidate = rng.choice(_LOC_CODES)
        if candidate != current:
            return candidate
    return current


def _name_interface(world: World, iface: Interface, outcome: NamingOutcome,
                    hazards: _HazardInjector, config: NamingConfig,
                    rng) -> Optional[HostnameRecord]:
    """Render one interface's hostname, or None for no PTR record."""
    router = iface.router
    if iface.kind is InterfaceKind.IXP_LAN:
        return _name_ixp_interface(world, iface, outcome, hazards, rng)

    namer_asn = iface.supplier_asn
    profile = outcome.profiles[namer_asn]
    node = world.node(namer_asn)
    far_side = iface.kind is InterfaceKind.P2P and router.asn != namer_asn
    loc = router.loc
    if rng.random() < config.misloc_rate:
        loc = _wrong_loc(world, loc, rng)

    if profile.embed is EmbedKind.NONE:
        return None

    if profile.embed is EmbedKind.IP_DERIVED:
        label = ip_label(iface.ip, rng)
        return _record(iface, label, profile, subject=None, embedded=None)

    if profile.embed is EmbedKind.OWN_DECOR:
        cust_slug = None
        if far_side:
            cust_slug = world.node(router.asn).slug[:3]
        label = own_decor_label(profile, namer_asn, loc, router.name,
                                iface.port, cust_slug, router.index)
        # The convention describes the supplying AS itself (figure 2):
        # the embedded ASN is the namer's, whatever router it sits on.
        return _record(iface, label, profile, subject=namer_asn,
                       embedded=str(namer_asn))

    if profile.embed is EmbedKind.NAME:
        if far_side:
            # Operators use one consistent name per neighbor: derive
            # the token from a stream keyed by (operator, neighbor).
            slug = world.node(router.asn).slug
            token_rng = substream(world.seed, "asname", namer_asn,
                                  router.asn)
            token = token_rng.choice(as_name_tokens(slug))
            label = asname_label(slug, loc, router.index, rng,
                                 token=token)
        else:
            label = plain_label(loc, router.name, iface.port,
                                rng.random())
        return _record(iface, label, profile, subject=None, embedded=None)

    if profile.embed is EmbedKind.GEO:
        label = geo_label(loc, router.name, iface.port, router.index)
        return _record(iface, label, profile, subject=None, embedded=None)

    # EmbedKind.NEIGHBOR_ASN from here on.
    adopted = profile.embeds_asn_in(config.year)
    if far_side and adopted:
        subject = router.asn
        text, stale, typo, sibling = hazards.apply(subject, namer_asn)
        label = neighbor_label(profile, text, loc, iface.port,
                               router.index, rng)
        return _record(iface, label, profile, subject=subject, embedded=text,
                       stale=stale, typo=typo, sibling=sibling)
    if (iface.kind is InterfaceKind.P2P and not far_side and adopted
            and profile.names_near_side and config.near_side_hazard
            and iface.neighbor_asn is not None and rng.random() < 0.5):
        # Operator labels its own side of the link with the neighbor ASN:
        # the hostname then names an AS that does not operate the router.
        subject = iface.neighbor_asn
        text, stale, typo, sibling = hazards.apply(subject, namer_asn)
        label = neighbor_label(profile, text, loc, iface.port,
                               router.index + 2, rng)
        return _record(iface, label, profile, subject=subject, embedded=text,
                       stale=stale, typo=typo, sibling=sibling)
    label = plain_label(loc, router.name, iface.port, rng.random())
    return _record(iface, label, profile, subject=None, embedded=None)


def _name_ixp_interface(world: World, iface: Interface,
                        outcome: NamingOutcome, hazards: _HazardInjector,
                        rng) -> Optional[HostnameRecord]:
    """Label a member port on an IXP peering LAN."""
    ixp = world.graph.ixps[iface.ixp_id]
    mode = outcome.ixp_modes[ixp.ixp_id]
    if mode is IXPNamingMode.NONE:
        return None
    member = iface.router.asn
    text, stale, typo, sibling = hazards.apply(member, -ixp.ixp_id - 1)
    metro = ixp.slug.split("-")[0]
    if mode is IXPNamingMode.MEMBER:
        variant = member % 3
        label = member_ixp_label(world.node(member).slug, text, variant)
    else:
        label = operator_ixp_label(mode, text, metro, iface.router.index)
    record = HostnameRecord(
        address=iface.address, hostname="%s.%s" % (label, ixp.domain),
        namer_asn=-ixp.ixp_id - 1, domain=ixp.domain, subject_asn=member,
        embedded_text=text, stale=stale, typo=typo, sibling=sibling,
        embed=EmbedKind.NEIGHBOR_ASN, style=None)
    return record


def _record(iface: Interface, label: str, profile: ConventionProfile,
            subject: Optional[int], embedded: Optional[str],
            stale: bool = False, typo: bool = False,
            sibling: bool = False) -> HostnameRecord:
    hostname = "%s.%s" % (label, profile.domain)
    return HostnameRecord(
        address=iface.address, hostname=hostname, namer_asn=profile.asn,
        domain=profile.domain, subject_asn=subject, embedded_text=embedded,
        stale=stale, typo=typo, sibling=sibling, embed=profile.embed,
        style=profile.style if profile.embed is EmbedKind.NEIGHBOR_ASN
        else None)
