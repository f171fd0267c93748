"""DER operating scenarios: placements, modes and case transformation.

A scenario turns a plain :class:`~gridrestore.model.Network` into an
:class:`EffectiveCase`: DERs are either dropped (outage-unavailable),
netted into the local load (home microgrid), or added as dispatchable
generators (community microgrid).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import CaseFormatError, UnknownIdError
from .model import CUSTOMER_DER, Generator, Network, check_json, read_json

HOME_LOAD_FLOOR = 0.01


class DerMode(enum.Enum):
    BASE = "base"
    HOME_MICROGRID = "home_microgrid"
    COMMUNITY_MICROGRID = "community_microgrid"

    @classmethod
    def parse(cls, text: str) -> "DerMode":
        aliases = {
            "base": cls.BASE,
            "home": cls.HOME_MICROGRID,
            "home_microgrid": cls.HOME_MICROGRID,
            "community": cls.COMMUNITY_MICROGRID,
            "community_microgrid": cls.COMMUNITY_MICROGRID,
        }
        try:
            return aliases[text.strip().lower()]
        except KeyError:
            raise CaseFormatError(f"unknown DER mode {text!r}") from None


@dataclass(frozen=True)
class DerPlacement:
    """Where DERs sit and how big each unit is (physical MW / MVAr).

    ``der_nodes`` is a multiset: a repeated bus id hosts one full DER per
    repetition.
    """

    name: str
    der_nodes: tuple[int, ...]
    p_max: float = 0.075
    q_min: float = -0.05
    q_max: float = 0.05

    def __post_init__(self):
        if self.p_max < 0:
            raise ValueError("per-DER active rating must be non-negative")
        if self.q_min > self.q_max:
            raise ValueError("per-DER reactive bounds are inverted")

    def capacity_by_bus(self) -> dict[int, float]:
        cap: dict[int, float] = {}
        for node in self.der_nodes:
            cap[node] = cap.get(node, 0.0) + self.p_max
        return cap


@dataclass(frozen=True)
class EffectiveCase:
    """A network after applying one DER mode under one placement."""

    network: Network
    mode: DerMode
    placement: DerPlacement
    der_demand_ids: frozenset[int]

    @property
    def label(self) -> str:
        return f"{self.placement.name}-{self.mode.value}"


def home_microgrid_load(d_org: float, p_der: float) -> float:
    """Net load after a home DER offsets it, floored at 1% of the original."""
    if d_org < 0 or p_der < 0:
        raise ValueError("load and DER power must be non-negative")
    return max(HOME_LOAD_FLOOR * d_org, d_org - p_der)


def apply_der_mode(network: Network, placement: DerPlacement, mode: DerMode) -> EffectiveCase:
    """Transform a base network under one DER operating mode.

    base:       DERs absent, demands untouched.
    home:       demand at each DER node netted by the summed DER capacity
                there; reactive demand scales with the active reduction.
    community:  one dispatchable customer-owned generator per placement
                entry; demands untouched.
    """
    if not isinstance(network, Network):
        raise TypeError(
            "apply_der_mode expects a plain Network; an EffectiveCase cannot "
            "be transformed again"
        )
    unknown = set(placement.der_nodes) - set(network.bus_position)
    if unknown:
        raise UnknownIdError(f"placement references unknown buses: {sorted(unknown)}")

    base = network.base_mva
    der_buses = set(placement.der_nodes)
    der_demand_ids = frozenset(
        d.id for d in network.demands if d.bus in der_buses
    )

    if mode is DerMode.BASE:
        return EffectiveCase(network, mode, placement, der_demand_ids)

    if mode is DerMode.HOME_MICROGRID:
        cap_pu = {n: c / base for n, c in placement.capacity_by_bus().items()}
        demands = []
        for d in network.demands:
            if d.bus in cap_pu and d.p > 0:
                new_p = home_microgrid_load(d.p, cap_pu[d.bus])
                scale = new_p / d.p
                demands.append(replace(d, p=new_p, q=d.q * scale, has_der=True))
            elif d.bus in cap_pu:
                demands.append(replace(d, has_der=True))
            else:
                demands.append(d)
        net = replace(network, demands=tuple(demands))
        return EffectiveCase(net, mode, placement, der_demand_ids)

    # community microgrid: stacked entries coexist as separate generators
    next_id = max((g.id for g in network.generators), default=0) + 1
    new_gens = []
    for offset, node in enumerate(placement.der_nodes):
        new_gens.append(
            Generator(
                id=next_id + offset,
                bus=node,
                p_min=0.0,
                p_max=placement.p_max / base,
                q_min=placement.q_min / base,
                q_max=placement.q_max / base,
                kind=CUSTOMER_DER,
            )
        )
    demands = tuple(
        replace(d, has_der=True) if d.bus in der_buses else d
        for d in network.demands
    )
    net = replace(
        network,
        generators=network.generators + tuple(new_gens),
        demands=demands,
    )
    return EffectiveCase(net, mode, placement, der_demand_ids)


def enumerate_cases(network: Network, placements, modes) -> list[EffectiveCase]:
    """Cartesian product of placements (outer) and modes (inner)."""
    return [
        apply_der_mode(network, placement, mode)
        for placement in placements
        for mode in modes
    ]


def load_scenario(path) -> DerPlacement:
    """The DER placement of a scenario file; the DER mode is chosen by the caller."""
    path = Path(path)
    raw = read_json(path, "scenario")
    if not isinstance(raw, dict) or "placement" not in raw:
        raise CaseFormatError(f"scenario file {path} is missing 'placement'")
    p = check_json(raw["placement"], "object", f"scenario file {path} field 'placement'")
    if "der_nodes" not in p:
        raise CaseFormatError(f"scenario file {path}: placement is missing 'der_nodes'")
    where = f"scenario file {path} placement field"
    fields = {
        "name": check_json(p.get("name", path.stem), "string", f"{where} 'name'"),
        "der_nodes": tuple(check_json(p["der_nodes"], "list of integer", f"{where} 'der_nodes'")),
    }
    # the DER ratings default to DerPlacement's
    for f in ("p_max", "q_min", "q_max"):
        if f in p:
            fields[f] = float(check_json(p[f], "number", f"{where} {f!r}"))
    try:
        return DerPlacement(**fields)
    except ValueError as exc:
        raise CaseFormatError(f"scenario file {path}: bad placement ({exc})") from exc
