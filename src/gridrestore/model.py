"""Feeder data model, case-file I/O and structural validation.

All electrical quantities on a :class:`Network` are per-unit on
``base_mva``. Case files carry power in physical units (MW / MVAr) and
admittances in per-unit; :func:`load_case` performs the conversion.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

from .errors import CaseFormatError, CaseValidationError, UnknownIdError

SUBSTATION = "substation"
UTILITY_DER = "utility_der"
CUSTOMER_DER = "customer_der"

GENERATOR_KINDS = (SUBSTATION, UTILITY_DER, CUSTOMER_DER)

# kinds that are allowed to carry a damaged flag (customer DERs are never
# part of the utility damage set)
DAMAGEABLE_GEN_KINDS = (SUBSTATION, UTILITY_DER)


@dataclass(frozen=True)
class Bus:
    id: int
    is_reference: bool = False
    v_min: float = 0.9
    v_max: float = 1.1
    damaged: bool = False


@dataclass(frozen=True)
class Line:
    """A branch of the feeder, pi-model with an ideal tap on the from side."""

    id: int
    from_bus: int
    to_bus: int
    b: float
    g: float
    g_fr: float = 0.0
    b_fr: float = 0.0
    g_to: float = 0.0
    b_to: float = 0.0
    t_m: float = 1.0
    t_r: float = 1.0
    t_i: float = 0.0
    thermal_limit: float = 10.0
    angle_min: float = -0.52
    angle_max: float = 0.52
    damaged: bool = False


@dataclass(frozen=True)
class Generator:
    id: int
    bus: int
    p_min: float
    p_max: float
    q_min: float
    q_max: float
    kind: str = SUBSTATION
    damaged: bool = False


@dataclass(frozen=True)
class Demand:
    id: int
    bus: int
    p: float
    q: float = 0.0
    has_der: bool = False
    damaged: bool = False


@dataclass(frozen=True)
class TimeGrid:
    """Restoration horizon: ``n_periods`` steps of ``step_hours`` each."""

    n_periods: int
    step_hours: float = 1.0

    def __post_init__(self):
        if self.n_periods < 1:
            raise ValueError("n_periods must be at least 1")
        if self.step_hours <= 0:
            raise ValueError("step_hours must be positive")


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_invalid(self):
        if self.violations:
            raise CaseValidationError(self.violations)


@dataclass(frozen=True)
class Network:
    """Immutable feeder description. Safe to share across workers."""

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]
    demands: tuple[Demand, ...]
    base_mva: float = 1.0

    @cached_property
    def bus_by_id(self) -> dict[int, Bus]:
        return {b.id: b for b in self.buses}

    @cached_property
    def line_by_id(self) -> dict[int, Line]:
        return {l.id: l for l in self.lines}

    @cached_property
    def generator_by_id(self) -> dict[int, Generator]:
        return {g.id: g for g in self.generators}

    @cached_property
    def demand_by_id(self) -> dict[int, Demand]:
        return {d.id: d for d in self.demands}

    @cached_property
    def lines_at(self) -> dict[int, tuple[Line, ...]]:
        acc = defaultdict(list)
        for l in self.lines:
            acc[l.from_bus].append(l)
            acc[l.to_bus].append(l)
        return {i: tuple(v) for i, v in acc.items()}

    @cached_property
    def generators_at(self) -> dict[int, tuple[Generator, ...]]:
        acc = defaultdict(list)
        for g in self.generators:
            acc[g.bus].append(g)
        return {i: tuple(v) for i, v in acc.items()}

    @cached_property
    def demands_at(self) -> dict[int, tuple[Demand, ...]]:
        acc = defaultdict(list)
        for d in self.demands:
            acc[d.bus].append(d)
        return {i: tuple(v) for i, v in acc.items()}

    @property
    def reference_bus(self) -> Bus:
        for b in self.buses:
            if b.is_reference:
                return b
        raise CaseValidationError(["network has no reference bus"])

    def total_demand_p(self) -> float:
        return sum(d.p for d in self.demands)

    def damaged_lines(self) -> tuple[Line, ...]:
        return tuple(l for l in self.lines if l.damaged)

    def damaged_component_count(self) -> int:
        return (
            sum(1 for l in self.lines if l.damaged)
            + sum(1 for b in self.buses if b.damaged)
            + sum(1 for g in self.generators if g.damaged)
            + sum(1 for d in self.demands if d.damaged)
        )


def validate(network: Network) -> ValidationReport:
    """Check every structural invariant; returns a report, never raises."""
    v: list[str] = []
    bus_ids = [b.id for b in network.buses]
    for bid, count in Counter(bus_ids).items():
        if count > 1:
            v.append(f"duplicate bus id {bid}")
    known = set(bus_ids)

    refs = [b.id for b in network.buses if b.is_reference]
    if len(refs) != 1:
        v.append(f"expected exactly one reference bus, found {len(refs)}: {refs}")

    for b in network.buses:
        if not (0.0 < b.v_min < b.v_max):
            v.append(f"bus {b.id}: voltage bounds must satisfy 0 < v_min < v_max")

    for lid, count in Counter(l.id for l in network.lines).items():
        if count > 1:
            v.append(f"duplicate line id {lid}")
    for l in network.lines:
        if l.from_bus == l.to_bus:
            v.append(f"line {l.id}: from_bus equals to_bus ({l.from_bus})")
        for end, name in ((l.from_bus, "from_bus"), (l.to_bus, "to_bus")):
            if end not in known:
                v.append(f"line {l.id}: {name} {end} does not exist")
        if abs(l.t_m**2 - (l.t_r**2 + l.t_i**2)) > 1e-9 * max(1.0, l.t_m**2):
            v.append(f"line {l.id}: tap magnitude inconsistent with components")
        if l.thermal_limit <= 0:
            v.append(f"line {l.id}: thermal limit must be positive")
        if not (l.angle_min < 0.0 < l.angle_max):
            v.append(f"line {l.id}: angle bounds must straddle zero")

    for gid, count in Counter(g.id for g in network.generators).items():
        if count > 1:
            v.append(f"duplicate generator id {gid}")
    for g in network.generators:
        if g.bus not in known:
            v.append(f"generator {g.id}: bus {g.bus} does not exist")
        if g.p_min > g.p_max:
            v.append(f"generator {g.id}: p_min greater than p_max")
        if g.q_min > g.q_max:
            v.append(f"generator {g.id}: q_min greater than q_max")
        if g.kind not in GENERATOR_KINDS:
            v.append(f"generator {g.id}: unknown kind {g.kind!r}")
        if g.damaged and g.kind not in DAMAGEABLE_GEN_KINDS:
            v.append(f"generator {g.id}: kind {g.kind} cannot be damaged")

    for did, count in Counter(d.id for d in network.demands).items():
        if count > 1:
            v.append(f"duplicate demand id {did}")
    for d in network.demands:
        if d.bus not in known:
            v.append(f"demand {d.id}: bus {d.bus} does not exist")
        if d.p < 0:
            v.append(f"demand {d.id}: active power must be non-negative")

    v.extend(_radiality_violations(network))
    return ValidationReport(tuple(v))


def _radiality_violations(network: Network) -> list[str]:
    v = []
    n_bus = len(network.buses)
    n_line = len(network.lines)
    if n_line != n_bus - 1:
        v.append(
            f"radiality: expected {n_bus - 1} lines for {n_bus} buses, found {n_line}"
        )
    refs = [b.id for b in network.buses if b.is_reference]
    if len(refs) != 1 or any(
        l.from_bus not in network.bus_by_id or l.to_bus not in network.bus_by_id
        for l in network.lines
    ):
        return v  # reachability is meaningless until references resolve
    reached = reachable_buses(network, ignore_damage=True)
    missing = sorted(set(network.bus_by_id) - reached)
    if missing:
        v.append(f"radiality: buses unreachable from reference bus: {missing}")
    return v


def reachable_buses(
    network: Network,
    energized_lines: set[int] | None = None,
    energized_buses: set[int] | None = None,
    ignore_damage: bool = False,
) -> set[int]:
    """Breadth-first reachability from the reference bus.

    A line conducts when it is in ``energized_lines`` (or undamaged, or
    ``ignore_damage``) and both endpoint buses are traversable under the
    same rule.
    """
    ref = network.reference_bus.id

    def bus_ok(bid: int) -> bool:
        bus = network.bus_by_id[bid]
        if ignore_damage or not bus.damaged:
            return True
        return energized_buses is not None and bid in energized_buses

    def line_ok(line: Line) -> bool:
        if ignore_damage or not line.damaged:
            return True
        return energized_lines is not None and line.id in energized_lines

    if not bus_ok(ref):
        return set()
    seen = {ref}
    frontier = [ref]
    while frontier:
        nxt = []
        for bid in frontier:
            for line in network.lines_at.get(bid, ()):
                if not line_ok(line):
                    continue
                other = line.to_bus if line.from_bus == bid else line.from_bus
                if other not in seen and bus_ok(other):
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    return seen


def apply_damage(network: Network, damaged_line_ids) -> Network:
    """Return a copy with exactly the given lines flagged damaged."""
    wanted = set(damaged_line_ids)
    unknown = wanted - set(network.line_by_id)
    if unknown:
        raise UnknownIdError(f"unknown line ids: {sorted(unknown)}")
    lines = tuple(replace(l, damaged=(l.id in wanted)) for l in network.lines)
    return replace(network, lines=lines)


# --- case file I/O ---------------------------------------------------------

_BUS_FIELDS = ("id", "is_reference", "v_min", "v_max", "damaged")
_LINE_FIELDS = (
    "id", "from_bus", "to_bus", "b", "g", "g_fr", "b_fr", "g_to", "b_to",
    "t_m", "t_r", "t_i", "thermal_limit", "angle_min", "angle_max", "damaged",
)
_GEN_FIELDS = ("id", "bus", "p_min", "p_max", "q_min", "q_max", "kind", "damaged")
_DEMAND_FIELDS = ("id", "bus", "p", "q", "has_der", "damaged")


def read_json(path, what: str):
    """Parse a JSON input file; an unreadable or malformed one is a CaseFormatError."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise CaseFormatError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CaseFormatError(f"{what} file {path} is not valid JSON: {exc}") from exc


def load_case(path) -> Network:
    """Parse a case file and return a validated per-unit Network."""
    network = network_from_dict(read_json(path, "case"))
    validate(network).raise_if_invalid()
    return network


def network_from_dict(raw: dict) -> Network:
    """Build a Network from parsed case-file data (physical units)."""
    for key in ("base_mva", "buses", "lines", "generators", "demands"):
        if key not in raw:
            raise CaseFormatError(f"case file is missing required key {key!r}")
    base = float(raw["base_mva"])
    if base <= 0:
        raise CaseFormatError("base_mva must be positive")

    def take(record, fields, kind, required):
        out = {}
        for f in fields:
            if f in record:
                out[f] = record[f]
            elif f in required:
                ident = record.get("id", "?")
                raise CaseFormatError(f"{kind} {ident}: missing field {f!r}")
        return out

    buses = tuple(
        Bus(**take(r, _BUS_FIELDS, "bus", ("id",))) for r in raw["buses"]
    )
    lines = tuple(
        Line(**take(r, _LINE_FIELDS, "line", ("id", "from_bus", "to_bus", "b", "g")))
        for r in raw["lines"]
    )
    gens = []
    for r in raw["generators"]:
        d = take(r, _GEN_FIELDS, "generator", ("id", "bus", "p_min", "p_max", "q_min", "q_max"))
        for f in ("p_min", "p_max", "q_min", "q_max"):
            d[f] = float(d[f]) / base
        gens.append(Generator(**d))
    demands = []
    for r in raw["demands"]:
        d = take(r, _DEMAND_FIELDS, "demand", ("id", "bus", "p"))
        d["p"] = float(d["p"]) / base
        d["q"] = float(d.get("q", 0.0)) / base
        demands.append(Demand(**d))
    return Network(
        buses=buses,
        lines=lines,
        generators=tuple(gens),
        demands=tuple(demands),
        base_mva=base,
    )


def network_to_dict(network: Network) -> dict:
    """Inverse of :func:`network_from_dict`: physical-unit case data."""
    base = network.base_mva
    out = {
        "base_mva": base,
        "buses": [
            {f: getattr(b, f) for f in _BUS_FIELDS} for b in network.buses
        ],
        "lines": [
            {f: getattr(l, f) for f in _LINE_FIELDS} for l in network.lines
        ],
        "generators": [],
        "demands": [],
    }
    for g in network.generators:
        rec = {f: getattr(g, f) for f in _GEN_FIELDS}
        for f in ("p_min", "p_max", "q_min", "q_max"):
            rec[f] = rec[f] * base
        out["generators"].append(rec)
    for d in network.demands:
        rec = {f: getattr(d, f) for f in _DEMAND_FIELDS}
        rec["p"] = rec["p"] * base
        rec["q"] = rec["q"] * base
        out["demands"].append(rec)
    return out


def save_case(network: Network, path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(network), indent=1, sort_keys=True))


def time_grid_for(network: Network, step_hours: float = 1.0) -> TimeGrid:
    """Horizon sized for a one-repair-per-period budget plus the initial step."""
    return TimeGrid(n_periods=1 + network.damaged_component_count(), step_hours=step_hours)
