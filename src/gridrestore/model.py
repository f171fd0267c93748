"""Feeder data model, case-file I/O and structural validation.

All electrical quantities on a :class:`Network` are per-unit on
``base_mva``. Case files carry power in physical units (MW / MVAr) and
admittances in per-unit; :func:`load_case` performs the conversion.

The facts that both steps of the method read are cached on the
immutable :class:`Network`, each computed once: ``radial_tree`` (the
feeder tree, refused when meshed or disconnected), ``damage`` (the
damaged components) and ``gates`` (what each element waits for). The
ordering model, the AC replay and the reconnection times read them.
The AC replay also reads ``line_block``, the pi-model flows of every
line (:class:`LineBlock`), and ``arrays``, the data of the buses, units
and demands in network order (:class:`NetworkArrays`).
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

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
class FeederTree:
    """The feeder rooted at its reference bus, damage ignored.

    ``order`` lists the buses breadth-first from the reference bus. For
    the bus at position k, ``parent[k]`` is the position of its parent
    (-1 at the root) and ``up[k]`` the line to the parent (None at the
    root). Buses the walk cannot reach are missing from ``order``; on a
    meshed network the first line to reach a bus is its ``up`` line.
    """

    order: tuple[int, ...]
    parent: tuple[int, ...]
    up: tuple[Line | None, ...]


class LineTerms(NamedTuple):
    """What a block's flows and their derivatives share at one point: the
    end voltages and, per quantity, k = c cos d + s sin d and dk/dd."""

    vi: np.ndarray
    vj: np.ndarray
    k: np.ndarray
    k_d: np.ndarray


@dataclass(frozen=True, eq=False)
class LineBlock:
    """The four directed flows of a set of lines and their derivatives.

    Stacked in the order pfr, pto, qfr, qto, every quantity is
    a_i vi^2 + a_j vj^2 + vi vj (c cos d + s sin d) with d = th_i - th_j;
    the to end sees the angle -d, which flips the sign of its s. The tap
    T = t_r + j t_i sits at the from end, so only the from end's self
    term is scaled by 1 / t_m^2. ``i`` and ``j`` are the positions of
    each line's from and to bus in the bus vectors the block is given.
    """

    ids: np.ndarray
    i: np.ndarray
    j: np.ndarray
    a_i: np.ndarray  # (4, lines), like a_j, c and s
    a_j: np.ndarray
    c: np.ndarray
    s: np.ndarray
    t_lim: np.ndarray
    a_min: np.ndarray
    a_max: np.ndarray

    @classmethod
    def of(cls, lines, bus_index: dict[int, int]) -> LineBlock:
        """The block of ``lines``, whose end buses sit at ``bus_index``."""
        g, bb, g_fr, b_fr, g_to, b_to, tm2, tr, ti, t_lim, a_min, a_max = np.array([
            (l.g, l.b, l.g_fr, l.b_fr, l.g_to, l.b_to, l.t_m**2, l.t_r, l.t_i,
             l.thermal_limit, l.angle_min, l.angle_max)
            for l in lines
        ]).reshape(-1, 12).T
        zero = np.zeros(len(lines))
        return cls(
            ids=np.array([l.id for l in lines], dtype=np.int64),
            i=np.array([bus_index[l.from_bus] for l in lines], dtype=np.int64),
            j=np.array([bus_index[l.to_bus] for l in lines], dtype=np.int64),
            a_i=np.array([(g + g_fr) / tm2, zero, -(bb + b_fr) / tm2, zero]),
            a_j=np.array([zero, g + g_to, zero, -(bb + b_to)]),
            c=np.array([
                -g * tr + bb * ti, -g * tr - bb * ti, bb * tr + g * ti, bb * tr - g * ti,
            ]) / tm2,
            s=np.array([
                -bb * tr - g * ti, bb * tr - g * ti, -g * tr + bb * ti, g * tr + bb * ti,
            ]) / tm2,
            t_lim=t_lim,
            a_min=a_min,
            a_max=a_max,
        )

    def take(self, rows, i: np.ndarray, j: np.ndarray) -> LineBlock:
        """The lines at positions ``rows``, with their ends at positions i and j."""
        return LineBlock(
            self.ids[rows], i, j, self.a_i[:, rows], self.a_j[:, rows], self.c[:, rows],
            self.s[:, rows], self.t_lim[rows], self.a_min[rows], self.a_max[rows],
        )

    def terms(self, v: np.ndarray, th: np.ndarray) -> LineTerms:
        """The block's one trigonometric evaluation at (v, th)."""
        d = th[self.i] - th[self.j]
        cos_d, sin_d = np.cos(d), np.sin(d)
        k = self.c * cos_d + self.s * sin_d
        return LineTerms(v[self.i], v[self.j], k, -self.c * sin_d + self.s * cos_d)

    def flows(self, t: LineTerms) -> np.ndarray:
        """The four quantities, (4, lines)."""
        return self.a_i * t.vi**2 + self.a_j * t.vj**2 + t.vi * t.vj * t.k

    def partials(self, t: LineTerms) -> np.ndarray:
        """Their partials over (vi, vj, thi, thj), (4, lines, 4)."""
        dth = t.vi * t.vj * t.k_d
        dvi = 2 * self.a_i * t.vi + t.vj * t.k
        dvj = 2 * self.a_j * t.vj + t.vi * t.k
        return np.stack([dvi, dvj, dth, -dth], axis=-1)

    def hessians(self, t: LineTerms) -> np.ndarray:
        """Their symmetric second derivatives, (4, lines, 4, 4)."""
        vi, vj, k, k_d = t
        vik, vjk, vvk = vi * k_d, vj * k_d, vi * vj * k
        return np.stack([
            2 * self.a_i, k, vjk, -vjk,
            k, 2 * self.a_j, vik, -vik,
            vjk, vik, -vvk, vvk,
            -vjk, -vik, vvk, -vvk,
        ], axis=-1).reshape(k.shape + (4, 4))


class NetworkArrays(NamedTuple):
    """The ids and data of a network's buses, units and demands, each in
    the order of ``buses``, ``generators`` and ``demands``."""

    bus_ids: np.ndarray
    v_min: np.ndarray
    v_max: np.ndarray
    gen_ids: np.ndarray
    gen_bus: np.ndarray  # the position of each unit's bus in ``buses``
    demand_ids: np.ndarray
    demand_bus: np.ndarray  # the position of each demand's bus in ``buses``
    p_demand: np.ndarray
    q_demand: np.ndarray


def component_key(kind: str, ident: int) -> str:
    return f"{kind}:{ident}"


@dataclass(frozen=True)
class DamageSets:
    """Damaged component ids, grouped by kind."""

    buses: tuple[int, ...]
    lines: tuple[int, ...]
    generators: tuple[int, ...]
    demands: tuple[int, ...]

    def component_keys(self) -> tuple[str, ...]:
        keys = [component_key("bus", i) for i in self.buses]
        keys += [component_key("line", i) for i in self.lines]
        keys += [component_key("gen", i) for i in self.generators]
        keys += [component_key("demand", i) for i in self.demands]
        return tuple(keys)

    @property
    def total(self) -> int:
        return len(self.buses) + len(self.lines) + len(self.generators) + len(self.demands)


@dataclass(frozen=True)
class Network:
    """Immutable feeder description. Safe to share across workers."""

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]
    demands: tuple[Demand, ...]
    base_mva: float = 1.0

    @cached_property
    def bus_position(self) -> dict[int, int]:
        """Each bus's position in ``buses``, by id."""
        return {b.id: k for k, b in enumerate(self.buses)}

    @cached_property
    def line_position(self) -> dict[int, int]:
        """Each line's position in ``lines``, by id."""
        return {l.id: k for k, l in enumerate(self.lines)}

    @cached_property
    def generator_position(self) -> dict[int, int]:
        """Each unit's position in ``generators``, by id."""
        return {g.id: k for k, g in enumerate(self.generators)}

    @cached_property
    def demand_position(self) -> dict[int, int]:
        """Each demand's position in ``demands``, by id."""
        return {d.id: k for k, d in enumerate(self.demands)}

    @cached_property
    def arrays(self) -> NetworkArrays:
        """The buses', units' and demands' ids and data as arrays."""
        at = self.bus_position
        buses, gens, demands = self.buses, self.generators, self.demands
        return NetworkArrays(
            bus_ids=np.array([b.id for b in buses], dtype=np.int64),
            v_min=np.array([b.v_min for b in buses], dtype=float),
            v_max=np.array([b.v_max for b in buses], dtype=float),
            gen_ids=np.array([g.id for g in gens], dtype=np.int64),
            gen_bus=np.array([at[g.bus] for g in gens], dtype=np.int64),
            demand_ids=np.array([d.id for d in demands], dtype=np.int64),
            demand_bus=np.array([at[d.bus] for d in demands], dtype=np.int64),
            p_demand=np.array([d.p for d in demands], dtype=float),
            q_demand=np.array([d.q for d in demands], dtype=float),
        )

    @cached_property
    def line_block(self) -> LineBlock:
        """The flows of ``lines``, in order, between the positions in ``buses``."""
        return LineBlock.of(self.lines, self.bus_position)

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

    @cached_property
    def tree(self) -> FeederTree:
        order, parent, up = [self.reference_bus.id], [-1], [None]
        seen = set(order)
        for pos, bid in enumerate(order):
            for line in self.lines_at.get(bid, ()):
                other = line.to_bus if line.from_bus == bid else line.from_bus
                if other not in seen:
                    seen.add(other)
                    order.append(other)
                    parent.append(pos)
                    up.append(line)
        return FeederTree(tuple(order), tuple(parent), tuple(up))

    @cached_property
    def radial_tree(self) -> FeederTree:
        """``tree``; raises ``CaseValidationError`` for a meshed or disconnected network."""
        violations = _radiality_violations(self)
        if violations:
            raise CaseValidationError(violations)
        return self.tree

    @cached_property
    def damage(self) -> DamageSets:
        return DamageSets(
            buses=tuple(b.id for b in self.buses if b.damaged),
            lines=tuple(l.id for l in self.lines if l.damaged),
            generators=tuple(g.id for g in self.generators if g.damaged),
            demands=tuple(d.id for d in self.demands if d.damaged),
        )

    @cached_property
    def gates(self) -> dict[tuple[str, int], tuple[str, ...]]:
        """The keys of the damaged components each element waits for, by ``(kind, id)``.

        An element works when it and its damaged buses are back: its own key
        if it is damaged, then its damaged buses, a line's from bus first.
        Every bus, line, generator (``gen``) and demand has an entry.
        """
        bus_down = set(self.damage.buses)

        def waits(kind, element, *buses):
            keys = [component_key(kind, element.id)] if element.damaged else []
            return tuple(keys + [component_key("bus", i) for i in buses if i in bus_down])

        out = {("bus", b.id): waits("bus", b) for b in self.buses}
        out.update({("line", l.id): waits("line", l, l.from_bus, l.to_bus) for l in self.lines})
        out.update({("gen", g.id): waits("gen", g, g.bus) for g in self.generators})
        out.update({("demand", d.id): waits("demand", d, d.bus) for d in self.demands})
        return out

    @property
    def reference_bus(self) -> Bus:
        for b in self.buses:
            if b.is_reference:
                return b
        raise CaseValidationError(["network has no reference bus"])

    def total_demand_p(self) -> float:
        return sum(d.p for d in self.demands)


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
        l.from_bus not in network.bus_position or l.to_bus not in network.bus_position
        for l in network.lines
    ):
        return v  # reachability is meaningless until references resolve
    missing = sorted(set(network.bus_position) - set(network.tree.order))
    if missing:
        v.append(f"radiality: buses unreachable from reference bus: {missing}")
    return v


def apply_damage(network: Network, damaged_line_ids) -> Network:
    """Return a copy with exactly the given lines flagged damaged."""
    wanted = set(damaged_line_ids)
    unknown = wanted - set(network.line_position)
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
# JSON type of each record field that is not a number
_FIELD_TYPES = {
    "id": "integer", "bus": "integer", "from_bus": "integer", "to_bus": "integer",
    "is_reference": "boolean", "damaged": "boolean", "has_der": "boolean",
    "kind": "string",
}

# The Python types that json.loads gives each JSON value type. The type
# is matched exactly: a bool is an int to Python, but never an id, a
# period or a number here.
_JSON_TYPES = {
    "integer": (int,),
    "number": (int, float),
    "boolean": (bool,),
    "string": (str,),
    "object": (dict,),
    "list": (list,),
}


def read_json(path, what: str):
    """Parse a JSON input file; an unreadable or malformed one is a CaseFormatError."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise CaseFormatError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CaseFormatError(f"{what} file {path} is not valid JSON: {exc}") from exc


def check_json(value, kind: str, where: str):
    """``value`` if it has the JSON type ``kind``, else a CaseFormatError
    naming ``where``. ``kind`` is a key of ``_JSON_TYPES``, or ``"list of "``
    and a key for a list whose items all have that type."""
    item = kind.removeprefix("list of ")
    types = _JSON_TYPES[item]
    if item == kind:
        ok = type(value) in types
    else:
        ok = type(value) is list and all(type(v) in types for v in value)
    if not ok:
        raise CaseFormatError(f"{where} must be JSON {kind}, got {value!r}")
    return value


def load_case(path) -> Network:
    """Parse a case file and return a validated per-unit Network."""
    network = network_from_dict(read_json(path, "case"))
    validate(network).raise_if_invalid()
    return network


def network_from_dict(raw: dict) -> Network:
    """Build a Network from parsed case-file data (physical units)."""
    check_json(raw, "object", "case file")
    for key in ("base_mva", "buses", "lines", "generators", "demands"):
        if key not in raw:
            raise CaseFormatError(f"case file is missing required key {key!r}")
    base = float(check_json(raw["base_mva"], "number", "case field 'base_mva'"))
    if base <= 0:
        raise CaseFormatError("base_mva must be positive")

    def take(key, fields, kind, required):
        for record in check_json(raw[key], "list of object", f"case field {key!r}"):
            ident = record.get("id", "?")
            for f in required:
                if f not in record:
                    raise CaseFormatError(f"{kind} {ident}: missing field {f!r}")
            out = {f: record[f] for f in fields if f in record}
            for f, value in out.items():
                field_type = _FIELD_TYPES.get(f, "number")
                # the message is formatted only for a value that fails
                if type(value) not in _JSON_TYPES[field_type]:
                    check_json(value, field_type, f"{kind} {ident} field {f!r}")
            yield out

    buses = tuple(Bus(**d) for d in take("buses", _BUS_FIELDS, "bus", ("id",)))
    lines = tuple(
        Line(**d)
        for d in take("lines", _LINE_FIELDS, "line", ("id", "from_bus", "to_bus", "b", "g"))
    )
    gens = []
    for d in take(
        "generators", _GEN_FIELDS, "generator", ("id", "bus", "p_min", "p_max", "q_min", "q_max")
    ):
        for f in ("p_min", "p_max", "q_min", "q_max"):
            d[f] = float(d[f]) / base
        gens.append(Generator(**d))
    demands = []
    for d in take("demands", _DEMAND_FIELDS, "demand", ("id", "bus", "p")):
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
    return TimeGrid(n_periods=1 + network.damage.total, step_hours=step_hours)
