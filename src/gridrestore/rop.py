"""Restoration ordering: multi-period mixed-integer DC program.

Damaged components get one binary energization column per period;
undamaged components enter the flow model as constants, which keeps the
MILP at 18 x 19 binaries for the bundled storm case. De-energized lines
are decoupled from the angle variables through a big-M slack sized by
:func:`compute_big_m`, which is exact on radial networks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    CaseFormatError,
    CaseValidationError,
    InfeasibleError,
    SolverError,
    UnboundedError,
)
from .milp import MilpProblem, ProblemBuilder, Solution, solve_milp
from .model import Network, TimeGrid, read_json
from .scenarios import EffectiveCase

KIND_ORDER = {"bus": 0, "line": 1, "gen": 2, "demand": 3}


def component_key(kind: str, ident: int) -> str:
    return f"{kind}:{ident}"


def split_key(key: str) -> tuple[str, int]:
    kind, _, ident = key.partition(":")
    return kind, int(ident)


@dataclass(frozen=True)
class DamageSets:
    """Damaged component ids, grouped by kind."""

    buses: tuple[int, ...]
    lines: tuple[int, ...]
    generators: tuple[int, ...]
    demands: tuple[int, ...]

    @classmethod
    def from_network(cls, network: Network) -> "DamageSets":
        return cls(
            buses=tuple(b.id for b in network.buses if b.damaged),
            lines=tuple(l.id for l in network.lines if l.damaged),
            generators=tuple(g.id for g in network.generators if g.damaged),
            demands=tuple(d.id for d in network.demands if d.damaged),
        )

    def component_keys(self) -> tuple[str, ...]:
        keys = [component_key("bus", i) for i in self.buses]
        keys += [component_key("line", i) for i in self.lines]
        keys += [component_key("gen", i) for i in self.generators]
        keys += [component_key("demand", i) for i in self.demands]
        return tuple(keys)

    @property
    def total(self) -> int:
        return len(self.buses) + len(self.lines) + len(self.generators) + len(self.demands)


@dataclass
class RestorationPlan:
    """Fixed energization schedule plus the DC solve that produced it."""

    schedule: tuple[tuple[str, ...], ...]
    energization: dict[str, int]
    objective_mwh: float
    demand_ids: tuple[int, ...] = ()
    served_fraction: np.ndarray | None = None  # demands x periods
    optimal: bool = True
    gap: float = 0.0

    @property
    def n_periods(self) -> int:
        return len(self.schedule)

    def energized_at(self, t: int) -> set[str]:
        return {k for k, first in self.energization.items() if first <= t}

    def to_dict(self) -> dict:
        return {
            "schedule": [list(period) for period in self.schedule],
            "energization": dict(sorted(self.energization.items())),
            "objective_mwh": self.objective_mwh,
            "optimal": self.optimal,
            "gap": self.gap,
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True))

    @classmethod
    def from_dict(cls, raw: dict) -> "RestorationPlan":
        """Parse a saved plan; missing or ill-typed keys raise CaseFormatError."""
        try:
            schedule, energization = raw["schedule"], raw["energization"]
            if not isinstance(schedule, list) or not all(
                isinstance(p, list) and all(isinstance(k, str) for k in p)
                for p in schedule
            ):
                raise TypeError("'schedule' must be a list of lists of component keys")
            if not isinstance(energization, dict):
                raise TypeError("'energization' must map component keys to periods")
            return cls(
                schedule=tuple(tuple(p) for p in schedule),
                energization={str(k): int(v) for k, v in energization.items()},
                objective_mwh=float(raw["objective_mwh"]),
                optimal=bool(raw.get("optimal", True)),
                gap=float(raw.get("gap", 0.0)),
            )
        except KeyError as exc:
            raise CaseFormatError(f"plan is missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise CaseFormatError(f"plan has an ill-typed value: {exc}") from exc

    @classmethod
    def load(cls, path) -> "RestorationPlan":
        return cls.from_dict(read_json(path, "plan"))


@dataclass
class RopInstance:
    case: EffectiveCase
    damage: DamageSets
    time: TimeGrid
    big_m_theta: float
    problem: MilpProblem
    budget_per_period: int
    x_col: dict[tuple[int, int], int] = field(default_factory=dict)
    z_col: dict[tuple[str, int], int] = field(default_factory=dict)
    pg_col: dict[tuple[int, int], int] = field(default_factory=dict)
    pl_col: dict[tuple[int, int], int] = field(default_factory=dict)
    theta_col: dict[tuple[int, int], int] = field(default_factory=dict)

    def total_demand_energy_mwh(self) -> float:
        net = self.case.network
        return (
            net.total_demand_p()
            * net.base_mva
            * self.time.n_periods
            * self.time.step_hours
        )


def compute_big_m(case: EffectiveCase) -> float:
    """Angle-decoupling constant: no tree path can spread angles further."""
    return float(
        sum(max(abs(l.angle_min), l.angle_max) for l in case.network.lines)
    )


def build_rop(
    case: EffectiveCase, time: TimeGrid, budget_per_period: int = 1
) -> RopInstance:
    """Assemble the multi-period DC restoration MILP."""
    net = case.network
    damage = DamageSets.from_network(net)
    if budget_per_period < 1:
        raise ValueError("budget_per_period must be at least 1")
    periods_needed = 1 + -(-damage.total // budget_per_period)
    if damage.total and time.n_periods < periods_needed:
        raise InfeasibleError(
            f"horizon of {time.n_periods} periods cannot energize "
            f"{damage.total} components at {budget_per_period} per period"
        )

    big_m = compute_big_m(case)
    for l in net.lines:
        if abs(l.b) > 0 and l.thermal_limit / abs(l.b) > max(
            abs(l.angle_min), l.angle_max
        ) + 1e-12:
            raise CaseValidationError([
                f"line {l.id}: thermal limit admits a larger angle spread than "
                "its angle bounds, so the decoupling constant would be invalid"
            ])

    damaged_buses = set(damage.buses)
    damaged_lines = set(damage.lines)
    damaged_gens = set(damage.generators)
    damaged_demands = set(damage.demands)

    T = time.n_periods
    dt = time.step_hours
    b = ProblemBuilder(maximize=True)
    inst = RopInstance(
        case=case,
        damage=damage,
        time=time,
        big_m_theta=big_m,
        problem=None,  # set after build
        budget_per_period=budget_per_period,
    )

    ref = net.reference_bus.id
    z_keys = damage.component_keys()
    for t in range(T):
        for d in net.demands:
            inst.x_col[(d.id, t)] = b.add_column(0.0, 1.0, obj=d.p * dt)
        for g in net.generators:
            gated = g.damaged or g.bus in damaged_buses
            lo = min(g.p_min, 0.0) if gated else g.p_min
            hi = max(g.p_max, 0.0) if gated else g.p_max
            inst.pg_col[(g.id, t)] = b.add_column(lo, hi)
        for l in net.lines:
            inst.pl_col[(l.id, t)] = b.add_column(-l.thermal_limit, l.thermal_limit)
        for bus in net.buses:
            fixed = bus.id == ref
            inst.theta_col[(bus.id, t)] = b.add_column(
                0.0 if fixed else -np.inf, 0.0 if fixed else np.inf
            )
        for key in z_keys:
            # the final period is fixed: everything must be back in service
            lo = 1.0 if t == T - 1 else 0.0
            inst.z_col[(key, t)] = b.add_column(lo, 1.0, integer=True)

    def gates(line) -> list[tuple[str, int]]:
        out = []
        if line.id in damaged_lines:
            out.append(("line", line.id))
        if line.from_bus in damaged_buses:
            out.append(("bus", line.from_bus))
        if line.to_bus in damaged_buses:
            out.append(("bus", line.to_bus))
        return out

    for t in range(T):
        # nodal balance
        for bus in net.buses:
            coeffs: dict[int, float] = {}
            for g in net.generators_at.get(bus.id, ()):
                coeffs[inst.pg_col[(g.id, t)]] = 1.0
            for d in net.demands_at.get(bus.id, ()):
                coeffs[inst.x_col[(d.id, t)]] = -d.p
            for l in net.lines_at.get(bus.id, ()):
                col = inst.pl_col[(l.id, t)]
                coeffs[col] = coeffs.get(col, 0.0) + (-1.0 if l.from_bus == bus.id else 1.0)
            b.add_row(coeffs, lower=0.0, upper=0.0)

        # line flow vs angle difference, decoupled through gated slack
        for l in net.lines:
            g_list = gates(l)
            slack = abs(l.b) * big_m
            base = {
                inst.pl_col[(l.id, t)]: 1.0,
                inst.theta_col[(l.from_bus, t)]: l.b,
                inst.theta_col[(l.to_bus, t)]: -l.b,
            }
            if not g_list:
                b.add_row(base, lower=0.0, upper=0.0)
            else:
                hi = dict(base)
                lo = dict(base)
                for kind, ident in g_list:
                    zc = inst.z_col[(component_key(kind, ident), t)]
                    hi[zc] = hi.get(zc, 0.0) + slack
                    lo[zc] = lo.get(zc, 0.0) - slack
                n_g = len(g_list)
                b.add_row(hi, upper=slack * n_g)
                b.add_row(lo, lower=-slack * n_g)
                # thermal forcing per gate: no flow until every gate closes
                for kind, ident in g_list:
                    zc = inst.z_col[(component_key(kind, ident), t)]
                    b.add_row(
                        {inst.pl_col[(l.id, t)]: 1.0, zc: -l.thermal_limit}, upper=0.0
                    )
                    b.add_row(
                        {inst.pl_col[(l.id, t)]: 1.0, zc: l.thermal_limit}, lower=0.0
                    )

        # generator limits gated by own and bus energization
        for g in net.generators:
            g_gates = []
            if g.damaged:
                g_gates.append(("gen", g.id))
            if g.bus in damaged_buses:
                g_gates.append(("bus", g.bus))
            for kind, ident in g_gates:
                zc = inst.z_col[(component_key(kind, ident), t)]
                b.add_row({inst.pg_col[(g.id, t)]: 1.0, zc: -g.p_max}, upper=0.0)
                b.add_row({inst.pg_col[(g.id, t)]: 1.0, zc: -g.p_min}, lower=0.0)

        # demand service gated by own and bus energization
        for d in net.demands:
            d_gates = []
            if d.id in damaged_demands:
                d_gates.append(("demand", d.id))
            if d.bus in damaged_buses:
                d_gates.append(("bus", d.bus))
            for kind, ident in d_gates:
                zc = inst.z_col[(component_key(kind, ident), t)]
                b.add_row({inst.x_col[(d.id, t)]: 1.0, zc: -1.0}, upper=0.0)

        # cumulative re-energization budget
        if z_keys:
            b.add_row(
                {inst.z_col[(k, t)]: 1.0 for k in z_keys},
                upper=float(budget_per_period * t),
            )

    # once energized, stay energized
    for key in z_keys:
        for t in range(T - 1):
            b.add_row(
                {inst.z_col[(key, t)]: 1.0, inst.z_col[(key, t + 1)]: -1.0}, upper=0.0
            )

    # components attached to a damaged bus wait for the bus
    for bus_id in damaged_buses:
        bus_key = component_key("bus", bus_id)
        attached = []
        for l in net.lines_at.get(bus_id, ()):
            if l.id in damaged_lines:
                attached.append(component_key("line", l.id))
        for g in net.generators_at.get(bus_id, ()):
            if g.id in damaged_gens:
                attached.append(component_key("gen", g.id))
        for d in net.demands_at.get(bus_id, ()):
            if d.id in damaged_demands:
                attached.append(component_key("demand", d.id))
        for key in attached:
            for t in range(T):
                b.add_row(
                    {inst.z_col[(key, t)]: 1.0, inst.z_col[(bus_key, t)]: -1.0},
                    upper=0.0,
                )

    inst.problem = b.build_milp()
    return inst


def solve_rop(instance: RopInstance, rel_gap: float = 1e-6) -> RestorationPlan:
    """Solve the MILP and extract the energization schedule."""
    sol = solve_milp(instance.problem, rel_gap=rel_gap)
    if sol.status == "infeasible":
        raise InfeasibleError("restoration MILP is infeasible")
    if sol.status == "unbounded":
        raise UnboundedError("restoration MILP is unbounded; modeling bug")
    if not sol.ok:
        raise SolverError(f"restoration MILP failed: {sol.message}")
    return _extract_plan(instance, sol)


def _extract_plan(instance: RopInstance, sol: Solution) -> RestorationPlan:
    T = instance.time.n_periods
    energization: dict[str, int] = {}
    for key in instance.damage.component_keys():
        for t in range(T):
            if sol.x[instance.z_col[(key, t)]] > 0.5:
                energization[key] = t
                break
    schedule = tuple(
        tuple(sorted((k for k, ft in energization.items() if ft == t), key=_key_sort))
        for t in range(T)
    )
    demands = instance.case.network.demands
    x = np.empty((len(demands), T))
    for di, d in enumerate(demands):
        for t in range(T):
            x[di, t] = sol.x[instance.x_col[(d.id, t)]]
    x = np.clip(x, 0.0, 1.0)
    base = instance.case.network.base_mva
    return RestorationPlan(
        schedule=schedule,
        energization=energization,
        objective_mwh=float(sol.objective) * base,
        demand_ids=tuple(d.id for d in demands),
        served_fraction=x,
        optimal=sol.status == "optimal",
        gap=float(sol.gap or 0.0),
    )


def _key_sort(key: str):
    kind, ident = split_key(key)
    return (KIND_ORDER.get(kind, 9), ident)


def plan_order(plan: RestorationPlan) -> list[str]:
    """Components in energization order, ties broken by kind then id."""
    return sorted(
        plan.energization,
        key=lambda k: (plan.energization[k], *_key_sort(k)),
    )


def rop_ens_mwh(plan: RestorationPlan, instance: RopInstance) -> float:
    """Energy not served implied by the DC objective."""
    return instance.total_demand_energy_mwh() - plan.objective_mwh


def check_plan(plan: RestorationPlan, instance: RopInstance) -> list[str]:
    """Invariant check used by tests and the CLI; empty list means clean."""
    errs = []
    T = instance.time.n_periods
    keys = set(instance.damage.component_keys())
    if set(plan.energization) != keys:
        errs.append("plan does not cover exactly the damaged components")
    for k, t in plan.energization.items():
        if not (0 <= t < T):
            errs.append(f"{k}: energization period {t} outside horizon")
    counts = np.zeros(T, dtype=int)
    for t in plan.energization.values():
        counts[t:] += 1
    for t in range(T):
        if counts[t] > instance.budget_per_period * t:
            errs.append(f"period {t}: cumulative energizations exceed budget")
    if keys and any(plan.energization[k] > T - 1 for k in keys):
        errs.append("some component never energized by the final period")
    if plan.served_fraction is not None:
        if plan.served_fraction.min() < -1e-9 or plan.served_fraction.max() > 1 + 1e-9:
            errs.append("served fractions leave [0, 1]")
    return errs
