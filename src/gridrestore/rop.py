"""Restoration ordering: multi-period mixed-integer DC program.

Damaged components get one binary energization column per period;
undamaged components enter the flow model as constants, which keeps the
MILP at 18 x 19 binaries for the bundled storm case. The network must be
radial, so every energized island is a tree and any line flow inside the
thermal bounds is realized by some bus angles: the model has flow columns
but no angle columns, and a gated line is switched off by its thermal
bound alone. At most one component comes back per period, on both
solution paths. A line, unit or demand is gated by the damaged
components it waits for, itself and its damaged buses
(``Network.gates``); the AC replay and the reconnection times read the
same map.

:func:`solve_rop` finds the exact optimum of an eligible instance by a
subset dynamic program instead of the MILP search: only lines damaged,
at most ``DP_MAX_LINES`` of them, and every generator able to sit at
zero output. With f(S) the best served DC power when the damaged-line
set S is energized, the optimal order maximizes V(S) = f(S) +
max_e V(S + e) from the empty set (the Held-Karp recursion), and f has a
closed form on a tree. HiGHS then solves the MILP with every
energization column fixed to that order, for the dispatch and the check
against the raw matrix, and its objective must equal the DP value. Every
other instance is solved by HiGHS.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import CaseFormatError, CaseValidationError, InfeasibleError, SolverError
from .milp import MilpProblem, ProblemBuilder, Solution, solve_milp
from .model import DamageSets, Network, TimeGrid, component_key, read_json
from .scenarios import EffectiveCase

# The subset DP holds a few 2^K arrays (f and then V, the root segment's
# island ids, the map back to line order) and scores up to 2^K distinct
# islands; above this many damaged lines the instance goes to HiGHS.
DP_MAX_LINES = 20
# Candidate repairs whose DP values lie this close (relative) to the best
# tie; the lowest damaged-line index among them goes first.
DP_TIE_REL = 1e-12
# Relative agreement required between the DP value and the LP objective
# of the dispatch with the DP's order fixed.
DP_AGREEMENT_TOL = 1e-7
# Islands scored at once by _island_values. Its bus x island work arrays
# peak at about 22 B per bus and island, so this bounds them (11 MB at 123
# buses) whatever the number of distinct islands of a segment.
ISLAND_CHUNK = 4096


@dataclass
class RestorationPlan:
    """Fixed energization schedule plus the DC solve that produced it."""

    schedule: tuple[tuple[str, ...], ...]
    energization: dict[str, int]
    objective_mwh: float
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
        """Parse a saved plan; missing or ill-typed keys raise CaseFormatError,
        and so do an empty schedule and a schedule that is not the
        energization grouped by period."""
        try:
            schedule, energization = raw["schedule"], raw["energization"]
            if not isinstance(schedule, list) or not all(
                isinstance(p, list) and all(isinstance(k, str) for k in p)
                for p in schedule
            ):
                raise TypeError("'schedule' must be a list of lists of component keys")
            if not isinstance(energization, dict):
                raise TypeError("'energization' must map component keys to periods")
            plan = cls(
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
        if not plan.n_periods:
            raise CaseFormatError("plan has no periods")
        for key, t in plan.energization.items():
            if not 0 <= t < plan.n_periods:
                raise CaseFormatError(f"plan energizes {key} in period {t}, outside its schedule")
        for t, listed in enumerate(plan.schedule):
            due = sorted(k for k, first in plan.energization.items() if first == t)
            if sorted(listed) != due:
                raise CaseFormatError(f"plan schedule period {t} lists {sorted(listed)}, not {due}")
        return plan

    @classmethod
    def load(cls, path) -> "RestorationPlan":
        return cls.from_dict(read_json(path, "plan"))


@dataclass
class RopInstance:
    case: EffectiveCase
    time: TimeGrid
    problem: MilpProblem
    x_col: dict[tuple[int, int], int] = field(default_factory=dict)
    z_col: dict[tuple[str, int], int] = field(default_factory=dict)
    pg_col: dict[tuple[int, int], int] = field(default_factory=dict)
    pl_col: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def damage(self) -> DamageSets:
        return self.case.network.damage

    def total_demand_energy_mwh(self) -> float:
        net = self.case.network
        return (
            net.total_demand_p()
            * net.base_mva
            * self.time.n_periods
            * self.time.step_hours
        )


def build_rop(case: EffectiveCase, time: TimeGrid) -> RopInstance:
    """Assemble the multi-period DC restoration MILP.

    Raises ``CaseValidationError`` for a meshed or disconnected network,
    and for a line whose thermal limit admits a larger angle spread than
    its angle bounds: the model has no angle columns, so the thermal
    limit must imply them.
    """
    net = case.network
    net.radial_tree  # refuses a meshed or disconnected network
    violations = [
        f"line {l.id}: thermal limit admits a larger angle spread than its "
        "angle bounds, which the angle-free model cannot enforce"
        for l in net.lines
        if l.thermal_limit > abs(l.b) * (max(abs(l.angle_min), l.angle_max) + 1e-12)
    ]
    if violations:
        raise CaseValidationError(violations)
    damage = net.damage
    if damage.total and time.n_periods < damage.total + 1:
        raise InfeasibleError(
            f"horizon of {time.n_periods} periods cannot energize "
            f"{damage.total} components at one per period"
        )

    T = time.n_periods
    dt = time.step_hours
    b = ProblemBuilder(maximize=True)
    inst = RopInstance(case=case, time=time, problem=None)  # problem set after build

    waits = net.gates
    z_keys = damage.component_keys()
    for t in range(T):
        for d in net.demands:
            inst.x_col[(d.id, t)] = b.add_column(0.0, 1.0, obj=d.p * dt)
        for g in net.generators:
            gated = bool(waits[("gen", g.id)])
            lo = min(g.p_min, 0.0) if gated else g.p_min
            hi = max(g.p_max, 0.0) if gated else g.p_max
            inst.pg_col[(g.id, t)] = b.add_column(lo, hi)
        for l in net.lines:
            inst.pl_col[(l.id, t)] = b.add_column(-l.thermal_limit, l.thermal_limit)
        for key in z_keys:
            # the final period is fixed: everything must be back in service
            lo = 1.0 if t == T - 1 else 0.0
            inst.z_col[(key, t)] = b.add_column(lo, 1.0, integer=True)

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

        # a gated line carries no flow until every gate closes
        for l in net.lines:
            for key in waits[("line", l.id)]:
                zc = inst.z_col[(key, t)]
                b.add_row({inst.pl_col[(l.id, t)]: 1.0, zc: -l.thermal_limit}, upper=0.0)
                b.add_row({inst.pl_col[(l.id, t)]: 1.0, zc: l.thermal_limit}, lower=0.0)

        # generator limits gated by own and bus energization
        for g in net.generators:
            for key in waits[("gen", g.id)]:
                zc = inst.z_col[(key, t)]
                b.add_row({inst.pg_col[(g.id, t)]: 1.0, zc: -g.p_max}, upper=0.0)
                b.add_row({inst.pg_col[(g.id, t)]: 1.0, zc: -g.p_min}, lower=0.0)

        # demand service gated by own and bus energization
        for d in net.demands:
            for key in waits[("demand", d.id)]:
                zc = inst.z_col[(key, t)]
                b.add_row({inst.x_col[(d.id, t)]: 1.0, zc: -1.0}, upper=0.0)

        # at most one new energization per period, none in period 0
        if z_keys:
            row = {inst.z_col[(k, t)]: 1.0 for k in z_keys}
            if t:
                row.update({inst.z_col[(k, t - 1)]: -1.0 for k in z_keys})
            b.add_row(row, upper=float(t > 0))

    # once energized, stay energized
    for key in z_keys:
        for t in range(T - 1):
            b.add_row(
                {inst.z_col[(key, t)]: 1.0, inst.z_col[(key, t + 1)]: -1.0}, upper=0.0
            )

    # a damaged line, unit or demand is energized no earlier than its damaged buses
    attached = {component_key("bus", i): [] for i in damage.buses}
    for (kind, ident), keys in waits.items():
        if kind != "bus" and keys[:1] == (component_key(kind, ident),):
            for bus_key in keys[1:]:
                attached[bus_key].append(keys[0])
    for bus_key, keys in attached.items():
        for key in keys:
            for t in range(T):
                b.add_row(
                    {inst.z_col[(key, t)]: 1.0, inst.z_col[(bus_key, t)]: -1.0},
                    upper=0.0,
                )

    inst.problem = b.build_milp()
    return inst


def solve_rop(instance: RopInstance, rel_gap: float = 1e-6) -> RestorationPlan:
    """Solve for the energization schedule: by the subset DP when eligible, else HiGHS."""
    if _dp_eligible(instance):
        return _solve_by_dp(instance)
    sol = solve_milp(instance.problem, rel_gap=rel_gap)
    if sol.status == "infeasible":
        raise InfeasibleError("restoration MILP is infeasible")
    if not sol.ok:
        raise SolverError(f"restoration MILP failed: {sol.message}")
    return _extract_plan(instance, sol)


def _dp_eligible(instance: RopInstance) -> bool:
    """Whether the subset DP finds this instance's exact optimum."""
    net = instance.case.network
    damage = net.damage
    return (
        not (damage.buses or damage.generators or damage.demands)
        and len(damage.lines) <= DP_MAX_LINES
        and all(g.p_min <= 0.0 <= g.p_max for g in net.generators)
    )


def _solve_by_dp(instance: RopInstance) -> RestorationPlan:
    """Order the repairs by the subset DP, then dispatch the fixed order by LP.

    The DP returns the optimal order and its value; HiGHS solves the
    MILP with every z column fixed to that order, which yields the
    dispatch (``served_fraction``) and re-checks the point against the
    raw matrix. The two objectives must agree.
    """
    lines, value = _best_order(instance.case.network, instance.time.n_periods)
    value *= instance.time.step_hours
    energization = {component_key("line", lid): t + 1 for t, lid in enumerate(lines)}
    lp = instance.problem.lp
    lower, upper = lp.col_lower.copy(), lp.col_upper.copy()
    for (key, t), j in instance.z_col.items():
        lower[j] = upper[j] = float(t >= energization[key])
    fixed = MilpProblem(
        replace(lp, col_lower=lower, col_upper=upper), instance.problem.integer_columns
    )
    sol = solve_milp(fixed)
    if not sol.ok:
        raise SolverError(f"fixed-order dispatch LP failed: {sol.status} {sol.message}")
    if abs(sol.objective - value) > DP_AGREEMENT_TOL * max(1.0, abs(value)):
        raise SolverError(
            f"fixed-order dispatch LP objective {sol.objective!r} disagrees with "
            f"the subset DP value {value!r}"
        )
    return _extract_plan(instance, replace(sol, gap=0.0))


def _best_order(network: Network, n_periods: int) -> tuple[list[int], float]:
    """Optimal one-per-period repair order of the damaged lines, and its value.

    The value is the served power summed over the periods (per-unit
    power times periods): period 0 has nothing repaired, period t <= K
    the first t lines of the order, and every later period all K. With
    V(S) = f(S) + max_e V(S + e) over subsets S of the damaged lines,
    the optimum is V({}); it is folded layer by layer by popcount, and
    the order follows the argmax from {}, ties going to the lowest
    damaged-line index.
    """
    damaged = network.damage.lines
    k_lines = len(damaged)
    values = _served_power(network)  # f, then V in place
    values[-1] *= n_periods - k_lines  # periods K .. T-1 have every line back
    popcount = np.zeros(1, dtype=np.uint8)  # uint8 keys: the stable sort is a radix sort
    for _ in range(k_lines):
        popcount = np.concatenate((popcount, popcount + 1))
    by_layer = np.argsort(popcount, kind="stable")
    starts = np.searchsorted(popcount[by_layer], np.arange(k_lines + 1))
    for layer in range(k_lines - 1, -1, -1):
        s = by_layer[starts[layer] : starts[layer + 1]]
        best = np.full(len(s), -np.inf)
        for k in range(k_lines):
            bit = 1 << k
            np.maximum(best, np.where(s & bit, -np.inf, values[s | bit]), out=best)
        values[s] += best
    order, s = [], 0
    for _ in range(k_lines):
        free = [k for k in range(k_lines) if not s >> k & 1]
        cand = values[[s | 1 << k for k in free]]
        top = cand.max()
        k = free[int(np.argmax(cand >= top - DP_TIE_REL * abs(top)))]
        order.append(damaged[k])
        s |= 1 << k
    return order, float(values[0])


def _served_power(network: Network) -> np.ndarray:
    """f(S): the best served DC power with damaged-line subset S energized.

    Entry s of the result is f for the subset whose bit k is set when the
    k-th damaged line (in ``network.lines`` order) is energized.

    The work runs in another bit order, the damaged lines in depth-first
    preorder of the segment tree, where the line above segment j and
    every damaged line below it fill the bits ``[seg_lo[j], seg_lo[j] +
    seg_width[j])``. From the leaves up, j's island (the bitmask of j and
    the segments below it that connect to it) is built over the subsets
    of those bits only: one island id per subset, combined from the
    children's ids and masks by one outer product per child, so the
    distinct islands come out without a search. The island is live
    whenever j is the root segment or the line above j is open; each
    distinct one is scored once by :func:`_island_values`. Each
    segment's values are added over the subsets of the other lines by
    one broadcast, segments K down to 0, so every subset's sum is formed
    in the same order as by a loop over all subsets. One index, built by
    doubling, maps the result back to the ``network.lines`` bit order.
    """
    tree = _FeederTree(network)
    k_lines = len(tree.seg_top) - 1
    served = np.zeros(1 << k_lines)  # in preorder bit order
    below: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # segment -> ids, islands
    for j in range(k_lines, -1, -1):  # children before parents
        ids = np.zeros(1, dtype=np.intp)
        islands = np.array([1 << j], dtype=np.uint32)
        for c in tree.seg_children[j]:  # bit ranges in ascending order
            c_ids, c_islands = below.pop(c)
            code = np.zeros(2 * len(c_ids), dtype=np.intp)  # 0: c's line open
            code[1::2] = 1 + c_ids  # closed: c's island joins j's
            ids = (code[:, None] * len(islands) + ids).ravel()
            islands = (np.insert(c_islands, 0, 0)[:, None] | islands).ravel()
        values = _island_values(islands, tree)[ids]
        if j:
            below[j] = ids, islands
            live, values = values, np.zeros(2 * len(values))
            values[::2] = live  # bit 0 is j's line: closed, j is in its parent's island
        lo, width = tree.seg_lo[j], tree.seg_width[j]
        served.reshape(-1, 1 << width, 1 << lo)[...] += values[:, None]
    index = np.zeros(1, dtype=np.intp)  # network bit order -> preorder bit order
    for j in sorted(range(1, k_lines + 1), key=tree.seg_top.__getitem__):
        index = np.concatenate((index, index | 1 << tree.seg_lo[j]))
    return served[index]


class _FeederTree:
    """Per-bus arrays of the DP over ``network.tree``, in its bus order.

    The undamaged lines contract the feeder into K + 1 segments, numbered
    breadth-first, so segment 0 holds the reference bus and every damaged
    line opens a new segment below its parent segment. Per bus:
    ``parent`` (``network.tree.parent``), ``seg``, ``cap`` (the thermal
    limit of the line to the parent), ``supply`` (summed ``p_max``) and
    ``load``. Per segment: ``seg_parent``, ``seg_children`` (ascending),
    ``seg_top``, the index of the damaged line above it (-1 at the root),
    and the bit range ``[seg_lo, seg_lo + seg_width)`` that the segment's
    line and every damaged line below it take when the damaged lines are
    numbered in depth-first preorder of the segment tree (the root's
    range is all K bits).
    """

    def __init__(self, network: Network):
        tree = network.tree
        damaged = {lid: k for k, lid in enumerate(network.damage.lines)}
        self.parent, self.seg = tree.parent, [0]
        self.seg_parent, self.seg_top = [-1], [-1]
        for line, pos in zip(tree.up[1:], tree.parent[1:]):
            if line.id in damaged:
                self.seg.append(len(self.seg_top))
                self.seg_parent.append(self.seg[pos])
                self.seg_top.append(damaged[line.id])
            else:
                self.seg.append(self.seg[pos])
        n_seg = len(self.seg_top)
        self.seg_children = [[] for _ in range(n_seg)]
        for j in range(1, n_seg):
            self.seg_children[self.seg_parent[j]].append(j)
        self.seg_width = [int(j > 0) for j in range(n_seg)]
        for j in range(n_seg - 1, 0, -1):
            self.seg_width[self.seg_parent[j]] += self.seg_width[j]
        self.seg_lo = [0] * n_seg
        for j in range(n_seg):  # parents before children
            lo = self.seg_lo[j] + int(j > 0)
            for c in self.seg_children[j]:
                self.seg_lo[c], lo = lo, lo + self.seg_width[c]
        self.cap = np.array([np.inf] + [line.thermal_limit for line in tree.up[1:]])
        self.supply = np.array(
            [sum(g.p_max for g in network.generators_at.get(b, ())) for b in tree.order]
        )
        self.load = np.array(
            [sum(d.p for d in network.demands_at.get(b, ())) for b in tree.order]
        )


def _island_values(islands: np.ndarray, tree: _FeederTree) -> np.ndarray:
    """Best served DC power of each island (a bitmask of segments), in closed form.

    Bottom-up over the bus tree, each bus serves the smaller of its
    supply (own generation plus the surplus its children pass up) and
    its demand (own load plus the demand its children could not serve),
    and passes the remainder to its parent, capped at the thermal limit
    of the line between them. Serving a subtree from its own units first
    is optimal because every served MW weighs the same and every unit
    may sit at zero output. The islands are scored ``ISLAND_CHUNK`` at a
    time; each island's value is independent of the others.
    """
    seg = np.asarray(tree.seg, dtype=np.uint32)
    served = np.zeros(len(islands))
    for start in range(0, len(islands), ISLAND_CHUNK):
        chunk = slice(start, start + ISLAND_CHUNK)
        inside = (islands[None, chunk] >> seg[:, None]) & 1 == 1  # bus x island
        surplus = np.zeros(inside.shape)
        short = np.zeros(inside.shape)
        for v in range(len(tree.parent) - 1, -1, -1):  # children before parents
            supply = np.where(inside[v], tree.supply[v] + surplus[v], 0.0)
            demand = np.where(inside[v], tree.load[v] + short[v], 0.0)
            served[chunk] += np.minimum(supply, demand)
            if v:
                # the line to the parent conducts when both ends are in the island
                p = tree.parent[v]
                up = inside[p] * tree.cap[v]
                surplus[p] += np.minimum(np.maximum(supply - demand, 0.0), up)
                short[p] += np.minimum(np.maximum(demand - supply, 0.0), up)
    return served


def _extract_plan(instance: RopInstance, sol: Solution) -> RestorationPlan:
    T = instance.time.n_periods
    energization: dict[str, int] = {}
    for key in instance.damage.component_keys():
        for t in range(T):
            if sol.x[instance.z_col[(key, t)]] > 0.5:
                energization[key] = t
                break
    schedule = tuple(
        tuple(k for k, ft in energization.items() if ft == t) for t in range(T)
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
        served_fraction=x,
        optimal=sol.status == "optimal",
        gap=float(sol.gap or 0.0),
    )


def rop_ens_mwh(plan: RestorationPlan, instance: RopInstance) -> float:
    """Energy not served implied by the DC objective."""
    return instance.total_demand_energy_mwh() - plan.objective_mwh


def check_plan(plan: RestorationPlan, instance: RopInstance) -> list[str]:
    """Invariant check used by the tests and the benchmark; empty list means clean."""
    errs = []
    T = instance.time.n_periods
    keys = set(instance.damage.component_keys())
    if set(plan.energization) != keys:
        errs.append("plan does not cover exactly the damaged components")
    for k, t in plan.energization.items():
        if not (0 <= t < T):
            errs.append(f"{k}: energization period {t} outside horizon")
    new = Counter(plan.energization.values())
    if new[0]:
        errs.append("period 0: energizes a component")
    for t, n in sorted(new.items()):
        if n > 1:
            errs.append(f"period {t}: energizes {n} components, at most one allowed")
    if keys and any(plan.energization[k] > T - 1 for k in keys):
        errs.append("some component never energized by the final period")
    if plan.served_fraction is not None:
        if plan.served_fraction.min() < -1e-9 or plan.served_fraction.max() > 1 + 1e-9:
            errs.append("served fractions leave [0, 1]")
    return errs
