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
closed form on a tree. The dispatch of that order is also in closed
form, under a stated shedding rule (:func:`_shed_evenly`): the whole
MILP point is checked against the raw rows, and its objective must
equal the DP value. The DP path needs no LP solver and no scipy; every
other instance goes to ``milp.solve_milp``, which solves it with HiGHS
and runs the same ``verify_solution`` check on the returned point.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CaseFormatError, CaseValidationError, InfeasibleError, SolverError
from . import milp
from .milp import OPTIMAL, MilpProblem, ProblemBuilder, Solution, solve_milp
from .model import DamageSets, Network, TimeGrid, check_json, component_key, read_json
from .scenarios import EffectiveCase

# The subset DP holds a few 2^K arrays (f and then V, the root segment's
# island ids, f's copy in line order) and scores up to 2^K distinct
# islands; above this many damaged lines the instance goes to HiGHS. It
# also keeps _served_power's (2,) * K view under numpy 1.x's 32 axes.
DP_MAX_LINES = 20
# Candidate repairs whose DP values lie this close (relative) to the best
# tie; the lowest damaged-line index among them goes first.
DP_TIE_REL = 1e-12
# Relative agreement required between the DP value and the objective of
# the closed-form MILP point of the DP's order: the two sum the same
# served power in different orders, so they differ by rounding only.
DP_AGREEMENT_TOL = 1e-7
# Islands scored at once by _island_values. Its bus x island work arrays
# peak at about 22 B per bus and island, so this bounds them (11 MB at 123
# buses) whatever the number of distinct islands of the whole network.
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
        check_json(raw, "object", "plan")

        def field(key, kind, default=None):
            if key not in raw and default is None:
                raise CaseFormatError(f"plan is missing key {key!r}")
            return check_json(raw.get(key, default), kind, f"plan field {key!r}")

        schedule = field("schedule", "list of list")
        for t, period in enumerate(schedule):
            check_json(period, "list of string", f"plan schedule period {t}")
        energization = field("energization", "object")
        for key, t in energization.items():
            check_json(t, "integer", f"plan energization of {key}")
        plan = cls(
            schedule=tuple(tuple(p) for p in schedule),
            energization=dict(energization),
            objective_mwh=float(field("objective_mwh", "number")),
            optimal=field("optimal", "boolean", True),
            gap=float(field("gap", "number", 0.0)),
        )
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


def solve_rop(
    instance: RopInstance, rel_gap: float = milp.DEFAULT_REL_GAP
) -> RestorationPlan:
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
    """Order the repairs by the subset DP, then dispatch the order in closed form.

    The DP returns the optimal order and its value. :func:`_dp_point`
    builds the MILP point of that order, every z column and the dispatch
    of the shedding rule, and ``verify_solution`` checks it against the
    raw rows of ``build_rop``, the check that ``solve_milp`` runs on
    every point HiGHS returns.
    The point's objective must equal the DP value.
    """
    order, value = _best_order(instance.case.network, instance.time.n_periods)
    value *= instance.time.step_hours
    x = _dp_point(instance, order)
    sol = Solution(OPTIMAL, objective=float(instance.problem.lp.c @ x), x=x)
    # through the module attribute, which an instrumented run wraps
    milp.verify_solution(instance.problem, sol, milp.DEFAULT_FEAS_TOL)
    if abs(sol.objective - value) > DP_AGREEMENT_TOL * max(1.0, abs(value)):
        raise SolverError(
            f"closed-form dispatch objective {sol.objective!r} disagrees with "
            f"the subset DP value {value!r}"
        )
    return _extract_plan(instance, sol)


def _dp_point(instance: RopInstance, order: list[int]) -> np.ndarray:
    """The MILP point of a repair order: its z columns and the rule's dispatch.

    Period t has the first t lines of ``order`` back, and every later
    period all of them. :func:`_shed_evenly` dispatches all periods at
    once; a line's flow column counts from its from bus.
    """
    net = instance.case.network
    T = instance.time.n_periods
    tree = net.tree
    back = {lid: t + 1 for t, lid in enumerate(order)}  # first period a line works
    periods = np.arange(T)
    closed = periods >= np.array([0] + [back.get(l.id, 0) for l in tree.up[1:]])[:, None]
    served, drawn, inflow = _shed_evenly(_FeederTree(net), closed)
    pos = {bid: k for k, bid in enumerate(tree.order)}

    def cols(table, ids) -> np.ndarray:
        flat = [table[(i, t)] for i in ids for t in range(T)]
        return np.array(flat, dtype=np.intp).reshape(len(ids), T)

    x = np.zeros(instance.problem.lp.n_cols)
    demands, units, up = net.demands, net.generators, tree.up[1:]
    x[cols(instance.x_col, [d.id for d in demands])] = served[[pos[d.bus] for d in demands]]
    x[cols(instance.pg_col, [g.id for g in units])] = (
        drawn[[pos[g.bus] for g in units]] * np.array([g.p_max for g in units])[:, None]
    )
    sign = [1.0 if l.from_bus == tree.order[p] else -1.0 for l, p in zip(up, tree.parent[1:])]
    x[cols(instance.pl_col, [l.id for l in up])] = np.array(sign)[:, None] * inflow[1:]
    lines = net.damage.lines
    x[cols(instance.z_col, [component_key("line", lid) for lid in lines])] = (
        periods >= np.array([back[lid] for lid in lines])[:, None]
    )
    return x


def _best_order(network: Network, n_periods: int) -> tuple[list[int], float]:
    """Optimal one-per-period repair order of the damaged lines, and its value.

    The value is the served power summed over the periods (per-unit
    power times periods): period 0 has nothing repaired, period t <= K
    the first t lines of the order, and every later period all K. With
    V(S) = f(S) + max_e V(S + e) over subsets S of the damaged lines,
    the optimum is V({}); it is folded layer by layer by popcount, and
    the order follows the argmax from {}, ties going to the lowest
    damaged-line index. A layer's own entries are set to -inf while it
    takes the maximum over every bit, so for a bit already in S the
    entry of S + e (S itself) never wins; the layer's f is then added to
    that maximum.
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
        own = values[s]
        values[s] = -np.inf  # s | bit is s itself for a bit already in s
        best = np.full(len(s), -np.inf)
        for k in range(k_lines):
            np.maximum(best, values[s | 1 << k], out=best)
        values[s] = own + best
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
    whenever j is the root segment or the line above j is open. The
    distinct islands of all segments are scored by one
    :func:`_island_values` call; an island's value does not depend on
    the others scored with it. Each segment's values are then added over
    the subsets of the other lines by one broadcast, segments K down to
    0, so every subset's sum is formed in the same order as by a loop
    over all subsets. One axis transpose of the (2,) * K view maps the
    result back to the ``network.lines`` bit order.
    """
    tree = _FeederTree(network)
    k_lines = len(tree.seg_top) - 1
    segments = []  # (j, ids into all islands), segments K down to 0
    islands_of: list[np.ndarray] = []
    offset = 0
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
        if j:
            below[j] = ids, islands
        segments.append((j, ids + offset))
        islands_of.append(islands)
        offset += len(islands)
    scores = _island_values(np.concatenate(islands_of), tree)
    served = np.zeros(1 << k_lines)  # in preorder bit order
    for j, ids in segments:
        values = scores[ids]
        if j:
            live, values = values, np.zeros(2 * len(values))
            values[::2] = live  # bit 0 is j's line: closed, j is in its parent's island
        lo, width = tree.seg_lo[j], tree.seg_width[j]
        served.reshape(-1, 1 << width, 1 << lo)[...] += values[:, None]
    # axis a of the (2,) * K view holds bit K - 1 - a; network bit seg_top[j]
    # is preorder bit seg_lo[j]
    lo_of = dict(zip(tree.seg_top[1:], tree.seg_lo[1:]))
    axes = [k_lines - 1 - lo_of[k] for k in range(k_lines - 1, -1, -1)]
    return served.reshape((2,) * k_lines).transpose(axes).reshape(-1)


class _FeederTree:
    """Per-bus arrays of the DP over ``network.tree``, in its bus order.

    The undamaged lines contract the feeder into K + 1 segments, numbered
    breadth-first, so segment 0 holds the reference bus and every damaged
    line opens a new segment below its parent segment. Per bus:
    ``parent`` (``network.tree.parent``), ``seg``, ``cap`` (the thermal
    limit of the line to the parent), ``supply`` (summed ``p_max``) and
    ``load``. ``levels`` holds one slice of bus positions per depth, the
    root's first: the bus order is breadth-first. Per segment:
    ``seg_parent``, ``seg_children`` (ascending), ``seg_top``, the index
    of the damaged line above it (-1 at the root), and the bit range
    ``[seg_lo, seg_lo + seg_width)`` that the segment's line and every
    damaged line below it take when the damaged lines are numbered in
    depth-first preorder of the segment tree (the root's range is all K
    bits).
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
        # fsum: a bus's totals do not depend on the order of its units or demands
        self.supply = np.array(
            [math.fsum(g.p_max for g in network.generators_at.get(b, ())) for b in tree.order]
        )
        self.load = np.array(
            [math.fsum(d.p for d in network.demands_at.get(b, ())) for b in tree.order]
        )
        depth = [0]
        for pos in tree.parent[1:]:
            depth.append(depth[pos] + 1)
        bounds = np.searchsorted(depth, np.arange(depth[-1] + 2)).tolist()
        self.levels = [slice(a, b) for a, b in zip(bounds, bounds[1:])]


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


def _shed_evenly(
    tree: _FeederTree, closed: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dispatch of the shedding rule, every period at once.

    ``closed`` (bus x period) says whether each bus's line to its parent
    conducts; an open line has capacity 0. Bottom-up, as in
    :func:`_island_values`, each bus totals its supply (own units plus
    its children's capped surplus) and its demand (own load plus its
    children's capped shortfall), and passes the excess of one over the
    other to its parent, capped at the line's limit. Top-down, each bus
    delivers what it serves locally plus what its parent sends it, and
    splits that over what is asked of it in proportion: its own load and
    each child's capped shortfall get one fraction. It draws on its own
    units and each child's capped surplus in proportion as well.

    The rule: every served MW weighs the same in the paper's objective,
    so among the optimal dispatches the objective cannot pick who is
    shed. This one sheds every demand behind one binding limit by the
    same fraction, after each subtree has served itself from its own
    units; which customers lose power depends on the feeder and its
    limits, never on where a customer sits in the matrix. The result is
    unique and does not depend on the order of ``network.demands`` or
    ``network.generators``.

    Returns, per bus and period: the served fraction of every demand at
    the bus, the output fraction (of ``p_max``) of every unit at the
    bus, and the flow into the bus from its parent (0 at the root).
    Shedding is computed as a shortfall, so a fully served bus gets a
    fraction of exactly 1.
    """
    n, n_periods = closed.shape
    parent = np.asarray(tree.parent)
    cap = np.where(closed, tree.cap[:, None], 0.0)
    supply = np.repeat(tree.supply[:, None], n_periods, axis=1)
    demand = np.repeat(tree.load[:, None], n_periods, axis=1)
    surplus, short = np.zeros((n, n_periods)), np.zeros((n, n_periods))
    for lv in reversed(tree.levels[1:]):  # children before parents
        gap = demand[lv] - supply[lv]
        surplus[lv] = np.minimum(np.maximum(-gap, 0.0), cap[lv])
        short[lv] = np.minimum(np.maximum(gap, 0.0), cap[lv])
        np.add.at(supply, parent[lv], surplus[lv])
        np.add.at(demand, parent[lv], short[lv])
    served, drawn = np.ones((n, n_periods)), np.ones((n, n_periods))
    inflow = np.zeros((n, n_periods))
    for lv in tree.levels:  # parents before children
        if lv.start:
            up = parent[lv]
            inflow[lv] = served[up] * short[lv] - drawn[up] * surplus[lv]
        gap = demand[lv] - supply[lv]
        shed = np.maximum(gap, 0.0) - np.maximum(inflow[lv], 0.0)
        idle = np.maximum(-gap, 0.0) - np.maximum(-inflow[lv], 0.0)
        served[lv] -= np.divide(shed, demand[lv], out=np.zeros_like(shed), where=demand[lv] > 0)
        drawn[lv] -= np.divide(idle, supply[lv], out=np.zeros_like(idle), where=supply[lv] > 0)
    return served, drawn, inflow


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
    """Energy not served by the plan's dispatch, sum of p dt (1 - x), in MWh.

    The same sum as ``metrics.energy_not_served``; a fully served plan
    reads exactly 0.
    """
    net = instance.case.network
    p = np.array([d.p for d in net.demands]) * net.base_mva
    unserved = (1.0 - plan.served_fraction) * p[:, None] * instance.time.step_hours
    return float(unserved.sum(axis=1).sum())


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
    if plan.served_fraction is not None:
        if plan.served_fraction.min() < -1e-9 or plan.served_fraction.max() > 1 + 1e-9:
            errs.append("served fractions leave [0, 1]")
    return errs
