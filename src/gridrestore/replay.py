"""Replay a fixed restoration schedule through per-period AC OPF.

Each period is a continuous load-shedding AC optimal power flow: the
energization statuses from the plan are constants, de-energized lines
and their flows are removed from the problem entirely (so zero flow
holds exactly, not numerically), and buses in islands without an
energized source are fixed at V = 0 with full shed before any solver
runs. An element works when it and its damaged buses are back
(``rop.gates``); the islands come from one walk down ``Network.tree``,
so the network must be radial. Live islands are solved independently
with one angle reference each; the lower voltage bound is soft, charged
to the objective at ``PENALTY_WEIGHT``. Each island is one SLSQP solve
from a flat start, polished once more with SLSQP only when its residuals
stay above tolerance.

``simulate_plan`` solves each distinct island once per replay: with one
repair per period most islands recur unchanged, and the solve depends
only on the island, the case and the tolerance, all fixed within one
replay. It builds every period first, then solves the distinct live
islands on every CPU the process may use, one forked worker per CPU
(in-process when that is one CPU, the platform cannot fork or other
threads run). The
state, the residuals and the convergence check still run in every
period, in the calling process. The replay also pins every loaded
OpenBLAS to one thread, in the workers too: SLSQP's dense products are
too small to gain from more, and a fixed count keeps the last digits of
the results independent of the host's core count, of the worker count
and of ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import json
import math
import multiprocessing
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.optimize as sopt

from .errors import CaseValidationError, GridRestoreError
from .model import Network, _radiality_violations
from .rop import DamageSets, RestorationPlan, gates
from .scenarios import EffectiveCase

# Objective weight of the soft voltage floor's slack, per unit of voltage.
PENALTY_WEIGHT = 1.0
DEFAULT_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class Island:
    buses: tuple[int, ...]
    lines: tuple[int, ...]
    generators: tuple[int, ...]
    demands: tuple[int, ...]
    live: bool
    reference: int


@dataclass
class AcOpfProblem:
    """One period of the implementation problem, statuses fixed.

    ``energized`` holds the keys of the damaged components back in service.
    A meshed or disconnected network raises ``CaseValidationError``.
    """

    case: EffectiveCase
    energized: set[str]
    period: int

    energized_bus_ids: frozenset[int] = field(init=False)
    energized_line_ids: frozenset[int] = field(init=False)
    energized_gen_ids: frozenset[int] = field(init=False)
    energized_demand_ids: frozenset[int] = field(init=False)
    islands: tuple[Island, ...] = field(init=False)

    def __post_init__(self):
        net = self.case.network
        violations = _radiality_violations(net)
        if violations:
            raise CaseValidationError(violations)
        waits = gates(net)

        def working(kind, elements) -> frozenset[int]:
            return frozenset(
                e.id for e in elements if self.energized.issuperset(waits[(kind, e.id)])
            )

        self.energized_bus_ids = working("bus", net.buses)
        self.energized_line_ids = working("line", net.lines)
        self.energized_gen_ids = working("gen", net.generators)
        self.energized_demand_ids = working("demand", net.demands)
        self.islands = _split_islands(net, self)


def _split_islands(net: Network, p: AcOpfProblem) -> tuple[Island, ...]:
    """Energized buses grouped into islands by one walk down the feeder tree.

    An energized bus joins its parent's island when the line between
    them is energized, and otherwise starts an island of its own.
    Islands come in the order of their smallest bus.
    """
    tree = net.tree
    island_of: dict[int, int] = {}
    buses: list[list[int]] = []
    lines: list[list[int]] = []
    for bid, parent, line in zip(tree.order, tree.parent, tree.up):
        if bid not in p.energized_bus_ids:
            continue
        if line is not None and line.id in p.energized_line_ids:
            k = island_of[tree.order[parent]]
            lines[k].append(line.id)
        else:
            k = len(buses)
            buses.append([])
            lines.append([])
        island_of[bid] = k
        buses[k].append(bid)
    ref_bus = tree.order[0]
    islands = []
    for k, (members, island_lines) in enumerate(zip(buses, lines)):
        gens = tuple(
            g.id for g in net.generators if g.id in p.energized_gen_ids and island_of[g.bus] == k
        )
        demands = tuple(
            d.id for d in net.demands if d.id in p.energized_demand_ids and island_of[d.bus] == k
        )
        islands.append(
            Island(
                buses=tuple(sorted(members)),
                lines=tuple(sorted(island_lines)),
                generators=gens,
                demands=demands,
                live=bool(gens),
                reference=ref_bus if members[0] == ref_bus else min(members),
            )
        )
    return tuple(sorted(islands, key=lambda island: island.buses[0]))


@dataclass
class AcState:
    """Solution of one period: voltages, flows, dispatch and shed."""

    v: dict[int, float]
    theta: dict[int, float]
    v_violation: dict[int, float]
    served: dict[int, float]
    p_gen: dict[int, float]
    q_gen: dict[int, float]
    p_flow_fr: dict[int, float]
    p_flow_to: dict[int, float]
    q_flow_fr: dict[int, float]
    q_flow_to: dict[int, float]
    objective: float
    converged: bool
    max_residual: float
    message: str = ""

    def to_dict(self) -> dict:
        def fmt(d):
            return {str(k): float(v) for k, v in sorted(d.items())}

        return {
            "v": fmt(self.v),
            "theta": fmt(self.theta),
            "v_violation": fmt(self.v_violation),
            "served": fmt(self.served),
            "p_gen": fmt(self.p_gen),
            "q_gen": fmt(self.q_gen),
            "p_flow_fr": fmt(self.p_flow_fr),
            "p_flow_to": fmt(self.p_flow_to),
            "q_flow_fr": fmt(self.q_flow_fr),
            "q_flow_to": fmt(self.q_flow_to),
            "objective": self.objective,
            "converged": self.converged,
            "max_residual": self.max_residual,
        }


@dataclass
class RipResult:
    states: tuple[AcState, ...]
    demand_ids: tuple[int, ...]
    served_fraction: np.ndarray  # demands x periods
    served_mwh: float
    ens_mwh: float
    step_hours: float
    converged: bool

    def to_dict(self) -> dict:
        return {
            "periods": [s.to_dict() for s in self.states],
            "served_mwh": self.served_mwh,
            "ens_mwh": self.ens_mwh,
            "step_hours": self.step_hours,
            "converged": self.converged,
            "max_residual": max(s.max_residual for s in self.states),
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True))

    def write_served_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["demand_id"] + [f"t{t}" for t in range(len(self.states))])
            for i, did in enumerate(self.demand_ids):
                w.writerow([did] + [f"{v:.9f}" for v in self.served_fraction[i]])


# --- AC branch flow (pi model with ideal from-side tap) ---------------------


class _LineBlock:
    """Vectorized flows and first derivatives for a set of lines."""

    def __init__(self, lines, bus_index: dict[int, int]):
        self.ids = np.array([l.id for l in lines], dtype=np.int64)
        self.i = np.array([bus_index[l.from_bus] for l in lines], dtype=np.int64)
        self.j = np.array([bus_index[l.to_bus] for l in lines], dtype=np.int64)
        g = np.array([l.g for l in lines])
        bb = np.array([l.b for l in lines])
        g_fr = np.array([l.g_fr for l in lines])
        b_fr = np.array([l.b_fr for l in lines])
        g_to = np.array([l.g_to for l in lines])
        b_to = np.array([l.b_to for l in lines])
        tm2 = np.array([l.t_m**2 for l in lines])
        tr = np.array([l.t_r for l in lines])
        ti = np.array([l.t_i for l in lines])
        self.ap = (g + g_fr) / tm2
        self.cp = (-g * tr + bb * ti) / tm2
        self.sp = (-bb * tr - g * ti) / tm2
        self.a2p = (g + g_to) / tm2
        self.c2p = (-g * tr - bb * ti) / tm2
        self.s2p = (-bb * tr + g * ti) / tm2
        self.aq = -(bb + b_fr) / tm2
        self.cq = (bb * tr + g * ti) / tm2
        self.sq = (-g * tr + bb * ti) / tm2
        self.a2q = -(bb + b_to) / tm2
        self.c2q = (bb * tr - g * ti) / tm2
        self.s2q = (-g * tr - bb * ti) / tm2
        self.t_lim = np.array([l.thermal_limit for l in lines])
        self.a_min = np.array([l.angle_min for l in lines])
        self.a_max = np.array([l.angle_max for l in lines])

    def flows(self, v: np.ndarray, th: np.ndarray):
        vi, vj = v[self.i], v[self.j]
        d = th[self.i] - th[self.j]
        cos_d, sin_d = np.cos(d), np.sin(d)
        vv = vi * vj
        pfr = self.ap * vi**2 + vv * (self.cp * cos_d + self.sp * sin_d)
        qfr = self.aq * vi**2 + vv * (self.cq * cos_d + self.sq * sin_d)
        # to-side angle is -d; cos(-d) = cos d, sin(-d) = -sin d
        pto = self.a2p * vj**2 + vv * (self.c2p * cos_d - self.s2p * sin_d)
        qto = self.a2q * vj**2 + vv * (self.c2q * cos_d - self.s2q * sin_d)
        return pfr, pto, qfr, qto

    def flow_partials(self, v: np.ndarray, th: np.ndarray):
        """d(flow)/d(vi, vj, thi, thj) for the four directed quantities."""
        vi, vj = v[self.i], v[self.j]
        d = th[self.i] - th[self.j]
        cos_d, sin_d = np.cos(d), np.sin(d)
        out = {}
        kfr_p = self.cp * cos_d + self.sp * sin_d
        kfr_p_d = -self.cp * sin_d + self.sp * cos_d
        out["pfr"] = (
            2 * self.ap * vi + vj * kfr_p,
            vi * kfr_p,
            vi * vj * kfr_p_d,
            -vi * vj * kfr_p_d,
        )
        kfr_q = self.cq * cos_d + self.sq * sin_d
        kfr_q_d = -self.cq * sin_d + self.sq * cos_d
        out["qfr"] = (
            2 * self.aq * vi + vj * kfr_q,
            vi * kfr_q,
            vi * vj * kfr_q_d,
            -vi * vj * kfr_q_d,
        )
        kto_p = self.c2p * cos_d - self.s2p * sin_d
        kto_p_d = -self.c2p * sin_d - self.s2p * cos_d
        out["pto"] = (
            vj * kto_p,
            2 * self.a2p * vj + vi * kto_p,
            vi * vj * kto_p_d,
            -vi * vj * kto_p_d,
        )
        kto_q = self.c2q * cos_d - self.s2q * sin_d
        kto_q_d = -self.c2q * sin_d - self.s2q * cos_d
        out["qto"] = (
            vj * kto_q,
            2 * self.a2q * vj + vi * kto_q,
            vi * vj * kto_q_d,
            -vi * vj * kto_q_d,
        )
        return out


class _IslandNlp:
    """Load-shedding AC OPF over one live island."""

    def __init__(self, net: Network, island: Island):
        self.net = net
        self.island = island
        self.buses = [net.bus_by_id[b] for b in island.buses]
        self.bus_index = {b: k for k, b in enumerate(island.buses)}
        self.lines = [net.line_by_id[l] for l in island.lines]
        self.gens = [net.generator_by_id[g] for g in island.generators]
        self.demands = [net.demand_by_id[d] for d in island.demands]
        self.block = _LineBlock(self.lines, self.bus_index) if self.lines else None

        nb, nl = len(self.buses), len(self.lines)
        nd, ng = len(self.demands), len(self.gens)
        self.nb, self.nl, self.nd, self.ng = nb, nl, nd, ng
        self.iv = np.arange(nb)
        self.ith = nb + np.arange(nb)
        self.ix = 2 * nb + np.arange(nd)
        self.ipg = 2 * nb + nd + np.arange(ng)
        self.iqg = 2 * nb + nd + ng + np.arange(ng)
        self.ivt = 2 * nb + nd + 2 * ng + np.arange(nb)
        self.n_var = 3 * nb + nd + 2 * ng

        self.pd = np.array([d.p for d in self.demands])
        self.qd = np.array([d.q for d in self.demands])
        self.v_min = np.array([b.v_min for b in self.buses])
        self.v_max = np.array([b.v_max for b in self.buses])

        # balance rows of the units and demands, and their constant
        # entries of balance_jac
        self.gen_rows = np.array([self.bus_index[g.bus] for g in self.gens], dtype=np.int64)
        self.demand_rows = np.array([self.bus_index[d.bus] for d in self.demands], dtype=np.int64)
        self.balance_jac0 = np.zeros((2 * nb, self.n_var))
        self.balance_jac0[self.gen_rows, self.ipg] = 1.0
        self.balance_jac0[nb + self.gen_rows, self.iqg] = 1.0
        self.balance_jac0[self.demand_rows, self.ix] = -self.pd
        self.balance_jac0[nb + self.demand_rows, self.ix] = -self.qd

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.empty(self.n_var)
        hi = np.empty(self.n_var)
        lo[self.iv], hi[self.iv] = 0.0, self.v_max
        lo[self.ith], hi[self.ith] = -math.pi, math.pi
        ref = self.bus_index[self.island.reference]
        lo[self.ith[ref]] = hi[self.ith[ref]] = 0.0
        lo[self.ix], hi[self.ix] = 0.0, 1.0
        lo[self.ipg] = [g.p_min for g in self.gens]
        hi[self.ipg] = [g.p_max for g in self.gens]
        lo[self.iqg] = [g.q_min for g in self.gens]
        hi[self.iqg] = [g.q_max for g in self.gens]
        lo[self.ivt], hi[self.ivt] = 0.0, self.v_min
        return lo, hi

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(self.n_var)
        c[self.ix] = -self.pd  # minimize the negative of served power
        c[self.ivt] = PENALTY_WEIGHT
        return c

    def start_point(self) -> np.ndarray:
        u = np.zeros(self.n_var)
        u[self.iv] = 1.0
        total_load = float(self.pd.sum())
        cap = float(sum(g.p_max for g in self.gens))
        has_slack = any(g.p_min < 0 or g.kind == "substation" for g in self.gens)
        x0 = 1.0 if has_slack or total_load <= cap else (cap / total_load if total_load else 1.0)
        u[self.ix] = x0
        want_p = x0 * total_load
        want_q = x0 * float(self.qd.sum())
        for k, g in enumerate(self.gens):
            share = g.p_max / cap if cap > 0 else 0.0
            u[self.ipg[k]] = np.clip(want_p * share, g.p_min, g.p_max)
            u[self.iqg[k]] = np.clip(want_q * share, g.q_min, g.q_max)
        return u

    # -- balance equalities ---------------------------------------------
    def balance(self, u: np.ndarray) -> np.ndarray:
        v, th = u[self.iv], u[self.ith]
        out = np.zeros(2 * self.nb)
        np.add.at(out, self.gen_rows, u[self.ipg])
        np.add.at(out, self.nb + self.gen_rows, u[self.iqg])
        x = u[self.ix]
        np.subtract.at(out, self.demand_rows, x * self.pd)
        np.subtract.at(out, self.nb + self.demand_rows, x * self.qd)
        if self.block is not None:
            pfr, pto, qfr, qto = self.block.flows(v, th)
            np.subtract.at(out, self.block.i, pfr)
            np.subtract.at(out, self.block.j, pto)
            np.subtract.at(out, self.nb + self.block.i, qfr)
            np.subtract.at(out, self.nb + self.block.j, qto)
        return out

    def balance_jac(self, u: np.ndarray) -> np.ndarray:
        v, th = u[self.iv], u[self.ith]
        J = self.balance_jac0.copy()
        if self.block is not None:
            parts = self.block.flow_partials(v, th)
            bi, bj = self.block.i, self.block.j
            for name, row_base, at in (
                ("pfr", 0, bi),
                ("pto", 0, bj),
                ("qfr", self.nb, bi),
                ("qto", self.nb, bj),
            ):
                dvi, dvj, dthi, dthj = parts[name]
                rows = row_base + at
                np.subtract.at(J, (rows, self.iv[bi]), dvi)
                np.subtract.at(J, (rows, self.iv[bj]), dvj)
                np.subtract.at(J, (rows, self.ith[bi]), dthi)
                np.subtract.at(J, (rows, self.ith[bj]), dthj)
        return J

    # -- thermal inequalities (squared apparent power) -------------------
    def thermal(self, u: np.ndarray) -> np.ndarray:
        pfr, pto, qfr, qto = self.block.flows(u[self.iv], u[self.ith])
        return np.concatenate(
            [pfr**2 + qfr**2 - self.block.t_lim**2, pto**2 + qto**2 - self.block.t_lim**2]
        )

    def thermal_jac(self, u: np.ndarray) -> np.ndarray:
        v, th = u[self.iv], u[self.ith]
        pfr, pto, qfr, qto = self.block.flows(v, th)
        parts = self.block.flow_partials(v, th)
        nl = self.nl
        J = np.zeros((2 * nl, self.n_var))
        bi, bj = self.block.i, self.block.j
        rows_fr = np.arange(nl)
        rows_to = nl + rows_fr
        for rows, p, q, pn, qn in (
            (rows_fr, pfr, qfr, "pfr", "qfr"),
            (rows_to, pto, qto, "pto", "qto"),
        ):
            dp = parts[pn]
            dq = parts[qn]
            for off, cols in ((0, self.iv[bi]), (1, self.iv[bj]), (2, self.ith[bi]), (3, self.ith[bj])):
                np.add.at(J, (rows, cols), 2 * p * dp[off] + 2 * q * dq[off])
        return J

    def violation(self, u: np.ndarray) -> float:
        viol = float(np.max(np.abs(self.balance(u)), initial=0.0))
        if self.nl:
            viol = max(viol, float(np.max(self.thermal(u), initial=0.0)))
            th = u[self.ith]
            diff = th[self.block.i] - th[self.block.j]
            viol = max(
                viol,
                float(np.max(diff - self.block.a_max, initial=0.0)),
                float(np.max(self.block.a_min - diff, initial=0.0)),
            )
        soft = self.v_min - u[self.iv] - u[self.ivt]
        return max(viol, float(np.max(soft, initial=0.0)))

    def solve(self, tol: float) -> np.ndarray:
        """SLSQP from a flat start; one SLSQP polish if residuals stall."""
        c = self.objective_vector()
        lo, hi = self.bounds()
        bounds = list(zip(lo, hi))
        constraints = self._slsqp_constraints()

        def run(u0, maxiter, ftol):
            res = sopt.minimize(
                lambda z: float(c @ z),
                u0,
                jac=lambda z: c,
                bounds=bounds,
                constraints=constraints,
                method="SLSQP",
                options={"maxiter": maxiter, "ftol": ftol},
            )
            u = np.clip(res.x, lo, hi)
            return u, self.violation(u)

        u, viol = run(self.start_point(), 400, 1e-12)
        if viol <= tol:
            return u
        polished, polished_viol = run(u, 800, 1e-14)
        return polished if polished_viol < viol else u

    def _slsqp_constraints(self) -> list[dict]:
        """Balance, thermal, soft voltage floor, then angle differences."""
        cons = [
            {"type": "eq", "fun": self.balance, "jac": self.balance_jac},
        ]
        if self.nl:
            cons.append(
                {
                    "type": "ineq",
                    "fun": lambda z: -self.thermal(z),
                    "jac": lambda z: -self.thermal_jac(z),
                }
            )
        # v + v_t >= v_min
        a_soft = np.zeros((self.nb, self.n_var))
        a_soft[np.arange(self.nb), self.iv] = 1.0
        a_soft[np.arange(self.nb), self.ivt] = 1.0
        cons.append(
            {"type": "ineq", "fun": lambda z: a_soft @ z - self.v_min, "jac": lambda z: a_soft}
        )
        if self.nl:
            # a_min <= th_i - th_j <= a_max
            a_ang = np.zeros((self.nl, self.n_var))
            a_ang[np.arange(self.nl), self.ith[self.block.i]] = 1.0
            a_ang[np.arange(self.nl), self.ith[self.block.j]] = -1.0
            a_min, a_max = self.block.a_min, self.block.a_max
            cons.append(
                {"type": "ineq", "fun": lambda z: a_ang @ z - a_min, "jac": lambda z: a_ang}
            )
            cons.append(
                {"type": "ineq", "fun": lambda z: a_max - a_ang @ z, "jac": lambda z: -a_ang}
            )
        return cons


def build_rip_step(case: EffectiveCase, plan: RestorationPlan, t: int) -> AcOpfProblem:
    """Fix the plan's statuses at period t over the actual case.

    Raises ``CaseValidationError`` for a meshed or disconnected network,
    whose islands no walk down the feeder tree finds.
    """
    damaged_keys = set(DamageSets.from_network(case.network).component_keys())
    if damaged_keys != set(plan.energization):
        raise GridRestoreError(
            "plan's damaged components do not match the case damage set"
        )
    if not (0 <= t < plan.n_periods):
        raise GridRestoreError(f"period {t} outside plan horizon {plan.n_periods}")
    return AcOpfProblem(case=case, energized=plan.energized_at(t), period=t)


def solve_ac_opf(
    problem: AcOpfProblem,
    tol: float = DEFAULT_RESIDUAL_TOL,
    *,
    _solved: dict[Island, np.ndarray] | None = None,
) -> AcState:
    """Solve every live island; dead islands are fixed structurally.

    ``_solved`` maps islands to solutions already found in the same
    replay (same case and tolerance); it is read and extended.
    """
    solved = {} if _solved is None else _solved
    net = problem.case.network
    v: dict[int, float] = {}
    theta: dict[int, float] = {}
    vt: dict[int, float] = {}
    served: dict[int, float] = {}
    p_gen: dict[int, float] = {}
    q_gen: dict[int, float] = {}
    pfr: dict[int, float] = {}
    pto: dict[int, float] = {}
    qfr: dict[int, float] = {}
    qto: dict[int, float] = {}

    # structural zeros for everything de-energized or dead
    for b in net.buses:
        v[b.id] = 0.0
        theta[b.id] = 0.0
        vt[b.id] = 0.0 if (b.damaged and b.id not in problem.energized_bus_ids) else b.v_min
    for l in net.lines:
        pfr[l.id] = pto[l.id] = qfr[l.id] = qto[l.id] = 0.0
    for g in net.generators:
        p_gen[g.id] = q_gen[g.id] = 0.0
    for d in net.demands:
        served[d.id] = 0.0

    converged = True
    messages = []
    for island in problem.islands:
        if not island.live:
            continue
        nlp = _IslandNlp(net, island)
        u = solved.get(island)
        if u is None:
            u = solved[island] = nlp.solve(tol)
        for bid, k in nlp.bus_index.items():
            v[bid] = float(u[nlp.iv[k]])
            theta[bid] = float(u[nlp.ith[k]])
            vt[bid] = float(u[nlp.ivt[k]])
        for k, d in enumerate(nlp.demands):
            served[d.id] = float(np.clip(u[nlp.ix[k]], 0.0, 1.0))
        for k, g in enumerate(nlp.gens):
            p_gen[g.id] = float(u[nlp.ipg[k]])
            q_gen[g.id] = float(u[nlp.iqg[k]])
        if nlp.block is not None:
            f_p, f_pto, f_q, f_qto = nlp.block.flows(u[nlp.iv], u[nlp.ith])
            for idx, lid in enumerate(nlp.block.ids):
                pfr[int(lid)] = float(f_p[idx])
                pto[int(lid)] = float(f_pto[idx])
                qfr[int(lid)] = float(f_q[idx])
                qto[int(lid)] = float(f_qto[idx])

    objective = sum(served[d.id] * d.p for d in net.demands) - PENALTY_WEIGHT * sum(vt.values())
    state = AcState(
        v=v,
        theta=theta,
        v_violation=vt,
        served=served,
        p_gen=p_gen,
        q_gen=q_gen,
        p_flow_fr=pfr,
        p_flow_to=pto,
        q_flow_fr=qfr,
        q_flow_to=qto,
        objective=float(objective),
        converged=True,
        max_residual=0.0,
    )
    rep = residuals(state, problem)
    worst = max(rep.values()) if rep else 0.0
    state.max_residual = float(worst)
    state.converged = worst <= tol
    if not state.converged:
        state.message = f"constraint residual {worst:.3e} above tolerance {tol:.1e}"
    return state


def residuals(state: AcState, problem: AcOpfProblem) -> dict[str, float]:
    """Max absolute violation per constraint family, recomputed from scratch."""
    net = problem.case.network
    v = np.array([state.v[b.id] for b in net.buses])
    th = np.array([state.theta[b.id] for b in net.buses])
    bus_index = {b.id: k for k, b in enumerate(net.buses)}
    live = {b for isl in problem.islands if isl.live for b in isl.buses}
    flows = (state.p_flow_fr, state.p_flow_to, state.q_flow_fr, state.q_flow_to)

    on, off = [], []
    for l in net.lines:
        (on if l.id in problem.energized_line_ids and l.from_bus in live else off).append(l)
    # de-energized or dead-island lines: flows must be exactly zero
    flow_err = max((abs(f[l.id]) for l in off for f in flows), default=0.0)

    block = _LineBlock(on, bus_index)
    pfr, pto, qfr, qto = (np.array([f[l.id] for l in on]) for f in flows)
    for recomputed, stated in zip(block.flows(v, th), (pfr, pto, qfr, qto)):
        flow_err = max(flow_err, float(np.max(np.abs(recomputed - stated), initial=0.0)))
    # math.hypot, not np.hypot: the two differ in the last digit
    apparent = np.array([math.hypot(p, q) for p, q in zip(np.r_[pfr, pto], np.r_[qfr, qto])])
    thermal = float(np.max(apparent - np.tile(block.t_lim, 2), initial=0.0))
    diff = th[block.i] - th[block.j]
    angle = float(np.max(np.r_[diff - block.a_max, block.a_min - diff], initial=0.0))

    # stated flows leave each line's from end, then its to end, in line order
    ends = np.column_stack([block.i, block.j]).ravel()
    inj_p = np.zeros(len(net.buses))
    inj_q = np.zeros(len(net.buses))
    np.subtract.at(inj_p, ends, np.column_stack([pfr, pto]).ravel())
    np.subtract.at(inj_q, ends, np.column_stack([qfr, qto]).ravel())
    for g in net.generators:
        if g.id in problem.energized_gen_ids and g.bus in live:
            inj_p[bus_index[g.bus]] += state.p_gen[g.id]
            inj_q[bus_index[g.bus]] += state.q_gen[g.id]

    balance_p = 0.0
    balance_q = 0.0
    voltage = 0.0
    # de-energized units and demands must sit at exactly zero
    shed = max(
        (
            max(abs(state.p_gen[g.id]), abs(state.q_gen[g.id]))
            for g in net.generators
            if g.id not in problem.energized_gen_ids
        ),
        default=0.0,
    )
    shed = max(
        shed,
        max(
            (
                abs(state.served[d.id])
                for d in net.demands
                if d.id not in problem.energized_demand_ids
            ),
            default=0.0,
        ),
    )
    for b in net.buses:
        k = bus_index[b.id]
        for d in net.demands_at.get(b.id, ()):
            inj_p[k] -= state.served[d.id] * d.p
            inj_q[k] -= state.served[d.id] * d.q
            shed = max(shed, -state.served[d.id], state.served[d.id] - 1.0, 0.0)
        if b.id in live:
            balance_p = max(balance_p, abs(inj_p[k]))
            balance_q = max(balance_q, abs(inj_q[k]))
            voltage = max(
                voltage,
                v[k] - b.v_max,
                (b.v_min - state.v_violation[b.id]) - v[k],
                0.0,
            )
        else:
            # dead or de-energized: no voltage, no service
            voltage = max(voltage, abs(v[k]))
            for d in net.demands_at.get(b.id, ()):
                shed = max(shed, abs(state.served[d.id]))
    return {
        "balance_p": float(balance_p),
        "balance_q": float(balance_q),
        "flow": float(flow_err),
        "voltage": float(voltage),
        "thermal": float(thermal),
        "angle": float(angle),
        "shed": float(shed),
    }


# Thread-count entry points of OpenBLAS builds: the numpy wheel's
# (64-bit integers), the scipy wheel's, and a plain system build.
_OPENBLAS_THREAD_API = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_thread_controls() -> list[tuple]:
    """``(get, set)`` thread-count functions of each OpenBLAS this process loaded."""
    paths = set()
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                fields = line.split(maxsplit=5) if "openblas" in line else ()
                if len(fields) == 6 and "openblas" in Path(fields[5].strip()).name:
                    paths.add(fields[5].strip())
    except OSError:
        return []
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_API:
            get, set_threads = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_threads is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                controls.append((get, set_threads))
                break
    return controls


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread, then restore."""
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), n in zip(controls, previous):
            set_threads(n)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# (network, islands, tol) of the replay a forked pool worker serves
_worker_job: tuple = ()


def _start_worker(net: Network, islands: list[Island], tol: float) -> None:
    global _worker_job
    _worker_job = (net, islands, tol)


def _solve_nth_island(k: int) -> np.ndarray:
    net, islands, tol = _worker_job
    return _IslandNlp(net, islands[k]).solve(tol)


def _solve_islands(net: Network, islands: list[Island], tol: float) -> dict[Island, np.ndarray]:
    """Each island's solution, one forked worker per usable CPU.

    Workers take one island at a time in the given order; a worker's
    exception is raised here. The islands are solved in this process
    when one worker suffices, when the platform cannot fork, or when
    other threads run here, since a fork copies any lock they hold.
    """
    workers = min(_usable_cpus(), len(islands))
    if (
        workers <= 1
        or threading.active_count() > 1
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return {island: _IslandNlp(net, island).solve(tol) for island in islands}
    fork = multiprocessing.get_context("fork")
    with fork.Pool(workers, _start_worker, (net, islands, tol)) as pool:
        solutions = pool.map(_solve_nth_island, range(len(islands)), chunksize=1)
    return dict(zip(islands, solutions))


def simulate_plan(
    actual_case: EffectiveCase,
    plan: RestorationPlan,
    tol: float = DEFAULT_RESIDUAL_TOL,
    step_hours: float = 1.0,
) -> RipResult:
    """Solve every period of the horizon and aggregate.

    Periods are independent. The call solves each distinct live island
    once, on every usable CPU and one BLAS thread per process, and the
    outputs do not depend on the CPU count (see the module docstring).
    """
    net = actual_case.network
    with _one_blas_thread():
        problems = [build_rip_step(actual_case, plan, t) for t in range(plan.n_periods)]
        islands = [island for p in problems for island in p.islands if island.live]
        # first appearance first: on the bundled cases this finishes sooner
        # than largest first, as period 0's stalling 2-bus islands start early
        solved = _solve_islands(net, list(dict.fromkeys(islands)), tol)
        states = [solve_ac_opf(problem, tol=tol, _solved=solved) for problem in problems]
    demand_ids = tuple(d.id for d in net.demands)
    x = np.array(
        [[s.served[did] for s in states] for did in demand_ids], dtype=float
    )
    p = np.array([d.p for d in net.demands])
    base = net.base_mva
    served_mwh = float((x * p[:, None]).sum() * step_hours * base)
    total_mwh = float(p.sum() * len(states) * step_hours * base)
    return RipResult(
        states=tuple(states),
        demand_ids=demand_ids,
        served_fraction=x,
        served_mwh=served_mwh,
        ens_mwh=total_mwh - served_mwh,
        step_hours=step_hours,
        converged=all(s.converged for s in states),
    )
