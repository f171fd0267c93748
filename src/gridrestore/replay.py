"""Replay a fixed restoration schedule through per-period AC OPF.

Each period is a continuous load-shedding AC optimal power flow: the
energization statuses from the plan are constants, de-energized lines
and their flows are removed from the problem entirely (so zero flow
holds exactly, not numerically), and buses in islands without an
energized source are fixed at V = 0 with full shed before any solver
runs. An element works when it and its damaged buses are back
(``Network.gates``); the islands come from one walk down
``Network.radial_tree``, so the network must be radial. Live islands
are solved independently with one angle reference each; the lower
voltage bound is soft, charged to the objective at ``PENALTY_WEIGHT``.
Each island is one sparse primal-dual interior-point solve from a flat
start, with the exact Hessian of the polar line flows (``_IslandIpm``);
a solve that fails returns its least-violating iterate, and the
residual check then marks its periods as not converged. The pi-model
flow is written once (``_LineBlock``), and each iterate evaluates its
trigonometric terms once, for the flows, their partials and their
Hessians alike.

``simulate_plans`` replays several plans over one actual case and
solves each distinct island once per call: with one repair per period
most islands recur unchanged, and plans over the same case share many
of them. A solve depends only on the island, the case's network and the
tolerance, so sharing it changes no value. The call builds every period
of every plan first, then solves the distinct live islands on every CPU
the process may use, one forked worker per CPU (in-process when that is
one CPU, the platform cannot fork or other threads run). The state, the
residuals and the convergence check still run in every period, in the
calling process. ``simulate_plan`` is the call for one plan. The
results depend neither on the worker count nor on the BLAS thread
count; the tests check both.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import GridRestoreError
from .model import Network
from .rop import RestorationPlan
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
        waits = net.gates

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
    tree = net.radial_tree
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


class _Terms(NamedTuple):
    """What a block's flows and their derivatives share at one point: the
    end voltages and, per quantity, k = c cos d + s sin d and dk/dd."""

    vi: np.ndarray
    vj: np.ndarray
    k: np.ndarray
    k_d: np.ndarray


class _LineBlock:
    """The four directed flows of a set of lines and their derivatives.

    Stacked in the order pfr, pto, qfr, qto, every quantity is
    a_i vi^2 + a_j vj^2 + vi vj (c cos d + s sin d) with d = th_i - th_j;
    the to end sees the angle -d, which flips the sign of its s. The tap
    T = t_r + j t_i sits at the from end, so only the from end's self
    term is scaled by 1 / t_m^2.
    """

    def __init__(self, lines, bus_index: dict[int, int]):
        self.ids = np.array([l.id for l in lines], dtype=np.int64)
        self.i = np.array([bus_index[l.from_bus] for l in lines], dtype=np.int64)
        self.j = np.array([bus_index[l.to_bus] for l in lines], dtype=np.int64)
        g, bb, g_fr, b_fr, g_to, b_to, tm2, tr, ti, self.t_lim, self.a_min, self.a_max = np.array([
            (l.g, l.b, l.g_fr, l.b_fr, l.g_to, l.b_to, l.t_m**2, l.t_r, l.t_i,
             l.thermal_limit, l.angle_min, l.angle_max)
            for l in lines
        ]).reshape(-1, 12).T
        zero = np.zeros(len(lines))
        self.a_i = np.array([(g + g_fr) / tm2, zero, -(bb + b_fr) / tm2, zero])
        self.a_j = np.array([zero, g + g_to, zero, -(bb + b_to)])
        self.c = np.array([
            -g * tr + bb * ti, -g * tr - bb * ti, bb * tr + g * ti, bb * tr - g * ti,
        ]) / tm2
        self.s = np.array([
            -bb * tr - g * ti, bb * tr - g * ti, -g * tr + bb * ti, g * tr + bb * ti,
        ]) / tm2

    def terms(self, v: np.ndarray, th: np.ndarray) -> _Terms:
        """The block's one trigonometric evaluation at (v, th)."""
        d = th[self.i] - th[self.j]
        cos_d, sin_d = np.cos(d), np.sin(d)
        k = self.c * cos_d + self.s * sin_d
        return _Terms(v[self.i], v[self.j], k, -self.c * sin_d + self.s * cos_d)

    def flows(self, t: _Terms) -> np.ndarray:
        """The four quantities, (4, lines)."""
        return self.a_i * t.vi**2 + self.a_j * t.vj**2 + t.vi * t.vj * t.k

    def partials(self, t: _Terms) -> np.ndarray:
        """Their partials over (vi, vj, thi, thj), (4, lines, 4)."""
        dth = t.vi * t.vj * t.k_d
        dvi = 2 * self.a_i * t.vi + t.vj * t.k
        dvj = 2 * self.a_j * t.vj + t.vi * t.k
        return np.stack([dvi, dvj, dth, -dth], axis=-1)

    def hessians(self, t: _Terms) -> np.ndarray:
        """Their symmetric second derivatives, (4, lines, 4, 4)."""
        vi, vj, k, k_d = t
        vik, vjk, vvk = vi * k_d, vj * k_d, vi * vj * k
        return np.stack([
            2 * self.a_i, k, vjk, -vjk,
            k, 2 * self.a_j, vik, -vik,
            vjk, vik, -vvk, vvk,
            -vjk, -vik, vvk, -vvk,
        ], axis=-1).reshape(k.shape + (4, 4))


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
        self.block = block = _LineBlock(self.lines, self.bus_index)

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
        # each line's variables, in the order of its partials
        self.line_vars = np.column_stack([
            self.iv[block.i], self.iv[block.j], self.ith[block.i], self.ith[block.j],
        ])

        self.pd = np.array([d.p for d in self.demands])
        self.qd = np.array([d.q for d in self.demands])
        self.v_min = np.array([b.v_min for b in self.buses])
        self.v_max = np.array([b.v_max for b in self.buses])

        # The balance rows' terms, each at its bus's row: the units' P and
        # Q, the demands' served P and Q, then the flows pfr, pto, qfr, qto
        # at their ends. The units and demands are linear in one variable each.
        gen_rows = np.array([self.bus_index[g.bus] for g in self.gens], dtype=np.int64)
        demand_rows = np.array([self.bus_index[d.bus] for d in self.demands], dtype=np.int64)
        self.balance_rows = np.concatenate([
            gen_rows, nb + gen_rows, demand_rows, nb + demand_rows,
            block.i, block.j, nb + block.i, nb + block.j,
        ])
        self.linear_cols = np.concatenate([self.ipg, self.iqg, self.ix, self.ix])
        self.linear_coef = np.concatenate([np.ones(2 * ng), -self.pd, -self.qd])

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

    def terms(self, u: np.ndarray) -> _Terms:
        return self.block.terms(u[self.iv], u[self.ith])

    def flows(self, u: np.ndarray) -> np.ndarray:
        return self.block.flows(self.terms(u))

    # -- balance equalities, given the flows f at u ---------------------
    def balance(self, u: np.ndarray, f: np.ndarray) -> np.ndarray:
        parts = np.concatenate([self.linear_coef * u[self.linear_cols], -f.ravel()])
        return np.bincount(self.balance_rows, parts, minlength=2 * self.nb)

    # -- thermal inequalities (squared apparent power) -------------------
    def thermal(self, f: np.ndarray) -> np.ndarray:
        t2 = self.block.t_lim**2
        return np.concatenate([f[0] ** 2 + f[2] ** 2 - t2, f[1] ** 2 + f[3] ** 2 - t2])

    def inequalities(self, u: np.ndarray, f: np.ndarray) -> np.ndarray:
        """The rows h(u) <= 0 besides the bounds: thermal at the from and
        to ends, the soft voltage floor, the angle difference above and below."""
        th = u[self.ith]
        d = th[self.block.i] - th[self.block.j]
        soft = self.v_min - u[self.iv] - u[self.ivt]
        return np.concatenate([self.thermal(f), soft, d - self.block.a_max, self.block.a_min - d])

    def violation(self, u: np.ndarray) -> float:
        """The largest violation of the balance and inequality rows at ``u``."""
        f = self.flows(u)
        return float(max(
            np.max(np.abs(self.balance(u, f)), initial=0.0),
            np.max(self.inequalities(u, f), initial=0.0),
        ))

    def solve(self, tol: float) -> np.ndarray:
        """Interior-point solution, clipped to the bounds (see ``_IslandIpm``)."""
        return _IslandIpm(self).run(tol)


# Barrier schedule and step rule of Ipopt (Waechter and Biegler 2006):
# the first barrier parameter, the subproblem tolerance _KAPPA_EPS * mu,
# the update mu <- min(_KAPPA_MU * mu, mu^1.5), the least share of the
# distance to the boundary a step covers, and the multiplier scale s_max.
_MU_INIT = 0.1
_KAPPA_EPS = 10.0
_KAPPA_MU = 0.2
_TAU_MIN = 0.99
_S_MAX = 100.0
# An island solve stops when every KKT residual is below _ACCURACY * tol,
# and gives up when a primal step is shorter than _ALPHA_MIN.
_ACCURACY = 1e-2
_ALPHA_MIN = 1e-10
# Iterations per island solve; an island not converged by then returns
# its least-violating iterate, and its periods read as non-converged.
IPM_MAX_ITER = 100
# Shift of the KKT matrix's constraint block, applied only when the
# unshifted matrix is singular (dependent balance rows).
_DELTA_C = 1e-8


class _Point(NamedTuple):
    """One iterate and what the step needs of it: the balance rows g, the
    inequality rows h, the values of their Jacobians (in the COO order of
    ``_IslandIpm``), the line block's terms, and the flows and their
    partials, stacked in the order pfr, pto, qfr, qto."""

    u: np.ndarray
    g: np.ndarray
    h: np.ndarray
    g_vals: np.ndarray
    h_vals: np.ndarray
    terms: _Terms
    f: np.ndarray  # (4, nl)
    df: np.ndarray  # (4, nl, 4), over (v_i, v_j, th_i, th_j)


class _IslandIpm:
    """Primal-dual interior point for one island's AC OPF.

    It follows the MATPOWER Interior Point Solver (Wang, Murillo-Sanchez,
    Zimmerman and Thomas, IEEE Trans. Power Syst. 22(3), 2007) on
    ``min c.u  s.t.  g(u) = 0,  h(u) <= 0``. The rows g are the balance
    rows; h stacks the thermal rows, the soft voltage floor, the angle rows
    and the bounds, each with a slack ``z > 0`` and a multiplier
    ``mu > 0``. The barrier parameter follows Ipopt's monotone schedule.
    The Hessian is exact. Fixed variables (the reference angle,
    zero-width bounds) are held out of the step.

    The KKT matrix ``[[Lxx + Jh' diag(mu/z) Jh, Jg'], [Jg, 0]]`` keeps one
    sparsity pattern per island: its CSC slots are built once, and each
    iteration fills the values with one ``np.bincount`` and factors them
    with one ``splu``. A singular matrix is factored again with
    ``-_DELTA_C`` on the constraint block's diagonal, as in Ipopt's
    regularization (Waechter and Biegler, Math. Programming 106, 2006).
    """

    def __init__(self, nlp: _IslandNlp):
        self.nlp = nlp
        nb, nl = nlp.nb, nlp.nl
        self.c = nlp.objective_vector()
        self.lo, self.hi = nlp.bounds()
        self.free = free = np.flatnonzero(self.lo < self.hi)
        self.nf = nf = len(free)
        self.m = m = 2 * nb
        pos = np.full(nlp.n_var, -1, dtype=np.int64)  # place in the step, or -1 if held
        pos[free] = np.arange(nf)
        quad = nlp.line_vars

        # Jg in COO form: the linear terms of the balance rows, then each
        # flow's four partials at its balance row
        n_linear = len(nlp.linear_cols)
        self.flow_rows = nlp.balance_rows[n_linear:]
        self.g_rows = np.concatenate([nlp.balance_rows[:n_linear], np.repeat(self.flow_rows, 4)])
        self.g_cols = np.concatenate([nlp.linear_cols, np.tile(quad, (4, 1)).ravel()])

        # Jh in COO form. Rows: thermal at the from and to ends, the soft
        # floor, the angle difference above and below, the upper and
        # lower bounds of the free variables. Only the thermal entries vary.
        self.n_ineq = 4 * nl + nb + 2 * nf
        r_soft = 2 * nl + np.arange(nb)
        r_above = 2 * nl + nb + np.arange(nl)
        r_upper = 4 * nl + nb + np.arange(nf)
        self.h_rows = np.concatenate([
            np.repeat(np.arange(2 * nl), 4), r_soft, r_soft, r_above, r_above,
            r_above + nl, r_above + nl, r_upper, r_upper + nf,
        ])
        self.h_cols = np.concatenate([
            np.tile(quad, (2, 1)).ravel(), nlp.iv, nlp.ivt,
            quad[:, 2], quad[:, 3], quad[:, 2], quad[:, 3], free, free,
        ])
        one_l, one_f = np.ones(nl), np.ones(nf)
        self.h_vals0 = np.concatenate([-np.ones(2 * nb), one_l, -one_l, -one_l, one_l, one_f, -one_f])

        # KKT entries in the order kkt_values() lists them: the line
        # blocks, the soft floor's (v, v_t) blocks, the free diagonal,
        # Jg and its transpose, the constraint block's diagonal
        n = nf + m
        block = pos[quad]
        soft_rows = pos[np.array([nlp.iv, nlp.iv, nlp.ivt, nlp.ivt])].ravel()
        soft_cols = pos[np.array([nlp.iv, nlp.ivt, nlp.iv, nlp.ivt])].ravel()
        g_at = nf + self.g_rows, pos[self.g_cols]
        rows = np.concatenate([
            np.repeat(block, 4, axis=1).ravel(), soft_rows, np.arange(nf),
            g_at[0], g_at[1], nf + np.arange(m),
        ])
        cols = np.concatenate([
            np.tile(block, (1, 4)).ravel(), soft_cols, np.arange(nf),
            g_at[1], g_at[0], nf + np.arange(m),
        ])
        # entries on held variables go to slot 0, which the matrix drops
        key = np.where((rows < 0) | (cols < 0), -1, cols * n + rows)
        keys = np.unique(np.r_[-1, key])
        self.slot = np.searchsorted(keys, key)
        self.n_slots = len(keys)
        keys = keys[1:]
        indptr = np.searchsorted(keys // n, np.arange(n + 1))
        self.kkt = sparse.csc_matrix((np.zeros(len(keys)), keys % n, indptr), shape=(n, n))

    def evaluate(self, u: np.ndarray) -> _Point:
        """g, h and the values of their Jacobians at ``u``."""
        nlp = self.nlp
        terms = nlp.terms(u)
        f = nlp.block.flows(terms)
        df = nlp.block.partials(terms)
        upper = u[self.free] - self.hi[self.free]
        lower = self.lo[self.free] - u[self.free]
        h = np.concatenate([nlp.inequalities(u, f), upper, lower])
        # d(p^2 + q^2) = 2 p dp + 2 q dq, at the from end, then the to end
        jt = 2 * (f[:2, :, None] * df[:2] + f[2:, :, None] * df[2:])
        g_vals = np.concatenate([nlp.linear_coef, -df.ravel()])
        h_vals = np.concatenate([jt.ravel(), self.h_vals0])
        return _Point(u, nlp.balance(u, f), h, g_vals, h_vals, terms, f, df)

    def lagrangian_gradient(self, pt: _Point, lam: np.ndarray, w: np.ndarray) -> np.ndarray:
        """c + Jg' lam + Jh' w, over all variables."""
        n_var = self.nlp.n_var
        return (
            self.c
            + np.bincount(self.g_cols, pt.g_vals * lam[self.g_rows], minlength=n_var)
            + np.bincount(self.h_cols, pt.h_vals * w[self.h_rows], minlength=n_var)
        )

    def kkt_values(self, pt: _Point, lam, mu, d, delta_c=0.0) -> np.ndarray:
        """The KKT entries' values, in the order of ``self.slot``.

        ``d`` is mu/z, the weight of each inequality row in Jh' d Jh.
        """
        nlp = self.nlp
        nb, nl, nf = nlp.nb, nlp.nl, self.nf
        # the thermal multiplier at each flow's end: from, to, from, to
        mu_t = mu[: 2 * nl].reshape(2, nl)[[0, 1, 0, 1]]
        # each flow's weight in Lxx: minus its balance multiplier, plus
        # 2 mu p (or 2 mu q) from its end's thermal row
        w = 2 * mu_t * pt.f - lam[self.flow_rows].reshape(4, nl)
        blk = np.einsum("fl,flab->lab", w, nlp.block.hessians(pt.terms))
        # the thermal rows' Gauss-Newton terms, 2 mu (dp dp' + dq dq')
        blk += 2 * np.einsum("fl,fla,flb->lab", mu_t, pt.df, pt.df)
        jt = pt.h_vals[: 8 * nl].reshape(2, nl, 4)
        blk += np.einsum("tl,tla,tlb->lab", d[: 2 * nl].reshape(2, nl), jt, jt)
        angle = d[2 * nl + nb : 3 * nl + nb] + d[3 * nl + nb : 4 * nl + nb]
        blk[:, 2, 2] += angle
        blk[:, 3, 3] += angle
        blk[:, 2, 3] -= angle
        blk[:, 3, 2] -= angle
        soft = d[2 * nl : 2 * nl + nb]
        bounds = 4 * nl + nb
        return np.concatenate([
            blk.ravel(),
            soft, soft, soft, soft,
            d[bounds : bounds + nf] + d[bounds + nf :],
            pt.g_vals,
            pt.g_vals,
            np.full(self.m, -delta_c),
        ])

    def kkt_matrix(self, vals: np.ndarray) -> sparse.csc_matrix:
        """The KKT matrix holding ``vals``; the one matrix is refilled in place."""
        self.kkt.data[:] = np.bincount(self.slot, vals, minlength=self.n_slots)[1:]
        return self.kkt

    def run(self, tol: float) -> np.ndarray:
        """The first iterate whose KKT residuals are all below
        ``_ACCURACY * tol``, clipped to the bounds.

        A solve that stalls, overflows or meets a singular matrix returns
        its least-violating finite iterate instead, never an exception:
        the residual check of ``solve_ac_opf`` then marks the period.
        """
        with np.errstate(all="ignore"):
            return self._iterate(tol)

    def _iterate(self, tol: float) -> np.ndarray:
        nlp, lo, hi, free, nf = self.nlp, self.lo, self.hi, self.free, self.nf
        n_ineq = self.n_ineq
        stop = _ACCURACY * tol
        mu_min = stop / (10 * n_ineq)
        pt = self.evaluate(np.clip(nlp.start_point(), lo, hi))
        z = np.maximum(-pt.h, 1.0)
        mu = np.ones(n_ineq)
        lam = np.zeros(self.m)
        barrier = _MU_INIT
        iterates = []
        for _ in range(IPM_MAX_ITER):
            iterates.append(pt.u)
            # KKT residuals, the dual ones scaled as in Ipopt
            scale = max(_S_MAX, (np.abs(lam).sum() + mu.sum()) / (self.m + n_ineq)) / _S_MAX
            dual = np.max(np.abs(self.lagrangian_gradient(pt, lam, mu)[free])) / scale
            primal = max(np.max(np.abs(pt.g)), np.max(np.abs(pt.h + z)))
            comp = z * mu
            if max(primal, dual, comp.sum() / scale) <= stop:
                return np.clip(pt.u, lo, hi)
            # lower the barrier parameter once its subproblem is solved
            while barrier > mu_min and max(
                primal, dual, np.max(np.abs(comp - barrier)) / scale
            ) <= _KAPPA_EPS * barrier:
                barrier = max(mu_min, min(_KAPPA_MU * barrier, barrier**1.5))

            d = mu / z
            rhs = np.concatenate([
                -self.lagrangian_gradient(pt, lam, mu + d * pt.h + barrier / z)[free],
                -pt.g,
            ])
            step = None
            for delta_c in (0.0, _DELTA_C):
                kkt = self.kkt_matrix(self.kkt_values(pt, lam, mu, d, delta_c))
                try:
                    step = splu(kkt, permc_spec="MMD_AT_PLUS_A").solve(rhs)
                    break
                except RuntimeError:  # exactly singular
                    continue
            if step is None or not np.all(np.isfinite(step)):
                break
            dx = np.zeros(nlp.n_var)
            dx[free] = step[:nf]
            dz = -pt.h - z - np.bincount(self.h_rows, pt.h_vals * dx[self.h_cols], minlength=n_ineq)
            dmu = (barrier - mu * dz) / z - mu
            # fraction to the boundary, for the primal and the dual step apart
            tau = max(_TAU_MIN, 1.0 - barrier)
            alpha_p = min(1.0, tau * np.min(z / -dz, where=dz < 0, initial=math.inf))
            alpha_d = min(1.0, tau * np.min(mu / -dmu, where=dmu < 0, initial=math.inf))
            if alpha_p < _ALPHA_MIN:
                break
            z = z + alpha_p * dz
            lam = lam + alpha_d * step[nf:]
            mu = mu + alpha_d * dmu
            pt = self.evaluate(pt.u + alpha_p * dx)
            if not (np.all(np.isfinite(pt.g)) and np.all(np.isfinite(pt.h))):
                break
        else:
            iterates.append(pt.u)
        clipped = [np.clip(u, lo, hi) for u in iterates]
        return min(clipped, key=nlp.violation)


def build_rip_step(case: EffectiveCase, plan: RestorationPlan, t: int) -> AcOpfProblem:
    """Fix the plan's statuses at period t over the actual case.

    Raises ``CaseValidationError`` for a meshed or disconnected network,
    whose islands no walk down the feeder tree finds.
    """
    net = case.network
    net.radial_tree  # refuses a meshed network before a mismatched plan
    if set(net.damage.component_keys()) != set(plan.energization):
        raise GridRestoreError(
            "plan's damaged components do not match the case damage set"
        )
    if not (0 <= t < plan.n_periods):
        raise GridRestoreError(f"period {t} outside plan horizon {plan.n_periods}")
    return AcOpfProblem(case=case, energized=plan.energized_at(t), period=t)


class _IslandSolution(NamedTuple):
    """One live island's part of a period state, keyed like ``AcState``'s fields."""

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


def _solve_island(net: Network, island: Island, tol: float) -> _IslandSolution:
    nlp = _IslandNlp(net, island)
    return _island_solution(nlp, nlp.solve(tol))


def _island_solution(nlp: _IslandNlp, u: np.ndarray) -> _IslandSolution:
    """The values of the island solution ``u``, by element id."""
    out = _IslandSolution(*({} for _ in _IslandSolution._fields))
    for bid, k in nlp.bus_index.items():
        out.v[bid] = float(u[nlp.iv[k]])
        out.theta[bid] = float(u[nlp.ith[k]])
        out.v_violation[bid] = float(u[nlp.ivt[k]])
    for k, d in enumerate(nlp.demands):
        out.served[d.id] = float(np.clip(u[nlp.ix[k]], 0.0, 1.0))
    for k, g in enumerate(nlp.gens):
        out.p_gen[g.id] = float(u[nlp.ipg[k]])
        out.q_gen[g.id] = float(u[nlp.iqg[k]])
    flow_parts = (out.p_flow_fr, out.p_flow_to, out.q_flow_fr, out.q_flow_to)
    for part, f in zip(flow_parts, nlp.flows(u)):
        part.update(zip(nlp.block.ids.tolist(), f.tolist()))
    return out


def solve_ac_opf(
    problem: AcOpfProblem,
    tol: float = DEFAULT_RESIDUAL_TOL,
    *,
    _solved: dict[Island, _IslandSolution] | None = None,
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

    parts = (v, theta, vt, served, p_gen, q_gen, pfr, pto, qfr, qto)
    for island in problem.islands:
        if not island.live:
            continue
        sol = solved.get(island)
        if sol is None:
            sol = solved[island] = _solve_island(net, island, tol)
        for part, values in zip(parts, sol):
            part.update(values)

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
    for recomputed, stated in zip(block.flows(block.terms(v, th)), (pfr, pto, qfr, qto)):
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


def _solve_nth_island(k: int) -> _IslandSolution:
    net, islands, tol = _worker_job
    return _solve_island(net, islands[k], tol)


def _solve_islands(
    net: Network, islands: list[Island], tol: float
) -> dict[Island, _IslandSolution]:
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
        return {island: _solve_island(net, island, tol) for island in islands}
    fork = multiprocessing.get_context("fork")
    with fork.Pool(workers, _start_worker, (net, islands, tol)) as pool:
        solutions = pool.map(_solve_nth_island, range(len(islands)), chunksize=1)
    return dict(zip(islands, solutions))


def simulate_plans(
    actual_case: EffectiveCase,
    plans: Sequence[RestorationPlan],
    tol: float = DEFAULT_RESIDUAL_TOL,
    step_hours: float = 1.0,
) -> tuple[RipResult, ...]:
    """Replay each plan over one actual case, one result per plan.

    Every period of every plan is built first, so a plan that does not
    fit the case is refused before any solve; what the periods need of
    the network alone is cached on the ``Network``, so it is computed
    once. The distinct live islands of all plans are then solved once,
    on every usable CPU (see the module docstring), and each period is
    assembled from them.
    """
    net = actual_case.network
    problems = [
        [build_rip_step(actual_case, plan, t) for t in range(plan.n_periods)]
        for plan in plans
    ]
    islands = [
        island for steps in problems for p in steps for island in p.islands if island.live
    ]
    # in order of first appearance: plan by plan, period by period
    solved = _solve_islands(net, list(dict.fromkeys(islands)), tol)
    return tuple(
        _aggregate(net, [solve_ac_opf(p, tol=tol, _solved=solved) for p in steps], step_hours)
        for steps in problems
    )


def simulate_plan(
    actual_case: EffectiveCase,
    plan: RestorationPlan,
    tol: float = DEFAULT_RESIDUAL_TOL,
    step_hours: float = 1.0,
) -> RipResult:
    """Replay one plan over the actual case: ``simulate_plans`` of one plan."""
    return simulate_plans(actual_case, [plan], tol, step_hours)[0]


def _aggregate(net: Network, states: list[AcState], step_hours: float) -> RipResult:
    """The served fractions and energies of one replay's period states."""
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
