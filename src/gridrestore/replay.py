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
Each island is solved by a sparse primal-dual interior point from a flat
start, with the exact Hessian of the polar line flows; an island that
fails returns its least-violating iterate, and the residual check then
marks its periods as not converged. The islands of one call are solved
in batches (``_BatchIpm``): the islands of a batch iterate in lockstep,
and each iterate evaluates the flows, the rows and the KKT entries of
the whole batch at once and solves every island's KKT system by one
block elimination down the feeder tree, which is the elimination tree
of a radial island's matrix. The batch's KKT layout is built once, in
the batch's own numbering, and built again over the islands that remain
when one leaves (``_Batch``). Every island keeps its own step lengths
and stopping test, and its blocks are factored apart from its
batch-mates', so its solution does not depend on them. The pi-model
flow is written once (``model.LineBlock``, one per network, from which
the batches pick their lines), and each iterate evaluates its
trigonometric terms once, for the flows, their partials and their
Hessians alike.

A period's state holds one array per quantity, in network order, and
each island's solution is written into it by position. The residual
check evaluates the whole network's line block from the state's V and
theta, and masks the de-energized and dead elements.

``simulate_plans`` replays several plans over one actual case and
solves each distinct island once per call: with one repair per period
most islands recur unchanged, and plans over the same case share many
of them. A solve depends only on the island, the case's network and the
tolerance, so sharing it changes no value. The call builds every period
of every plan first, then splits the distinct live islands into one
batch per CPU the process may use and solves each batch in its own
forked worker (in-process, as one batch, when that is one CPU, the
platform cannot fork or other threads run). The state, the residuals
and the convergence check still run in every period, in the calling
process. ``simulate_plan`` is the call for one plan. The results depend
neither on the worker count, nor on how the islands are batched, nor on
the BLAS thread count; the tests check all three.
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

from .errors import GridRestoreError
from .model import LineTerms, Network
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


@dataclass(eq=False)
class AcOpfProblem:
    """One period of the implementation problem, statuses fixed.

    ``energized`` holds the keys of the damaged components back in service.
    The ``energized_*`` masks, in network order, mark the elements that
    work (``Network.gates``), and ``live_buses`` the buses of islands with
    a working unit. A meshed or disconnected network raises
    ``CaseValidationError``.
    """

    case: EffectiveCase
    energized: set[str]
    period: int

    energized_buses: np.ndarray = field(init=False)
    energized_lines: np.ndarray = field(init=False)
    energized_gens: np.ndarray = field(init=False)
    energized_demands: np.ndarray = field(init=False)
    islands: tuple[Island, ...] = field(init=False)
    live_buses: np.ndarray = field(init=False)

    def __post_init__(self):
        net = self.case.network
        waits = net.gates

        def working(kind, elements) -> np.ndarray:
            return np.array(
                [self.energized.issuperset(waits[(kind, e.id)]) for e in elements], dtype=bool
            )

        self.energized_buses = working("bus", net.buses)
        self.energized_lines = working("line", net.lines)
        self.energized_gens = working("gen", net.generators)
        self.energized_demands = working("demand", net.demands)
        self.islands, self.live_buses = _split_islands(net, self)


def _split_islands(net: Network, p: AcOpfProblem) -> tuple[tuple[Island, ...], np.ndarray]:
    """Energized buses grouped into islands by one walk down the feeder
    tree, and the mask of the buses in live islands.

    An energized bus joins its parent's island when the line between
    them is energized, and otherwise starts an island of its own.
    Islands come in the order of their smallest bus.
    """
    tree = net.radial_tree
    at = net.bus_position
    island = np.full(len(net.buses), -1)  # each bus's island; -1: de-energized
    roots: list[int] = []
    for bid, parent, line in zip(tree.order, tree.parent, tree.up):
        if not p.energized_buses[at[bid]]:
            continue
        if line is not None and p.energized_lines[net.line_position[line.id]]:
            island[at[bid]] = island[at[tree.order[parent]]]
        else:
            island[at[bid]] = len(roots)
            roots.append(bid)
    # an energized line, unit or demand has its buses energized
    arrays, block = net.arrays, net.line_block
    line_island = np.where(p.energized_lines, island[block.i], -1)
    gen_island = np.where(p.energized_gens, island[arrays.gen_bus], -1)
    demand_island = np.where(p.energized_demands, island[arrays.demand_bus], -1)
    islands = []
    for k, root in enumerate(roots):
        buses = sorted(arrays.bus_ids[island == k].tolist())
        gens = tuple(arrays.gen_ids[gen_island == k].tolist())
        islands.append(
            Island(
                buses=tuple(buses),
                lines=tuple(sorted(block.ids[line_island == k].tolist())),
                generators=gens,
                demands=tuple(arrays.demand_ids[demand_island == k].tolist()),
                live=bool(gens),
                reference=root if root == tree.order[0] else buses[0],
            )
        )
    live = np.isin(island, gen_island[p.energized_gens])
    return tuple(sorted(islands, key=lambda island: island.buses[0])), live


@dataclass(eq=False)
class AcState:
    """Solution of one period: voltages, flows, dispatch and shed.

    Each quantity is one array in network order: ``v``, ``theta`` and
    ``v_violation`` (the voltage floor's slack) follow ``network.buses``,
    ``served`` (each demand's served fraction) ``network.demands``,
    ``p_gen`` and ``q_gen`` ``network.generators``, and the four flows
    ``network.lines``. ``to_dict`` keys every quantity by element id.
    """

    network: Network
    v: np.ndarray
    theta: np.ndarray
    v_violation: np.ndarray
    served: np.ndarray
    p_gen: np.ndarray
    q_gen: np.ndarray
    p_flow_fr: np.ndarray
    p_flow_to: np.ndarray
    q_flow_fr: np.ndarray
    q_flow_to: np.ndarray
    objective: float
    converged: bool
    max_residual: float
    message: str = ""

    def to_dict(self) -> dict:
        arrays, lines = self.network.arrays, self.network.line_block.ids

        def fmt(ids, values):
            return {str(k): x for k, x in sorted(zip(ids.tolist(), values.tolist()))}

        return {
            "v": fmt(arrays.bus_ids, self.v),
            "theta": fmt(arrays.bus_ids, self.theta),
            "v_violation": fmt(arrays.bus_ids, self.v_violation),
            "served": fmt(arrays.demand_ids, self.served),
            "p_gen": fmt(arrays.gen_ids, self.p_gen),
            "q_gen": fmt(arrays.gen_ids, self.q_gen),
            "p_flow_fr": fmt(lines, self.p_flow_fr),
            "p_flow_to": fmt(lines, self.p_flow_to),
            "q_flow_fr": fmt(lines, self.q_flow_fr),
            "q_flow_to": fmt(lines, self.q_flow_to),
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

    @property
    def max_residual(self) -> float:
        """The largest residual of any period."""
        return max(s.max_residual for s in self.states)

    def to_dict(self) -> dict:
        return {
            "periods": [s.to_dict() for s in self.states],
            "served_mwh": self.served_mwh,
            "ens_mwh": self.ens_mwh,
            "step_hours": self.step_hours,
            "converged": self.converged,
            "max_residual": self.max_residual,
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True))

    def write_served_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["demand_id"] + [f"t{t}" for t in range(len(self.states))])
            for i, did in enumerate(self.demand_ids):
                w.writerow([did] + [f"{v:.9f}" for v in self.served_fraction[i]])


# --- island AC OPF --------------------------------------------------------------


class _IslandNlp:
    """Load-shedding AC OPF over one live island."""

    def __init__(self, net: Network, island: Island):
        self.net = net
        self.island = island

        def at(position, ids) -> np.ndarray:
            return np.array([position[e] for e in ids], dtype=np.int64)

        # the island's elements' positions in the network, in island order
        self.bus_rows = at(net.bus_position, island.buses)
        self.line_rows = at(net.line_position, island.lines)
        self.gen_rows = at(net.generator_position, island.generators)
        self.demand_rows = at(net.demand_position, island.demands)
        self.bus_index = {b: k for k, b in enumerate(island.buses)}
        self.lines = [net.lines[k] for k in self.line_rows]
        self.gens = [net.generators[k] for k in self.gen_rows]
        self.demands = [net.demands[k] for k in self.demand_rows]
        # the island's lines, picked from the network's block by position
        self.block = block = net.line_block.take(
            self.line_rows,
            np.array([self.bus_index[l.from_bus] for l in self.lines], dtype=np.int64),
            np.array([self.bus_index[l.to_bus] for l in self.lines], dtype=np.int64),
        )

        nb, nl = len(self.bus_rows), len(self.lines)
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

        arrays = net.arrays
        self.pd = arrays.p_demand[self.demand_rows]
        self.qd = arrays.q_demand[self.demand_rows]
        self.v_min = arrays.v_min[self.bus_rows]
        self.v_max = arrays.v_max[self.bus_rows]

        # The balance rows' terms, each at its bus's row: the units' P and
        # Q, the demands' served P and Q, then the flows pfr, pto, qfr, qto
        # at their ends. The units and demands are linear in one variable each.
        gen_at = np.array([self.bus_index[g.bus] for g in self.gens], dtype=np.int64)
        demand_at = np.array([self.bus_index[d.bus] for d in self.demands], dtype=np.int64)
        self.balance_rows = np.concatenate([
            gen_at, nb + gen_at, demand_at, nb + demand_at,
            block.i, block.j, nb + block.i, nb + block.j,
        ])
        self.linear_cols = np.concatenate([self.ipg, self.iqg, self.ix, self.ix])
        self.linear_coef = np.concatenate([np.ones(2 * ng), -self.pd, -self.qd])

        # what the interior point needs of the island, in any batch
        self.c = self.objective_vector()
        self.lo, self.hi = self.bounds()
        self.start = np.clip(self.start_point(), self.lo, self.hi)
        self.free = np.flatnonzero(self.lo < self.hi)  # the variables not held

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
        p_min, p_max, q_min, q_max = np.array(
            [(g.p_min, g.p_max, g.q_min, g.q_max) for g in self.gens]
        ).reshape(-1, 4).T
        share = p_max / cap if cap > 0 else np.zeros(self.ng)
        u[self.ipg] = np.clip(want_p * share, p_min, p_max)
        u[self.iqg] = np.clip(want_q * share, q_min, q_max)
        return u

    def terms(self, u: np.ndarray) -> LineTerms:
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
    ``_Batch``), the line block's terms, and the flows and their
    partials, stacked in the order pfr, pto, qfr, qto."""

    u: np.ndarray
    g: np.ndarray
    h: np.ndarray
    g_vals: np.ndarray
    h_vals: np.ndarray
    terms: LineTerms
    f: np.ndarray  # (4, nl)
    df: np.ndarray  # (4, nl, 4), over (v_i, v_j, th_i, th_j)


class _Level(NamedTuple):
    """The groups of one height: those with a parent first, ``n`` of them,
    sorted by parent, with their parents ``above``, each parent's first
    child at ``starts`` and the parents once each in ``parents``; then the
    islands' roots."""

    nodes: np.ndarray
    n: int
    above: np.ndarray
    starts: np.ndarray
    parents: np.ndarray


def _levels(parent: np.ndarray, height: np.ndarray, groups: np.ndarray) -> list[_Level]:
    """The elimination order of ``groups``: one level per height, leaves
    first, each parent's children in island order."""
    root = parent[groups] < 0
    groups = groups[np.lexsort((groups, parent[groups], root, height[groups]))]
    ends = np.searchsorted(height[groups], np.arange(height.max() + 1), side="right")
    levels = []
    for nodes in np.split(groups, ends[:-1]):
        if not len(nodes):
            continue
        above = parent[nodes]
        n = int(np.count_nonzero(above >= 0))
        above = above[:n]
        starts = np.flatnonzero(np.r_[True, above[1:] != above[:-1]]) if n else above
        levels.append(_Level(nodes, n, above, starts, above[starts]))
    return levels


class _Batch:
    """Several islands' problems and the layout of their KKT systems,
    stacked island by island.

    The variables, balance rows, inequality rows, free variables and
    KKT groups each keep every island's own order in one segment
    (``at_*`` lists where each segment starts and the last one ends), so
    a sum over an island's segment adds the same numbers in the same
    order as the island alone. The lines, the Jacobian terms and the KKT
    entries go section by section, island by island within a section:
    each row, column and KKT slot then receives its terms in the
    island's own order, and ``np.bincount``, which adds them in input
    order, sums them as the island alone would.

    An island's h stacks the thermal rows at the from and to ends, the
    soft voltage floor, the angle difference above and below, and the
    upper and lower bounds of the free variables. Its KKT matrix
    ``[[Lxx + Jh' diag(mu/z) Jh, Jg'], [Jg, 0]]`` over the free variables
    and the balance rows couples a bus only to itself and to its parent
    on the feeder tree, so it is laid out in groups, one per bus of each
    island: the bus's P and Q balance rows, then its free variables
    among its v, theta and v_t, its demands' x and its units' p and q,
    in KKT order. The rows go first because a block's LU pivots down its
    columns in order: a unit pressed against a bound has a huge barrier
    weight mu/z, and eliminating it before its balance row leaves the
    row the tiny pivot -z/mu, which the block's later updates round away
    (an infeasible island's late steps then came out wrong in every
    digit). Each group is padded with identity rows to ``size``, the
    largest group the network allows, whatever the batch holds, so that
    an island's blocks do not depend on its batch-mates. Each group owns
    one row of ``fill``: its diagonal block (size x size), its rows
    in its parent's columns with the right-hand side as one more column
    (size x size + 1), and its parent's rows in its columns (size x
    size). ``fill_slot`` gives the slot of each entry that
    ``kkt_values`` lists, section by section, then of each right-hand
    side and padding one; an entry on a held variable goes to one more
    slot, which ``fill`` drops. ``x_free`` and ``x_row`` give each free
    variable's and balance row's place in the step's groups.
    """

    def __init__(self, nlps: Sequence[_IslandNlp]):
        """``nlps``: islands of one network."""
        net = nlps[0].net

        def starts(sizes):
            return np.concatenate([[0], np.cumsum(sizes)])

        def stack(arrays, at=None, axis=0):
            """The islands' arrays, each past the ``at`` of the islands before it."""
            arrays = list(arrays)
            out = np.concatenate(arrays, axis=axis)
            if at is not None:
                shape = [1] * out.ndim
                shape[axis] = -1
                out += np.repeat(at[:-1], [a.shape[axis] for a in arrays]).reshape(shape)
            return out

        def ranges(first, counts):
            """Island by island, the ``counts[k]`` consecutive numbers from ``first[k]``."""
            return np.repeat(first - starts(counts)[:-1], counts) + np.arange(counts.sum())

        # each island's sections of h, in order: thermal at the from and
        # to ends, soft floor, angle above and below, upper and lower bounds
        nb_each, nl_each = np.array([n.nb for n in nlps]), np.array([n.nl for n in nlps])
        nf_each = np.array([len(n.free) for n in nlps])
        sections = np.array([nl_each, nl_each, nb_each, nl_each, nl_each, nf_each, nf_each])
        self.at_var = at_var = starts([n.n_var for n in nlps])
        self.at_bus = at_bus = starts(nb_each)
        self.at_row = at_row = 2 * at_bus
        self.at_ineq = at_ineq = starts(sections.sum(axis=0))
        self.at_free = starts(nf_each)
        self.n_var, self.m, self.n_ineq = at_var[-1], at_row[-1], at_ineq[-1]

        self.c, lo, hi, self.start = (
            stack([getattr(n, name) for n in nlps]) for name in ("c", "lo", "hi", "start")
        )
        self.free = free = stack([n.free for n in nlps], at_var)
        self.lo_free, self.hi_free = lo[free], hi[free]
        self.iv, self.ith, self.ivt = (
            stack([getattr(n, name) for n in nlps], at_var) for name in ("iv", "ith", "ivt")
        )
        self.v_min = stack([n.v_min for n in nlps])
        self.block = block = net.line_block.take(
            stack([n.line_rows for n in nlps]),
            stack([n.block.i for n in nlps], at_bus),
            stack([n.block.j for n in nlps], at_bus),
        )
        nl, nb, nf = len(block.ids), at_bus[-1], len(free)
        line_vars = stack([n.line_vars for n in nlps], at_var)
        self.linear_cols = stack([n.linear_cols for n in nlps], at_var)
        self.linear_coef = stack([n.linear_coef for n in nlps])
        linear_rows = stack([n.balance_rows[: len(n.linear_cols)] for n in nlps], at_row)
        self.flow_rows = stack(
            [n.balance_rows[len(n.linear_cols) :].reshape(4, n.nl) for n in nlps], at_row, axis=1
        )
        self.balance_rows = np.concatenate([linear_rows, self.flow_rows.ravel()])
        self.g_rows = np.concatenate([linear_rows, np.repeat(self.flow_rows.ravel(), 4)])
        self.g_cols = np.concatenate([self.linear_cols, np.tile(line_vars, (4, 1)).ravel()])

        h_sections = [ranges(first, counts) for first, counts in zip(
            at_ineq[:-1] + np.cumsum(sections, axis=0) - sections, sections
        )]
        self.h_order = np.concatenate(h_sections)  # where evaluate()'s sections of h go
        self.r_thermal = np.array(h_sections[:2])
        self.r_soft, self.r_above, self.r_below, self.r_upper, self.r_lower = h_sections[2:]
        # Jh in COO form; only the thermal entries vary
        th_i, th_j = line_vars[:, 2], line_vars[:, 3]
        self.h_rows = np.concatenate([
            np.repeat(self.r_thermal.ravel(), 4), self.r_soft, self.r_soft,
            self.r_above, self.r_above, self.r_below, self.r_below, self.r_upper, self.r_lower,
        ])
        self.h_cols = np.concatenate([
            np.tile(line_vars, (2, 1)).ravel(), self.iv, self.ivt,
            th_i, th_j, th_i, th_j, free, free,
        ])
        one_l, one_f = np.ones(nl), np.ones(nf)
        self.h_vals0 = np.concatenate([-np.ones(2 * nb), one_l, -one_l, -one_l, one_l, one_f, -one_f])

        # the feeder tree over the groups: each bus's parent (-1 at its
        # island's root), its height above the deepest bus below it, and
        # its island
        tree_order = np.array([net.bus_position[b] for b in net.radial_tree.order])
        rank = np.argsort(tree_order)[stack([n.bus_rows for n in nlps])]
        below = rank[block.i] > rank[block.j]  # the from end hangs below the to end
        self.parent = parent = np.full(nb, -1, dtype=np.int64)
        parent[np.where(below, block.i, block.j)] = np.where(below, block.j, block.i)
        assert np.count_nonzero(parent >= 0) == nl, "an island's lines must form a tree"
        height = [0] * nb
        up = parent.tolist()
        for b in np.argsort(rank)[::-1].tolist():
            if up[b] >= 0:
                height[up[b]] = max(height[up[b]], height[b] + 1)
        self.height = np.array(height, dtype=np.int64)
        self.island = np.repeat(np.arange(len(nlps)), nb_each)
        self.levels = _levels(parent, self.height, np.arange(nb))

        # each KKT row's group (its bus) and place within the group: the
        # balance rows first, then the free variables, each in KKT order;
        # the KKT rows are the free variables, then the balance rows
        n = nf + self.m
        row_bus = ranges(np.repeat(at_bus[:-1], 2), np.repeat(nb_each, 2))
        bus_of = np.empty(self.n_var, dtype=np.int64)
        bus_of[self.iv] = bus_of[self.ith] = bus_of[self.ivt] = np.arange(nb)
        bus_of[self.linear_cols] = row_bus[linear_rows]
        group = np.concatenate([bus_of[free], row_bus])
        count = np.bincount(group, minlength=nb)
        # five rows per bus, one per demand and two per unit
        arrays, buses = net.arrays, len(net.buses)
        self.size = size = 5 + int(np.max(
            np.bincount(arrays.demand_bus, minlength=buses)
            + 2 * np.bincount(arrays.gen_bus, minlength=buses)
        ))
        assert count.max() <= size
        order = np.r_[nf:n, :nf]
        order = order[np.argsort(group[order], kind="stable")]
        place = np.empty(n, dtype=np.int64)
        place[order] = np.arange(n) - (np.cumsum(count) - count)[group[order]]
        self.width = width = size * (3 * size + 1)
        self.n_fill = nb * width
        at_coupling = size * size  # where a group's coupling to its parent starts
        at_parent = size * (2 * size + 1)  # where its parent's coupling to it starts

        def slot(rows, cols):
            """The fill slot of each entry at KKT ``rows`` and ``cols``; an
            entry on a held variable (-1) goes to ``n_fill``, which fill() drops."""
            # one more KKT row and group, at -1, for the held entries
            g, p, above = np.append(group, -1), np.append(place, 0), np.append(parent, -2)
            gr, gc = g[rows], g[cols]
            down, up = above[gr] == gc, above[gc] == gr
            held = (gr < 0) | (gc < 0)
            assert np.all(held | (gr == gc) | down | up), "a KKT entry couples buses that are not parent and child"
            # the block: the row's group's own, or its rows in its parent's
            # columns, or its parent's rows in its columns, which the
            # column's group holds
            out = np.where(up, gc * width + at_parent, gr * width + down * at_coupling)
            out += p[rows] * (size + down) + p[cols]
            out[held] = self.n_fill
            return out

        # the KKT entries in the order kkt_values() lists them: the line
        # blocks, the soft floor's (v, v_t) blocks, the free diagonal, Jg
        # and its transpose; then the right-hand sides and the padding
        pos = np.full(self.n_var, -1, dtype=np.int64)  # place in the step, or -1 if held
        pos[free] = np.arange(nf)
        quad = pos[line_vars]
        soft_rows = pos[np.array([self.iv, self.iv, self.ivt, self.ivt])].ravel()
        soft_cols = pos[np.array([self.iv, self.ivt, self.iv, self.ivt])].ravel()
        jg_rows, jg_cols = nf + self.g_rows, pos[self.g_cols]
        pad_group, pad_place = np.nonzero(np.arange(size) >= count[:, None])
        self.fill_slot = np.concatenate([
            slot(
                np.concatenate([
                    np.repeat(quad, 4, axis=1).ravel(), soft_rows, np.arange(nf), jg_rows, jg_cols,
                ]),
                np.concatenate([
                    np.tile(quad, (1, 4)).ravel(), soft_cols, np.arange(nf), jg_cols, jg_rows,
                ]),
            ),
            group * width + at_coupling + place * (size + 1) + size,
            pad_group * width + pad_place * (size + 1),
        ])
        self.pad_ones = np.ones(len(pad_group))
        # the constraint block's diagonal, which only a singular matrix's retry fills
        self.s_shift = group[nf:] * width + place[nf:] * (size + 1)
        self.x_free, self.x_row = np.split(group * size + place, [nf])

    def evaluate(self, u: np.ndarray) -> _Point:
        """g, h and the values of their Jacobians at ``u``."""
        block = self.block
        terms = block.terms(u[self.iv], u[self.ith])
        f = block.flows(terms)
        df = block.partials(terms)
        th = u[self.ith]
        d = th[block.i] - th[block.j]
        t2 = block.t_lim**2
        u_free = u[self.free]
        h = np.empty(self.n_ineq)
        h[self.h_order] = np.concatenate([
            f[0] ** 2 + f[2] ** 2 - t2, f[1] ** 2 + f[3] ** 2 - t2,
            self.v_min - u[self.iv] - u[self.ivt], d - block.a_max, block.a_min - d,
            u_free - self.hi_free, self.lo_free - u_free,
        ])
        g = np.bincount(
            self.balance_rows,
            np.concatenate([self.linear_coef * u[self.linear_cols], -f.ravel()]),
            minlength=self.m,
        )
        # d(p^2 + q^2) = 2 p dp + 2 q dq, at the from end, then the to end
        jt = 2 * (f[:2, :, None] * df[:2] + f[2:, :, None] * df[2:])
        g_vals = np.concatenate([self.linear_coef, -df.ravel()])
        h_vals = np.concatenate([jt.ravel(), self.h_vals0])
        return _Point(u, g, h, g_vals, h_vals, terms, f, df)

    def lagrangian_gradient(self, pt: _Point, lam: np.ndarray, w: np.ndarray) -> np.ndarray:
        """c + Jg' lam + Jh' w, over all variables."""
        return (
            self.c
            + np.bincount(self.g_cols, pt.g_vals * lam[self.g_rows], minlength=self.n_var)
            + np.bincount(self.h_cols, pt.h_vals * w[self.h_rows], minlength=self.n_var)
        )

    def kkt_values(self, pt: _Point, lam, mu, d) -> np.ndarray:
        """The KKT entries' values, in the order of ``self.fill_slot``'s first sections.

        ``d`` is mu/z, the weight of each inequality row in Jh' d Jh.
        """
        nl = len(self.block.ids)
        # the thermal multiplier at each flow's end: from, to, from, to
        mu_t = mu[self.r_thermal][[0, 1, 0, 1]]
        # each flow's weight in Lxx: minus its balance multiplier, plus
        # 2 mu p (or 2 mu q) from its end's thermal row
        w = 2 * mu_t * pt.f - lam[self.flow_rows]
        blk = np.einsum("fl,flab->lab", w, self.block.hessians(pt.terms))
        # the thermal rows' Gauss-Newton terms, 2 mu (dp dp' + dq dq')
        blk += 2 * np.einsum("fl,fla,flb->lab", mu_t, pt.df, pt.df)
        jt = pt.h_vals[: 8 * nl].reshape(2, nl, 4)
        blk += np.einsum("tl,tla,tlb->lab", d[self.r_thermal], jt, jt)
        angle = d[self.r_above] + d[self.r_below]
        blk[:, 2, 2] += angle
        blk[:, 3, 3] += angle
        blk[:, 2, 3] -= angle
        blk[:, 3, 2] -= angle
        soft = d[self.r_soft]
        return np.concatenate([
            blk.ravel(),
            soft, soft, soft, soft,
            d[self.r_upper] + d[self.r_lower],
            pt.g_vals,
            pt.g_vals,
        ])

    def fill(self, vals: np.ndarray, rhs_free: np.ndarray, rhs_rows: np.ndarray) -> np.ndarray:
        """The KKT layout of every group (see the class docstring), one row
        per group, holding the entries ``vals`` and the right-hand sides of
        the free variables and of the balance rows."""
        weights = np.concatenate([vals, rhs_free, rhs_rows, self.pad_ones])
        return np.bincount(self.fill_slot, weights, minlength=self.n_fill + 1)[:-1].reshape(-1, self.width)

    def shift(self, fill: np.ndarray, islands: np.ndarray) -> None:
        """Put -_DELTA_C on the constraint diagonal of the marked islands' groups."""
        fill.reshape(-1)[self.s_shift[np.repeat(islands, np.diff(self.at_row))]] = -_DELTA_C

    def tree_solve(self, fill: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The step of each island ``keep`` marks, one row of values per
        group, and the islands met with an exactly singular block.

        Block elimination down the feeder tree, leaves first, then back
        substitution from the roots; ``fill`` is overwritten. The tree is
        the elimination tree of every island's matrix, so nothing fills
        in. Each level solves its blocks against their couplings and
        right-hand sides in one stacked ``np.linalg.solve`` (one LAPACK
        call per block, of one size for the whole network, so its bits do
        not depend on the other blocks), and adds the Schur complements
        of each parent's children in island order.
        """
        s = self.size
        levels = self.levels if keep.all() else _levels(
            self.parent, self.height, np.flatnonzero(keep[self.island])
        )
        diagonal = fill[:, : s * s].reshape(-1, s, s)
        coupled = fill[:, s * s : s * (2 * s + 1)].reshape(-1, s, s + 1)
        parents_rows = fill[:, s * (2 * s + 1) :].reshape(-1, s, s)
        singular = np.zeros(len(keep), dtype=bool)
        solved = []
        for level in levels:
            x = self._solve_blocks(
                diagonal[level.nodes], coupled[level.nodes], level.nodes, singular
            )
            solved.append(x)
            if level.n:
                schur = np.add.reduceat(parents_rows[level.nodes[: level.n]] @ x[: level.n], level.starts)
                diagonal[level.parents] -= schur[:, :, :s]
                coupled[level.parents, :, s] -= schur[:, :, s]
        step = np.zeros((len(fill), s))
        for level, x in zip(reversed(levels), reversed(solved)):
            step[level.nodes] = x[:, :, s]
            step[level.nodes[: level.n]] -= (x[: level.n, :, :s] @ step[level.above, :, None])[:, :, 0]
        return step, singular

    def _solve_blocks(self, a, b, nodes, singular) -> np.ndarray:
        """``np.linalg.solve(a, b)``, except that an exactly singular block
        marks its island in ``singular`` and solves to zero."""
        try:
            return np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            bad = [k for k in range(len(a)) if not _solves(a[k], b[k])]
            singular[self.island[nodes[bad]]] = True
            a[bad], b[bad] = np.eye(self.size), 0.0
            return np.linalg.solve(a, b)


def _solves(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``np.linalg.solve(a, b)`` goes through."""
    try:
        np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return False
    return True


class _BatchIpm:
    """Primal-dual interior point for the AC OPF of several islands, in lockstep.

    It follows the MATPOWER Interior Point Solver (Wang, Murillo-Sanchez,
    Zimmerman and Thomas, IEEE Trans. Power Syst. 22(3), 2007) on
    ``min c.u  s.t.  g(u) = 0,  h(u) <= 0``. The rows g are the balance
    rows; h stacks the thermal rows, the soft voltage floor, the angle rows
    and the bounds, each with a slack ``z > 0`` and a multiplier
    ``mu > 0``. The barrier parameter follows Ipopt's monotone schedule.
    The Hessian is exact. Fixed variables (the reference angle,
    zero-width bounds) are held out of the step.

    Every lockstep iterate evaluates the flows, the rows and the KKT
    entries of all the islands still in the batch at once (``_Batch``).
    Each island keeps its own barrier parameter, dual scale, stopping
    test and step lengths. One ``np.bincount`` fills the KKT blocks of
    every island, and one block elimination down the feeder tree
    (``_Batch.tree_solve``) solves them all; it factors each island's
    blocks apart from its batch-mates', so an island's iterates do not
    depend on them. An island met with an exactly singular block is
    solved again with ``-_DELTA_C`` on the constraint block's diagonal,
    as in Ipopt's regularization (Waechter and Biegler, Math.
    Programming 106, 2006). An island that converges or fails leaves the
    batch, and the others go on without it.
    """

    def __init__(self, nlps: Sequence[_IslandNlp]):
        """``nlps``: islands of one network."""
        self.nlps = list(nlps)
        # per island: the Newton steps taken and the block eliminations
        self.iterations = np.zeros(len(self.nlps), dtype=np.int64)
        self.factorizations = np.zeros(len(self.nlps), dtype=np.int64)

    def run(self, tol: float) -> list[np.ndarray]:
        """Each island's first iterate whose KKT residuals are all below
        ``_ACCURACY * tol``, clipped to the bounds.

        An island that stalls, overflows or meets a singular matrix gets
        its least-violating finite iterate instead, never an exception:
        the residual check of ``solve_ac_opf`` then marks its periods.
        """
        with np.errstate(all="ignore"):
            return self._iterate(tol)

    def _least_violating(self, k: int, iterates: list[np.ndarray]) -> np.ndarray:
        nlp = self.nlps[k]
        clipped = [np.clip(u, nlp.lo, nlp.hi) for u in iterates]
        return min(clipped, key=nlp.violation)

    def _iterate(self, tol: float) -> list[np.ndarray]:
        stop = _ACCURACY * tol
        out: list = [None] * len(self.nlps)
        iterates: list[list[np.ndarray]] = [[] for _ in self.nlps]
        ids = np.arange(len(self.nlps))  # the islands still in the batch
        batch = _Batch(self.nlps)
        u = batch.start
        for t in range(IPM_MAX_ITER + 1):
            pt = batch.evaluate(u)
            at_var, at_row, at_ineq = batch.at_var, batch.at_row, batch.at_ineq
            m_each, n_ineq_each = np.diff(at_row), np.diff(at_ineq)
            if t == 0:
                z = np.maximum(-pt.h, 1.0)
                mu = np.ones(batch.n_ineq)
                lam = np.zeros(batch.m)
                barrier = np.full(len(ids), _MU_INIT)
                broken = np.zeros(len(ids), dtype=bool)
            else:
                self.iterations[ids] += 1
                broken = ~(
                    np.logical_and.reduceat(np.isfinite(pt.g), at_row[:-1])
                    & np.logical_and.reduceat(np.isfinite(pt.h), at_ineq[:-1])
                )
            for k, island in enumerate(ids):
                if not broken[k]:
                    iterates[island].append(u[at_var[k] : at_var[k + 1]])
            if t == IPM_MAX_ITER:
                break
            # KKT residuals, the dual ones scaled as in Ipopt; the sums are
            # taken island by island, in each island's own order
            comp = z * mu
            abs_lam = np.abs(lam)
            lam_sum, mu_sum, comp_sum = np.array([
                (abs_lam[r0:r1].sum(), mu[h0:h1].sum(), comp[h0:h1].sum())
                for r0, r1, h0, h1 in zip(at_row[:-1], at_row[1:], at_ineq[:-1], at_ineq[1:])
            ]).reshape(-1, 3).T
            scale = np.maximum(_S_MAX, (lam_sum + mu_sum) / (m_each + n_ineq_each)) / _S_MAX
            grad = batch.lagrangian_gradient(pt, lam, mu)
            dual = np.maximum.reduceat(np.abs(grad[batch.free]), batch.at_free[:-1]) / scale
            primal = np.maximum(
                np.maximum.reduceat(np.abs(pt.g), at_row[:-1]),
                np.maximum.reduceat(np.abs(pt.h + z), at_ineq[:-1]),
            )
            done = ~broken & (np.maximum(np.maximum(primal, dual), comp_sum / scale) <= stop)
            for k in np.flatnonzero(done):
                nlp = self.nlps[ids[k]]
                out[ids[k]] = np.clip(u[at_var[k] : at_var[k + 1]], nlp.lo, nlp.hi)
            going = ~(broken | done)
            # lower each barrier parameter once its subproblem is solved
            mu_min = stop / (10 * n_ineq_each)
            lowering = going.copy()
            while True:
                off = np.abs(comp - np.repeat(barrier, n_ineq_each))
                lowering &= (barrier > mu_min) & (
                    np.maximum(np.maximum(primal, dual), np.maximum.reduceat(off, at_ineq[:-1]) / scale)
                    <= _KAPPA_EPS * barrier
                )
                if not lowering.any():
                    break
                for k in np.flatnonzero(lowering):
                    b = float(barrier[k])
                    barrier[k] = max(mu_min[k], min(_KAPPA_MU * b, b**1.5))

            d = mu / z
            barrier_rows = np.repeat(barrier, n_ineq_each)
            kkt = (
                batch.kkt_values(pt, lam, mu, d),
                -batch.lagrangian_gradient(pt, lam, mu + d * pt.h + barrier_rows / z)[batch.free],
                -pt.g,
            )
            step, singular = batch.tree_solve(batch.fill(*kkt), going)
            self.factorizations[ids[going]] += 1
            if singular.any():
                # once more, with the constraint block shifted
                fill = batch.fill(*kkt)
                batch.shift(fill, singular)
                retry = singular
                shifted, singular = batch.tree_solve(fill, retry)
                self.factorizations[ids[retry]] += 1
                step[retry[batch.island]] = shifted[retry[batch.island]]
                going &= ~singular
            going &= np.logical_and.reduceat(np.isfinite(step).all(axis=1), batch.at_bus[:-1])
            step = step.ravel()
            dx = np.zeros(batch.n_var)
            dx[batch.free] = step[batch.x_free]
            dz = -pt.h - z - np.bincount(
                batch.h_rows, pt.h_vals * dx[batch.h_cols], minlength=batch.n_ineq
            )
            dmu = (barrier_rows - mu * dz) / z - mu
            # fraction to the boundary, for the primal and the dual step apart
            tau = np.maximum(_TAU_MIN, 1.0 - barrier)
            to_z = np.where(dz < 0, z / -dz, np.inf)
            to_mu = np.where(dmu < 0, mu / -dmu, np.inf)
            alpha_p = np.minimum(1.0, tau * np.minimum.reduceat(to_z, at_ineq[:-1]))
            alpha_d = np.minimum(1.0, tau * np.minimum.reduceat(to_mu, at_ineq[:-1]))
            going &= ~(alpha_p < _ALPHA_MIN)
            z = z + np.repeat(alpha_p, n_ineq_each) * dz
            lam = lam + np.repeat(alpha_d, m_each) * step[batch.x_row]
            mu = mu + np.repeat(alpha_d, n_ineq_each) * dmu
            u = u + np.repeat(alpha_p, np.diff(at_var)) * dx
            for k in np.flatnonzero(~(going | done)):
                out[ids[k]] = self._least_violating(ids[k], iterates[ids[k]])
            if not going.any():
                return out
            if not going.all():
                u = u[np.repeat(going, np.diff(at_var))]
                z, mu = (a[np.repeat(going, n_ineq_each)] for a in (z, mu))
                lam = lam[np.repeat(going, m_each)]
                barrier, ids = barrier[going], ids[going]
                batch = _Batch([self.nlps[k] for k in ids])
        for island in ids:
            out[island] = self._least_violating(island, iterates[island])
        return out


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
    """One live island's part of a period state: the positions in the
    network of its buses, demands, units and lines (``_IslandNlp``'s
    ``*_rows``), and their values: v, theta and v_violation (3, buses),
    served (demands), p and q (2, units), and the four flows (4, lines)."""

    rows: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]


def _solve_batch(net: Network, islands: Sequence[Island], tol: float) -> list[_IslandSolution]:
    """Each island's solution, from one lockstep interior point over them all."""
    nlps = [_IslandNlp(net, island) for island in islands]
    return [_island_solution(nlp, u) for nlp, u in zip(nlps, _BatchIpm(nlps).run(tol))]


def _island_solution(nlp: _IslandNlp, u: np.ndarray) -> _IslandSolution:
    """The values of the island solution ``u``, with their network positions."""
    return _IslandSolution(
        (nlp.bus_rows, nlp.demand_rows, nlp.gen_rows, nlp.line_rows),
        (
            u[np.array([nlp.iv, nlp.ith, nlp.ivt])],
            np.clip(u[nlp.ix], 0.0, 1.0),
            u[np.array([nlp.ipg, nlp.iqg])],
            nlp.flows(u),
        ),
    )


def solve_ac_opf(
    problem: AcOpfProblem,
    tol: float = DEFAULT_RESIDUAL_TOL,
    *,
    _solved: dict[Island, _IslandSolution] | None = None,
) -> AcState:
    """Solve every live island; dead islands are fixed structurally.

    ``_solved`` maps islands to solutions already found in the same
    replay (same case and tolerance); it is read and extended. The
    islands not in it are solved as one batch. A period that misses
    ``tol`` names its worst residual family in ``message``.
    """
    solved = {} if _solved is None else _solved
    net = problem.case.network
    live = [island for island in problem.islands if island.live]
    missing = [island for island in live if island not in solved]
    if missing:
        solved.update(zip(missing, _solve_batch(net, missing, tol)))

    # structural zeros for everything de-energized or dead; the voltage
    # floor's slack is v_min at a dead bus and 0 at a bus that is down
    buses, served, gens, flows = parts = (
        np.zeros((3, len(net.buses))),
        np.zeros(len(net.demands)),
        np.zeros((2, len(net.generators))),
        np.zeros((4, len(net.lines))),
    )
    buses[2] = np.where(problem.energized_buses, net.arrays.v_min, 0.0)
    for island in live:
        for part, rows, values in zip(parts, *solved[island]):
            part[..., rows] = values

    # Python's sum, in network order: numpy's pairwise sum rounds differently
    objective = sum((served * net.arrays.p_demand).tolist())
    objective -= PENALTY_WEIGHT * sum(buses[2].tolist())
    state = AcState(
        net, *buses, served, *gens, *flows,
        objective=float(objective), converged=True, max_residual=0.0,
    )
    rep = residuals(state, problem)
    family = max(rep, key=rep.__getitem__)
    state.max_residual = rep[family]
    state.converged = state.max_residual <= tol
    if not state.converged:
        state.message = (
            f"constraint residual {state.max_residual:.3e} ({family}) above tolerance {tol:.1e}"
        )
    return state


def residuals(state: AcState, problem: AcOpfProblem) -> dict[str, float]:
    """Max absolute violation per constraint family, recomputed from scratch.

    The flows are recomputed from the state's V and theta over the whole
    network's line block. A line is in service when it is energized and
    its island is live. The flows of every other line, the output of every
    unit that does not work, the service of every demand that does not
    work or sits on a bus that is not live, and the voltage of every bus
    that is not live must be exactly zero.
    """
    net = problem.case.network
    arrays = net.arrays
    block = net.line_block
    live = problem.live_buses
    on = problem.energized_lines & live[block.i]
    v, served = state.v, state.served
    stated = np.array([state.p_flow_fr, state.p_flow_to, state.q_flow_fr, state.q_flow_to])
    recomputed = np.where(on, block.flows(block.terms(v, state.theta)), 0.0)
    flow = np.max(np.abs(recomputed - stated), initial=0.0)
    # math.hypot, not np.hypot: the two differ in the last digit
    p, q = stated[:2].ravel().tolist(), stated[2:].ravel().tolist()
    apparent = np.array(list(map(math.hypot, p, q))).reshape(2, -1)
    thermal = np.max((apparent - block.t_lim)[:, on], initial=0.0)
    diff = (state.theta[block.i] - state.theta[block.j])[on]
    angle = np.max(np.r_[diff - block.a_max[on], block.a_min[on] - diff], initial=0.0)

    # Each bus's injections, added in this order: the stated flows leaving
    # it, line by line (from end, then to end), its working units, then
    # every demand at it, in network order. A working unit's bus is live.
    units = problem.energized_gens
    rows = np.concatenate([
        np.column_stack([block.i, block.j])[on].ravel(), arrays.gen_bus[units], arrays.demand_bus,
    ])

    def balance(flows, gen, demand) -> float:
        injections = np.concatenate([-flows[:, on].T.ravel(), gen[units], -served * demand])
        return np.max(np.abs(np.bincount(rows, injections, minlength=len(live))[live]), initial=0.0)

    voltage = np.where(
        live, np.maximum(v - arrays.v_max, (arrays.v_min - state.v_violation) - v), np.abs(v)
    )
    off = ~units
    dead = ~(problem.energized_demands & live[arrays.demand_bus])
    shed = np.concatenate([
        np.abs(state.p_gen[off]), np.abs(state.q_gen[off]), np.abs(served[dead]),
        # the distance outside [0, 1], which unlike -served is never -0.0
        np.abs(np.clip(served, 0.0, 1.0) - served),
    ])
    return {
        "balance_p": float(balance(stated[:2], state.p_gen, arrays.p_demand)),
        "balance_q": float(balance(stated[2:], state.q_gen, arrays.q_demand)),
        "flow": float(flow),
        "voltage": float(np.max(voltage, initial=0.0)),
        "thermal": float(thermal),
        "angle": float(angle),
        "shed": float(np.max(shed, initial=0.0)),
    }


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# (network, batches, tol) of the replay a forked pool worker serves
_worker_job: tuple = ()


def _start_worker(net: Network, batches: list[list[Island]], tol: float) -> None:
    global _worker_job
    _worker_job = (net, batches, tol)


def _solve_nth_batch(k: int) -> list[_IslandSolution]:
    net, batches, tol = _worker_job
    return _solve_batch(net, batches[k], tol)


def _split_batches(islands: list[Island], n: int) -> list[list[Island]]:
    """``n`` batches of about equal bus count: each island, largest
    first, joins the batch with the fewest buses so far."""
    batches: list[list[Island]] = [[] for _ in range(n)]
    buses = [0] * n
    for island in sorted(islands, key=lambda island: len(island.buses), reverse=True):
        k = buses.index(min(buses))
        batches[k].append(island)
        buses[k] += len(island.buses)
    return batches


def _solve_islands(
    net: Network, islands: list[Island], tol: float
) -> dict[Island, _IslandSolution]:
    """Each island's solution, one batch per forked worker, one worker per usable CPU.

    The islands are split by ``_split_batches``; a worker's exception is
    raised here. They are solved in this process, as one batch, when one
    worker suffices, when the platform cannot fork, or when other
    threads run here, since a fork copies any lock they hold.
    """
    workers = min(_usable_cpus(), len(islands))
    if (
        workers <= 1
        or threading.active_count() > 1
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return dict(zip(islands, _solve_batch(net, islands, tol))) if islands else {}
    batches = _split_batches(islands, workers)
    net.line_block  # computed here, once, rather than in every worker
    fork = multiprocessing.get_context("fork")
    with fork.Pool(workers, _start_worker, (net, batches, tol)) as pool:
        solutions = pool.map(_solve_nth_batch, range(workers), chunksize=1)
    return {
        island: solution
        for batch, batch_solutions in zip(batches, solutions)
        for island, solution in zip(batch, batch_solutions)
    }


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
    one batch per usable CPU (see the module docstring), and each period
    is assembled from them.
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
    x = np.stack([s.served for s in states], axis=1)
    p = net.arrays.p_demand
    base = net.base_mva
    served_mwh = float((x * p[:, None]).sum() * step_hours * base)
    total_mwh = float(p.sum() * len(states) * step_hours * base)
    return RipResult(
        states=tuple(states),
        demand_ids=tuple(net.arrays.demand_ids.tolist()),
        served_fraction=x,
        served_mwh=served_mwh,
        ens_mwh=total_mwh - served_mwh,
        step_hours=step_hours,
        converged=all(s.converged for s in states),
    )
