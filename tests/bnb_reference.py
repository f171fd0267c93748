"""Reference branch-and-bound over the bounded-variable simplex (``simplex_reference``).

Node selection is best LP bound; after branching, the search first dives
depth-first down the 1-branch (energize early) to find an incumbent
quickly, then resumes best-bound. Branch variable is the most fractional
binary, lowest index on ties. All tie-breaking is fixed, so identical
inputs give identical solutions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace

import numpy as np

from gridrestore.errors import SolverError
from gridrestore.milp import (
    INCUMBENT_WITH_GAP,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    MilpProblem,
    Solution,
)
from simplex_reference import solve_lp_builtin

_INT_TOL = 1e-6


@dataclass(order=True)
class _Node:
    sort_key: tuple
    fixes: dict[int, int] = field(compare=False)

    @property
    def bound(self) -> float:
        return -self.sort_key[0]


def solve_milp_builtin(
    problem: MilpProblem,
    rel_gap: float = 1e-6,
    node_budget: int = 1_000_000,
    tol: float = 1e-7,
    trace: list | None = None,
) -> Solution:
    """``trace``, when given, collects (global bound, incumbent score) per node."""
    problem.validate()
    lp = problem.lp
    int_cols = np.asarray(sorted(problem.integer_columns), dtype=np.int64)
    sense = 1.0 if lp.maximize else -1.0  # scores are "bigger is better"

    def solve_node(fixes: dict[int, int]) -> Solution:
        node_lp = lp
        if fixes:
            lo = lp.col_lower.copy()
            hi = lp.col_upper.copy()
            for j, v in fixes.items():
                lo[j] = hi[j] = float(v)
            node_lp = replace(lp, col_lower=lo, col_upper=hi)
        return solve_lp_builtin(node_lp, tol=tol)

    def most_fractional(x: np.ndarray) -> int:
        if len(int_cols) == 0:
            return -1
        vals = x[int_cols]
        dist = np.minimum(np.abs(vals), np.abs(1 - vals))
        if np.max(dist, initial=0.0) <= _INT_TOL:
            return -1
        score = -np.abs(vals - 0.5)
        score[dist <= _INT_TOL] = -np.inf
        return int(int_cols[int(np.argmax(score))])  # first hit = lowest index

    incumbent: Solution | None = None
    incumbent_score = -np.inf
    seq = 0
    heap: list[_Node] = []
    dive: list[_Node] = []

    def push(bound_score: float, fixes: dict[int, int], to_dive: bool):
        nonlocal seq
        node = _Node(sort_key=(-bound_score, seq), fixes=fixes)
        seq += 1
        if to_dive:
            dive.append(node)
        else:
            heapq.heappush(heap, node)

    push(np.inf, {}, to_dive=True)
    nodes_done = 0

    while (heap or dive) and nodes_done < node_budget:
        node = dive.pop() if dive else heapq.heappop(heap)
        if trace is not None:
            open_bounds = [n.bound for n in heap] + [n.bound for n in dive] + [node.bound]
            trace.append((max(max(open_bounds), incumbent_score), incumbent_score))
        if incumbent is not None and node.bound <= incumbent_score + _margin(
            incumbent_score, rel_gap
        ):
            continue
        sol = solve_node(node.fixes)
        nodes_done += 1
        if sol.status == INFEASIBLE:
            continue
        if sol.status == UNBOUNDED:
            return Solution(status=UNBOUNDED, message="LP relaxation unbounded")
        score = sense * sol.objective
        if incumbent is not None and score <= incumbent_score + _margin(
            incumbent_score, rel_gap
        ):
            continue
        j = most_fractional(sol.x)
        if j < 0:
            if incumbent is None or score > incumbent_score:
                incumbent = sol
                incumbent_score = score
            continue
        down = dict(node.fixes)
        down[j] = 0
        up = dict(node.fixes)
        up[j] = 1
        push(score, down, to_dive=False)
        push(score, up, to_dive=True)  # dive on the 1-branch first

    open_nodes = heap + dive
    if incumbent is None:
        if open_nodes:
            raise SolverError("node budget exhausted with no incumbent")
        return Solution(
            status=INFEASIBLE, message="search tree exhausted, no feasible point"
        )

    best_open = max((n.bound for n in open_nodes), default=-np.inf)
    gap = max(0.0, (best_open - incumbent_score) / max(1.0, abs(incumbent_score)))
    if open_nodes and gap > rel_gap:
        return Solution(
            status=INCUMBENT_WITH_GAP,
            objective=incumbent.objective,
            x=incumbent.x,
            gap=gap,
            n_nodes=nodes_done,
            message="node budget exhausted before the gap closed",
        )
    return Solution(
        status=OPTIMAL,
        objective=incumbent.objective,
        x=incumbent.x,
        gap=gap if open_nodes else 0.0,
        n_nodes=nodes_done,
    )


def _margin(score: float, rel_gap: float) -> float:
    return rel_gap * max(1.0, abs(score))
