"""Linear and mixed-integer programming layer.

``solve_lp`` / ``solve_milp`` accept a ``backend`` name:

* ``"builtin"`` -- the revised simplex / branch-and-bound shipped here,
* ``"highs"``   -- HiGHS through scipy (the external-backend seam),
* ``"auto"``    -- HiGHS (``scipy.optimize.milp``, present from scipy 1.10).

Every solution is re-verified against the raw constraint matrix before
it is returned.
"""

from __future__ import annotations

from .bnb import solve_milp_builtin
from .highs import solve_lp_highs, solve_milp_highs
from .problem import (
    INCUMBENT_WITH_GAP,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    MilpProblem,
    ProblemBuilder,
    Solution,
    feasibility_violation,
    verify_solution,
)
from .simplex import solve_lp_builtin

DEFAULT_FEAS_TOL = 1e-7
DEFAULT_REL_GAP = 1e-6
DEFAULT_NODE_BUDGET = 1_000_000


def resolve_backend(backend: str) -> str:
    if backend == "auto":
        return "highs"
    if backend not in ("builtin", "highs"):
        raise ValueError(f"unknown solver backend {backend!r}")
    return backend


def solve_lp(
    lp: LinearProgram, tol: float = DEFAULT_FEAS_TOL, backend: str = "builtin"
) -> Solution:
    fn = solve_lp_highs if resolve_backend(backend) == "highs" else solve_lp_builtin
    sol = fn(lp, tol=tol)
    verify_solution(lp, sol, tol)
    return sol


def solve_milp(
    problem: MilpProblem,
    rel_gap: float = DEFAULT_REL_GAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
    tol: float = DEFAULT_FEAS_TOL,
    backend: str = "auto",
) -> Solution:
    if resolve_backend(backend) == "highs":
        sol = solve_milp_highs(problem, rel_gap=rel_gap, node_budget=node_budget, tol=tol)
    else:
        sol = solve_milp_builtin(problem, rel_gap=rel_gap, node_budget=node_budget, tol=tol)
    verify_solution(problem, sol, tol)
    return sol


__all__ = [
    "LinearProgram",
    "MilpProblem",
    "ProblemBuilder",
    "Solution",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "INCUMBENT_WITH_GAP",
    "solve_lp",
    "solve_milp",
    "solve_lp_builtin",
    "solve_milp_builtin",
    "solve_lp_highs",
    "solve_milp_highs",
    "feasibility_violation",
    "verify_solution",
    "resolve_backend",
]
