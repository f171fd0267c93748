"""Linear and mixed-integer programming layer.

``solve_milp`` solves a MILP with HiGHS (``scipy.optimize.milp``) and
re-verifies the solution against the raw constraint triplets with
``verify_solution``, which ``rop`` also applies to the closed-form point
of its subset DP. Only ``solve_milp`` imports scipy, at its first call.
The tests keep an independent reference kernel, a revised simplex and a
branch-and-bound over it, outside the package.
"""

from __future__ import annotations

from .highs import solve_milp_highs
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

DEFAULT_FEAS_TOL = 1e-7
DEFAULT_REL_GAP = 1e-6


def solve_milp(
    problem: MilpProblem,
    rel_gap: float = DEFAULT_REL_GAP,
    tol: float = DEFAULT_FEAS_TOL,
) -> Solution:
    sol = solve_milp_highs(problem, rel_gap=rel_gap)
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
    "solve_milp",
    "feasibility_violation",
    "verify_solution",
]
