"""Linear and mixed-integer programming layer.

``solve_milp`` solves every MILP with HiGHS (``scipy.optimize.milp``).
The builtin revised simplex (``solve_lp``) and branch-and-bound
(``solve_milp_builtin``) are not selectable solvers: they stay as an
independent reference kernel. The tests' brute-force oracle runs on the
simplex and HiGHS is cross-checked against the branch-and-bound; checks
that ran HiGHS on both sides could not catch a solver fault. Every
solution is re-verified against the raw constraint matrix.
"""

from __future__ import annotations

from .bnb import solve_milp_builtin
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
from .simplex import solve_lp_builtin

DEFAULT_FEAS_TOL = 1e-7
DEFAULT_REL_GAP = 1e-6


def solve_lp(lp: LinearProgram, tol: float = DEFAULT_FEAS_TOL) -> Solution:
    sol = solve_lp_builtin(lp, tol=tol)
    verify_solution(lp, sol, tol)
    return sol


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
    "solve_lp",
    "solve_milp",
    "solve_lp_builtin",
    "solve_milp_builtin",
    "feasibility_violation",
    "verify_solution",
]
