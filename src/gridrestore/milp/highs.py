"""HiGHS through ``scipy.optimize.milp``.

The canonical problem form maps one-to-one onto scipy's ``milp``
interface: two-sided row bounds, column bounds and an integrality mask.
"""

from __future__ import annotations

import numpy as np

from ..errors import SolverError
from .problem import (
    INCUMBENT_WITH_GAP,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    MilpProblem,
    Solution,
)

NODE_LIMIT = 1_000_000


def solve_milp_highs(problem: MilpProblem, rel_gap: float = 1e-6) -> Solution:
    # imported on the first solve: scipy.optimize (with the scipy.sparse
    # of lp.matrix()) would be most of the package's import time, and only
    # an instance that the subset DP cannot order ever solves a MILP
    import scipy.optimize as sopt

    problem.validate()
    lp = problem.lp
    c = -lp.c if lp.maximize else lp.c
    integrality = np.zeros(lp.n_cols, dtype=np.int64)
    integrality[sorted(problem.integer_columns)] = 1
    constraints = ()
    if lp.n_rows:
        constraints = sopt.LinearConstraint(lp.matrix(), lp.row_lower, lp.row_upper)
    res = sopt.milp(
        c,
        constraints=constraints,
        bounds=sopt.Bounds(lp.col_lower, lp.col_upper),
        integrality=integrality,
        options={"mip_rel_gap": rel_gap, "node_limit": NODE_LIMIT},
    )
    gap = float(res.mip_gap) if getattr(res, "mip_gap", None) is not None else None
    nodes = int(res.mip_node_count or 0) if hasattr(res, "mip_node_count") else 0
    if res.status == 0:
        x = np.asarray(res.x, dtype=float)
        return Solution(
            status=OPTIMAL, objective=float(lp.c @ x), x=x, gap=gap, n_nodes=nodes
        )
    if res.status == 2:
        return Solution(status=INFEASIBLE, message=str(res.message))
    if res.status == 3:
        return Solution(status=UNBOUNDED, message=str(res.message))
    if res.x is not None:
        x = np.asarray(res.x, dtype=float)
        return Solution(
            status=INCUMBENT_WITH_GAP,
            objective=float(lp.c @ x),
            x=x,
            gap=gap if gap is not None else float("inf"),
            n_nodes=nodes,
            message=str(res.message),
        )
    raise SolverError(f"HiGHS failed: {res.message}")
