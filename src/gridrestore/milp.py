"""Linear and mixed-integer programming layer.

Constraints are stored as sparse triplets with two-sided row bounds:
``row_lower <= A x <= row_upper`` plus column bounds and an integrality
set. ``solve_milp`` hands this form to HiGHS (``scipy.optimize.milp``),
whose interface it maps onto one-to-one, and re-checks every point it
returns against the triplets themselves with ``verify_solution``, which
``rop`` also applies to the closed-form point of its subset DP. Only
``solve_milp`` and ``LinearProgram.matrix`` import scipy, at their first
call. The tests keep an independent reference kernel, a revised simplex
and a branch-and-bound over it, outside the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import SolverError

if TYPE_CHECKING:
    import scipy.sparse as sp

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
INCUMBENT_WITH_GAP = "incumbent_with_gap"

INF = float("inf")

# feasibility tolerance of verify_solution on every surfaced point
DEFAULT_FEAS_TOL = 1e-7
# HiGHS's relative MIP gap unless a caller asks for another
DEFAULT_REL_GAP = 1e-6
NODE_LIMIT = 1_000_000


@dataclass
class LinearProgram:
    maximize: bool
    c: np.ndarray
    a_rows: np.ndarray
    a_cols: np.ndarray
    a_vals: np.ndarray
    n_rows: int
    row_lower: np.ndarray
    row_upper: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray

    @property
    def n_cols(self) -> int:
        return len(self.c)

    def matrix(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.a_vals, (self.a_rows, self.a_cols)),
            shape=(self.n_rows, self.n_cols),
        )

    def validate(self) -> None:
        n, m = self.n_cols, self.n_rows
        if not np.all(np.isfinite(self.c)):
            raise ValueError("objective coefficients must be finite")
        if len(self.row_lower) != m or len(self.row_upper) != m:
            raise ValueError("row bound arrays do not match row count")
        if len(self.col_lower) != n or len(self.col_upper) != n:
            raise ValueError("column bound arrays do not match column count")
        if len(self.a_rows) != len(self.a_cols) or len(self.a_rows) != len(self.a_vals):
            raise ValueError("triplet arrays have inconsistent lengths")
        if len(self.a_rows) and (self.a_rows.min() < 0 or self.a_rows.max() >= m):
            raise ValueError("triplet row index out of range")
        if len(self.a_cols) and (self.a_cols.min() < 0 or self.a_cols.max() >= n):
            raise ValueError("triplet column index out of range")
        if np.any(self.row_lower > self.row_upper):
            raise ValueError("row lower bound exceeds upper bound")
        if np.any(self.col_lower > self.col_upper):
            raise ValueError("column lower bound exceeds upper bound")


@dataclass
class MilpProblem:
    lp: LinearProgram
    integer_columns: frozenset[int] = frozenset()

    def validate(self) -> None:
        self.lp.validate()
        for j in self.integer_columns:
            if not (0 <= j < self.lp.n_cols):
                raise ValueError(f"integer column index {j} out of range")
            if self.lp.col_lower[j] < -1e-9 or self.lp.col_upper[j] > 1 + 1e-9:
                raise ValueError(f"integer column {j} must be binary (bounds in [0, 1])")


@dataclass
class Solution:
    status: str
    objective: float = float("nan")
    x: np.ndarray | None = None
    gap: float | None = None
    n_nodes: int = 0
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status in (OPTIMAL, INCUMBENT_WITH_GAP) and self.x is not None


def feasibility_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest bound/constraint violation of a candidate point."""
    viol = 0.0
    if len(x):
        viol = max(
            viol,
            float(np.max(np.maximum(lp.col_lower - x, 0.0), initial=0.0)),
            float(np.max(np.maximum(x - lp.col_upper, 0.0), initial=0.0)),
        )
    if lp.n_rows:
        # A x from the triplets; duplicate entries add, as in a sparse matrix
        ax = np.bincount(lp.a_rows, weights=lp.a_vals * x[lp.a_cols], minlength=lp.n_rows)
        viol = max(
            viol,
            float(np.max(np.maximum(lp.row_lower - ax, 0.0), initial=0.0)),
            float(np.max(np.maximum(ax - lp.row_upper, 0.0), initial=0.0)),
        )
    return viol


def verify_solution(problem, sol: Solution, tol: float) -> None:
    """Re-check a solution against the raw matrix before surfacing it."""
    if not sol.ok:
        return
    lp = problem.lp if isinstance(problem, MilpProblem) else problem
    viol = feasibility_violation(lp, sol.x)
    if viol > tol * 10:
        raise AssertionError(
            f"solver returned an infeasible point (violation {viol:.3e} > {tol:.1e})"
        )
    if isinstance(problem, MilpProblem):
        for j in problem.integer_columns:
            if abs(sol.x[j] - round(sol.x[j])) > 1e-5:
                raise AssertionError(
                    f"solver returned a fractional value for binary column {j}"
                )


def solve_milp(problem: MilpProblem, rel_gap: float = DEFAULT_REL_GAP) -> Solution:
    """Solve with HiGHS; a returned point has passed ``verify_solution``."""
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
    if res.status == 2:
        return Solution(INFEASIBLE, message=str(res.message))
    if res.status == 3:
        return Solution(UNBOUNDED, message=str(res.message))
    if res.x is None:
        raise SolverError(f"HiGHS failed: {res.message}")
    x = np.asarray(res.x, dtype=float)
    if res.status == 0:
        sol = Solution(OPTIMAL, objective=float(lp.c @ x), x=x, gap=gap, n_nodes=nodes)
    else:  # a limit stopped the search at an incumbent
        sol = Solution(
            INCUMBENT_WITH_GAP,
            objective=float(lp.c @ x),
            x=x,
            gap=gap if gap is not None else INF,
            n_nodes=nodes,
            message=str(res.message),
        )
    verify_solution(problem, sol, DEFAULT_FEAS_TOL)
    return sol


class ProblemBuilder:
    """Incremental construction of a LinearProgram / MilpProblem."""

    def __init__(self, maximize: bool = True):
        self.maximize = maximize
        self._obj: list[float] = []
        self._col_lower: list[float] = []
        self._col_upper: list[float] = []
        self._integer: set[int] = set()
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []
        self._row_lower: list[float] = []
        self._row_upper: list[float] = []

    @property
    def n_cols(self) -> int:
        return len(self._obj)

    @property
    def n_rows(self) -> int:
        return len(self._row_lower)

    def add_column(
        self,
        lower: float = 0.0,
        upper: float = INF,
        obj: float = 0.0,
        integer: bool = False,
    ) -> int:
        j = len(self._obj)
        self._obj.append(obj)
        self._col_lower.append(lower)
        self._col_upper.append(upper)
        if integer:
            self._integer.add(j)
        return j

    def add_row(self, coeffs: dict[int, float], lower: float = -INF, upper: float = INF) -> int:
        i = len(self._row_lower)
        for j, v in coeffs.items():
            if v != 0.0:
                self._rows.append(i)
                self._cols.append(j)
                self._vals.append(v)
        self._row_lower.append(lower)
        self._row_upper.append(upper)
        return i

    def build_lp(self) -> LinearProgram:
        lp = self._assemble()
        lp.validate()
        return lp

    def build_milp(self) -> MilpProblem:
        """The MILP, validated once: ``MilpProblem.validate`` checks its LP too."""
        p = MilpProblem(lp=self._assemble(), integer_columns=frozenset(self._integer))
        p.validate()
        return p

    def _assemble(self) -> LinearProgram:
        return LinearProgram(
            maximize=self.maximize,
            c=np.asarray(self._obj, dtype=float),
            a_rows=np.asarray(self._rows, dtype=np.int64),
            a_cols=np.asarray(self._cols, dtype=np.int64),
            a_vals=np.asarray(self._vals, dtype=float),
            n_rows=self.n_rows,
            row_lower=np.asarray(self._row_lower, dtype=float),
            row_upper=np.asarray(self._row_upper, dtype=float),
            col_lower=np.asarray(self._col_lower, dtype=float),
            col_upper=np.asarray(self._col_upper, dtype=float),
        )
