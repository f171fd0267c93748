"""Reference LP solver: two-phase revised simplex with bounded variables.

The package solves every LP and MILP with HiGHS. This simplex and the
branch-and-bound over it (``bnb_reference``) are the tests' reference
kernel, independent of HiGHS: the brute-force oracle solves its LPs here,
and HiGHS is cross-checked against the branch-and-bound.

Rows ``lo <= a.x <= hi`` become equalities ``a.x - s = 0`` with a bounded
slack ``s``; phase 1 drives artificial residual columns to zero. Entering
selection is Dantzig with a lowest-index tie-break, falling back to
Bland's rule when the objective stalls, so results are deterministic.
Sized for the small problems this package produces, not for generic LPs.
"""

from __future__ import annotations

import numpy as np

from gridrestore.errors import SolverError
from gridrestore.milp import (
    INF,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    Solution,
    verify_solution,
)

_PIVOT_TOL = 1e-9
_STALL_LIMIT = 500
_REFACTOR_EVERY = 200

AT_LOWER = 0
AT_UPPER = 1
FREE_NB = 2
BASIC = 3


def solve_lp_builtin(lp: LinearProgram, tol: float = 1e-7) -> Solution:
    lp.validate()
    n, m = lp.n_cols, lp.n_rows
    if m == 0:
        return _solve_bounds_only(lp, tol)

    c_full = lp.c.astype(float).copy()
    if lp.maximize:
        c_full = -c_full

    work = _Workspace(lp, c_full, tol)
    status = work.run()
    if status == INFEASIBLE:
        return Solution(status=INFEASIBLE, message="phase 1 residual not driven to zero")
    if status == UNBOUNDED:
        return Solution(status=UNBOUNDED, message="improving ray with no blocking bound")
    x = work.x[:n].copy()
    obj = float(lp.c @ x)
    return Solution(status=OPTIMAL, objective=obj, x=x, gap=0.0)


def solve_lp(lp: LinearProgram, tol: float = 1e-7) -> Solution:
    """``solve_lp_builtin``, re-verified against the raw constraint matrix."""
    sol = solve_lp_builtin(lp, tol=tol)
    verify_solution(lp, sol, tol)
    return sol


def _solve_bounds_only(lp: LinearProgram, tol: float) -> Solution:
    sense = -1.0 if lp.maximize else 1.0
    improving_inf = ((sense * lp.c < -tol) & ~np.isfinite(lp.col_upper)) | (
        (sense * lp.c > tol) & ~np.isfinite(lp.col_lower)
    )
    if np.any(improving_inf):
        return Solution(status=UNBOUNDED, message="unbounded column with no constraints")
    x = np.where(sense * lp.c >= 0, lp.col_lower, lp.col_upper)
    fallback = np.where(np.isfinite(lp.col_lower), lp.col_lower, 0.0)
    x = np.where(np.isfinite(x), x, fallback)
    return Solution(status=OPTIMAL, objective=float(lp.c @ x), x=x, gap=0.0)


class _Workspace:
    """Equality system [A, -I, D_art] x = 0 over bounded variables."""

    def __init__(self, lp: LinearProgram, c_min: np.ndarray, tol: float):
        n, m = lp.n_cols, lp.n_rows
        self.n, self.m = n, m
        self.tol = tol
        self.A = lp.matrix().tocsc()
        self.At = self.A.T.tocsr()

        self.lb = np.concatenate([lp.col_lower, lp.row_lower])
        self.ub = np.concatenate([lp.col_upper, lp.row_upper])

        x0 = np.where(np.isfinite(lp.col_lower), lp.col_lower, 0.0)
        x0 = np.where(
            np.isfinite(lp.col_upper) & ~np.isfinite(lp.col_lower), lp.col_upper, x0
        )
        ax = self.A @ x0
        slack = np.clip(ax, lp.row_lower, lp.row_upper)
        resid = ax - slack

        self.state = np.empty(n + m, dtype=np.int8)
        finite_lo = np.isfinite(lp.col_lower)
        finite_hi = np.isfinite(lp.col_upper)
        self.state[:n] = np.where(finite_lo, AT_LOWER, np.where(finite_hi, AT_UPPER, FREE_NB))
        self.x = np.concatenate([x0, slack])

        self.basis = np.empty(m, dtype=np.int64)
        self.art_row: dict[int, int] = {}
        self.art_sign: dict[int, float] = {}
        art_vals = []
        for i in range(m):
            if abs(resid[i]) > tol:
                j = n + m + len(art_vals)
                self.art_row[j] = i
                self.art_sign[j] = -float(np.sign(resid[i]))
                art_vals.append(abs(resid[i]))
                self.basis[i] = j
                # slack was clamped at whichever row bound it violated
                self.state[n + i] = AT_UPPER if resid[i] > 0 else AT_LOWER
            else:
                self.basis[i] = n + i
        self.n_art = len(art_vals)
        if self.n_art:
            self.lb = np.concatenate([self.lb, np.zeros(self.n_art)])
            self.ub = np.concatenate([self.ub, np.full(self.n_art, INF)])
            self.x = np.concatenate([self.x, np.asarray(art_vals)])
            self.state = np.concatenate(
                [self.state, np.full(self.n_art, BASIC, dtype=np.int8)]
            )
        for i in range(m):
            self.state[self.basis[i]] = BASIC

        self.c1 = np.zeros(n + m + self.n_art)
        self.c1[n + m :] = 1.0
        self.c2 = np.concatenate([c_min, np.zeros(m + self.n_art)])

        self.binv = None
        self._refactor()

    def column(self, j: int) -> np.ndarray:
        n, m = self.n, self.m
        col = np.zeros(m)
        if j < n:
            sl = self.A[:, [j]].tocoo()
            col[sl.row] = sl.data
        elif j < n + m:
            col[j - n] = -1.0
        else:
            col[self.art_row[j]] = self.art_sign[j]
        return col

    def _refactor(self):
        m = self.m
        B = np.empty((m, m))
        for k, j in enumerate(self.basis):
            B[:, k] = self.column(int(j))
        try:
            self.binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular basis during refactorization: {exc}") from exc

    def run(self) -> str:
        if self.n_art:
            status = self._iterate(self.c1)
            if status != OPTIMAL:
                return status
            infeas = float(sum(self.x[j] for j in self.art_row))
            if infeas > self.tol * max(1.0, self.m):
                return INFEASIBLE
            for j in self.art_row:  # artificials never come back
                self.ub[j] = 0.0
                self.x[j] = 0.0 if self.state[j] != BASIC else self.x[j]
        return self._iterate(self.c2)

    def _iterate(self, cost: np.ndarray) -> str:
        max_iter = 200 * (self.n + self.m) + 2000
        stall = 0
        bland = False
        last_obj = INF
        pivots = 0
        for _ in range(max_iter):
            y = self.binv.T @ cost[self.basis]
            enter, direction = self._price(cost, y, bland)
            if enter < 0:
                return OPTIMAL
            w = self.binv @ self.column(enter)
            step, leave_pos, flip = self._ratio(enter, direction, w, bland)
            if step is None:
                return UNBOUNDED
            self._apply(enter, direction, w, step, leave_pos, flip)
            pivots += 1
            if pivots % _REFACTOR_EVERY == 0:
                self._refactor()
            nb = self.state != BASIC
            obj = float(cost[self.basis] @ self.x[self.basis]) + float(
                cost[nb] @ self.x[nb]
            )
            if obj < last_obj - 1e-12:
                stall = 0
                last_obj = obj
            else:
                stall += 1
                if stall == _STALL_LIMIT:
                    bland = True
                    self._refactor()
        raise SolverError("simplex iteration limit reached (possible numerical failure)")

    def _reduced_costs(self, cost: np.ndarray, y: np.ndarray) -> np.ndarray:
        d = cost.copy()
        d[: self.n] -= self.At @ y
        d[self.n : self.n + self.m] += y
        for j, r in self.art_row.items():
            d[j] -= self.art_sign[j] * y[r]
        return d

    def _price(self, cost: np.ndarray, y: np.ndarray, bland: bool):
        d = self._reduced_costs(cost, y)
        st = self.state
        movable = (self.ub - self.lb > _PIVOT_TOL) | (st == FREE_NB)
        eligible = movable & (
            ((st == AT_LOWER) & (d < -self.tol))
            | ((st == AT_UPPER) & (d > self.tol))
            | ((st == FREE_NB) & (np.abs(d) > self.tol))
        )
        idx = np.nonzero(eligible)[0]
        if idx.size == 0:
            return -1, 0
        if bland:
            j = int(idx[0])
        else:
            j = int(idx[int(np.argmax(np.abs(d[idx])))])
        direction = 1 if (st[j] == AT_LOWER or (st[j] == FREE_NB and d[j] < 0)) else -1
        return j, direction

    def _ratio(self, enter: int, direction: int, w: np.ndarray, bland: bool):
        # entering moves by t >= 0; basic values move by -w * direction * t
        best_t = INF
        leave_pos = -1
        best_piv = 0.0
        for pos in range(self.m):
            delta = -w[pos] * direction
            j = int(self.basis[pos])
            if delta > _PIVOT_TOL:
                lim = self.ub[j]
                if lim == INF:
                    continue
                t = (lim - self.x[j]) / delta
            elif delta < -_PIVOT_TOL:
                lim = self.lb[j]
                if lim == -INF:
                    continue
                t = (lim - self.x[j]) / delta
            else:
                continue
            t = max(t, 0.0)
            piv = abs(w[pos])
            if t < best_t - 1e-12:
                best_t, leave_pos, best_piv = t, pos, piv
            elif t <= best_t + 1e-12 and leave_pos >= 0:
                if bland:
                    if j < self.basis[leave_pos]:
                        leave_pos, best_piv = pos, piv
                elif piv > best_piv:
                    leave_pos, best_piv = pos, piv
        rng = self.ub[enter] - self.lb[enter]
        flip = False
        if rng < best_t:
            best_t, flip, leave_pos = rng, True, -1
        if best_t == INF:
            return None, -1, False
        return best_t, leave_pos, flip

    def _apply(self, enter, direction, w, step, leave_pos, flip):
        if step > 0.0:
            self.x[self.basis] -= w * direction * step
        self.x[enter] += direction * step
        if flip:
            self.state[enter] = AT_UPPER if direction > 0 else AT_LOWER
            return
        leave = int(self.basis[leave_pos])
        delta = -w[leave_pos] * direction
        self.state[leave] = AT_UPPER if delta > 0 else AT_LOWER
        self.x[leave] = self.ub[leave] if delta > 0 else self.lb[leave]
        if leave in self.art_row:
            self.ub[leave] = 0.0
            self.x[leave] = 0.0
            self.state[leave] = AT_LOWER
        self.basis[leave_pos] = enter
        self.state[enter] = BASIC
        piv = w[leave_pos]
        if abs(piv) < _PIVOT_TOL:
            self._refactor()
            return
        # product-form update: row `leave_pos` scales by 1/piv, others eliminate
        row = self.binv[leave_pos, :] / piv
        self.binv -= np.outer(w, row)
        self.binv[leave_pos, :] = row
