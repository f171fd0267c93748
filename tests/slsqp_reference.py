"""SLSQP reference solver for the replay's island AC OPF.

The replay solves each island with a sparse primal-dual interior-point
method. This module keeps the dense solver it replaced, on the same
model (``_IslandNlp``'s variables, bounds, objective and rows): SLSQP
from the flat start, polished once more with SLSQP only when the
residuals stay above tolerance. The tests hold the interior-point
optimum against it, so the two share the model but no solver code.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize as sopt


def balance_jac(nlp, u: np.ndarray) -> np.ndarray:
    """Dense Jacobian of ``nlp.balance``."""
    nb = nlp.nb
    J = np.zeros((2 * nb, nlp.n_var))
    J[nlp.gen_rows, nlp.ipg] = 1.0
    J[nb + nlp.gen_rows, nlp.iqg] = 1.0
    J[nlp.demand_rows, nlp.ix] = -nlp.pd
    J[nb + nlp.demand_rows, nlp.ix] = -nlp.qd
    if nlp.block is not None:
        parts = nlp.block.flow_partials(u[nlp.iv], u[nlp.ith])
        bi, bj = nlp.block.i, nlp.block.j
        for name, row_base, at in (("pfr", 0, bi), ("pto", 0, bj), ("qfr", nb, bi), ("qto", nb, bj)):
            dvi, dvj, dthi, dthj = parts[name]
            rows = row_base + at
            np.subtract.at(J, (rows, nlp.iv[bi]), dvi)
            np.subtract.at(J, (rows, nlp.iv[bj]), dvj)
            np.subtract.at(J, (rows, nlp.ith[bi]), dthi)
            np.subtract.at(J, (rows, nlp.ith[bj]), dthj)
    return J


def thermal_jac(nlp, u: np.ndarray) -> np.ndarray:
    """Dense Jacobian of ``nlp.thermal``."""
    v, th = u[nlp.iv], u[nlp.ith]
    pfr, pto, qfr, qto = nlp.block.flows(v, th)
    parts = nlp.block.flow_partials(v, th)
    nl = nlp.nl
    J = np.zeros((2 * nl, nlp.n_var))
    bi, bj = nlp.block.i, nlp.block.j
    rows_fr = np.arange(nl)
    for rows, p, q, pn, qn in (
        (rows_fr, pfr, qfr, "pfr", "qfr"),
        (nl + rows_fr, pto, qto, "pto", "qto"),
    ):
        dp, dq = parts[pn], parts[qn]
        for off, cols in ((0, nlp.iv[bi]), (1, nlp.iv[bj]), (2, nlp.ith[bi]), (3, nlp.ith[bj])):
            np.add.at(J, (rows, cols), 2 * p * dp[off] + 2 * q * dq[off])
    return J


def slsqp_constraints(nlp) -> list[dict]:
    """Balance, thermal, soft voltage floor, then angle differences."""
    cons = [{"type": "eq", "fun": nlp.balance, "jac": lambda z: balance_jac(nlp, z)}]
    if nlp.nl:
        cons.append(
            {
                "type": "ineq",
                "fun": lambda z: -nlp.thermal(z),
                "jac": lambda z: -thermal_jac(nlp, z),
            }
        )
    # v + v_t >= v_min
    a_soft = np.zeros((nlp.nb, nlp.n_var))
    a_soft[np.arange(nlp.nb), nlp.iv] = 1.0
    a_soft[np.arange(nlp.nb), nlp.ivt] = 1.0
    cons.append({"type": "ineq", "fun": lambda z: a_soft @ z - nlp.v_min, "jac": lambda z: a_soft})
    if nlp.nl:
        # a_min <= th_i - th_j <= a_max
        a_ang = np.zeros((nlp.nl, nlp.n_var))
        a_ang[np.arange(nlp.nl), nlp.ith[nlp.block.i]] = 1.0
        a_ang[np.arange(nlp.nl), nlp.ith[nlp.block.j]] = -1.0
        a_min, a_max = nlp.block.a_min, nlp.block.a_max
        cons.append({"type": "ineq", "fun": lambda z: a_ang @ z - a_min, "jac": lambda z: a_ang})
        cons.append({"type": "ineq", "fun": lambda z: a_max - a_ang @ z, "jac": lambda z: -a_ang})
    return cons


def solve(nlp, tol: float) -> np.ndarray:
    """SLSQP from a flat start; one SLSQP polish if residuals stall."""
    c = nlp.objective_vector()
    lo, hi = nlp.bounds()
    bounds = list(zip(lo, hi))
    constraints = slsqp_constraints(nlp)

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
        return u, nlp.violation(u)

    u, viol = run(nlp.start_point(), 400, 1e-12)
    if viol <= tol:
        return u
    polished, polished_viol = run(u, 800, 1e-14)
    return polished if polished_viol < viol else u
