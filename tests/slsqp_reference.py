"""SLSQP reference solver for the replay's island AC OPF.

The replay solves each island with a sparse primal-dual interior-point
method. This module keeps the dense solver it replaced, on the same
model (``_IslandNlp``'s variables, bounds, objective and rows): SLSQP
from the flat start, polished once more with SLSQP only when the
residuals stay above tolerance. The tests hold the interior-point
optimum against it, so the two share the model but no solver code:
the constraint functions hand ``nlp.flows`` to ``balance`` and
``thermal``, and the dense Jacobians read the model's stacked flow
partials (``LineBlock.partials``).
"""

from __future__ import annotations

import numpy as np
import scipy.optimize as sopt


def balance_jac(nlp, u: np.ndarray) -> np.ndarray:
    """Dense Jacobian of ``nlp.balance``."""
    J = np.zeros((2 * nlp.nb, nlp.n_var))
    n = len(nlp.linear_cols)
    J[nlp.balance_rows[:n], nlp.linear_cols] = nlp.linear_coef
    # each flow's partials, with a minus sign, at its balance row
    df = nlp.block.partials(nlp.terms(u))
    for rows, partials in zip(nlp.balance_rows[n:].reshape(4, nlp.nl), df):
        for cols, d in zip(nlp.line_vars.T, partials.T):
            np.subtract.at(J, (rows, cols), d)
    return J


def thermal_jac(nlp, u: np.ndarray) -> np.ndarray:
    """Dense Jacobian of ``nlp.thermal``: d(p^2 + q^2) = 2 p dp + 2 q dq."""
    terms = nlp.terms(u)
    f, df = nlp.block.flows(terms), nlp.block.partials(terms)
    nl = nlp.nl
    J = np.zeros((2 * nl, nlp.n_var))
    rows_fr = np.arange(nl)
    # the from end's rows read pfr and qfr, the to end's pto and qto
    for rows, p, q in ((rows_fr, 0, 2), (nl + rows_fr, 1, 3)):
        for k, cols in enumerate(nlp.line_vars.T):
            np.add.at(J, (rows, cols), 2 * f[p] * df[p, :, k] + 2 * f[q] * df[q, :, k])
    return J


def slsqp_constraints(nlp) -> list[dict]:
    """Balance, thermal, soft voltage floor, then angle differences."""
    cons = [
        {
            "type": "eq",
            "fun": lambda z: nlp.balance(z, nlp.flows(z)),
            "jac": lambda z: balance_jac(nlp, z),
        }
    ]
    if nlp.nl:
        cons.append(
            {
                "type": "ineq",
                "fun": lambda z: -nlp.thermal(nlp.flows(z)),
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
