import numpy as np
import pytest

from gridrestore.milp import (
    INCUMBENT_WITH_GAP,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    MilpProblem,
    ProblemBuilder,
    Solution,
    feasibility_violation,
    solve_milp,
    verify_solution,
)

from bnb_reference import solve_milp_builtin
from simplex_reference import solve_lp, solve_lp_builtin


def highs_lp(lp):
    """HiGHS on a pure LP: the MILP path with no integer columns, which is
    what an undamaged feeder sends it."""
    return solve_milp(MilpProblem(lp))


# The builtin simplex and branch-and-bound are the independent reference
# that the production HiGHS path is checked against.
LP_SOLVERS = pytest.mark.parametrize(
    "solve", (solve_lp, highs_lp), ids=("builtin", "highs")
)
MILP_SOLVERS = pytest.mark.parametrize(
    "solve", (solve_milp_builtin, solve_milp), ids=("builtin", "highs")
)


def single_var_lp(upper_row=3.0):
    b = ProblemBuilder(maximize=True)
    j = b.add_column(0.0, 10.0, obj=1.0)
    b.add_row({j: 1.0}, upper=upper_row)
    return b.build_lp()


@LP_SOLVERS
def test_lp_simple_max(solve):
    sol = solve(single_var_lp())
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


@LP_SOLVERS
def test_lp_infeasible(solve):
    sol = solve(single_var_lp(upper_row=-1.0))
    assert sol.status == INFEASIBLE


@LP_SOLVERS
def test_lp_unbounded(solve):
    b = ProblemBuilder(maximize=True)
    j = b.add_column(0.0, np.inf, obj=1.0)
    k = b.add_column(0.0, 1.0, obj=0.0)
    b.add_row({k: 1.0}, upper=1.0)
    sol = solve(b.build_lp())
    assert sol.status == UNBOUNDED


def test_lp_bounds_only():
    b = ProblemBuilder(maximize=False)
    b.add_column(-2.0, 5.0, obj=1.0)
    b.add_column(-1.0, 4.0, obj=-2.0)
    sol = solve_lp_builtin(b.build_lp())
    assert sol.objective == pytest.approx(-2.0 - 8.0)


def dc_chain_lp():
    """Single-period DC shed LP on the 1-2-3 chain, both lines in service.

    Flows are fixed by the tree: line 1 carries 3 MW, line 2 carries 2 MW,
    so with ample limits everything is served (value 3.0).
    """
    b = ProblemBuilder(maximize=True)
    th = [b.add_column(-np.inf, np.inf) for _ in range(3)]
    b._col_lower[th[0]] = b._col_upper[th[0]] = 0.0
    x1 = b.add_column(0, 1, obj=1.0)
    x2 = b.add_column(0, 1, obj=2.0)
    pg = b.add_column(-10, 10)
    susceptance = -50.0
    p1 = b.add_column(-8, 8)
    p2 = b.add_column(-8, 8)
    b.add_row({p1: 1.0, th[0]: susceptance, th[1]: -susceptance}, lower=0, upper=0)
    b.add_row({p2: 1.0, th[1]: susceptance, th[2]: -susceptance}, lower=0, upper=0)
    b.add_row({pg: 1.0, p1: -1.0}, lower=0, upper=0)
    b.add_row({p1: 1.0, p2: -1.0, x1: -1.0}, lower=0, upper=0)
    b.add_row({p2: 1.0, x2: -2.0}, lower=0, upper=0)
    return b.build_lp(), p1, p2


@LP_SOLVERS
def test_lp_dc_chain_hand_solution(solve):
    lp, p1, p2 = dc_chain_lp()
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-8)
    assert sol.x[p1] == pytest.approx(3.0, abs=1e-8)
    assert sol.x[p2] == pytest.approx(2.0, abs=1e-8)


def knapsack():
    b = ProblemBuilder(maximize=True)
    a = b.add_column(0, 1, obj=2.0, integer=True)
    c = b.add_column(0, 1, obj=3.0, integer=True)
    b.add_row({a: 1.0, c: 1.0}, upper=1.0)
    return b.build_milp(), a, c


@MILP_SOLVERS
def test_milp_knapsack(solve):
    p, a, c = knapsack()
    sol = solve(p)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(3.0)
    assert round(sol.x[a]) == 0 and round(sol.x[c]) == 1


def test_milp_integral_root_needs_one_node():
    b = ProblemBuilder(maximize=True)
    z = b.add_column(0, 1, obj=1.0, integer=True)
    b.add_row({z: 1.0}, upper=1.0)
    sol = solve_milp_builtin(b.build_milp())
    assert sol.status == OPTIMAL
    assert sol.n_nodes == 1
    assert sol.gap == 0.0


@MILP_SOLVERS
def test_milp_infeasible(solve):
    b = ProblemBuilder(maximize=True)
    z = b.add_column(0, 1, obj=1.0, integer=True)
    b.add_row({z: 1.0}, lower=2.0)
    sol = solve(b.build_milp())
    assert sol.status == INFEASIBLE


def test_milp_node_budget_contract():
    from gridrestore.errors import SolverError

    rng = np.random.RandomState(5)
    b = ProblemBuilder(maximize=True)
    cols = [b.add_column(0, 1, obj=float(rng.rand() + 0.5), integer=True)
            for j in range(14)]
    w = rng.rand(14) + 0.5
    b.add_row({c: float(wi) for c, wi in zip(cols, w)}, upper=float(w.sum() / 2))
    problem = b.build_milp()
    full = solve_milp_builtin(problem)
    assert full.status == OPTIMAL

    seen = {}
    for budget in (1, 2, 4, 8, 16, 64, 4096):
        try:
            sol = solve_milp_builtin(problem, node_budget=budget)
            seen[budget] = sol.status
            if sol.status == INCUMBENT_WITH_GAP:
                assert sol.gap > 0
                assert sol.objective <= full.objective + 1e-9
            if sol.status == OPTIMAL:
                assert sol.objective == pytest.approx(full.objective, abs=1e-8)
        except SolverError:
            seen[budget] = "exhausted_no_incumbent"
    # tight budgets must not silently claim optimality
    assert seen[4096] == OPTIMAL
    assert any(s != OPTIMAL for b_, s in seen.items() if b_ <= 4)


def test_determinism_identical_runs():
    p, _, _ = knapsack()
    for solve in (solve_milp_builtin, solve_milp):
        s1 = solve(p)
        s2 = solve(p)
        assert s1.objective == s2.objective
        assert np.array_equal(s1.x, s2.x)


def test_relaxation_sandwich_random():
    rng = np.random.RandomState(23)
    for _ in range(25):
        n = rng.randint(2, 7)
        b = ProblemBuilder(maximize=True)
        cols = [
            b.add_column(0, 1, obj=float(rng.randn()), integer=True)
            for j in range(n)
        ]
        for _ in range(rng.randint(1, 4)):
            picks = rng.choice(n, size=rng.randint(1, n + 1), replace=False)
            b.add_row(
                {cols[int(j)]: float(rng.rand()) for j in picks},
                upper=float(rng.rand() * n / 2),
            )
        problem = b.build_milp()
        relaxed = solve_lp(problem.lp)
        integer = solve_milp_builtin(problem)
        if integer.status == OPTIMAL and relaxed.status == OPTIMAL:
            assert relaxed.objective >= integer.objective - 1e-8


def random_milps(seed=42, count=40):
    rng = np.random.RandomState(seed)
    for _ in range(count):
        n = rng.randint(2, 6)
        b = ProblemBuilder(maximize=bool(rng.randint(2)))
        cols = []
        for j in range(n):
            if rng.rand() < 0.6:
                cols.append(b.add_column(0, 1, obj=float(rng.randn()), integer=True))
            else:
                cols.append(b.add_column(0.0, 3.0, obj=float(rng.randn())))
        for _ in range(rng.randint(1, 5)):
            picks = rng.choice(n, size=rng.randint(1, n + 1), replace=False)
            coeffs = {cols[int(j)]: float(rng.randn()) for j in picks}
            if rng.rand() < 0.5:
                b.add_row(coeffs, upper=float(rng.randn()))
            else:
                b.add_row(coeffs, lower=float(rng.randn()))
        yield b.build_milp()


def sparse_violation(lp, x):
    """``feasibility_violation`` through the scipy sparse product A x."""
    ax = lp.matrix() @ x
    return max(
        0.0,
        float(np.max(np.maximum(lp.col_lower - x, 0.0), initial=0.0)),
        float(np.max(np.maximum(x - lp.col_upper, 0.0), initial=0.0)),
        float(np.max(np.maximum(lp.row_lower - ax, 0.0), initial=0.0)),
        float(np.max(np.maximum(ax - lp.row_upper, 0.0), initial=0.0)),
    )


def test_triplet_violation_equals_sparse_product():
    rng = np.random.RandomState(6)
    lps = [problem.lp for problem in random_milps()]
    # row 1 holds column 0 three times and column 2 twice: duplicates add
    lps.append(LinearProgram(
        maximize=True, c=np.zeros(3),
        a_rows=np.array([1, 0, 1, 1, 2, 1, 1]),
        a_cols=np.array([0, 1, 2, 0, 2, 0, 2]),
        a_vals=np.array([0.5, 1.0, -2.0, 1.25, 3.0, -0.75, 0.5]),
        n_rows=3, row_lower=np.array([-1.0, 0.0, -np.inf]),
        row_upper=np.array([1.0, 0.5, 8.0]),
        col_lower=np.zeros(3), col_upper=np.full(3, 4.0),
    ))
    for lp in lps:
        for _ in range(5):
            x = rng.uniform(-1.0, 5.0, size=lp.n_cols)
            assert feasibility_violation(lp, x) == pytest.approx(
                sparse_violation(lp, x), rel=1e-12, abs=1e-12
            )
    lp, x = lps[-1], np.array([1.0, 0.25, 2.0])
    # row 1: (0.5 + 1.25 - 0.75) * 1 + (-2 + 0.5) * 2 = -2, two below its lower bound
    assert feasibility_violation(lp, x) == sparse_violation(lp, x) == 2.0


def test_backends_agree_on_random_milps():
    for problem in random_milps():
        s1 = solve_milp_builtin(problem)
        s2 = solve_milp(problem)
        assert s1.status == s2.status
        if s1.status == OPTIMAL:
            assert s1.objective == pytest.approx(s2.objective, abs=1e-6)


def test_bound_monotone_incumbent_nondecreasing():
    rng = np.random.RandomState(17)
    b = ProblemBuilder(maximize=True)
    cols = [
        b.add_column(0, 1, obj=float(rng.rand() + 0.2), integer=True)
        for j in range(10)
    ]
    w = rng.rand(10) + 0.3
    b.add_row({c: float(wi) for c, wi in zip(cols, w)}, upper=float(w.sum() * 0.4))
    trace: list = []
    sol = solve_milp_builtin(b.build_milp(), trace=trace)
    assert sol.status == OPTIMAL
    bounds = [t[0] for t in trace]
    incumbents = [t[1] for t in trace]
    assert all(b1 >= b2 - 1e-9 for b1, b2 in zip(bounds, bounds[1:]))
    assert all(i1 <= i2 + 1e-9 for i1, i2 in zip(incumbents, incumbents[1:]))


def test_verify_solution_rejects_bad_point():
    lp = single_var_lp()
    fake = Solution(status=OPTIMAL, objective=99.0, x=np.array([9.0]))
    with pytest.raises(AssertionError):
        verify_solution(lp, fake, tol=1e-7)
    assert feasibility_violation(lp, np.array([9.0])) == pytest.approx(6.0)
