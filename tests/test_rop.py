import numpy as np
import pytest

from gridrestore.errors import InfeasibleError
from gridrestore.milp import solve_milp_builtin
from gridrestore.model import Bus, Network, TimeGrid, time_grid_for
from gridrestore.rop import (
    RestorationPlan,
    _extract_plan,
    build_rop,
    check_plan,
    compute_big_m,
    plan_order,
    rop_ens_mwh,
    solve_rop,
)
from gridrestore.scenarios import DerMode, DerPlacement, apply_der_mode

from helpers import chain3, permutation_oracle, random_radial, simple_line, substation

NO_DER = DerPlacement("none", ())


def as_case(network, mode=DerMode.BASE, placement=NO_DER):
    return apply_der_mode(network, placement, mode)


def test_big_m_sum_over_lines():
    buses = tuple(Bus(i, is_reference=(i == 1)) for i in range(1, 56))
    lines = tuple(simple_line(i, i, i + 1) for i in range(1, 55))
    net = Network(buses=buses, lines=lines, generators=(substation(),), demands=())
    case = as_case(net)
    # independent oracle: direct summation over the 54 identical bounds
    expected = sum(max(abs(l.angle_min), l.angle_max) for l in lines)
    assert expected == pytest.approx(54 * 0.52)
    assert compute_big_m(case) == pytest.approx(28.08)


def test_big_m_single_and_empty():
    one = Network(
        buses=(Bus(1, is_reference=True), Bus(2)),
        lines=(simple_line(1, 1, 2),),
        generators=(substation(),),
        demands=(),
    )
    assert compute_big_m(as_case(one)) == pytest.approx(0.52)
    none = Network(
        buses=(Bus(1, is_reference=True),),
        lines=(),
        generators=(substation(),),
        demands=(),
    )
    assert compute_big_m(as_case(none)) == 0.0


def test_build_rop_bundled_dimensions(storm_network, storm_grid):
    case = as_case(storm_network)
    inst = build_rop(case, storm_grid)
    T = storm_grid.n_periods
    assert T == 19
    assert len(inst.problem.integer_columns) == 18 * 19
    n_continuous = T * (52 + 1 + 55 + 56)  # x, substation, flows, angles
    assert inst.problem.lp.n_cols == n_continuous + 18 * 19
    assert len(inst.x_col) == 52 * T
    assert len(inst.theta_col) == 56 * T
    assert all((key, t) in inst.z_col for key in inst.damage.component_keys() for t in range(T))
    # the column maps name every column exactly once
    assert sorted(_column_names(inst)) == list(range(inst.problem.lp.n_cols))


def _column_names(inst):
    """Column index -> name, in the notation of ``hand_rop_matrix_rows``."""
    names = {}
    for (d, t), j in inst.x_col.items():
        names[j] = f"x[d{d},t{t}]"
    for (g, t), j in inst.pg_col.items():
        names[j] = f"pg[g{g},t{t}]"
    for (l, t), j in inst.pl_col.items():
        names[j] = f"pl[l{l},t{t}]"
    for (b, t), j in inst.theta_col.items():
        names[j] = f"th[b{b},t{t}]"
    for (key, t), j in inst.z_col.items():
        names[j] = f"z[{key},t{t}]"
    return names


def hand_rop_matrix_rows():
    """Expected constraint rows for the 3-bus chain, both lines damaged, T=3.

    Row encoding: (sorted (name, coeff) tuple, lower, upper). Variable
    names are those of ``_column_names``. Big-M slack is |b| * M with
    M = 2 * 0.52 and |b| = 50 for the helper toy lines.
    """
    INF = np.inf
    slack = 50.0 * 1.04
    rows = []
    for t in range(3):
        # nodal balance: bus1 gen feeds line 1; flows chain through
        rows.append(((f"pg[g1,t{t}]", 1.0, f"pl[l1,t{t}]", -1.0), 0.0, 0.0))
        rows.append(
            (
                (f"pl[l1,t{t}]", 1.0, f"pl[l2,t{t}]", -1.0, f"x[d1,t{t}]", -1.0),
                0.0,
                0.0,
            )
        )
        rows.append(((f"pl[l2,t{t}]", 1.0, f"x[d2,t{t}]", -2.0), 0.0, 0.0))
        for line, frm, to in ((1, 1, 2), (2, 2, 3)):
            base = (
                (f"pl[l{line},t{t}]", 1.0),
                (f"th[b{frm},t{t}]", -50.0),
                (f"th[b{to},t{t}]", 50.0),
            )
            zc = f"z[line:{line},t{t}]"
            rows.append((_flat(base + ((zc, slack),)), -INF, slack))
            rows.append((_flat(base + ((zc, -slack),)), -slack, INF))
            rows.append(((f"pl[l{line},t{t}]", 1.0, zc, -8.0), -INF, 0.0))
            rows.append(((f"pl[l{line},t{t}]", 1.0, zc, 8.0), 0.0, INF))
        rows.append(((f"z[line:1,t{t}]", 1.0, f"z[line:2,t{t}]", 1.0), -INF, float(t)))
    for line in (1, 2):
        for t in (0, 1):
            rows.append(
                (
                    (f"z[line:{line},t{t}]", 1.0, f"z[line:{line},t{t+1}]", -1.0),
                    -INF,
                    0.0,
                )
            )
    return rows


def _flat(pairs):
    out = []
    for item in pairs:
        out.extend(item)
    return tuple(out)


def _normalize(pairs):
    it = iter(pairs)
    return tuple(sorted(zip(it, it)))


def test_build_rop_matches_hand_written_matrix():
    net = chain3(damage=(1, 2))
    inst = build_rop(as_case(net), TimeGrid(3))
    lp = inst.problem.lp
    names = _column_names(inst)
    A = lp.matrix().tocsr()
    built = set()
    for i in range(lp.n_rows):
        row = A.getrow(i)
        entry = tuple(
            sorted((names[j], float(v)) for j, v in zip(row.indices, row.data))
        )
        built.add((entry, float(lp.row_lower[i]), float(lp.row_upper[i])))
    expected = set()
    for flat, lo, hi in hand_rop_matrix_rows():
        expected.add((_normalize(flat), float(lo), float(hi)))
    assert built == expected
    assert lp.n_rows == len(expected)


def test_chain_plan_matches_hand_enumeration():
    net = chain3(damage=(1, 2))
    inst = build_rop(as_case(net), TimeGrid(3))
    plan = solve_rop(inst)
    reference = _extract_plan(inst, solve_milp_builtin(inst.problem))
    for solved in (plan, reference):
        assert solved.objective_mwh == pytest.approx(4.0, abs=1e-7)
        assert plan_order(solved) == ["line:1", "line:2"]
        assert solved.energization == {"line:1": 1, "line:2": 2}
        assert check_plan(solved, inst) == []
    assert permutation_oracle(net) == pytest.approx(4.0, abs=1e-9)
    assert rop_ens_mwh(plan, inst) == pytest.approx(5.0, abs=1e-7)


def test_no_damage_serves_everything():
    net = chain3(damage=())
    inst = build_rop(as_case(net), TimeGrid(1))
    plan = solve_rop(inst)
    assert plan.schedule == ((),)
    assert len(inst.problem.integer_columns) == 0
    assert rop_ens_mwh(plan, inst) == pytest.approx(0.0, abs=1e-9)


def test_infeasible_horizon_rejected():
    net = chain3(damage=(1, 2))
    with pytest.raises(InfeasibleError):
        build_rop(as_case(net), TimeGrid(2))


def test_plan_order_tiebreak():
    plan = RestorationPlan(
        schedule=((), ("line:5",), ("line:2",)),
        energization={"line:5": 1, "line:2": 2},
        objective_mwh=0.0,
    )
    assert plan_order(plan) == ["line:5", "line:2"]
    tied = RestorationPlan(
        schedule=((), ("line:2", "line:7")),
        energization={"line:7": 1, "line:2": 1},
        objective_mwh=0.0,
    )
    assert plan_order(tied) == ["line:2", "line:7"]


def test_budget_two_per_period():
    net = chain3(damage=(1, 2))
    inst = build_rop(as_case(net), TimeGrid(2), budget_per_period=2)
    plan = solve_rop(inst)
    assert plan.energization == {"line:1": 1, "line:2": 1}
    assert check_plan(plan, inst) == []


def test_decoupling_slack_admits_any_tree_angle():
    """With z = 0 the flow rows must be loose for any achievable spread."""
    net = chain3(damage=(1, 2))
    inst = build_rop(as_case(net), TimeGrid(3))
    lp = inst.problem.lp
    A = lp.matrix().tocsr()
    m_val = inst.big_m_theta
    spread = sum(l.thermal_limit / abs(l.b) for l in net.lines)
    assert spread <= m_val + 1e-12
    point = np.zeros(lp.n_cols)
    point[inst.theta_col[(3, 0)]] = spread  # worst spread, flows zero, z zero
    ax = A @ point
    assert np.all(ax >= lp.row_lower - 1e-9)
    assert np.all(ax <= lp.row_upper + 1e-9)


def test_damaged_bus_precedence():
    from dataclasses import replace

    net = chain3(damage=(1, 2))
    net = replace(
        net,
        buses=(net.buses[0], replace(net.buses[1], damaged=True), net.buses[2]),
    )
    inst = build_rop(as_case(net), TimeGrid(4))
    plan = solve_rop(inst)
    assert check_plan(plan, inst) == []
    # lines touching the damaged bus cannot carry power before the bus is back
    assert plan.energization["line:1"] >= plan.energization["bus:2"]
    assert plan.energization["line:2"] >= plan.energization["bus:2"]
    # line 1 before line 2 still dominates: 1 MW at t2, everything at t3
    assert plan.energization["line:1"] < plan.energization["line:2"]
    assert plan.objective_mwh == pytest.approx(4.0, abs=1e-7)


def test_monotone_budget_invariants_random():
    rng = np.random.RandomState(99)
    for _ in range(8):
        net = random_radial(rng)
        inst = build_rop(as_case(net), time_grid_for(net))
        plan = solve_rop(inst)
        assert check_plan(plan, inst) == []
        assert plan.served_fraction.min() >= -1e-9
        assert plan.served_fraction.max() <= 1 + 1e-9
        counts = [0] * inst.time.n_periods
        for t in plan.energization.values():
            for tt in range(t, inst.time.n_periods):
                counts[tt] += 1
        for t, c in enumerate(counts):
            assert c <= t


def test_oracle_equivalence_sample():
    rng = np.random.RandomState(2024)
    for _ in range(10):
        net = random_radial(rng)
        inst = build_rop(as_case(net), time_grid_for(net))
        plan = solve_rop(inst)
        oracle = permutation_oracle(net)
        assert plan.objective_mwh == pytest.approx(
            oracle, rel=1e-6, abs=1e-6
        ), f"milp {plan.objective_mwh} vs oracle {oracle}"


def test_builtin_backend_solves_small_rop():
    rng = np.random.RandomState(7)
    net = random_radial(rng, n_buses=5, max_damaged=2)
    inst = build_rop(as_case(net), time_grid_for(net))
    reference = solve_milp_builtin(inst.problem)
    assert reference.status == "optimal"
    plan = solve_rop(inst)
    assert _extract_plan(inst, reference).objective_mwh == pytest.approx(
        plan.objective_mwh, rel=1e-6
    )


def test_plan_round_trip(tmp_path):
    net = chain3(damage=(1, 2))
    inst = build_rop(as_case(net), TimeGrid(3))
    plan = solve_rop(inst)
    path = tmp_path / "plan.json"
    plan.save(path)
    loaded = RestorationPlan.load(path)
    assert loaded.schedule == plan.schedule
    assert loaded.energization == plan.energization
    assert loaded.objective_mwh == pytest.approx(plan.objective_mwh)
