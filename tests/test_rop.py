import hashlib
from dataclasses import replace

import numpy as np
import pytest

from gridrestore import datasets, rop
from gridrestore.errors import CaseValidationError, InfeasibleError, SolverError
from gridrestore.milp import UNBOUNDED, LinearProgram, Solution, solve_milp
from gridrestore.model import Bus, Demand, Generator, Network, TimeGrid, time_grid_for
from gridrestore.rop import (
    RestorationPlan,
    _extract_plan,
    build_rop,
    check_plan,
    rop_ens_mwh,
    solve_rop,
)
from gridrestore.scenarios import DerMode, DerPlacement, apply_der_mode

from bnb_reference import solve_milp_builtin
from helpers import (
    PF_Q,
    chain3,
    permutation_oracle,
    random_der_feeder,
    random_radial,
    simple_line,
    substation,
)

NO_DER = DerPlacement("none", ())


def as_case(network, mode=DerMode.BASE, placement=NO_DER):
    return apply_der_mode(network, placement, mode)


def test_build_rop_bundled_dimensions(storm_network, storm_grid):
    case = as_case(storm_network)
    inst = build_rop(case, storm_grid)
    T = storm_grid.n_periods
    assert T == 19
    assert len(inst.problem.integer_columns) == 18 * 19
    n_continuous = T * (52 + 1 + 55)  # x, substation, flows
    assert inst.problem.lp.n_cols == n_continuous + 18 * 19 == 2394
    assert len(inst.x_col) == 52 * T
    assert all((key, t) in inst.z_col for key in inst.damage.component_keys() for t in range(T))
    # the column maps name every column exactly once
    assert sorted(_column_names(inst)) == list(range(inst.problem.lp.n_cols))


def milp_fingerprint(problem) -> str:
    """sha256 of a MILP's objective, triplets, row and column bounds and integer columns."""
    lp = problem.lp
    h = hashlib.sha256()
    for a in (lp.c, lp.a_vals, lp.row_lower, lp.row_upper, lp.col_lower, lp.col_upper):
        h.update(np.asarray(a, dtype=np.float64).tobytes())
    for a in (lp.a_rows, lp.a_cols, sorted(problem.integer_columns)):
        h.update(np.asarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


# The bundled MILPs' fingerprints, per (placement, mode). The matrix layout
# picks the dispatch LP's vertex among equal optima, and with it the fig 5
# DER/non-DER split, so a layout change must be deliberate.
BUNDLED_MILP = {
    ("uniform", DerMode.BASE): "39e31342a264d32217b6e8658f3b2f40310cf19102950799354111323b9c1da4",
    ("uniform", DerMode.HOME_MICROGRID): "4ecaec705dba0d1ba2214c41179293d9f45b27f89dd4875a3c1fc92fb39b460a",
    ("uniform", DerMode.COMMUNITY_MICROGRID): "bf75af0ee2f08dd1c4a5f5a2035e668626d8cfd8a794c4bce63258b4443039d6",
    ("clustered", DerMode.BASE): "39e31342a264d32217b6e8658f3b2f40310cf19102950799354111323b9c1da4",
    ("clustered", DerMode.HOME_MICROGRID): "1ecab4be52b37a0a02ec57005574bdf92141ce75255116f297e62d2e0838be78",
    ("clustered", DerMode.COMMUNITY_MICROGRID): "999fa9eb416bc1f5e0af14a2703562158a7d27ec22113a7fb2123ee3176b127c",
}


@pytest.mark.parametrize(
    "placement, mode", list(BUNDLED_MILP), ids=lambda v: getattr(v, "value", v)
)
def test_bundled_milp_is_pinned(storm_network, storm_grid, placement, mode):
    case = apply_der_mode(storm_network, datasets.bundled_placement(placement), mode)
    assert milp_fingerprint(build_rop(case, storm_grid).problem) == BUNDLED_MILP[(placement, mode)]


def _column_names(inst):
    """Column index -> name, in the notation of ``hand_rop_matrix_rows``."""
    names = {}
    for (d, t), j in inst.x_col.items():
        names[j] = f"x[d{d},t{t}]"
    for (g, t), j in inst.pg_col.items():
        names[j] = f"pg[g{g},t{t}]"
    for (l, t), j in inst.pl_col.items():
        names[j] = f"pl[l{l},t{t}]"
    for (key, t), j in inst.z_col.items():
        names[j] = f"z[{key},t{t}]"
    return names


def hand_rop_matrix_rows():
    """Expected constraint rows for the 3-bus chain, both lines damaged, T=3.

    Row encoding: ((name, coeff, name, coeff, ...), lower, upper). Variable
    names are those of ``_column_names``; both lines have thermal limit 8.
    """
    INF = np.inf
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
        for line in (1, 2):
            zc = f"z[line:{line},t{t}]"
            rows.append(((f"pl[l{line},t{t}]", 1.0, zc, -8.0), -INF, 0.0))
            rows.append(((f"pl[l{line},t{t}]", 1.0, zc, 8.0), 0.0, INF))
        # one new energization per period, none at t0
        now = (f"z[line:1,t{t}]", 1.0, f"z[line:2,t{t}]", 1.0)
        before = (f"z[line:1,t{t-1}]", -1.0, f"z[line:2,t{t-1}]", -1.0) if t else ()
        rows.append((now + before, -INF, float(t > 0)))
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
        assert solved.energization == {"line:1": 1, "line:2": 2}
        assert check_plan(solved, inst) == []
    assert permutation_oracle(net) == pytest.approx(4.0, abs=1e-9)
    assert rop_ens_mwh(plan, inst) == pytest.approx(5.0, abs=1e-7)


def test_no_damage_serves_everything():
    # a 0.7 MW unit at bus 3 covers part of its 2 MW load; the line brings the rest
    net = chain3(damage=())
    net = replace(net, generators=net.generators + (
        Generator(2, 3, 0.0, 0.7, -0.3, 0.3, kind="customer_der"),
    ))
    inst = build_rop(as_case(net), TimeGrid(1))
    plan = solve_rop(inst)
    assert plan.schedule == ((),)
    assert len(inst.problem.integer_columns) == 0
    assert np.all(plan.served_fraction == 1.0)
    assert rop_ens_mwh(plan, inst) == 0.0


def test_infeasible_horizon_rejected():
    net = chain3(damage=(1, 2))
    with pytest.raises(InfeasibleError):
        build_rop(as_case(net), TimeGrid(2))


def test_check_plan_rejects_two_repairs_in_one_period():
    inst = build_rop(as_case(chain3(damage=(1, 2))), TimeGrid(3))
    plan = RestorationPlan(
        schedule=((), (), ("line:1", "line:2")),
        energization={"line:1": 2, "line:2": 2},
        objective_mwh=3.0,
    )
    assert check_plan(plan, inst) == [
        "period 2: energizes 2 components, at most one allowed"
    ]
    early = RestorationPlan(
        schedule=(("line:1",), ("line:2",), ()),
        energization={"line:1": 0, "line:2": 1},
        objective_mwh=9.0,
    )
    assert check_plan(early, inst) == ["period 0: energizes a component"]
    partial = RestorationPlan(
        schedule=((), ("line:1",), ()),
        energization={"line:1": 1},
        objective_mwh=6.0,
    )
    assert check_plan(partial, inst) == ["plan does not cover exactly the damaged components"]


def test_build_rop_rejects_meshed_network():
    loop = Network(
        buses=(Bus(1, is_reference=True), Bus(2), Bus(3)),
        lines=(simple_line(1, 1, 2), simple_line(2, 2, 3), simple_line(3, 3, 1)),
        generators=(substation(),),
        demands=(Demand(1, 2, 1.0, PF_Q), Demand(2, 3, 1.0, PF_Q)),
    )
    with pytest.raises(CaseValidationError, match="radiality"):
        build_rop(as_case(loop), TimeGrid(1))


def test_damaged_bus_precedence():
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


def test_attached_rows_follow_damaged_bus_order():
    # {2, 9} iterates 9 first as a Python set; network order is 2, then 9
    n = 10
    net = Network(
        buses=tuple(Bus(i, is_reference=(i == 1), damaged=i in (2, 9)) for i in range(1, n + 1)),
        lines=tuple(simple_line(i, i, i + 1, damaged=i in (1, 2, 8, 9)) for i in range(1, n)),
        generators=(substation(),),
        demands=tuple(
            Demand(i, i, 0.1, 0.1 * PF_Q, damaged=i == 9) for i in range(2, n + 1)
        ),
    )
    inst = build_rop(as_case(net), TimeGrid(9))
    assert inst.damage.buses == (2, 9)
    assert milp_fingerprint(inst.problem) == (
        "16b9c90a14dcf26b1ccf1a8c3919a9873da12fb4ec34779d1abe5fca2960592a"
    )
    key_of = {j: key for (key, _), j in inst.z_col.items()}
    lp = inst.problem.lp
    entries = {}
    for r, c, v in zip(lp.a_rows, lp.a_cols, lp.a_vals):
        entries.setdefault(int(r), []).append((key_of.get(int(c)), float(v)))
    waits = []  # (bus, attached) of each "attached waits for its bus" row
    for r in sorted(entries):
        (a, va), *rest = sorted(entries[r], key=lambda e: -e[1])
        if len(rest) != 1 or None in (a, rest[0][0]) or a == rest[0][0]:
            continue  # not a row between two components' z columns
        assert (va, rest[0][1]) == (1.0, -1.0)
        waits.append((rest[0][0], a))
    buses = [bus for bus, _ in waits]
    assert all(bus.startswith("bus:") for bus in buses)
    assert list(dict.fromkeys(buses)) == ["bus:2", "bus:9"]
    assert sorted(buses) == buses  # each bus's rows are contiguous
    assert set(waits) == {
        ("bus:2", "line:1"), ("bus:2", "line:2"),
        ("bus:9", "line:8"), ("bus:9", "line:9"), ("bus:9", "demand:9"),
    }


def test_unexpected_milp_status_is_a_solver_error(monkeypatch):
    net = chain3(damage=(1, 2))
    net = replace(net, buses=(net.buses[0], replace(net.buses[1], damaged=True), net.buses[2]))
    inst = build_rop(as_case(net), TimeGrid(4))  # a damaged bus: the MILP path
    monkeypatch.setattr(
        rop, "solve_milp", lambda problem, rel_gap: Solution(UNBOUNDED, message="faked")
    )
    with pytest.raises(SolverError, match="faked"):
        solve_rop(inst)


def test_monotone_budget_invariants_random():
    rng = np.random.RandomState(99)
    for _ in range(8):
        net = random_radial(rng)
        inst = build_rop(as_case(net), time_grid_for(net))
        plan = solve_rop(inst)
        assert check_plan(plan, inst) == []
        assert plan.served_fraction.min() >= -1e-9
        assert plan.served_fraction.max() <= 1 + 1e-9
        # one repair in each period after the first
        assert sorted(plan.energization.values()) == list(range(1, inst.time.n_periods))


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


def test_angle_free_milp_matches_angle_oracle():
    """The full HiGHS MILP, no subset DP, against the oracle's angle model."""
    rng = np.random.RandomState(17)
    for _ in range(8):
        net = random_der_feeder(rng, max_damaged=3)
        inst = build_rop(as_case(net), time_grid_for(net))
        sol = solve_milp(inst.problem, rel_gap=1e-9)
        assert sol.status == "optimal"
        milp_mwh = _extract_plan(inst, sol).objective_mwh
        assert milp_mwh == pytest.approx(permutation_oracle(net), rel=1e-6, abs=1e-6)


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


def test_build_rop_validates_its_linear_program_once(monkeypatch):
    calls = []
    check = LinearProgram.validate
    monkeypatch.setattr(LinearProgram, "validate", lambda lp: calls.append(lp) or check(lp))
    case = apply_der_mode(chain3(), DerPlacement("none", ()), DerMode.BASE)
    instance = build_rop(case, time_grid_for(case.network))
    assert calls == [instance.problem.lp]
