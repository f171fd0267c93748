"""Acceptance suite: the case-study reproduction criteria.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. The six schedule optimizations and the full 3x3
replay grids are computed once and shared across criteria.
"""

import time

import numpy as np
import pytest

from gridrestore.metrics import energy_not_served, reconnection_times
from gridrestore.model import time_grid_for
from gridrestore.replay import build_rip_step, residuals
from gridrestore.rop import build_rop, check_plan, solve_rop
from gridrestore.scenarios import DerMode, apply_der_mode, home_microgrid_load
from gridrestore.study import ALL_MODES, run_study

import residuals_reference
from gate_reference import assert_period_follows_gates, reconnection_periods
from helpers import by_id, permutation_oracle, random_radial

ENS_TARGETS_MWH = {
    ("uniform", DerMode.BASE): 27.7,
    ("clustered", DerMode.BASE): 27.7,
    ("uniform", DerMode.HOME_MICROGRID): 18.7,
    ("clustered", DerMode.HOME_MICROGRID): 19.2,
    ("uniform", DerMode.COMMUNITY_MICROGRID): 11.5,
    ("clustered", DerMode.COMMUNITY_MICROGRID): 16.4,
}
TOTAL_ENERGY_MWH = 66.31


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def study(storm_network, storm_grid, uniform_placement, clustered_placement):
    return run_study(storm_network, [uniform_placement, clustered_placement], storm_grid)


def test_criterion_1_six_case_ens(study):
    lines = []
    ok = True
    for (pname, mode), target in ENS_TARGETS_MWH.items():
        got = study.rop_ens[(pname, mode)]
        rel = abs(got - target) / target
        ok = ok and rel <= 0.10
        lines.append(f"{pname}/{mode.value}={got:.2f} (target {target}, {rel:+.1%})")
    total = study.instances[("uniform", DerMode.BASE)].total_demand_energy_mwh()
    total_ok = abs(total - TOTAL_ENERGY_MWH) / TOTAL_ENERGY_MWH <= 0.01
    runtime_ok = study.rop_seconds < 1800.0
    _report(
        1,
        ok and total_ok and runtime_ok,
        "; ".join(lines)
        + f"; total energy {total:.2f} MWh; six-ROP batch {study.rop_seconds:.0f}s",
    )


def test_criterion_2_strict_orderings(study):
    e = study.rop_ens
    checks = []
    for pname in ("uniform", "clustered"):
        checks.append(
            e[(pname, DerMode.BASE)]
            > e[(pname, DerMode.HOME_MICROGRID)]
            > e[(pname, DerMode.COMMUNITY_MICROGRID)]
        )
    checks.append(
        e[("uniform", DerMode.COMMUNITY_MICROGRID)]
        < e[("clustered", DerMode.COMMUNITY_MICROGRID)]
    )
    base_fraction = e[("uniform", DerMode.BASE)] / TOTAL_ENERGY_MWH
    checks.append(base_fraction > 0.40)
    _report(
        2,
        all(checks),
        f"base > home > community per placement; uniform < clustered community; "
        f"base fraction {base_fraction:.1%} > 40%",
    )


def test_criterion_3_rop_rip_agreement(study):
    details = []
    ok = True
    for pname in ("uniform", "clustered"):
        for mode in (DerMode.BASE, DerMode.HOME_MICROGRID):
            rop = study.rop_ens[(pname, mode)]
            rip = study.replays[(pname, mode, mode)].ens_mwh
            rel = abs(rip - rop) / rop
            ok = ok and rel <= 1e-4
            details.append(f"{pname}/{mode.value}: |Δ|={rel:.1e}")
        rop_c = study.rop_ens[(pname, DerMode.COMMUNITY_MICROGRID)]
        rip_c = study.replays[
            (pname, DerMode.COMMUNITY_MICROGRID, DerMode.COMMUNITY_MICROGRID)
        ].ens_mwh
        ok = ok and rip_c > rop_c
        details.append(f"{pname}/community: +{rip_c - rop_c:.4f} MWh shed in AC")
    _report(3, ok, "; ".join(details))


def test_criterion_4_sensitivity_structure(study):
    spreads = {}
    matched_ok = True
    for pname in ("uniform", "clustered"):
        worst = 0.0
        for actual in ALL_MODES:
            col = {
                assumed: study.replays[(pname, assumed, actual)].ens_mwh
                for assumed in ALL_MODES
            }
            if col[actual] > min(col.values()) + 1e-9:
                matched_ok = False
            worst = max(worst, max(col.values()) - min(col.values()))
        spreads[pname] = worst
    spread_ok = spreads["clustered"] > spreads["uniform"]
    _report(
        4,
        matched_ok and spread_ok,
        f"matched assumption minimal in all 6 columns; spread clustered "
        f"{spreads['clustered']:.2f} > uniform {spreads['uniform']:.2f} MWh",
    )


def test_criterion_5_reconnection_and_group_ens(study):
    recon = {}
    for mode in ALL_MODES:
        rep = study.reconnection[("clustered", mode)]
        recon[mode] = rep.der_avg_hours - rep.non_der_avg_hours
    base_ok = -5.0 <= recon[DerMode.BASE] <= -1.0
    home_ok = 5.0 <= recon[DerMode.HOME_MICROGRID] <= 9.0
    comm_ok = 8.0 <= recon[DerMode.COMMUNITY_MICROGRID] <= 12.0

    group = study.group_ens
    group_ok = all(
        rep.der_group_mwh <= rep.non_der_group_mwh + 1e-9 for rep in group.values()
    )
    for pname in ("uniform", "clustered"):
        base_rep = group[(pname, DerMode.BASE)]
        for mode in (DerMode.HOME_MICROGRID, DerMode.COMMUNITY_MICROGRID):
            rep = group[(pname, mode)]
            group_ok = (
                group_ok
                and rep.der_group_mwh <= base_rep.der_group_mwh + 1e-9
                and rep.non_der_group_mwh <= base_rep.non_der_group_mwh + 1e-9
            )
    _report(
        5,
        base_ok and home_ok and comm_ok and group_ok,
        f"clustered reconnection diffs: base {recon[DerMode.BASE]:+.2f} h "
        f"(want -3±2), home {recon[DerMode.HOME_MICROGRID]:+.2f} h (want +7±2), "
        f"community {recon[DerMode.COMMUNITY_MICROGRID]:+.2f} h (want +10±2); "
        f"DER-group ENS <= non-DER and <= base in all cases: {group_ok}",
    )


def test_criterion_6_oracle_equivalence():
    from gridrestore.scenarios import DerPlacement

    no_der = DerPlacement("none", ())
    rng = np.random.RandomState(20240904)
    t0 = time.time()
    worst = 0.0
    n_nets = 50
    for _ in range(n_nets):
        net = random_radial(rng)
        inst = build_rop(apply_der_mode(net, no_der, DerMode.BASE), time_grid_for(net))
        plan = solve_rop(inst)
        oracle = permutation_oracle(net)
        rel = abs(plan.objective_mwh - oracle) / max(1.0, abs(oracle))
        worst = max(worst, rel)
    elapsed = time.time() - t0
    _report(
        6,
        worst <= 1e-6 and elapsed < 120.0,
        f"{n_nets} random radial networks: worst relative gap to brute-force "
        f"permutation oracle {worst:.2e}; {elapsed:.1f}s",
    )


def test_criterion_7_invariant_suites(study):
    problems = []
    for key, inst in study.instances.items():
        plan = study.plans[key]
        errs = check_plan(plan, inst)
        if errs:
            problems.append(f"{key}: {errs}")
        x = plan.served_fraction
        if x.min() < -1e-9 or x.max() > 1 + 1e-9:
            problems.append(f"{key}: served fraction out of bounds")
    worst_resid = 0.0
    for key, result in study.replays.items():
        if not result.converged:
            problems.append(f"{key}: period not converged")
        worst_resid = max(worst_resid, result.max_residual)
        pname, assumed, actual = key
        case = study.cases[(pname, actual)]
        plan = study.plans[(pname, assumed)]
        for t, state in enumerate(result.states):
            energized = plan.energized_at(t)
            pfr, pto, qfr, qto = (
                by_id(state, f) for f in ("p_flow_fr", "p_flow_to", "q_flow_fr", "q_flow_to")
            )
            for line in case.network.lines:
                if line.damaged and f"line:{line.id}" not in energized:
                    if (
                        pfr[line.id] != 0.0
                        or pto[line.id] != 0.0
                        or qfr[line.id] != 0.0
                        or qto[line.id] != 0.0
                    ):
                        problems.append(f"{key} t={t}: flow on de-energized line {line.id}")
        if result.served_fraction.min() < -1e-9 or result.served_fraction.max() > 1 + 1e-9:
            problems.append(f"{key}: replay served fraction out of bounds")
    _report(
        7,
        not problems and worst_resid <= 1e-6,
        f"plans monotone/budgeted/complete, x within [0,1], de-energized flows "
        f"exactly zero, worst AC residual {worst_resid:.2e}"
        + ("" if not problems else f"; problems: {problems[:3]}"),
    )


def test_residuals_match_loop_reference_on_every_replayed_period(study):
    # every period of all 18 replays: each actual DER mode, each plan
    checked = 0
    for (pname, assumed, actual), result in study.replays.items():
        case, plan = study.cases[(pname, actual)], study.plans[(pname, assumed)]
        for t, state in enumerate(result.states):
            problem = build_rip_step(case, plan, t)
            found = {family: value.hex() for family, value in residuals(state, problem).items()}
            reference = residuals_reference.residuals(state, problem)
            assert found == {family: value.hex() for family, value in reference.items()}, (
                pname, assumed, actual, t,
            )
            assert max(reference.values()) == state.max_residual
            checked += 1
    assert checked == 18 * 19


def test_masks_islands_and_reconnection_follow_the_gate_rule_on_every_study_period(study):
    # every period of all 18 replays, and the reconnection times of all 6 plans
    checked = 0
    for (pname, assumed, actual) in study.replays:
        case, plan = study.cases[(pname, actual)], study.plans[(pname, assumed)]
        for t in range(plan.n_periods):
            assert_period_follows_gates(build_rip_step(case, plan, t))
            checked += 1
    assert checked == 18 * 19
    for key, plan in study.plans.items():
        found = study.reconnection[key].period_by_demand
        assert found == reconnection_periods(plan, study.cases[key]), key


def test_criterion_8_formula_unit_tests():
    from gridrestore.model import Demand
    from gridrestore.rop import RestorationPlan
    from gridrestore.scenarios import DerPlacement
    from helpers import chain3

    netting_ok = (
        home_microgrid_load(0.068, 0.075) == pytest.approx(0.00068, abs=1e-15)
        and home_microgrid_load(0.2, 0.075) == pytest.approx(0.125, abs=1e-15)
        and home_microgrid_load(0.0, 0.075) == 0.0
    )
    demands = (Demand(1, 2, 1.0), Demand(2, 3, 2.0))
    x = np.array([[1.0, 1.0], [0.0, 1.0]])
    ens_ok = energy_not_served(x, demands, 1.0).total_mwh == pytest.approx(2.0)
    # group averages on the chain: DER bus 3 back at t=2, non-DER bus 2 at t=1
    case = apply_der_mode(chain3(damage=(1, 2)), DerPlacement("der", (3,)), DerMode.BASE)
    plan = RestorationPlan(
        schedule=((), ("line:1",), ("line:2",)),
        energization={"line:1": 1, "line:2": 2},
        objective_mwh=0.0,
    )
    rep = reconnection_times(plan, case, step_hours=1.0)
    avg_ok = rep.der_avg_hours == pytest.approx(2.0) and rep.non_der_avg_hours == pytest.approx(1.0)
    _report(
        8,
        netting_ok and ens_ok and avg_ok,
        "home-netting floor/subtraction, ENS micro-example and reconnection "
        "group averages match hand-computed values exactly",
    )
