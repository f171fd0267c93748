from dataclasses import replace

import numpy as np
import pytest

from gridrestore.errors import GridRestoreError
from gridrestore.metrics import energy_not_served, reconnection_times
from gridrestore.model import Demand, TimeGrid, time_grid_for
from gridrestore.replay import simulate_plan
from gridrestore.rop import RestorationPlan
from gridrestore.scenarios import DerMode, DerPlacement, apply_der_mode
from gridrestore.study import run_study

from gate_reference import reconnection_periods
from helpers import chain3, random_gated_feeder, random_order_plan

NO_DER = DerPlacement("none", ())


def test_ens_zero_when_fully_served():
    demands = (Demand(1, 2, 1.0), Demand(2, 3, 2.0))
    rep = energy_not_served(np.ones((2, 4)), demands, 1.0)
    assert rep.total_mwh == 0.0
    assert rep.fraction == 0.0


def test_ens_full_outage_matches_total_energy(bundled_network):
    x = np.zeros((52, 19))
    rep = energy_not_served(x, bundled_network.demands, 1.0)
    # 3.49 MW for 19 hourly periods
    assert rep.total_mwh == pytest.approx(66.31, abs=1e-9)
    assert rep.fraction == pytest.approx(1.0)


def test_ens_micro_example():
    demands = (Demand(1, 2, 1.0), Demand(2, 3, 2.0))
    x = np.array([[1.0, 1.0], [0.0, 1.0]])
    rep = energy_not_served(x, demands, 1.0)
    assert rep.total_mwh == pytest.approx(2.0)
    assert rep.per_demand_mwh == {1: pytest.approx(0.0), 2: pytest.approx(2.0)}


def test_ens_group_split_and_consistency():
    demands = (
        Demand(1, 2, 1.0, has_der=True),
        Demand(2, 3, 2.0),
        Demand(3, 4, 0.5, has_der=True),
    )
    x = np.array([[0.5, 1.0], [1.0, 0.0], [0.0, 0.0]])
    rep = energy_not_served(x, demands, 2.0)
    assert rep.der_group_mwh == pytest.approx(1.0 + 2.0)
    assert rep.non_der_group_mwh == pytest.approx(4.0)
    assert rep.total_mwh == pytest.approx(rep.der_group_mwh + rep.non_der_group_mwh)
    # group values recompute exactly from the per-demand map
    der = {1, 3}
    assert rep.der_group_mwh == pytest.approx(
        sum(v for k, v in rep.per_demand_mwh.items() if k in der)
    )
    # explicit group override takes precedence over flags
    rep2 = energy_not_served(x, demands, 2.0, der_demand_ids={2})
    assert rep2.der_group_mwh == pytest.approx(4.0)


def test_ens_input_validation():
    demands = (Demand(1, 2, 1.0),)
    with pytest.raises(ValueError):
        energy_not_served(np.ones((2, 3)), demands, 1.0)
    with pytest.raises(ValueError):
        energy_not_served(np.full((1, 3), 1.5), demands, 1.0)


def chain_case(damage=(1, 2)):
    return apply_der_mode(chain3(damage=damage), NO_DER, DerMode.BASE)


def test_reconnection_undamaged_all_zero():
    case = chain_case(damage=())
    plan = RestorationPlan(schedule=((),), energization={}, objective_mwh=0.0)
    rep = reconnection_times(plan, case)
    assert rep.period_by_demand == {1: 0, 2: 0}
    assert rep.non_der_avg_hours == 0.0


def test_reconnection_chain_order():
    case = chain_case()
    plan = RestorationPlan(
        schedule=((), ("line:1",), ("line:2",)),
        energization={"line:1": 1, "line:2": 2},
        objective_mwh=0.0,
    )
    rep = reconnection_times(plan, case)
    assert rep.period_by_demand == {1: 1, 2: 2}
    # no DER group here; the non-DER average is (1 + 2) / 2
    assert rep.non_der_avg_hours == pytest.approx(1.5)
    assert np.isnan(rep.der_avg_hours)


def test_reconnection_group_averages():
    net = chain3(damage=(1, 2))
    case = apply_der_mode(net, DerPlacement("der", (3,)), DerMode.BASE)
    plan = RestorationPlan(
        schedule=((), ("line:1",), ("line:2",)),
        energization={"line:1": 1, "line:2": 2},
        objective_mwh=0.0,
    )
    rep = reconnection_times(plan, case, step_hours=2.0)
    assert rep.der_avg_hours == pytest.approx(4.0)  # bus 3 back at period 2
    assert rep.non_der_avg_hours == pytest.approx(2.0)
    assert rep.hours(2) == 4.0


def _ordered_plan(*keys):
    return RestorationPlan(
        schedule=((),) + tuple((k,) for k in keys),
        energization={k: t + 1 for t, k in enumerate(keys)},
        objective_mwh=0.0,
    )


def test_reconnection_waits_for_damaged_bus_and_demand():
    net = chain3(damage=(1, 2))
    net = replace(net, buses=(net.buses[0], replace(net.buses[1], damaged=True), net.buses[2]))
    case = apply_der_mode(net, NO_DER, DerMode.BASE)
    # demand 1 sits on bus 2; bus 3 hangs below bus 2 on line 2
    plan = _ordered_plan("line:1", "line:2", "bus:2")
    assert reconnection_times(plan, case).period_by_demand == {1: 3, 2: 3}
    plan = _ordered_plan("bus:2", "line:1", "line:2")
    assert reconnection_times(plan, case).period_by_demand == {1: 2, 2: 3}
    # a damaged demand also waits for its own repair
    net = replace(net, demands=(net.demands[0], replace(net.demands[1], damaged=True)))
    case = apply_der_mode(net, NO_DER, DerMode.BASE)
    plan = _ordered_plan("bus:2", "line:1", "line:2", "demand:2")
    assert reconnection_times(plan, case).period_by_demand == {1: 2, 2: 4}


def test_reconnection_reports_never_connected():
    case = chain_case()
    bad_plan = RestorationPlan(
        schedule=((), ("line:1",)),
        energization={"line:1": 1},
        objective_mwh=0.0,
    )
    with pytest.raises(GridRestoreError):
        reconnection_times(bad_plan, case)


def test_reconnection_times_match_the_tree_walk_on_random_gated_feeders():
    rng = np.random.RandomState(8)
    refused = 0
    for _ in range(40):
        net = random_gated_feeder(rng)
        case = apply_der_mode(net, NO_DER, DerMode.BASE)
        plan = random_order_plan(rng, net)
        if plan.energization and rng.rand() < 0.3:  # one component never comes back
            plan.energization.pop(next(iter(plan.energization)))
        walked = reconnection_periods(plan, case)
        if max(walked.values(), default=0) >= plan.n_periods:
            refused += 1
            with pytest.raises(GridRestoreError, match="never reconnected"):
                reconnection_times(plan, case)
        else:
            assert reconnection_times(plan, case).period_by_demand == walked
    assert 0 < refused < 40


ONE_DER = DerPlacement("one", (3,), p_max=0.5, q_min=-0.2, q_max=0.2)


def test_run_study_replays_match_direct_simulation():
    net = chain3(damage=(1, 2))
    study = run_study(net, [ONE_DER], time_grid_for(net))
    assert len(study.plans) == 3 and len(study.replays) == 9
    for (name, assumed, actual), result in study.replays.items():
        direct = simulate_plan(
            apply_der_mode(net, ONE_DER, actual), study.plans[(name, assumed)]
        )
        assert result.ens_mwh == pytest.approx(direct.ens_mwh, abs=1e-9)


def test_run_study_replays_on_the_grid_time_step():
    net = chain3(damage=(1, 2))
    study = run_study(net, [ONE_DER], TimeGrid(3, step_hours=0.5))
    key = ("one", DerMode.BASE)
    # 3 MW out for one half-hour step, then 2 MW for one more
    assert study.rop_ens[key] == pytest.approx(2.5)
    matched = study.replays[(*key, DerMode.BASE)]
    assert matched.ens_mwh == pytest.approx(study.rop_ens[key], rel=1e-4)


def test_run_study_zero_load_reads_zero():
    net = chain3(damage=(1, 2))
    net = replace(net, demands=tuple(replace(d, p=0.0, q=0.0) for d in net.demands))
    study = run_study(net, [NO_DER], time_grid_for(net))
    values = [
        *study.rop_ens.values(),
        *(r.ens_mwh for r in study.replays.values()),
        *(r.total_mwh for r in study.group_ens.values()),
    ]
    assert len(values) == 3 + 9 + 3
    assert values == pytest.approx([0.0] * len(values), abs=1e-9)


def test_run_study_rejects_duplicate_placement_names():
    net = chain3(damage=(1, 2))
    with pytest.raises(GridRestoreError, match="unique"):
        run_study(net, [NO_DER, NO_DER], time_grid_for(net))
