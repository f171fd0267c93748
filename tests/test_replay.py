import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridrestore import replay
from gridrestore.errors import CaseValidationError, GridRestoreError
from gridrestore.metrics import reconnection_times
from gridrestore import model
from gridrestore.model import (
    Bus,
    Demand,
    Generator,
    Line,
    LineBlock,
    Network,
    TimeGrid,
    time_grid_for,
    validate,
)
from gridrestore.replay import (
    _Batch,
    _BatchIpm,
    _IslandNlp,
    build_rip_step,
    residuals,
    simulate_plan,
    solve_ac_opf,
)
from gridrestore.rop import RestorationPlan, build_rop, rop_ens_mwh, solve_rop
from gridrestore.scenarios import DerMode, DerPlacement, apply_der_mode

import residuals_reference
import slsqp_reference
from helpers import (
    PF_Q,
    STATE_ELEMENTS,
    by_id,
    chain3,
    random_der_feeder,
    simple_line,
    substation,
    two_bus,
)

NO_DER = DerPlacement("none", ())


def fixed_plan(line_ids):
    order = sorted(line_ids)
    return RestorationPlan(
        schedule=tuple([()] + [(f"line:{l}",) for l in order]),
        energization={f"line:{l}": i + 1 for i, l in enumerate(order)},
        objective_mwh=0.0,
    )


def test_two_bus_full_service():
    case = apply_der_mode(two_bus(), NO_DER, DerMode.BASE)
    state = solve_ac_opf(build_rip_step(case, fixed_plan([]), 0))
    assert state.converged
    assert by_id(state, "served")[1] == pytest.approx(1.0, abs=1e-7)
    assert 0.9 <= by_id(state, "v")[2] <= 1.1
    rep = residuals(state, build_rip_step(case, fixed_plan([]), 0))
    assert max(rep.values()) <= 1e-6


def test_isolated_bus_sheds_and_pays_penalty():
    case = apply_der_mode(two_bus(damaged=True), NO_DER, DerMode.BASE)
    problem = build_rip_step(case, fixed_plan([1]), 0)
    state = solve_ac_opf(problem)
    assert by_id(state, "served")[1] == 0.0
    assert by_id(state, "v")[2] == 0.0
    assert by_id(state, "v_violation")[2] == pytest.approx(0.9)
    # objective carries exactly the lower-bound penalty for the dead bus
    assert state.objective == pytest.approx(-0.9, abs=1e-5)


def test_gating_is_structural(storm_network):
    case = apply_der_mode(storm_network, NO_DER, DerMode.BASE)
    damaged = sorted(l.id for l in storm_network.lines if l.damaged)
    plan = fixed_plan(damaged)
    problem = build_rip_step(case, plan, 0)
    assert {l.id for l, on in zip(storm_network.lines, problem.energized_lines) if on} == {
        l.id for l in storm_network.lines if not l.damaged
    }
    state = solve_ac_opf(problem)
    flows = [by_id(state, f) for f in ("p_flow_fr", "p_flow_to", "q_flow_fr", "q_flow_to")]
    for lid in damaged:
        assert flows[0][lid] == 0.0
        assert flows[1][lid] == 0.0
        assert flows[2][lid] == 0.0
        assert flows[3][lid] == 0.0
    # islands without the substation serve nothing in the base scenario
    live = {1, 2, 4, 5, 6}
    served = by_id(state, "served")
    for d in storm_network.demands:
        if d.bus not in live:
            assert served[d.id] == 0.0
        else:
            assert served[d.id] == pytest.approx(1.0, abs=1e-6)


def test_final_period_serves_all(storm_network):
    case = apply_der_mode(storm_network, NO_DER, DerMode.BASE)
    damaged = sorted(l.id for l in storm_network.lines if l.damaged)
    plan = fixed_plan(damaged)
    problem = build_rip_step(case, plan, len(damaged))
    assert len(problem.islands) == 1 and problem.islands[0].live
    state = solve_ac_opf(problem)
    assert state.converged
    served, v = by_id(state, "served"), by_id(state, "v")
    for d in storm_network.demands:
        assert served[d.id] == pytest.approx(1.0, abs=1e-6)
    assert min(v[b.id] for b in storm_network.buses) >= 0.9


def test_der_island_capacity_bound():
    # one 75 kW unit cannot carry a 100 kW islanded load
    net = Network(
        buses=(Bus(1, is_reference=True), Bus(2), Bus(3)),
        lines=(
            simple_line(1, 1, 2, damaged=True, thermal=5.0),
            simple_line(2, 2, 3, thermal=5.0),
        ),
        generators=(substation(),),
        demands=(Demand(1, 2, 0.04, 0.04 * PF_Q), Demand(2, 3, 0.06, 0.06 * PF_Q)),
    )
    case = apply_der_mode(net, DerPlacement("one", (2,)), DerMode.COMMUNITY_MICROGRID)
    state = solve_ac_opf(build_rip_step(case, fixed_plan([1]), 0))
    x = by_id(state, "served")
    served = x[1] * 0.04 + x[2] * 0.06
    assert served <= 0.075 + 1e-9
    assert served >= 0.070  # nearly the full unit rating, net of losses
    assert state.converged


def test_residuals_flag_perturbed_state():
    case = apply_der_mode(two_bus(), NO_DER, DerMode.BASE)
    problem = build_rip_step(case, fixed_plan([]), 0)
    state = solve_ac_opf(problem)
    state.v[case.network.bus_position[2]] += 0.1
    rep = residuals(state, problem)
    assert rep["flow"] > 1e-3 or rep["balance_p"] > 1e-3


def _bits(rep):
    return {family: value.hex() for family, value in rep.items()}


def _perturbed(state, changes):
    """A copy of ``state`` holding ``changes[field, ident]`` at each element."""
    values = {}
    for (field, ident), value in changes.items():
        array = values.setdefault(field, getattr(state, field).copy())
        array[[e.id for e in getattr(state.network, STATE_ELEMENTS[field])].index(ident)] = value
    return replace(state, **values)


def test_residuals_match_loop_reference_on_perturbed_states(storm_network):
    # period 0 of the storm in the base scenario: one live island
    # {1, 2, 4, 5, 6} around the substation (unit 1), dead islands such
    # as {3} and {8, 9, 10}, and the 18 damaged lines de-energized
    case = apply_der_mode(storm_network, NO_DER, DerMode.BASE)
    damaged = sorted(l.id for l in storm_network.lines if l.damaged)
    storm = build_rip_step(case, fixed_plan(damaged), 0)
    live = {i.buses: i.live for i in storm.islands}
    assert live[(1, 2, 4, 5, 6)] and not live[(3,)] and not live[(8, 9, 10)]
    live_line = next(l for l in storm_network.lines if {l.from_bus, l.to_bus} == {1, 2})
    dead_line = next(l for l in storm_network.lines if {l.from_bus, l.to_bus} == {8, 9})
    live_demand = next(d for d in storm_network.demands if d.bus == 2)
    dead_demand = next(d for d in storm_network.demands if d.bus == 3)
    # a unit and a demand that wait for their own repair, in period 0
    gated = apply_der_mode(Network(
        buses=(Bus(1, is_reference=True), Bus(2)),
        lines=(simple_line(1, 1, 2, thermal=8.0),),
        generators=(
            substation(),
            Generator(2, 2, 0.0, 0.05, -0.02, 0.02, kind="utility_der", damaged=True),
        ),
        demands=(Demand(1, 2, 1.0, 1.0 * PF_Q, damaged=True),),
    ), NO_DER, DerMode.BASE)
    gating = build_rip_step(gated, RestorationPlan(
        schedule=((), ("demand:1", "gen:2")),
        energization={"demand:1": 1, "gen:2": 1},
        objective_mwh=0.0,
    ), 0)
    # a thermal violation at which math.hypot and np.hypot round apart
    p, q = 20.804, 5.918
    assert math.hypot(p, q) != np.hypot(p, q)
    cases = [
        (storm, "balance_p", {("p_gen", 1): 5.0}),
        (storm, "balance_q", {("q_gen", 1): 2.0}),
        (storm, "flow", {("p_flow_fr", live_line.id): 5.0}),
        (storm, "flow", {("q_flow_to", damaged[0]): 0.1}),  # a de-energized line
        (storm, "flow", {("p_flow_to", dead_line.id): 0.1}),  # a line of a dead island
        (storm, "voltage", {("v_violation", 2): -0.2}),
        (storm, "voltage", {("v", 3): 0.1}),  # a dead bus
        (storm, "thermal", {("p_flow_fr", live_line.id): 2 * live_line.thermal_limit}),
        (storm, "thermal", {("p_flow_fr", live_line.id): p, ("q_flow_fr", live_line.id): q}),
        (storm, "angle", {("theta", 2): 1.0}),
        (storm, "shed", {("served", live_demand.id): 1.5}),
        (storm, "shed", {("served", dead_demand.id): 0.5}),  # a demand on a dead bus
        (gating, "shed", {("p_gen", 2): 0.01}),  # a unit not yet repaired
        (gating, "shed", {("q_gen", 2): -0.01}),
        (gating, "shed", {("served", 1): 0.5}),  # a demand not yet repaired
    ]
    tol = replay.DEFAULT_RESIDUAL_TOL
    states = {}
    for problem in (storm, gating):
        states[problem] = state = solve_ac_opf(problem, tol)
        assert state.converged
        assert _bits(residuals(state, problem)) == _bits(residuals_reference.residuals(state, problem))
    for problem, family, changes in cases:
        state = _perturbed(states[problem], changes)
        rep = residuals(state, problem)
        assert rep[family] > tol, (family, changes)
        assert _bits(rep) == _bits(residuals_reference.residuals(state, problem)), changes


def test_energy_accounting_closes():
    net = chain3(damage=(1, 2))
    case = apply_der_mode(net, NO_DER, DerMode.BASE)
    result = simulate_plan(case, fixed_plan([1, 2]))
    total = net.total_demand_p() * result.served_fraction.shape[1]
    assert result.served_mwh + result.ens_mwh == pytest.approx(total, rel=1e-8)


def test_period_separability():
    net = chain3(damage=(1, 2))
    case = apply_der_mode(net, NO_DER, DerMode.BASE)
    plan = fixed_plan([1, 2])
    forward = [solve_ac_opf(build_rip_step(case, plan, t)) for t in range(3)]
    backward = [solve_ac_opf(build_rip_step(case, plan, t)) for t in (2, 1, 0)]
    for f, b in zip(forward, reversed(backward)):
        assert by_id(f, "served") == by_id(b, "served")
        assert by_id(f, "v") == by_id(b, "v")


def test_zero_load_plan_has_zero_ens():
    net = chain3(damage=(1, 2))
    net = replace(
        net, demands=tuple(replace(d, p=0.0, q=0.0) for d in net.demands)
    )
    case = apply_der_mode(net, NO_DER, DerMode.BASE)
    result = simulate_plan(case, fixed_plan([1, 2]))
    assert result.ens_mwh == pytest.approx(0.0, abs=1e-9)
    assert result.converged


def test_plan_damage_mismatch_rejected():
    case = apply_der_mode(chain3(damage=(1,)), NO_DER, DerMode.BASE)
    with pytest.raises(GridRestoreError):
        build_rip_step(case, fixed_plan([1, 2]), 0)
    with pytest.raises(GridRestoreError):
        build_rip_step(case, fixed_plan([1]), 7)


def test_matched_replay_equals_dc_on_toy():
    net = chain3(damage=(1, 2))
    case = apply_der_mode(net, NO_DER, DerMode.BASE)
    inst = build_rop(case, TimeGrid(3))
    plan = solve_rop(inst)
    result = simulate_plan(case, plan)
    assert result.ens_mwh == pytest.approx(rop_ens_mwh(plan, inst), rel=1e-6)
    assert result.converged


def test_damaged_demand_and_generator_gating():
    net = Network(
        buses=(Bus(1, is_reference=True), Bus(2)),
        lines=(simple_line(1, 1, 2, thermal=8.0),),
        generators=(
            substation(),
            Generator(2, 2, 0.0, 0.05, -0.02, 0.02, kind="utility_der", damaged=True),
        ),
        demands=(Demand(1, 2, 1.0, 1.0 * PF_Q, damaged=True),),
    )
    case = apply_der_mode(net, NO_DER, DerMode.BASE)
    plan = RestorationPlan(
        schedule=((), ("demand:1", "gen:2")),
        energization={"demand:1": 1, "gen:2": 1},
        objective_mwh=0.0,
    )
    early = solve_ac_opf(build_rip_step(case, plan, 0))
    assert by_id(early, "served")[1] == 0.0
    assert by_id(early, "p_gen")[2] == 0.0
    late = solve_ac_opf(build_rip_step(case, plan, 1))
    assert by_id(late, "served")[1] == pytest.approx(1.0, abs=1e-6)


def test_dead_island_penalty_counts_dead_bus_periods():
    net = chain3(damage=(1, 2))
    case = apply_der_mode(net, NO_DER, DerMode.BASE)
    result = simulate_plan(case, fixed_plan([1, 2]))
    # two dead buses in period 0, one in period 1, none in period 2
    dead_penalty = sum(sum(by_id(s, "v_violation").values()) for s in result.states)
    assert dead_penalty == pytest.approx(0.9 * 3, abs=1e-5)


KEY_KIND = {Bus: "bus", Line: "line", Generator: "gen", Demand: "demand"}


def _union_find_islands(net, energized):
    """Connected components of the working buses and lines, by union-find."""
    def works(element, *buses):
        key = f"{KEY_KIND[type(element)]}:{element.id}"
        return (not element.damaged or key in energized) and all(bus_works[b] for b in buses)

    bus_works = {b.id: works(b) for b in net.buses}
    root = {b: b for b, on in bus_works.items() if on}

    def find(b):
        while root[b] != b:
            b = root[b]
        return b

    on_lines = [l for l in net.lines if works(l, l.from_bus, l.to_bus)]
    for l in on_lines:
        root[find(l.from_bus)] = find(l.to_bus)
    members = {}
    for b in sorted(root):
        members.setdefault(find(b), []).append(b)
    ref = net.reference_bus.id
    islands = []
    for buses in sorted(members.values()):
        gens = tuple(g.id for g in net.generators if g.bus in buses and works(g, g.bus))
        islands.append(replay.Island(
            buses=tuple(buses),
            lines=tuple(sorted(l.id for l in on_lines if l.from_bus in buses)),
            generators=gens,
            demands=tuple(d.id for d in net.demands if d.bus in buses and works(d, d.bus)),
            live=bool(gens),
            reference=ref if ref in buses else buses[0],
        ))
    return tuple(islands)


def test_islands_are_the_connected_components_of_working_elements():
    rng = np.random.RandomState(21)
    for _ in range(20):
        net = random_der_feeder(rng)
        net = replace(
            net,
            buses=tuple(replace(b, damaged=rng.rand() < 0.25) for b in net.buses),
            # either end of a line may face the substation
            lines=tuple(
                replace(l, from_bus=l.to_bus, to_bus=l.from_bus) if rng.rand() < 0.5 else l
                for l in net.lines
            ),
            generators=tuple(
                replace(g, kind=g.kind if g.kind == "substation" else "utility_der",
                        damaged=rng.rand() < 0.3)
                for g in net.generators
            ),
            demands=tuple(replace(d, damaged=rng.rand() < 0.25) for d in net.demands),
        )
        keys = net.damage.component_keys()
        on = tuple(k for k in keys if rng.rand() < 0.5)
        off = tuple(k for k in keys if k not in on)
        plan = RestorationPlan(
            schedule=(on, off),
            energization={k: int(k in off) for k in keys},
            objective_mwh=0.0,
        )
        problem = build_rip_step(apply_der_mode(net, NO_DER, DerMode.BASE), plan, 0)
        assert problem.islands == _union_find_islands(net, set(on))


def test_replay_and_reconnection_reject_meshed_network():
    loop = Network(
        buses=(Bus(1, is_reference=True), Bus(2), Bus(3)),
        lines=(simple_line(1, 1, 2), simple_line(2, 2, 3), simple_line(3, 3, 1)),
        generators=(substation(),),
        demands=(Demand(1, 2, 1.0, PF_Q), Demand(2, 3, 1.0, PF_Q)),
    )
    case = apply_der_mode(loop, NO_DER, DerMode.BASE)
    with pytest.raises(CaseValidationError, match="radiality"):
        build_rip_step(case, fixed_plan([]), 0)
    with pytest.raises(CaseValidationError, match="radiality"):
        reconnection_times(fixed_plan([]), case)


def test_matched_base_equality_on_random_feeders():
    # ample substation and thermal headroom: the AC replay must shed
    # exactly what the DC schedule predicted, network by network
    import numpy as np
    from gridrestore.model import time_grid_for
    from helpers import random_radial

    rng = np.random.RandomState(314)
    for _ in range(8):
        net = random_radial(rng)
        case = apply_der_mode(net, NO_DER, DerMode.BASE)
        inst = build_rop(case, time_grid_for(net))
        plan = solve_rop(inst)
        replay = simulate_plan(case, plan)
        assert replay.converged
        dc_ens = rop_ens_mwh(plan, inst)
        assert replay.ens_mwh == pytest.approx(dc_ens, rel=1e-6, abs=1e-6)


def test_island_with_zero_capacity_generator():
    net = Network(
        buses=(Bus(1, is_reference=True), Bus(2)),
        lines=(simple_line(1, 1, 2, damaged=True, thermal=8.0),),
        generators=(
            substation(),
            Generator(2, 2, 0.0, 0.0, 0.0, 0.0, kind="utility_der"),
        ),
        demands=(Demand(1, 2, 1.0, 1.0 * PF_Q),),
    )
    case = apply_der_mode(net, NO_DER, DerMode.BASE)
    state = solve_ac_opf(build_rip_step(case, fixed_plan([1]), 0))
    # the island counts as live but cannot serve anything
    assert by_id(state, "served")[1] == pytest.approx(0.0, abs=1e-7)
    assert state.converged


def test_island_with_an_empty_balance_row_converges():
    # no unit at bus 2 can move its reactive power and the demand draws
    # none, so the island's reactive balance row is empty: every KKT
    # matrix of the island is singular until its constraint block is shifted
    net = Network(
        buses=(Bus(1, is_reference=True), Bus(2)),
        lines=(simple_line(1, 1, 2, damaged=True, thermal=8.0),),
        generators=(substation(), Generator(2, 2, -0.01, 0.05, 0.0, 0.0, kind="utility_der")),
        demands=(Demand(1, 2, 0.1, 0.0),),
    )
    case = apply_der_mode(net, NO_DER, DerMode.BASE)
    state = solve_ac_opf(build_rip_step(case, fixed_plan([1]), 0))
    assert state.converged
    assert by_id(state, "served")[1] == pytest.approx(0.5, abs=1e-7)
    assert by_id(state, "p_gen")[2] == pytest.approx(0.05, abs=1e-7)


def test_rip_result_serialization(tmp_path):
    net = chain3(damage=(1, 2))
    case = apply_der_mode(net, NO_DER, DerMode.BASE)
    result = simulate_plan(case, fixed_plan([1, 2]))
    out = tmp_path / "rip.json"
    result.save(out)
    import json

    raw = json.loads(out.read_text())
    assert raw["ens_mwh"] == pytest.approx(result.ens_mwh)
    assert len(raw["periods"]) == 3
    csv_path = tmp_path / "served.csv"
    result.write_served_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "demand_id,t0,t1,t2"
    assert len(lines) == 1 + 2


def _chain_island_nlp():
    case = apply_der_mode(chain3(damage=()), NO_DER, DerMode.BASE)
    problem = build_rip_step(case, fixed_plan([]), 0)
    (island,) = problem.islands
    return _IslandNlp(case.network, island)


def _scripted_minimize(monkeypatch, results):
    """Replace the reference's NLP solver; each call pops the next scripted ``x``.

    ``None`` in the script runs the real solver for that call.
    """
    sopt = slsqp_reference.sopt
    real = sopt.minimize
    calls = []

    def fake(fun, x0, **kwargs):
        calls.append({"x0": np.array(x0, copy=True), "method": kwargs["method"]})
        x = results.pop(0)
        if x is None:
            return real(fun, x0, **kwargs)
        return sopt.OptimizeResult(x=np.array(x, copy=True), success=False)

    monkeypatch.setattr(sopt, "minimize", fake)
    return calls


def _violating_point(nlp, tol):
    """Over-range voltage (so clipping shows) and half the load served."""
    u = nlp.start_point()
    u[nlp.iv] = 5.0
    u[nlp.ix] = 0.5
    clipped = np.clip(u, *nlp.bounds())
    assert nlp.violation(clipped) > tol
    return u, clipped


def test_island_solve_stops_after_one_slsqp_within_tol(monkeypatch):
    nlp = _chain_island_nlp()
    calls = _scripted_minimize(monkeypatch, [None])
    u = slsqp_reference.solve(nlp, 1e-6)
    assert [c["method"] for c in calls] == ["SLSQP"]
    assert nlp.violation(u) <= 1e-6


def test_island_solve_polishes_once_from_clipped_point(monkeypatch):
    nlp = _chain_island_nlp()
    bad, clipped = _violating_point(nlp, 1e-6)
    calls = _scripted_minimize(monkeypatch, [bad, None])
    u = slsqp_reference.solve(nlp, 1e-6)
    assert [c["method"] for c in calls] == ["SLSQP", "SLSQP"]
    np.testing.assert_array_equal(calls[1]["x0"], clipped)
    assert nlp.violation(u) <= 1e-6


def test_island_solve_keeps_first_point_when_polish_is_worse(monkeypatch):
    nlp = _chain_island_nlp()
    bad, clipped = _violating_point(nlp, 1e-6)
    worse = clipped.copy()
    worse[nlp.ipg] = nlp.bounds()[1][nlp.ipg]  # every unit at full output
    assert nlp.violation(worse) > nlp.violation(clipped)
    calls = _scripted_minimize(monkeypatch, [bad, worse])
    u = slsqp_reference.solve(nlp, 1e-6)
    assert len(calls) == 2
    np.testing.assert_array_equal(u, clipped)


def _spur_feeder_case():
    """1 -- 2 -- 3 -- 4 with 2-3 and 3-4 damaged; 3-4 is repaired first,
    so the substation island {1, 2} is the same in periods 0 and 1."""
    net = Network(
        buses=(Bus(1, is_reference=True), Bus(2), Bus(3), Bus(4)),
        lines=(
            simple_line(1, 1, 2, thermal=8.0),
            simple_line(2, 3, 4, damaged=True, thermal=8.0),
            simple_line(3, 2, 3, damaged=True, thermal=8.0),
        ),
        generators=(substation(),),
        demands=tuple(Demand(b - 1, b, 0.5, 0.5 * PF_Q) for b in (2, 3, 4)),
    )
    case = apply_der_mode(net, NO_DER, DerMode.BASE)
    plan = fixed_plan([2, 3])
    live = [
        island
        for t in range(plan.n_periods)
        for island in build_rip_step(case, plan, t).islands
        if island.live
    ]
    assert len(live) == 3 and len(set(live)) == 2
    return case, plan, live


def _record_island_solves(monkeypatch, path):
    """Log each island of each batch solve to ``path``, from this process
    or a forked worker.

    Returns a function that takes the solves logged since its last call,
    as ``(pid, repr(island))`` pairs.
    """
    solve = replay._solve_batch

    def recording(net, islands, tol):
        with open(path, "a") as log:
            log.writelines(f"{os.getpid()} {island!r}\n" for island in islands)
        return solve(net, islands, tol)

    monkeypatch.setattr(replay, "_solve_batch", recording)

    def take():
        lines = path.read_text().splitlines() if path.exists() else []
        path.write_text("")
        return [(int(pid), island) for pid, island in (line.split(" ", 1) for line in lines)]

    return take


def _assert_solved(solves, islands, cpus):
    """Each island solved as listed: in order in this process with one
    CPU, in any order and only in pool workers with more."""
    pids = {pid for pid, _ in solves}
    logged = [island for _, island in solves]
    expected = [repr(island) for island in islands]
    if cpus == 1:
        assert pids <= {os.getpid()} and logged == expected
    else:
        assert os.getpid() not in pids and sorted(logged) == sorted(expected)


def test_replay_solves_each_distinct_island_once(monkeypatch, tmp_path):
    case, plan, live = _spur_feeder_case()
    take_solves = _record_island_solves(monkeypatch, tmp_path / "solves")
    # reference: every period solved on its own, with no islands shared
    reference = [solve_ac_opf(build_rip_step(case, plan, t)) for t in range(plan.n_periods)]
    _assert_solved(take_solves(), live, cpus=1)
    for cpus in (1, 2):  # in-process, then on the pool
        monkeypatch.setattr(replay, "_usable_cpus", lambda: cpus)
        result = simulate_plan(case, plan)
        _assert_solved(take_solves(), dict.fromkeys(live), cpus)
        assert [s.to_dict() for s in result.states] == [s.to_dict() for s in reference]
        assert result.converged


def test_island_solutions_do_not_outlive_a_replay(monkeypatch, tmp_path):
    case, plan, live = _spur_feeder_case()
    take_solves = _record_island_solves(monkeypatch, tmp_path / "solves")
    for cpus in (1, 2):  # in-process, then on the pool
        monkeypatch.setattr(replay, "_usable_cpus", lambda: cpus)
        first = simulate_plan(case, plan)
        second = simulate_plan(case, plan)
        _assert_solved(take_solves(), 2 * list(dict.fromkeys(live)), cpus)
        assert first.to_dict() == second.to_dict()


def test_pooled_replay_matches_in_process_replay(
    monkeypatch, tmp_path, storm_network, clustered_placement
):
    # the community cell has every island size, and two supply-short
    # 2-bus islands whose optimum is a tie broken only by losses
    assumed = apply_der_mode(storm_network, clustered_placement, DerMode.BASE)
    plan = solve_rop(build_rop(assumed, time_grid_for(storm_network)))
    case = apply_der_mode(storm_network, clustered_placement, DerMode.COMMUNITY_MICROGRID)
    islands = _replay_islands(case, plan)
    take_solves = _record_island_solves(monkeypatch, tmp_path / "solves")
    results = {}
    for cpus in (2, 1):
        monkeypatch.setattr(replay, "_usable_cpus", lambda: cpus)
        results[cpus] = simulate_plan(case, plan)
        _assert_solved(take_solves(), islands, cpus)
    pooled, in_process = results[2], results[1]
    assert pooled.to_dict() == in_process.to_dict()
    np.testing.assert_array_equal(pooled.served_fraction, in_process.served_fraction)


def test_replay_beside_another_thread_solves_in_process(monkeypatch, tmp_path):
    case, plan, live = _spur_feeder_case()
    take_solves = _record_island_solves(monkeypatch, tmp_path / "solves")
    monkeypatch.setattr(replay, "_usable_cpus", lambda: 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        simulate_plan(case, plan)
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    _assert_solved(take_solves(), dict.fromkeys(live), cpus=1)


def test_island_solve_error_reaches_the_caller(monkeypatch):
    case, plan, live = _spur_feeder_case()
    failing = live[-1]
    solve = replay._solve_batch

    def fail_one(net, islands, tol):
        if failing in islands:
            raise FloatingPointError(f"island {failing.buses} failed")
        return solve(net, islands, tol)

    monkeypatch.setattr(replay, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(replay, "_solve_batch", fail_one)
    with pytest.raises(FloatingPointError) as raised:
        simulate_plan(case, plan)
    assert str(raised.value) == f"island {failing.buses} failed"
    assert multiprocessing.active_children() == []


def test_plans_over_one_case_share_their_islands(monkeypatch, tmp_path):
    case, plan, _ = _spur_feeder_case()
    reverse = RestorationPlan(  # 2-3 before 3-4: the islands {1, 2, 3} and {1, 2, 3, 4}
        schedule=((), ("line:3",), ("line:2",)),
        energization={"line:3": 1, "line:2": 2},
        objective_mwh=0.0,
    )
    plans = [plan, reverse, plan]
    islands = dict.fromkeys(
        island
        for p in plans
        for t in range(p.n_periods)
        for island in build_rip_step(case, p, t).islands
        if island.live
    )
    assert len(islands) == 3
    separate = [simulate_plan(case, p).to_dict() for p in plans]
    take_solves = _record_island_solves(monkeypatch, tmp_path / "solves")
    for cpus in (1, 2):  # in-process, then on the pool
        monkeypatch.setattr(replay, "_usable_cpus", lambda: cpus)
        results = replay.simulate_plans(case, plans)
        _assert_solved(take_solves(), islands, cpus)
        assert [r.to_dict() for r in results] == separate
        # a plan that does not fit the case is refused before any island is solved
        with pytest.raises(GridRestoreError, match="damage set"):
            replay.simulate_plans(case, [plan, fixed_plan([2])])
        assert take_solves() == []


_REPLAY_SCRIPT = """
import json, sys
from gridrestore import datasets
from gridrestore.replay import simulate_plan
from gridrestore.rop import RestorationPlan
from gridrestore.scenarios import DerMode, apply_der_mode

placement = datasets.bundled_placement("clustered")
mode = DerMode.COMMUNITY_MICROGRID
case = apply_der_mode(datasets.bundled_damaged_case(), placement, mode)
result = simulate_plan(case, RestorationPlan.load(sys.argv[1]))
print(json.dumps(result.to_dict(), sort_keys=True))
"""


def test_replay_does_not_depend_on_the_blas_thread_count(
    tmp_path, storm_network, clustered_placement
):
    # the clustered base plan replayed with the DERs up: every island size
    assumed = apply_der_mode(storm_network, clustered_placement, DerMode.BASE)
    solve_rop(build_rop(assumed, time_grid_for(storm_network))).save(tmp_path / "plan.json")
    src = str(Path(replay.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):  # read by OpenBLAS when numpy loads it
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _REPLAY_SCRIPT, str(tmp_path / "plan.json")],
            env=env, capture_output=True, text=True, check=True, timeout=600,
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["converged"] is True


def _loop_balance(nlp, u):
    """Balance one term at a time, and its Jacobian in the unit and demand
    columns: each flow leaves at its end, pfr, pto, qfr, qto in turn."""
    out = np.zeros(2 * nlp.nb)
    J = np.zeros((2 * nlp.nb, nlp.n_var))
    for k, g in enumerate(nlp.gens):
        bi = nlp.bus_index[g.bus]
        out[bi] += u[nlp.ipg[k]]
        out[nlp.nb + bi] += u[nlp.iqg[k]]
        J[bi, nlp.ipg[k]] = 1.0
        J[nlp.nb + bi, nlp.iqg[k]] = 1.0
    for k, d in enumerate(nlp.demands):
        bi = nlp.bus_index[d.bus]
        out[bi] -= u[nlp.ix[k]] * d.p
        out[nlp.nb + bi] -= u[nlp.ix[k]] * d.q
        J[bi, nlp.ix[k]] = -d.p
        J[nlp.nb + bi, nlp.ix[k]] = -d.q
    ends = ((0, "from_bus"), (0, "to_bus"), (nlp.nb, "from_bus"), (nlp.nb, "to_bus"))
    for (row, end), flows in zip(ends, nlp.flows(u)):
        for line, f in zip(nlp.lines, flows):
            out[row + nlp.bus_index[getattr(line, end)]] -= f
    return out, J


def test_island_balance_matches_loop_reference(storm_network, uniform_placement):
    case = apply_der_mode(storm_network, uniform_placement, DerMode.COMMUNITY_MICROGRID)
    damaged = sorted(l.id for l in storm_network.lines if l.damaged)
    (island,) = build_rip_step(case, fixed_plan(damaged), len(damaged)).islands
    assert len(island.lines) == len(island.buses) - 1
    # without lines only the unit and demand terms remain
    for island in (replace(island, lines=()), island):
        nlp = _IslandNlp(case.network, island)
        ipm = _Batch([nlp])  # a batch of one
        assert len({g.bus for g in nlp.gens}) < nlp.ng  # some bus hosts several units
        # the unit and demand columns; without lines, every column
        linear = np.r_[nlp.ix, nlp.ipg, nlp.iqg] if nlp.nl else np.arange(nlp.n_var)
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = rng.uniform(*nlp.bounds())
            out, J = _loop_balance(nlp, u)
            np.testing.assert_array_equal(nlp.balance(u, nlp.flows(u)), out)
            jg = _dense(ipm.g_rows, ipm.g_cols, ipm.evaluate(u).g_vals, J.shape)
            np.testing.assert_array_equal(jg[:, linear], J[:, linear])


def _dense(rows, cols, vals, shape):
    """A Jacobian given in COO form, as a dense array."""
    out = np.zeros(shape)
    np.add.at(out, (rows, cols), vals)
    return out


def _central_differences(fun, u, columns, eps=1e-6):
    """The columns of d fun / d u listed in ``columns``."""
    out = []
    for k in columns:
        up, down = u.copy(), u.copy()
        up[k] += eps
        down[k] -= eps
        out.append((fun(up) - fun(down)) / (2 * eps))
    return np.array(out).T


def _shunted_feeder(seed):
    """A random DER feeder whose lines carry shunts and off-nominal,
    phase-shifting taps (t_m^2 = t_r^2 + t_i^2)."""
    rng = np.random.RandomState(seed)
    net = random_der_feeder(rng, n_buses=10)
    lines = []
    for l in net.lines:
        shunts = rng.uniform([0, -0.1, 0, -0.1], [0.1, 0.1, 0.1, 0.1])
        t_m, shift = rng.uniform(0.95, 1.05), rng.uniform(-0.05, 0.05)
        lines.append(replace(
            l, g_fr=shunts[0], b_fr=shunts[1], g_to=shunts[2], b_to=shunts[3],
            t_m=t_m, t_r=t_m * np.cos(shift), t_i=t_m * np.sin(shift),
        ))
    return replace(net, lines=tuple(lines))


def test_line_flows_match_complex_phasor_pi_model():
    net = _shunted_feeder(3)
    assert validate(net).ok
    index = {b.id: k for k, b in enumerate(net.buses)}
    block = LineBlock.of(net.lines, index)
    rng = np.random.default_rng(3)
    for _ in range(5):
        v, th = rng.uniform(0.9, 1.1, len(index)), rng.uniform(-0.3, 0.3, len(index))
        phasor = v * np.exp(1j * th)
        expected = []
        for l in net.lines:
            y = l.g + 1j * l.b
            # the ideal transformer T:1 at the from end feeds the pi section
            # the voltage V_i / T and conserves power: S = V conj(I)
            vi = phasor[index[l.from_bus]] / (l.t_r + 1j * l.t_i)
            vj = phasor[index[l.to_bus]]
            s_fr = vi * np.conj((y + l.g_fr + 1j * l.b_fr) * vi - y * vj)
            s_to = vj * np.conj((y + l.g_to + 1j * l.b_to) * vj - y * vi)
            expected.append([s_fr.real, s_to.real, s_fr.imag, s_to.imag])
        f = block.flows(block.terms(v, th))
        np.testing.assert_allclose(f, np.array(expected).T, rtol=1e-12, atol=1e-12)


def test_flow_hessians_match_central_differences_of_partials():
    net = _shunted_feeder(5)
    nb = len(net.buses)
    block = LineBlock.of(net.lines, {b.id: k for k, b in enumerate(net.buses)})
    rng = np.random.default_rng(5)
    for _ in range(5):
        v, th = rng.uniform(0.9, 1.1, nb), rng.uniform(-0.3, 0.3, nb)
        hess = block.hessians(block.terms(v, th))
        # each bus variable is position 0 or 2 of the lines leaving it,
        # and 1 or 3 of the lines entering it
        fd = np.full_like(hess, np.nan)
        for k in range(nb):
            for var, (at_i, at_j) in ((v, (0, 1)), (th, (2, 3))):
                saved = var[k]
                var[k] = saved + 1e-6
                up = block.partials(block.terms(v, th))
                var[k] = saved - 1e-6
                down = block.partials(block.terms(v, th))
                var[k] = saved
                diff = (up - down) / 2e-6
                for pos, ends in ((at_i, block.i), (at_j, block.j)):
                    fd[:, ends == k, pos] = diff[:, ends == k]
        np.testing.assert_array_equal(hess, np.swapaxes(hess, 2, 3))
        # one tolerance per quantity: pfr, pto, qfr, qto
        for h, h_fd in zip(hess, fd):
            np.testing.assert_allclose(h, h_fd, rtol=0, atol=1e-7 * np.abs(h).max())


def _island_kkt(batch, fill, k):
    """Island ``k``'s KKT matrix and right-hand side in its own numbering
    (free variables, then balance rows), read back from the block layout
    ``fill``; the padding must be identity rows with zero right-hand sides."""
    s = batch.size
    first, last = batch.at_bus[k], batch.at_bus[k + 1]
    n = (last - first) * s
    dense, rhs = np.zeros((n, n)), np.zeros(n)

    def at(g):
        return slice((g - first) * s, (g - first + 1) * s)

    for g in range(first, last):
        diagonal, coupled, parents_rows = np.split(fill[g], [s * s, s * (2 * s + 1)])
        coupled = coupled.reshape(s, s + 1)
        dense[at(g), at(g)] = diagonal.reshape(s, s)
        rhs[at(g)] = coupled[:, s]
        parent = batch.parent[g]
        if parent < 0:
            assert not coupled[:, :s].any() and not parents_rows.any()
        else:
            assert first <= parent < last
            dense[at(g), at(parent)] = coupled[:, :s]
            dense[at(parent), at(g)] = parents_rows.reshape(s, s)
    free = slice(batch.at_free[k], batch.at_free[k + 1])
    rows = slice(batch.at_row[k], batch.at_row[k + 1])
    kkt = np.r_[batch.x_free[free], batch.x_row[rows]] - first * s
    pad = np.setdiff1d(np.arange(n), kkt)
    np.testing.assert_array_equal(dense[np.ix_(pad, pad)], np.eye(len(pad)))
    assert not dense[np.ix_(pad, kkt)].any() and not dense[np.ix_(kkt, pad)].any()
    assert not rhs[pad].any()
    return dense[np.ix_(kkt, kkt)], rhs[kkt]


def test_kkt_blocks_match_finite_differences():
    net = _shunted_feeder(8)
    case = apply_der_mode(net, DerPlacement("der", (3, 5, 7)), DerMode.COMMUNITY_MICROGRID)
    damaged = sorted(l.id for l in net.lines if l.damaged)
    (island,) = build_rip_step(case, fixed_plan(damaged), len(damaged)).islands
    nlp = _IslandNlp(case.network, island)
    ipm = _Batch([nlp])  # a batch of one
    free, nf, m = ipm.free, len(ipm.free), ipm.m
    assert nlp.nl and nlp.ng > 1 and nf < nlp.n_var  # the reference angle is held
    rng = np.random.default_rng(8)
    lo, hi = nlp.bounds()
    for _ in range(3):
        u = np.clip(rng.uniform(lo, hi), lo, hi)
        u[nlp.iv] = rng.uniform(0.9, 1.1, nlp.nb)
        pt = ipm.evaluate(u)
        every = np.arange(nlp.n_var)
        jg = _dense(ipm.g_rows, ipm.g_cols, pt.g_vals, (m, nlp.n_var))
        np.testing.assert_allclose(
            jg,
            _central_differences(lambda w: nlp.balance(w, nlp.flows(w)), u, every),
            rtol=0, atol=1e-7 * np.abs(jg).max(),
        )
        jh = _dense(ipm.h_rows, ipm.h_cols, pt.h_vals, (ipm.n_ineq, nlp.n_var))
        thermal_fd = _central_differences(lambda w: nlp.thermal(nlp.flows(w)), u, every)
        np.testing.assert_allclose(
            jh[: 2 * nlp.nl], thermal_fd, rtol=0, atol=1e-7 * np.abs(thermal_fd).max()
        )
        np.testing.assert_allclose(
            jh[:, free],
            _central_differences(lambda w: ipm.evaluate(w).h, u, free),
            rtol=0, atol=1e-7 * np.abs(jh).max(),
        )
        lam = rng.normal(size=m)
        mu = rng.uniform(0.1, 2.0, ipm.n_ineq)
        d = rng.uniform(0.0, 10.0, ipm.n_ineq)
        lxx = _central_differences(
            lambda w: ipm.lagrangian_gradient(ipm.evaluate(w), lam, mu)[free], u, free
        )
        rhs_free, rhs_rows = rng.normal(size=nf), rng.normal(size=m)
        fill = ipm.fill(ipm.kkt_values(pt, lam, mu, d), rhs_free, rhs_rows)
        kkt, rhs = _island_kkt(ipm, fill, 0)
        hessian = lxx + jh[:, free].T @ (d[:, None] * jh[:, free])
        np.testing.assert_allclose(
            kkt[:nf, :nf], hessian, rtol=0, atol=1e-7 * np.abs(hessian).max()
        )
        np.testing.assert_array_equal(kkt[nf:, :nf], jg[:, free])
        np.testing.assert_array_equal(kkt[:nf, nf:], jg[:, free].T)
        np.testing.assert_array_equal(kkt[nf:, nf:], np.zeros((m, m)))
        np.testing.assert_array_equal(rhs, np.r_[rhs_free, rhs_rows])
        ipm.shift(fill, np.array([True]))
        shifted, _ = _island_kkt(ipm, fill, 0)
        np.testing.assert_array_equal(shifted[nf:, nf:], -replay._DELTA_C * np.eye(m))
        np.testing.assert_array_equal(shifted[:, :nf], kkt[:, :nf])


def _tree_solves(monkeypatch, nlps):
    """Every tree solve of one batch run over ``nlps``: the batch, its
    fill before the solve, the islands kept and the step found."""
    calls = []
    tree_solve = _Batch.tree_solve

    def logged(self, fill, keep):
        before = fill.copy()
        step, singular = tree_solve(self, fill, keep)
        calls.append((self, before, keep.copy(), step))
        return step, singular

    monkeypatch.setattr(_Batch, "tree_solve", logged)
    _BatchIpm(nlps).run(replay.DEFAULT_RESIDUAL_TOL)
    monkeypatch.undo()
    return calls


def _assert_tree_step_is_dense_step(batch, fill, keep, step, rtol=None):
    """Each kept island's step solves its assembled KKT system as well as a
    dense solve does: a backward error below 1e-15, and the dense step to
    ``rtol`` relative, by default to 1e-10 or, where the matrix's condition
    number allows no more, to cond * eps (late iterates reach 1e16)."""
    step = step.ravel()
    for k in np.flatnonzero(keep):
        kkt, rhs = _island_kkt(batch, fill, k)
        free = slice(batch.at_free[k], batch.at_free[k + 1])
        rows = slice(batch.at_row[k], batch.at_row[k + 1])
        found = np.r_[step[batch.x_free[free]], step[batch.x_row[rows]]]
        scale = np.abs(kkt).sum(axis=1).max() * np.abs(found).max() + np.abs(rhs).max()
        assert np.abs(kkt @ found - rhs).max() <= 1e-15 * scale
        dense = np.linalg.solve(kkt, rhs)
        bound = rtol or max(1e-10, np.linalg.cond(kkt) * np.finfo(float).eps)
        assert np.linalg.norm(found - dense) <= bound * np.linalg.norm(dense), k


def _chain_feeder(n):
    """n buses in a line from the substation, each past the first with a
    demand, every third with a DER unit; the middle line is damaged."""
    return Network(
        buses=tuple(Bus(b, is_reference=b == 1) for b in range(1, n + 1)),
        lines=tuple(
            simple_line(b - 1, b - 1, b, damaged=b == n // 2, thermal=8.0) for b in range(2, n + 1)
        ),
        generators=(substation(),) + tuple(
            Generator(b, b, 0.0, 0.3, -0.15, 0.15, kind="customer_der") for b in range(3, n + 1, 3)
        ),
        demands=tuple(Demand(b, b, 0.2, 0.2 * PF_Q) for b in range(2, n + 1)),
    )


def _crowded_bus_feeder():
    """Four buses in a line; bus 3 holds three units and two demands."""
    return Network(
        buses=tuple(Bus(b, is_reference=b == 1) for b in range(1, 5)),
        lines=(
            simple_line(1, 1, 2, thermal=8.0),
            simple_line(2, 2, 3, damaged=True, thermal=8.0),
            simple_line(3, 3, 4, thermal=8.0),
        ),
        generators=(
            substation(),
            Generator(2, 3, 0.0, 0.2, -0.1, 0.1, kind="customer_der"),
            Generator(3, 3, 0.0, 0.3, -0.1, 0.2, kind="utility_der"),
            Generator(4, 3, 0.05, 0.1, 0.0, 0.0, kind="utility_der"),
        ),
        demands=(
            Demand(1, 2, 0.3, 0.3 * PF_Q),
            Demand(2, 3, 0.2, 0.2 * PF_Q),
            Demand(3, 3, 0.4, 0.1),
            Demand(4, 4, 0.3, 0.3 * PF_Q),
        ),
    )


def _replay_islands(case, plan):
    """The distinct live islands of every period of ``plan`` over ``case``."""
    return list(dict.fromkeys(
        island
        for t in range(plan.n_periods)
        for island in build_rip_step(case, plan, t).islands
        if island.live
    ))


@pytest.mark.parametrize("feeder", ["random", "chain", "crowded"])
def test_tree_step_matches_dense_solve_of_the_island_kkt(monkeypatch, feeder):
    if feeder == "random":
        rng = np.random.RandomState(17)
        nets = [random_der_feeder(rng) for _ in range(5)]
    else:
        nets = [_chain_feeder(14) if feeder == "chain" else _crowded_bus_feeder()]
    for net in nets:
        case = apply_der_mode(net, NO_DER, DerMode.BASE)
        damaged = sorted(l.id for l in net.lines if l.damaged)
        islands = _replay_islands(case, fixed_plan(damaged))
        calls = _tree_solves(monkeypatch, [_IslandNlp(case.network, i) for i in islands])
        batch = calls[0][0]
        if feeder == "chain":
            assert batch.height.max() == 13  # the whole feeder, once repaired
        if feeder == "crowded":
            assert batch.size == 5 + 2 + 2 * 3
            # the network's largest group, also in a batch without bus 3
            (upstream,) = [i for i in islands if i.buses == (1, 2)]
            assert _Batch([_IslandNlp(case.network, upstream)]).size == 5 + 2 + 2 * 3
        _assert_tree_step_is_dense_step(*calls[0], rtol=1e-10)  # the start point
        for call in calls:
            _assert_tree_step_is_dense_step(*call)


def test_tree_step_matches_dense_solve_on_the_study_islands(
    monkeypatch, storm_network, clustered_placement
):
    # the bundled clustered/base plan replayed under community microgrids
    assumed = apply_der_mode(storm_network, clustered_placement, DerMode.BASE)
    plan = solve_rop(build_rop(assumed, time_grid_for(storm_network)))
    case = apply_der_mode(storm_network, clustered_placement, DerMode.COMMUNITY_MICROGRID)
    islands = _replay_islands(case, plan)
    assert len(islands) == 25
    calls = _tree_solves(monkeypatch, [_IslandNlp(case.network, i) for i in islands])
    start, middle = calls[0], calls[len(calls) // 2]
    assert start[2].all() and 0 < middle[2].sum() < len(middle[2])
    _assert_tree_step_is_dense_step(*start, rtol=1e-10)
    _assert_tree_step_is_dense_step(*middle)


class _TrigLog:
    """numpy, except that each call of cos and sin is logged."""

    def __init__(self, log):
        self.log = log

    def __getattr__(self, name):
        return getattr(np, name)

    def cos(self, x):
        self.log.append("cos")
        return np.cos(x)

    def sin(self, x):
        self.log.append("sin")
        return np.sin(x)


def test_island_solve_evaluates_the_flow_terms_once_per_iterate(
    monkeypatch, storm_network, uniform_placement
):
    case = apply_der_mode(storm_network, uniform_placement, DerMode.COMMUNITY_MICROGRID)
    damaged = sorted(l.id for l in storm_network.lines if l.damaged)
    plan = fixed_plan(damaged)
    (whole,) = build_rip_step(case, plan, len(damaged)).islands
    assert len(whole.buses) == len(storm_network.buses) == 56
    islands = [whole] + [i for i in build_rip_step(case, plan, 0).islands if i.live]
    assert len(islands) > 3
    log = []
    evaluate = _Batch.evaluate

    def logged(self, u):
        log.append("evaluate")
        return evaluate(self, u)

    monkeypatch.setattr(_Batch, "evaluate", logged)
    monkeypatch.setattr(model, "np", _TrigLog(log))
    nlps = [_IslandNlp(case.network, island) for island in islands]
    ipm = _BatchIpm(nlps)
    solutions = [replay._island_solution(nlp, u) for nlp, u in zip(nlps, ipm.run(1e-6))]
    assert len(solutions) == len(islands)
    iterates = log.count("evaluate")
    # the batch iterates as long as its slowest island, and every island converges
    assert iterates == 1 + ipm.iterations.max() > 5
    assert len(set(ipm.iterations.tolist())) > 1
    assert ipm.iterations.max() < replay.IPM_MAX_ITER
    # one cos and one sin per lockstep iterate, and one more per island
    # for the flows of its solution
    assert log.count("cos") == log.count("sin") == iterates + len(islands)


def test_interior_point_matches_slsqp_reference_on_every_island(
    storm_network, clustered_placement
):
    # the bundled clustered/base plan replayed under community microgrids
    assumed = apply_der_mode(storm_network, clustered_placement, DerMode.BASE)
    plan = solve_rop(build_rop(assumed, time_grid_for(storm_network)))
    case = apply_der_mode(storm_network, clustered_placement, DerMode.COMMUNITY_MICROGRID)
    tol = replay.DEFAULT_RESIDUAL_TOL
    problems = [build_rip_step(case, plan, t) for t in range(plan.n_periods)]
    islands = _replay_islands(case, plan)
    assert len(islands) == 25
    assert {(36, 40), (41, 42)} <= {i.buses for i in islands}
    nlps = [_IslandNlp(case.network, island) for island in islands]
    solved = {}
    for nlp, u in zip(nlps, _BatchIpm(nlps).run(tol)):
        c = nlp.objective_vector()
        assert c @ u <= c @ slsqp_reference.solve(nlp, tol) + tol, nlp.island.buses
        solved[nlp.island] = replay._island_solution(nlp, u)
    for problem in problems:
        state = solve_ac_opf(problem, tol, _solved=solved)
        assert state.converged
        assert max(residuals(state, problem).values()) <= tol


def test_infeasible_island_is_a_non_converged_period():
    # a must-run 0.5 unit alone with a 0.1 demand: no dispatch balances
    net = Network(
        buses=(Bus(1, is_reference=True), Bus(2)),
        lines=(simple_line(1, 1, 2, damaged=True, thermal=8.0),),
        generators=(substation(), Generator(2, 2, 0.5, 1.0, 0.0, 0.0, kind="utility_der")),
        demands=(Demand(1, 2, 0.1, 0.1 * PF_Q),),
    )
    case = apply_der_mode(net, NO_DER, DerMode.BASE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = solve_ac_opf(build_rip_step(case, fixed_plan([1]), 0))
    assert not state.converged
    assert state.max_residual == pytest.approx(0.4)
    assert state.message == "constraint residual 4.000e-01 (balance_p) above tolerance 1.0e-06"


def _batch_solve(net, islands, tol=replay.DEFAULT_RESIDUAL_TOL):
    """Each island's solution, iteration count and factorization count, from one batch."""
    ipm = _BatchIpm([_IslandNlp(net, island) for island in islands])
    solutions = ipm.run(tol)
    return {
        island: (u, n, lus)
        for island, u, n, lus in zip(islands, solutions, ipm.iterations, ipm.factorizations)
    }


def _assert_same_solves(found, reference):
    assert found.keys() == reference.keys()
    for island, (u, n, lus) in reference.items():
        np.testing.assert_array_equal(found[island][0], u, err_msg=str(island.buses))
        assert found[island][1:] == (n, lus), island.buses


def test_batch_solutions_do_not_depend_on_the_batch(storm_network, clustered_placement):
    # the bundled clustered/base plan replayed under community microgrids
    assumed = apply_der_mode(storm_network, clustered_placement, DerMode.BASE)
    plan = solve_rop(build_rop(assumed, time_grid_for(storm_network)))
    case = apply_der_mode(storm_network, clustered_placement, DerMode.COMMUNITY_MICROGRID)
    islands = _replay_islands(case, plan)
    assert len(islands) == 25
    net = case.network
    batch = _batch_solve(net, islands)
    shuffled = list(islands)
    np.random.default_rng(16).shuffle(shuffled)
    assert shuffled != islands
    one_at_a_time = {}
    for island in islands:
        one_at_a_time.update(_batch_solve(net, [island]))
    _assert_same_solves(_batch_solve(net, shuffled), batch)
    _assert_same_solves(one_at_a_time, batch)
    iterations = [n for _, n, _ in batch.values()]
    assert min(iterations) < max(iterations) < replay.IPM_MAX_ITER


def test_infeasible_island_in_a_batch_holds_up_no_other():
    # bus 2: a must-run 0.5 unit alone with a 0.1 demand, which no dispatch
    # balances; bus 5: a unit that serves its own demand; the rest: the
    # substation's island
    net = Network(
        buses=tuple(Bus(b, is_reference=b == 1) for b in range(1, 6)),
        lines=(
            simple_line(1, 1, 2, damaged=True, thermal=8.0),
            simple_line(2, 1, 3, thermal=8.0),
            simple_line(3, 3, 4, thermal=8.0),
            simple_line(4, 1, 5, damaged=True, thermal=8.0),
        ),
        generators=(
            substation(),
            Generator(2, 2, 0.5, 1.0, 0.0, 0.0, kind="utility_der"),
            Generator(3, 5, 0.0, 0.2, -0.1, 0.1, kind="utility_der"),
        ),
        demands=tuple(Demand(k, b, 0.1, 0.1 * PF_Q) for k, b in enumerate((2, 3, 4, 5), 1)),
    )
    case = apply_der_mode(net, NO_DER, DerMode.BASE)
    islands = build_rip_step(case, fixed_plan([1, 4]), 0).islands
    assert [i.buses for i in islands] == [(1, 3, 4), (2,), (5,)]
    infeasible = islands[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = _batch_solve(case.network, islands)
        for island in islands:
            _assert_same_solves(_batch_solve(case.network, [island]), {island: batch[island]})
    # the infeasible island returns its least-violating iterate...
    nlp = _IslandNlp(case.network, infeasible)
    assert nlp.violation(batch[infeasible][0]) == pytest.approx(0.4)
    # ...and leaves the batch, whose other islands go on and converge
    others = [island for island in islands if island != infeasible]
    for island in others:
        assert _IslandNlp(case.network, island).violation(batch[island][0]) <= 1e-6
    assert batch[infeasible][1] < max(batch[island][1] for island in others)


def test_singular_island_alone_takes_the_shifted_retry():
    # bus 2: a unit that cannot move its reactive power and a demand that
    # draws none, so its island's reactive balance row is empty and each
    # block elimination meets an exactly singular block until the
    # constraint block is shifted; bus 5: a unit that serves its own
    # demand; the rest: the substation's island
    net = Network(
        buses=tuple(Bus(b, is_reference=b == 1) for b in range(1, 6)),
        lines=(
            simple_line(1, 1, 2, damaged=True, thermal=8.0),
            simple_line(2, 1, 3, thermal=8.0),
            simple_line(3, 3, 4, thermal=8.0),
            simple_line(4, 1, 5, damaged=True, thermal=8.0),
        ),
        generators=(
            substation(),
            Generator(2, 2, -0.01, 0.05, 0.0, 0.0, kind="utility_der"),
            Generator(3, 5, 0.0, 0.2, -0.1, 0.1, kind="utility_der"),
        ),
        demands=(Demand(1, 2, 0.1, 0.0),) + tuple(
            Demand(k, b, 0.1, 0.1 * PF_Q) for k, b in enumerate((3, 4, 5), 2)
        ),
    )
    case = apply_der_mode(net, NO_DER, DerMode.BASE)
    islands = build_rip_step(case, fixed_plan([1, 4]), 0).islands
    assert [i.buses for i in islands] == [(1, 3, 4), (2,), (5,)]
    singular = islands[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = _batch_solve(case.network, islands)
        for island in islands:
            _assert_same_solves(_batch_solve(case.network, [island]), {island: batch[island]})
    for island, (u, n, lus) in batch.items():
        # one block elimination per Newton step, two for the singular island
        assert lus == (2 * n if island == singular else n), island.buses
        assert _IslandNlp(case.network, island).violation(u) <= 1e-6
