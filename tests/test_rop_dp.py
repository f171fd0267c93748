"""The exact subset DP that orders line repairs, one per period.

The closed-form island value is checked against the reference-simplex
load-shed LP of ``helpers.dc_shed_optimum``, the DP optimum against the
MILP optimum of HiGHS and of the reference branch-and-bound, and the
routing between the DP and the MILP path. The per-segment served-power
kernel, which scores the islands of every segment in one call, is held
bit for bit to the all-subsets kernel it replaced (``dp_reference``),
and pinned on the six bundled cases. The row-block fold is held bit for
bit to the layered fold it replaced, and the order it gives to a plain
Held-Karp loop over single subsets with the same tie rule. The closed-form
dispatch of the DP's order is checked for feasibility, for the optimum
of every period, and for the conditions of its shedding rule, recomputed
here from the network by a loop down the feeder.
"""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gridrestore import datasets, rop
from gridrestore.errors import SolverError
from gridrestore.milp import OPTIMAL, Solution, solve_milp, verify_solution
from gridrestore.model import (
    Bus,
    Demand,
    Generator,
    Network,
    TimeGrid,
    apply_damage,
    time_grid_for,
)
from gridrestore.rop import _extract_plan, build_rop, check_plan, solve_rop
from gridrestore.scenarios import DerMode, DerPlacement, apply_der_mode

import dp_reference
from bnb_reference import solve_milp_builtin
from helpers import (
    PF_Q,
    chain3,
    dc_shed_optimum,
    permutation_oracle,
    random_der_feeder,
    random_radial,
    simple_line,
    substation,
)

NO_DER = DerPlacement("none", ())


def as_case(network, mode=DerMode.BASE, placement=NO_DER):
    return apply_der_mode(network, placement, mode)


def energized(network, subset: int) -> set[int]:
    damaged = [l.id for l in network.lines if l.damaged]
    return {lid for k, lid in enumerate(damaged) if subset >> k & 1}


@pytest.fixture()
def solve_milp_calls(monkeypatch):
    """The problems ``solve_rop`` hands to HiGHS, in call order."""
    calls = []

    def spy(problem, *args, **kwargs):
        calls.append(problem)
        return solve_milp(problem, *args, **kwargs)

    monkeypatch.setattr(rop, "solve_milp", spy)
    return calls


def test_island_values_match_lp_where_capacity_binds():
    rng = np.random.RandomState(31)
    limited = total = 0
    for _ in range(20):
        net = random_der_feeder(rng, max_damaged=4)
        loose = replace(
            net, lines=tuple(replace(l, thermal_limit=1e3) for l in net.lines)
        )
        served = rop._served_power(net)
        for subset in range(len(served)):
            on = energized(net, subset)
            oracle = dc_shed_optimum(net, on)
            assert served[subset] == pytest.approx(oracle, rel=1e-9, abs=1e-9)
            limited += oracle < dc_shed_optimum(loose, on) - 1e-6
            total += 1
    assert limited >= total // 2  # thermal limits bind on most subsets


@pytest.mark.parametrize("mode", list(DerMode), ids=lambda m: m.value)
def test_island_values_match_lp_on_bundled_storm(storm_network, clustered_placement, mode):
    net = apply_der_mode(storm_network, clustered_placement, mode).network
    served = rop._served_power(net)
    rng = np.random.RandomState(5)
    samples = [0, len(served) - 1, *rng.randint(1, len(served) - 1, size=4)]
    for subset in samples:
        oracle = dc_shed_optimum(net, energized(net, int(subset)))
        assert served[subset] == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def test_dp_optimum_equals_highs_milp_on_storm_case(storm_network, storm_grid, clustered_placement):
    inst = build_rop(as_case(storm_network, placement=clustered_placement), storm_grid)
    plan = solve_rop(inst)
    milp = solve_milp(inst.problem, rel_gap=1e-6)
    assert milp.status == "optimal"
    milp_mwh = milp.objective * inst.case.network.base_mva
    assert plan.objective_mwh >= milp_mwh - 1e-9
    assert plan.objective_mwh == pytest.approx(milp_mwh, rel=1e-6)


def test_dp_optimum_equals_builtin_milp_on_small_feeders():
    rng = np.random.RandomState(11)
    feeders = [random_radial(rng, n_buses=5, max_damaged=3) for _ in range(3)]
    feeders += [random_der_feeder(rng, n_buses=5, max_damaged=3) for _ in range(3)]
    for net in feeders:
        inst = build_rop(as_case(net), time_grid_for(net))
        reference = solve_milp_builtin(inst.problem)
        assert reference.status == "optimal"
        expected = _extract_plan(inst, reference).objective_mwh
        assert solve_rop(inst).objective_mwh == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_eligible_instance_takes_dp_path(solve_milp_calls):
    net = chain3(damage=(1, 2))
    inst = build_rop(as_case(net), TimeGrid(4))  # one spare period at the end
    plan = solve_rop(inst)
    assert solve_milp_calls == []  # the dispatch is in closed form too
    assert plan.energization == {"line:1": 1, "line:2": 2}
    assert plan.objective_mwh == pytest.approx(1.0 + 3.0 + 3.0)
    assert plan.optimal and plan.gap == 0.0
    assert check_plan(plan, inst) == []


def test_damaged_bus_takes_milp_path(solve_milp_calls):
    net = chain3(damage=(1, 2))
    net = replace(
        net, buses=(net.buses[0], replace(net.buses[1], damaged=True), net.buses[2])
    )
    inst = build_rop(as_case(net), TimeGrid(4))
    plan = solve_rop(inst)
    assert solve_milp_calls == [inst.problem]
    assert plan.energization == {"bus:2": 1, "line:1": 2, "line:2": 3}
    assert plan.objective_mwh == pytest.approx(4.0, abs=1e-7)


def test_must_run_generator_takes_milp_path(solve_milp_calls):
    # a unit at bus 2 that cannot go below 0.2 MW: zero output is infeasible
    net = chain3(damage=(1, 2))
    net = replace(
        net, generators=net.generators + (Generator(2, 2, 0.2, 0.5, -0.2, 0.2),)
    )
    inst = build_rop(as_case(net), TimeGrid(3))
    plan = solve_rop(inst)
    assert solve_milp_calls == [inst.problem]
    # t0: the unit serves 0.5 MW alone; line 1 then joins the substation
    assert plan.energization == {"line:1": 1, "line:2": 2}
    assert plan.objective_mwh == pytest.approx(0.5 + 1.0 + 3.0, abs=1e-7)


def star_feeder(n_spurs: int) -> Network:
    """Substation bus 1 with ``n_spurs`` damaged spurs of 0.1 MW each."""
    return Network(
        buses=tuple(Bus(i, is_reference=(i == 1)) for i in range(1, n_spurs + 2)),
        lines=tuple(simple_line(i, 1, i + 1, damaged=True) for i in range(1, n_spurs + 1)),
        generators=(substation(p=50.0),),
        demands=tuple(Demand(i, i + 1, 0.1, 0.1 * PF_Q) for i in range(1, n_spurs + 1)),
    )


def test_damaged_line_cap_routes_to_milp(monkeypatch, solve_milp_calls):
    for k in (rop.DP_MAX_LINES, rop.DP_MAX_LINES + 1):
        net = star_feeder(k)
        assert rop._dp_eligible(build_rop(as_case(net), time_grid_for(net))) == (
            k <= rop.DP_MAX_LINES
        )
    # the same feeder past a lowered cap is solved by HiGHS to the same optimum
    net = apply_damage(random_der_feeder(np.random.RandomState(3), n_buses=7), (1, 3, 5))
    inst = build_rop(as_case(net), time_grid_for(net))
    dp_plan = solve_rop(inst)
    monkeypatch.setattr(rop, "DP_MAX_LINES", 2)
    milp_plan = solve_rop(inst)
    assert solve_milp_calls == [inst.problem]
    assert milp_plan.objective_mwh == pytest.approx(dp_plan.objective_mwh, rel=1e-6)
    assert dp_plan.objective_mwh == pytest.approx(permutation_oracle(net), rel=1e-9)


def twin_branches(second_load: float) -> Network:
    """Two damaged spurs off the substation: line 1 feeds 1 MW, line 2 ``second_load``."""
    return Network(
        buses=(Bus(1, is_reference=True), Bus(2), Bus(3)),
        lines=(simple_line(1, 1, 2, damaged=True), simple_line(2, 1, 3, damaged=True)),
        generators=(substation(),),
        demands=(Demand(1, 2, 1.0, PF_Q), Demand(2, 3, second_load, second_load * PF_Q)),
    )


def test_tie_goes_to_lower_line_index():
    net = twin_branches(1.0)
    plan = solve_rop(build_rop(as_case(net), time_grid_for(net)))
    assert plan.energization == {"line:1": 1, "line:2": 2}
    # a real difference, far above the tie tolerance, is not a tie
    net = twin_branches(1.0 + 1e-9)
    plan = solve_rop(build_rop(as_case(net), time_grid_for(net)))
    assert plan.energization == {"line:2": 1, "line:1": 2}


def test_dp_value_disagreeing_with_dispatch_lp_raises(monkeypatch):
    inst = build_rop(as_case(chain3(damage=(1, 2))), TimeGrid(3))
    best_order = rop._best_order

    def mutated(network, n_periods):
        order, value = best_order(network, n_periods)
        return order, value * (1 + 1e-5)

    monkeypatch.setattr(rop, "_best_order", mutated)
    with pytest.raises(SolverError, match="disagrees with the subset DP"):
        solve_rop(inst)


def test_calls_share_no_state():
    rng = np.random.RandomState(8)
    net = random_der_feeder(rng, n_buses=8, max_damaged=3)
    # same feeder shape and damage, different loads and unit sizes
    other = replace(
        net,
        demands=tuple(replace(d, p=d.p * (1.5 if d.id % 2 else 0.5)) for d in net.demands),
        generators=tuple(replace(g, p_max=g.p_max * 2) for g in net.generators),
    )
    inst, other_inst = (build_rop(as_case(n), time_grid_for(n)) for n in (net, other))
    first = solve_rop(inst)
    other_plan = solve_rop(other_inst)
    again = solve_rop(inst)
    assert other_plan.objective_mwh == pytest.approx(permutation_oracle(other), rel=1e-9)
    assert first.objective_mwh == pytest.approx(permutation_oracle(net), rel=1e-9)
    assert again.energization == first.energization
    assert again.objective_mwh == first.objective_mwh
    np.testing.assert_array_equal(again.served_fraction, first.served_fraction)


def branching_feeder(parents: list[int]) -> Network:
    """Every line damaged: bus i + 2 hangs off bus ``parents[i]``.

    Loads, DER sizes and binding thermal limits all differ, and the lines
    are listed in reverse, so the damaged-line bit order differs from the
    segment tree's preorder.
    """
    rng = np.random.RandomState(len(parents))
    n = len(parents) + 1
    lines = [
        simple_line(i + 1, p, i + 2, damaged=True, thermal=float(rng.uniform(0.3, 2.0)))
        for i, p in enumerate(parents)
    ]
    loads = rng.uniform(0.2, 2.0, size=n - 1)
    return Network(
        buses=tuple(Bus(i, is_reference=(i == 1)) for i in range(1, n + 1)),
        lines=tuple(reversed(lines)),
        generators=(substation(p=50.0, q=25.0),) + tuple(
            Generator(b, b, 0.0, 0.6 * b / n, -0.3, 0.3, kind="customer_der")
            for b in range(3, n + 1, 3)
        ),
        demands=tuple(
            Demand(b - 1, b, float(p), float(p) * PF_Q) for b, p in zip(range(2, n + 1), loads)
        ),
    )


def test_served_power_matches_reference_on_random_feeders():
    rng = np.random.RandomState(41)
    for n_damaged in range(9):
        for _ in range(3):
            net = random_der_feeder(rng, n_buses=int(rng.randint(max(n_damaged + 1, 4), 16)))
            ids = [l.id for l in net.lines]
            net = apply_damage(net, rng.choice(ids, size=n_damaged, replace=False).tolist())
            # a shuffled line list changes the tree walk and the damaged-line bit order
            net = replace(net, lines=tuple(net.lines[i] for i in rng.permutation(len(ids))))
            served = rop._served_power(net)
            assert served.shape == (1 << n_damaged,)
            assert np.array_equal(served, dp_reference.served_power(net))


@pytest.mark.parametrize(
    "parents", [list(range(1, 11)), [1] * 10], ids=["chain10", "star10"]
)
def test_served_power_matches_reference_on_chain_and_star(parents):
    net = branching_feeder(parents)
    assert np.array_equal(rop._served_power(net), dp_reference.served_power(net))


def test_served_power_matches_reference_at_the_line_cap():
    rng = np.random.RandomState(2)
    net = random_der_feeder(rng, n_buses=22)
    ids = [l.id for l in net.lines]
    net = apply_damage(net, rng.choice(ids, size=rop.DP_MAX_LINES, replace=False).tolist())
    assert np.array_equal(rop._served_power(net), dp_reference.served_power(net))


def test_island_chunks_change_no_bit(monkeypatch):
    net = branching_feeder([1] * 10)
    whole = rop._served_power(net)
    monkeypatch.setattr(rop, "ISLAND_CHUNK", 7)
    assert np.array_equal(rop._served_power(net), whole)


def test_island_values_called_once_per_network(monkeypatch, storm_network, clustered_placement):
    calls = []
    island_values = rop._island_values

    def spy(islands, tree):
        calls.append(len(islands))
        return island_values(islands, tree)

    monkeypatch.setattr(rop, "_island_values", spy)
    bundled = apply_der_mode(storm_network, clustered_placement, DerMode.BASE).network
    for net in (bundled, star_feeder(10)):
        calls.clear()
        rop._served_power(net)
        assert len(calls) == 1


def fold_inputs(rng, k_lines: int):
    """f arrays for the fold: random floats, and integers with exact ties and plateaus."""
    n = 1 << k_lines
    popcount = np.array([bin(s).count("1") for s in range(n)], dtype=float)
    yield rng.uniform(0.0, 5.0, size=n)
    yield rng.randint(0, 3, size=n).astype(float)
    yield np.full(n, 2.0)
    yield popcount
    yield np.minimum(popcount, 2.0) * 3.0


def test_fold_matches_held_karp_reference(monkeypatch):
    rng = np.random.RandomState(23)
    f = None
    monkeypatch.setattr(rop, "_served_power", lambda network: f.copy())
    for k_lines in range(11):
        net = star_feeder(k_lines)
        damaged = net.damage.lines
        for f in fold_inputs(rng, k_lines):
            n_periods = k_lines + 1 + int(rng.randint(3))
            bits, value = dp_reference.best_order(f, k_lines, n_periods)
            assert rop._best_order(net, n_periods) == ([damaged[k] for k in bits], value)
            if np.all(f == f[0]):  # every order ties: lowest index first at each step
                assert bits == list(range(k_lines))


def test_fold_matches_layered_reference():
    rng = np.random.RandomState(29)
    for k_lines in range(11, 15):
        for f in fold_inputs(rng, k_lines):
            n_periods = k_lines + 1 + int(rng.randint(3))
            expected = dp_reference.layered_fold(f.copy(), k_lines, n_periods)
            assert np.array_equal(rop._fold(f.copy(), k_lines, n_periods), expected)
    k_lines = rop.DP_MAX_LINES
    f = rng.uniform(0.0, 5.0, size=1 << k_lines)
    expected = dp_reference.layered_fold(f.copy(), k_lines, k_lines + 2)
    assert np.array_equal(rop._fold(f.copy(), k_lines, k_lines + 2), expected)


def test_fold_low_bits_change_no_bit(monkeypatch):
    k_lines = 12
    for f in fold_inputs(np.random.RandomState(37), k_lines):
        whole = rop._fold(f.copy(), k_lines, k_lines + 2)
        for low in (0, 1, k_lines):
            monkeypatch.setattr(rop, "FOLD_LOW_BITS", low)
            assert np.array_equal(rop._fold(f.copy(), k_lines, k_lines + 2), whole)
        monkeypatch.undo()


def test_served_power_memory_is_bounded_per_subset():
    # 16 spurs off the root segment: 2^16 distinct islands of 17 buses,
    # 357 B per subset (23 MB) when scored in one batch, 56 B in chunks
    k = 16
    net = star_feeder(k)
    rop._served_power(star_feeder(3))  # numpy's first-call allocations
    tracemalloc.start()
    try:
        rop._served_power(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * (1 << k)


def test_fold_memory_is_bounded_per_subset(monkeypatch):
    # f's copy is 8 B per subset; the layered fold it replaced peaked at
    # 26 B, the row blocks at about 13 B
    k = rop.DP_MAX_LINES
    net = star_feeder(k)
    f = np.random.RandomState(43).uniform(0.0, 5.0, size=1 << k)
    monkeypatch.setattr(rop, "_served_power", lambda network: f.copy())
    rop._best_order(net, k + 2)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        rop._best_order(net, k + 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * (1 << k)


# sha256 of _served_power(net).tobytes() (little-endian float64), the DP's
# repair order and its value, per bundled (placement, mode)
BUNDLED_DP = {
    ("uniform", DerMode.BASE): (
        "a559452dae49df2b649f55fbdd8e88d94e050b6af32377fd23313a35f8019b92",
        [2, 35, 40, 50, 33, 42, 43, 47, 23, 24, 28, 13, 14, 17, 6, 7, 10, 19],
        39.089999999999996,
    ),
    ("uniform", DerMode.HOME_MICROGRID): (
        "f290570b5bc9152ffadf44b84a5ccd1b2007f4816d522f42e754ad54223ae0fa",
        [33, 2, 35, 40, 50, 42, 43, 47, 6, 7, 10, 13, 17, 14, 23, 24, 28, 19],
        23.643899999999995,
    ),
    ("uniform", DerMode.COMMUNITY_MICROGRID): (
        "1ddad9c8dd2dde44864a1fc90bccddda23308af3431f5faa5bf5b15254c14191",
        [28, 2, 35, 40, 50, 42, 43, 47, 33, 13, 17, 14, 23, 6, 7, 10, 19, 24],
        54.825,
    ),
    ("clustered", DerMode.BASE): (
        "a559452dae49df2b649f55fbdd8e88d94e050b6af32377fd23313a35f8019b92",
        [2, 35, 40, 50, 33, 42, 43, 47, 23, 24, 28, 13, 14, 17, 6, 7, 10, 19],
        39.089999999999996,
    ),
    ("clustered", DerMode.HOME_MICROGRID): (
        "1d0550ebb7ff96ce5860fa2da415f8a7b2d6da4df9dd16ae69725a757351b58d",
        [33, 23, 24, 28, 2, 35, 40, 50, 13, 14, 17, 6, 7, 10, 19, 42, 43, 47],
        29.64455,
    ),
    ("clustered", DerMode.COMMUNITY_MICROGRID): (
        "1b859690853cd748246267580c0f7a60f01c5ac6c6085325c4754a6776433c9b",
        [33, 23, 24, 28, 13, 14, 17, 6, 7, 10, 2, 35, 40, 19, 42, 50, 43, 47],
        50.25000000000001,
    ),
}


@pytest.mark.parametrize(
    "placement, mode", list(BUNDLED_DP), ids=lambda v: getattr(v, "value", v)
)
def test_bundled_served_power_and_order_are_pinned(storm_network, storm_grid, placement, mode):
    net = apply_der_mode(storm_network, datasets.bundled_placement(placement), mode).network
    digest, order, value = BUNDLED_DP[(placement, mode)]
    f = rop._served_power(net)
    assert hashlib.sha256(f.tobytes()).hexdigest() == digest
    assert rop._best_order(net, storm_grid.n_periods) == (order, value)
    k_lines, n_periods = len(order), storm_grid.n_periods
    expected = dp_reference.layered_fold(f.copy(), k_lines, n_periods)
    assert np.array_equal(rop._fold(f, k_lines, n_periods), expected)


def dp_point(inst):
    """The closed-form MILP point of the DP's order, and that order."""
    order, _ = rop._best_order(inst.case.network, inst.time.n_periods)
    return rop._dp_point(inst, order), order


def energized_at(order, t: int) -> set[int]:
    return set(order[:t])


def rule_conditions(inst, x, order, t):
    """The largest spread of the rule's fractions at any bus in period t.

    A loop down ``network.tree`` recomputes, per bus, the supply (own
    ``p_max`` plus the children's capped surplus) and the demand (own load
    plus the children's capped shortfall). At each bus the rule gives one
    fraction to its demands and to every short child's capped shortfall
    (the flow into that child over it), and one fraction to its units'
    ``p_max`` and to every surplus child's capped surplus (the flow out of
    that child over it). Returns the largest spread of either set, and
    the largest excess of a flow over its line's capped share.
    """
    net = inst.case.network
    tree = net.tree
    live = energized_at(order, t)
    supply = {b: sum(g.p_max for g in net.generators_at.get(b, ())) for b in tree.order}
    demand = {b: sum(d.p for d in net.demands_at.get(b, ())) for b in tree.order}
    short, surplus, inflow = {}, {}, {}
    children = {b: [] for b in tree.order}
    for k in range(len(tree.order) - 1, 0, -1):
        bus, parent, line = tree.order[k], tree.order[tree.parent[k]], tree.up[k]
        cap = line.thermal_limit if not line.damaged or line.id in live else 0.0
        short[bus] = min(max(demand[bus] - supply[bus], 0.0), cap)
        surplus[bus] = min(max(supply[bus] - demand[bus], 0.0), cap)
        demand[parent] += short[bus]
        supply[parent] += surplus[bus]
        flow = x[inst.pl_col[(line.id, t)]]
        inflow[bus] = flow if line.from_bus == parent else -flow
        children[parent].append(bus)
    spread = excess = 0.0
    for bus in tree.order:
        served = [x[inst.x_col[(d.id, t)]] for d in net.demands_at.get(bus, ()) if d.p > 0]
        served += [inflow[c] / short[c] for c in children[bus] if short[c] > 0]
        drawn = [
            x[inst.pg_col[(g.id, t)]] / g.p_max
            for g in net.generators_at.get(bus, ()) if g.p_max > 0
        ]
        drawn += [-inflow[c] / surplus[c] for c in children[bus] if surplus[c] > 0]
        for fractions in (served, drawn):
            if fractions:
                spread = max(spread, max(fractions) - min(fractions))
        for c in children[bus]:
            excess = max(excess, inflow[c] - short[c], -inflow[c] - surplus[c])
    return spread, excess


def test_closed_form_dispatch_is_feasible_optimal_and_follows_the_rule():
    rng = np.random.RandomState(19)
    feeders = [random_der_feeder(rng, max_damaged=4) for _ in range(8)]
    feeders += [random_radial(rng, max_damaged=4) for _ in range(4)]
    shed = 0
    for net in feeders:
        inst = build_rop(as_case(net), time_grid_for(net))
        x, order = dp_point(inst)
        verify_solution(inst.problem, Solution(OPTIMAL, x=x), tol=1e-9)
        for t in range(inst.time.n_periods):
            served = sum(d.p * x[inst.x_col[(d.id, t)]] for d in net.demands)
            oracle = dc_shed_optimum(net, energized_at(order, t))
            assert served == pytest.approx(oracle, rel=1e-9, abs=1e-9)
            spread, excess = rule_conditions(inst, x, order, t)
            assert spread <= 1e-12 and excess <= 1e-12
            # partly served buses, where the rule has a choice to make
            shed += sum(0 < x[inst.x_col[(d.id, t)]] < 1 for d in net.demands)
        plan = solve_rop(inst)
        for di, d in enumerate(net.demands):
            expected = [x[inst.x_col[(d.id, t)]] for t in range(inst.time.n_periods)]
            assert plan.served_fraction[di].tolist() == expected
    assert shed >= 20


def test_closed_form_dispatch_on_an_undamaged_feeder():
    # K = 0: no z columns, one period, and binding limits that still shed
    net = apply_damage(random_der_feeder(np.random.RandomState(4), n_buses=9), ())
    inst = build_rop(as_case(net), TimeGrid(1))
    assert not inst.z_col and not inst.problem.integer_columns
    x, order = dp_point(inst)
    assert order == []
    verify_solution(inst.problem, Solution(OPTIMAL, x=x), tol=1e-9)
    served = sum(d.p * x[inst.x_col[(d.id, 0)]] for d in net.demands)
    oracle = dc_shed_optimum(net, set())
    assert oracle < net.total_demand_p() - 0.1
    assert served == pytest.approx(oracle, rel=1e-9)
    assert rule_conditions(inst, x, order, 0)[0] <= 1e-12
    plan = solve_rop(inst)
    assert plan.schedule == ((),) and plan.optimal
    assert rop.rop_ens_mwh(plan, inst) == pytest.approx(
        net.total_demand_p() - oracle, rel=1e-9
    )


@pytest.mark.parametrize("placement", ["uniform", "clustered"])
def test_community_fractions_do_not_depend_on_element_order(storm_network, storm_grid, placement):
    case = apply_der_mode(
        storm_network, datasets.bundled_placement(placement), DerMode.COMMUNITY_MICROGRID
    )
    net = case.network
    rng = np.random.RandomState(7)
    shuffled = replace(
        net,
        demands=tuple(net.demands[i] for i in rng.permutation(len(net.demands))),
        generators=tuple(net.generators[i] for i in rng.permutation(len(net.generators))),
    )
    fractions = []
    for n in (net, shuffled):
        plan = solve_rop(build_rop(replace(case, network=n), storm_grid))
        fractions.append({d.id: row.tolist() for d, row in zip(n.demands, plan.served_fraction)})
    assert fractions[0] == fractions[1]
    # the rule sheds some customers partly, so the check has something to hold
    assert any(0 < v < 1 for row in fractions[0].values() for v in row)
