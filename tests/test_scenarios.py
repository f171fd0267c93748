import json

import numpy as np
import pytest

from gridrestore.errors import CaseFormatError, UnknownIdError
from gridrestore.model import CUSTOMER_DER
from gridrestore.scenarios import (
    DerMode,
    DerPlacement,
    apply_der_mode,
    enumerate_cases,
    home_microgrid_load,
    load_scenario,
)

from helpers import chain3, random_radial, two_bus


def test_home_load_floor_branch():
    # 68 kW average load fully offset by a 75 kW unit floors at 1%
    assert home_microgrid_load(0.068, 0.075) == pytest.approx(0.00068, abs=1e-12)


def test_home_load_subtraction_branch():
    assert home_microgrid_load(0.200, 0.075) == pytest.approx(0.125, abs=1e-12)


def test_home_load_zero():
    assert home_microgrid_load(0.0, 0.075) == 0.0


def test_home_load_rejects_negative():
    with pytest.raises(ValueError):
        home_microgrid_load(-0.1, 0.0)
    with pytest.raises(ValueError):
        home_microgrid_load(0.1, -0.5)


def test_community_mode_adds_one_generator_per_entry(bundled_network, uniform_placement):
    case = apply_der_mode(bundled_network, uniform_placement, DerMode.COMMUNITY_MICROGRID)
    ders = [g for g in case.network.generators if g.kind == CUSTOMER_DER]
    # the tabulated uniform list carries 29 entries, kept verbatim
    assert len(ders) == len(uniform_placement.der_nodes) == 29
    for g in ders:
        assert g.p_min == 0.0
        assert g.p_max == pytest.approx(0.075)
        assert (g.q_min, g.q_max) == (pytest.approx(-0.05), pytest.approx(0.05))
        assert not g.damaged
    # demand values untouched, flags set at DER buses
    assert [d.p for d in case.network.demands] == [d.p for d in bundled_network.demands]
    der_buses = set(uniform_placement.der_nodes)
    for d in case.network.demands:
        assert d.has_der == (d.bus in der_buses)


def test_base_mode_leaves_network_untouched(bundled_network, clustered_placement):
    case = apply_der_mode(bundled_network, clustered_placement, DerMode.BASE)
    assert case.network == bundled_network
    assert case.mode is DerMode.BASE
    # grouping still reflects the placement
    assert case.der_demand_ids == frozenset(
        d.id for d in bundled_network.demands if d.bus in set(clustered_placement.der_nodes)
    )


def test_home_mode_nets_hundred_kw_toy():
    net = chain3(damage=())
    placement = DerPlacement("one", (3,), p_max=0.075)
    # bus 3 carries 2 MW here; use a 100 kW toy instead
    from dataclasses import replace

    demands = (net.demands[0], replace(net.demands[1], p=0.100, q=0.0329))
    net = replace(net, demands=demands)
    case = apply_der_mode(net, placement, DerMode.HOME_MICROGRID)
    netted = case.network.demands[case.network.demand_position[2]]
    assert netted.p == pytest.approx(0.025, abs=1e-12)
    # reactive scales with the same ratio
    assert netted.q == pytest.approx(0.0329 * 0.25, abs=1e-12)
    assert netted.has_der


def test_repeated_nodes_stack_before_netting():
    net = two_bus(load=0.2)
    placement = DerPlacement("stacked", (2, 2), p_max=0.075)
    case = apply_der_mode(net, placement, DerMode.HOME_MICROGRID)
    assert case.network.demands[0].p == pytest.approx(0.2 - 0.15, abs=1e-12)
    community = apply_der_mode(net, placement, DerMode.COMMUNITY_MICROGRID)
    ders = [g for g in community.network.generators if g.kind == CUSTOMER_DER]
    assert len(ders) == 2
    assert {g.bus for g in ders} == {2}


def test_home_mode_floor_and_monotonicity_random():
    rng = np.random.RandomState(11)
    for _ in range(20):
        net = random_radial(rng)
        nodes = tuple(
            int(d.bus) for d in net.demands if rng.rand() < 0.5
        ) or (net.demands[0].bus,)
        placement = DerPlacement("rand", nodes, p_max=float(rng.uniform(0.01, 2.0)))
        case = apply_der_mode(net, placement, DerMode.HOME_MICROGRID)
        for before, after in zip(net.demands, case.network.demands):
            if before.bus in set(nodes) and before.p > 0:
                assert 0.01 * before.p - 1e-12 <= after.p <= before.p + 1e-12
            else:
                assert after.p == before.p
        assert case.network.total_demand_p() <= net.total_demand_p() + 1e-12


def test_community_changes_only_generators(bundled_network, clustered_placement):
    case = apply_der_mode(bundled_network, clustered_placement, DerMode.COMMUNITY_MICROGRID)
    assert [d.p for d in case.network.demands] == [d.p for d in bundled_network.demands]
    assert [d.q for d in case.network.demands] == [d.q for d in bundled_network.demands]
    assert case.network.lines == bundled_network.lines
    assert case.network.buses == bundled_network.buses
    n_new = len(case.network.generators) - len(bundled_network.generators)
    assert n_new == len(clustered_placement.der_nodes) == 16


def test_effective_case_is_not_reapplicable(bundled_network, uniform_placement):
    case = apply_der_mode(bundled_network, uniform_placement, DerMode.HOME_MICROGRID)
    with pytest.raises(TypeError):
        apply_der_mode(case, uniform_placement, DerMode.HOME_MICROGRID)


def test_unknown_bus_rejected(bundled_network):
    with pytest.raises(UnknownIdError):
        apply_der_mode(
            bundled_network, DerPlacement("bad", (999,)), DerMode.COMMUNITY_MICROGRID
        )


def test_enumerate_cases_order(bundled_network, uniform_placement, clustered_placement):
    modes = (DerMode.BASE, DerMode.HOME_MICROGRID, DerMode.COMMUNITY_MICROGRID)
    cases = enumerate_cases(
        bundled_network, [uniform_placement, clustered_placement], modes
    )
    assert len(cases) == 6
    labels = [c.label for c in cases]
    assert labels == [
        "uniform-base",
        "uniform-home_microgrid",
        "uniform-community_microgrid",
        "clustered-base",
        "clustered-home_microgrid",
        "clustered-community_microgrid",
    ]
    assert len(enumerate_cases(bundled_network, [uniform_placement], [DerMode.BASE])) == 1
    assert enumerate_cases(bundled_network, [], [DerMode.BASE]) == []


def test_scenario_file_round_trip(tmp_path):
    payload = {
        "placement": {"name": "x", "der_nodes": [2, 2, 3], "p_max": 0.05},
        "mode": "community",
    }
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(payload))
    placement = load_scenario(path)  # the file's mode is ignored
    assert placement == DerPlacement("x", (2, 2, 3), p_max=0.05)
    path.write_text(json.dumps({"mode": "base"}))
    with pytest.raises(CaseFormatError):
        load_scenario(path)


@pytest.mark.parametrize(
    "payload", [{"placement": [50, 42]}, {"placement": "uniform"}, ["placement"]]
)
def test_scenario_file_with_malformed_placement(tmp_path, payload):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(CaseFormatError):
        load_scenario(path)


def test_mode_parsing_aliases():
    assert DerMode.parse("home") is DerMode.HOME_MICROGRID
    assert DerMode.parse("community_microgrid") is DerMode.COMMUNITY_MICROGRID
    with pytest.raises(CaseFormatError):
        DerMode.parse("solar")
