import json
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from gridrestore import model
from gridrestore.errors import CaseFormatError, CaseValidationError, UnknownIdError
from gridrestore.metrics import reconnection_times
from gridrestore.model import (
    UTILITY_DER,
    Bus,
    Demand,
    Generator,
    Network,
    TimeGrid,
    apply_damage,
    load_case,
    network_from_dict,
    network_to_dict,
    save_case,
    time_grid_for,
    validate,
)
from gridrestore import datasets
from gridrestore.replay import simulate_plans
from gridrestore.rop import build_rop, solve_rop
from gridrestore.scenarios import DerMode, DerPlacement, apply_der_mode

from helpers import chain3, random_radial, simple_line, substation


def test_bundled_case_counts(bundled_network):
    net = bundled_network
    assert len(net.buses) == 56
    # a connected radial 56-node network needs exactly 55 branches
    assert len(net.lines) == 55
    assert len(net.demands) == 52
    assert net.total_demand_p() * net.base_mva == pytest.approx(3.49, abs=1e-9)
    assert validate(net).ok


def test_minimal_two_bus_case(tmp_path):
    raw = {
        "base_mva": 1.0,
        "buses": [{"id": 1, "is_reference": True}, {"id": 2}],
        "lines": [{"id": 1, "from_bus": 1, "to_bus": 2, "g": 50.0, "b": -50.0,
                   "thermal_limit": 5.0}],
        "generators": [{"id": 1, "bus": 1, "p_min": 0, "p_max": 5,
                        "q_min": -2, "q_max": 2, "kind": "substation"}],
        "demands": [{"id": 1, "bus": 2, "p": 0.5}],
    }
    path = tmp_path / "two_bus.json"
    path.write_text(json.dumps(raw))
    net = load_case(path)
    assert len(net.buses) == 2 and len(net.lines) == 1
    assert net.demands[0].p == 0.5


def test_duplicate_bus_id_names_offender(tmp_path):
    raw = {
        "base_mva": 1.0,
        "buses": [{"id": 7, "is_reference": True}, {"id": 7}],
        "lines": [{"id": 1, "from_bus": 7, "to_bus": 7, "g": 1.0, "b": -1.0}],
        "generators": [],
        "demands": [],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(CaseValidationError) as err:
        load_case(path)
    assert "7" in str(err.value)


def test_validate_two_reference_buses(bundled_network):
    buses = tuple(
        replace(b, is_reference=True) if b.id in (1, 2) else b
        for b in bundled_network.buses
    )
    report = validate(replace(bundled_network, buses=buses))
    assert any("reference" in v for v in report.violations)


def test_validate_cycle_detected(bundled_network):
    extra = simple_line(999, 2, 4)
    report = validate(replace(bundled_network, lines=bundled_network.lines + (extra,)))
    assert any("radiality" in v for v in report.violations)


def test_validate_disconnected_detected(bundled_network):
    # re-wire one line into a parallel edge: count stays right, graph splits
    lines = list(bundled_network.lines)
    victim = lines[-1]
    lines[-1] = replace(victim, from_bus=1, to_bus=2)
    report = validate(replace(bundled_network, lines=tuple(lines)))
    assert any("unreachable" in v for v in report.violations)


def test_validate_reports_bad_bounds():
    net = Network(
        buses=(Bus(1, is_reference=True, v_min=1.2, v_max=1.1), Bus(2)),
        lines=(simple_line(1, 1, 2),),
        generators=(Generator(1, 1, 2.0, 1.0, 0.0, 0.0, kind="substation"),),
        demands=(Demand(1, 2, -0.5),),
    )
    text = "\n".join(validate(net).violations)
    assert "bus 1" in text
    assert "generator 1" in text
    assert "demand 1" in text


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_validate_refuses_non_finite_numbers(value):
    # a Network built through the API can hold what no case file can
    net = chain3()
    demands = (net.demands[0], replace(net.demands[1], p=value))
    lines = (replace(net.lines[0], b=value), net.lines[1])
    for bad, record in (
        (replace(net, demands=demands), "demand 2: field 'p'"),
        (replace(net, lines=lines), "line 1: field 'b'"),
        (replace(net, base_mva=value), "base_mva"),
    ):
        report = validate(bad)
        assert any(record in v and repr(value) in v for v in report.violations), report
        with pytest.raises(CaseValidationError, match=record):
            report.raise_if_invalid()
    assert validate(net).ok


def test_validate_reports_ill_typed_fields_and_never_raises():
    # what no case file can hold: a None power, a list id, a bool bus, a
    # numpy bool flag where a number belongs
    net = chain3()
    bad = (
        (replace(net, demands=(replace(net.demands[0], p=None), net.demands[1])),
         "demand 1: field 'p' must be JSON number, got None"),
        (replace(net, buses=(net.buses[0], replace(net.buses[1], id=[2]), net.buses[2])),
         "bus [2]: field 'id' must be JSON integer, got [2]"),
        (replace(net, generators=(replace(net.generators[0], bus=True),)),
         "generator 1: field 'bus' must be JSON integer, got True"),
        (replace(net, lines=(replace(net.lines[0], g=np.bool_(True)), net.lines[1])),
         "line 1: field 'g' must be JSON number, got"),
        (replace(net, base_mva=None), "base_mva must be positive and finite, got None"),
    )
    for network, message in bad:
        report = validate(network)
        assert any(v.startswith(message) for v in report.violations), report
    # the well-typed records of the same network are still checked
    negative = replace(net.demands[1], p=-1.0)
    report = validate(replace(net, demands=(replace(net.demands[0], p=None), negative, negative)))
    assert "duplicate demand id 2" in report.violations
    assert "demand 2: active power must be non-negative" in report.violations


def test_validate_accepts_numpy_scalars_and_checks_them():
    net = chain3()
    scalar = replace(
        net,
        buses=tuple(replace(b, id=np.int64(b.id), v_max=np.float64(b.v_max),
                            is_reference=np.bool_(b.is_reference)) for b in net.buses),
        demands=tuple(replace(d, bus=np.int32(d.bus), p=np.float32(d.p)) for d in net.demands),
        base_mva=np.float64(1.0),
    )
    assert validate(scalar).ok
    lines = (replace(scalar.lines[0], to_bus=np.int64(9)), scalar.lines[1])
    assert "line 1: to_bus 9 does not exist" in validate(replace(scalar, lines=lines)).violations


def test_customer_der_cannot_be_damaged():
    net = Network(
        buses=(Bus(1, is_reference=True), Bus(2)),
        lines=(simple_line(1, 1, 2),),
        generators=(
            substation(),
            Generator(2, 2, 0.0, 0.075, -0.05, 0.05, kind="customer_der", damaged=True),
        ),
        demands=(Demand(1, 2, 0.5),),
    )
    assert any("cannot be damaged" in v for v in validate(net).violations)


def test_apply_damage_storm_set(bundled_network):
    ids = datasets.bundled_damage_ids()
    assert sorted(ids) == sorted(
        [2, 10, 24, 43, 23, 47, 28, 19, 7, 35, 40, 33, 6, 14, 42, 17, 13, 50]
    )
    damaged = apply_damage(bundled_network, ids)
    flagged = {l.id for l in damaged.lines if l.damaged}
    assert flagged == set(ids)
    assert len(flagged) == 18


def test_apply_damage_empty_is_identity(bundled_network):
    assert apply_damage(bundled_network, []) == bundled_network


def test_apply_damage_unknown_id(bundled_network):
    with pytest.raises(UnknownIdError):
        apply_damage(bundled_network, [999])


def test_apply_damage_preserves_parameters(bundled_network):
    damaged = apply_damage(bundled_network, [2, 10])
    for before, after in zip(bundled_network.lines, damaged.lines):
        assert replace(before, damaged=False) == replace(after, damaged=False)
    assert damaged.buses == bundled_network.buses
    assert damaged.demands == bundled_network.demands


def test_case_round_trip(bundled_network, tmp_path):
    path = tmp_path / "roundtrip.json"
    save_case(bundled_network, path)
    assert load_case(path) == bundled_network


def test_round_trip_on_random_networks(tmp_path):
    rng = np.random.RandomState(3)
    for k in range(10):
        net = random_radial(rng)
        assert validate(net).ok
        again = network_from_dict(network_to_dict(net))
        assert again == net


def test_round_trip_scales_physical_fields():
    # a power-of-two base keeps the scaling exact; every optional unit and
    # demand field is set away from its default
    rng = np.random.RandomState(4)
    for _ in range(10):
        net = random_radial(rng)
        net = replace(
            net,
            generators=tuple(replace(g, kind=UTILITY_DER, damaged=True) for g in net.generators),
            demands=tuple(replace(d, has_der=True, damaged=True) for d in net.demands),
            base_mva=8.0,
        )
        raw = network_to_dict(net)
        assert raw["demands"][0]["p"] == 8.0 * net.demands[0].p
        assert raw["lines"][0]["thermal_limit"] == 8.0 * net.lines[0].thermal_limit
        assert network_from_dict(raw) == net


def test_thermal_limit_is_converted_on_load_and_save(tmp_path):
    raw = {
        "base_mva": 10.0,
        "buses": [{"id": 1, "is_reference": True}, {"id": 2}],
        "lines": [{"id": 1, "from_bus": 1, "to_bus": 2, "g": 50.0, "b": -50.0,
                   "thermal_limit": 5.0}],
        "generators": [{"id": 1, "bus": 1, "p_min": 0, "p_max": 5, "q_min": -2, "q_max": 2}],
        "demands": [{"id": 1, "bus": 2, "p": 3.0}],
    }
    path = tmp_path / "base10.json"
    path.write_text(json.dumps(raw))
    net = load_case(path)
    assert net.lines[0].thermal_limit == 0.5  # 5 MVA on a 10 MVA base
    assert net.demands[0].p == 0.3
    save_case(net, tmp_path / "again.json")
    assert json.loads((tmp_path / "again.json").read_text())["lines"][0]["thermal_limit"] == 5.0


def test_unknown_record_field_is_format_error(bundled_network):
    raw = network_to_dict(bundled_network)
    raw["name"] = "top-level keys outside the five are ignored"
    assert network_from_dict(raw) == bundled_network
    bus = raw["buses"][3]
    bus["damagd"] = True
    with pytest.raises(CaseFormatError, match=f"bus {bus['id']}: unknown field 'damagd'"):
        network_from_dict(raw)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_json_constant_is_format_error(tmp_path, constant):
    path = tmp_path / "case.json"
    path.write_text(f'{{"base_mva": {constant}, "buses": []}}')
    with pytest.raises(CaseFormatError) as err:
        load_case(path)
    assert f"case file {path} holds {constant}," in str(err.value)


def test_feeder_tree_spans_every_bus(storm_network):
    rng = np.random.RandomState(5)
    for net in [storm_network] + [random_radial(rng) for _ in range(5)]:
        tree = net.tree
        assert tree.order[0] == net.reference_bus.id
        assert sorted(tree.order) == sorted(b.id for b in net.buses)
        assert tree.parent[0] == -1 and tree.up[0] is None
        for k in range(1, len(tree.order)):
            assert tree.parent[k] < k  # parents come first
            ends = {tree.up[k].from_bus, tree.up[k].to_bus}
            assert ends == {tree.order[k], tree.order[tree.parent[k]]}
        assert sorted(l.id for l in tree.up[1:]) == sorted(l.id for l in net.lines)
        assert [net.buses[r].id for r in tree.bus_rows] == list(tree.order)
        assert tree.up_rows[0] == -1
        assert [net.lines[r] for r in tree.up_rows[1:]] == list(tree.up[1:])
        depth = [0]
        for k in range(1, len(tree.order)):
            depth.append(depth[tree.parent[k]] + 1)
        # the levels cover the positions in order, one depth each
        assert [k for lv in tree.levels for k in range(len(tree.order))[lv]] == list(range(len(depth)))
        assert [sorted({depth[k] for k in range(len(depth))[lv]}) for lv in tree.levels] == [
            [d] for d in range(len(tree.levels))
        ]


def test_work_periods_read_every_gate():
    net = chain3(damage=(1, 2))  # demand 1 on bus 2, demand 2 on bus 3
    net = replace(
        net,
        buses=(net.buses[0], replace(net.buses[1], damaged=True), net.buses[2]),
        demands=(net.demands[0], replace(net.demands[1], damaged=True)),
    )
    # the widest gate is a line's: itself and its damaged bus 2; each row
    # is padded with the slot past the four damaged components
    assert {k: m.tolist() for k, m in net.gate_incidence.items()} == {
        "bus": [[4, 4], [0, 4], [4, 4]],
        "line": [[1, 0], [2, 0]],
        "gen": [[4, 4]],
        "demand": [[0, 4], [3, 4]],
    }
    work = net.work_periods({"bus:2": 3, "line:1": 1, "line:2": 2}, never=5)
    assert {k: w.tolist() for k, w in work.items()} == {
        "bus": [0, 3, 0], "line": [3, 3], "gen": [0], "demand": [3, 5],
    }
    # nothing damaged: every gate is padding alone, and everything works from 0
    plain = chain3(damage=())
    assert {k: m.shape for k, m in plain.gate_incidence.items()} == {
        "bus": (3, 1), "line": (2, 1), "gen": (1, 1), "demand": (2, 1),
    }
    assert all(not w.any() for w in plain.work_periods({}, never=1).values())
    # a network without demands still has its demand entry
    assert replace(plain, demands=()).work_periods({}, never=1)["demand"].shape == (0,)


def _counted(monkeypatch, name: str) -> list:
    """Replace the cached property ``Network.<name>`` by one that logs each computation."""
    func = vars(Network)[name].func
    calls = []

    def counting(net):
        calls.append(net)
        return func(net)

    prop = cached_property(counting)
    prop.__set_name__(Network, name)
    monkeypatch.setattr(Network, name, prop)
    return calls


def test_network_facts_are_computed_once_per_network(monkeypatch):
    net = chain3()
    net = replace(net, buses=(net.buses[0], replace(net.buses[1], damaged=True), net.buses[2]))
    case = apply_der_mode(net, DerPlacement("none", ()), DerMode.BASE)
    checks = []
    check = model._radiality_violations
    monkeypatch.setattr(model, "_radiality_violations", lambda n: checks.append(n) or check(n))
    counts = {
        name: _counted(monkeypatch, name)
        for name in ("radial_tree", "damage", "gates", "gate_incidence", "line_block")
    }
    plan = solve_rop(build_rop(case, time_grid_for(case.network)))
    simulate_plans(case, [plan, plan])
    reconnection_times(plan, case)
    assert checks == [case.network]
    assert counts == {name: [case.network] for name in counts}


@pytest.mark.parametrize(
    "record, field, literal",
    [
        ("buses", "v_max", str(10**400)),
        ("buses", "id", str(2**70)),
        ("demands", "p", str(-2**63 - 1)),
        ("lines", "thermal_limit", "9" * 5000),  # beyond what int() reads by default
    ],
    ids=["v_max 10**400", "bus id 2**70", "p below -2**63", "5000 digits"],
)
def test_integer_outside_int64_is_format_error(tmp_path, bundled_network, record, field, literal):
    raw = network_to_dict(bundled_network)
    raw[record][1][field] = "HUGE"
    path = tmp_path / "case.json"
    path.write_text(json.dumps(raw).replace('"HUGE"', literal))
    with pytest.raises(CaseFormatError, match=f"case file {path} holds the integer .*outside int64"):
        load_case(path)


def test_integers_at_the_int64_bounds_are_read(tmp_path, bundled_network):
    raw = network_to_dict(bundled_network)
    raw["demands"][0]["id"], raw["demands"][1]["id"] = 2**63 - 1, -2**63
    path = tmp_path / "case.json"
    path.write_text(json.dumps(raw))
    assert load_case(path).arrays.demand_ids[:2].tolist() == [2**63 - 1, -2**63]


def test_validate_reports_integers_outside_int64_and_never_raises():
    net = chain3()
    buses = net.buses
    bad = (
        (replace(net, buses=(buses[0], replace(buses[1], v_max=10**400), buses[2])),
         "bus 2: field 'v_max' is an integer outside int64"),
        (replace(net, buses=(buses[0], replace(buses[1], id=2**70), buses[2])),
         f"bus {2**70}: field 'id' is an integer outside int64"),
        (replace(net, demands=(replace(net.demands[0], p=-2**63 - 1), net.demands[1])),
         "demand 1: field 'p' is an integer outside int64"),
        (replace(net, base_mva=10**400), "base_mva must be positive and finite"),
    )
    for network, message in bad:
        report = validate(network)
        assert any(v.startswith(message) for v in report.violations), report
    edge = replace(net, demands=(replace(net.demands[0], id=2**63 - 1), replace(net.demands[1], id=-2**63)))
    assert validate(edge).ok


def test_time_grid_sizing(storm_network):
    grid = time_grid_for(storm_network)
    assert grid.n_periods == 1 + 18
    assert grid.step_hours == 1.0
    with pytest.raises(ValueError):
        TimeGrid(0)
    with pytest.raises(ValueError):
        TimeGrid(5, step_hours=0.0)


@pytest.mark.parametrize("step", [float("nan"), float("inf")])
def test_time_grid_refuses_non_finite_step(step):
    with pytest.raises(ValueError, match="finite"):
        TimeGrid(3, step)


def test_missing_field_is_format_error(tmp_path):
    from gridrestore.errors import CaseFormatError

    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"base_mva": 1.0, "buses": [], "lines": [],
                                "generators": [], "demands": [{"id": 1, "bus": 1}]}))
    with pytest.raises(CaseFormatError) as err:
        load_case(path)
    assert "demand 1" in str(err.value)
    path.write_text("{not json")
    with pytest.raises(CaseFormatError):
        load_case(path)
