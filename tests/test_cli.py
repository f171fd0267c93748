import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gridrestore
from gridrestore import cli, datasets
from gridrestore.cli import main
from gridrestore.model import validate
from gridrestore.rop import RestorationPlan


@pytest.fixture()
def toy_dir(tmp_path):
    case = {
        "base_mva": 1.0,
        "buses": [{"id": 1, "is_reference": True}, {"id": 2}, {"id": 3}, {"id": 4}],
        "lines": [
            {"id": 1, "from_bus": 1, "to_bus": 2, "g": 50.0, "b": -50.0, "thermal_limit": 8.0},
            {"id": 2, "from_bus": 2, "to_bus": 3, "g": 50.0, "b": -50.0, "thermal_limit": 8.0},
            {"id": 3, "from_bus": 2, "to_bus": 4, "g": 50.0, "b": -50.0, "thermal_limit": 8.0},
        ],
        "generators": [{"id": 1, "bus": 1, "p_min": -10, "p_max": 10,
                        "q_min": -5, "q_max": 5, "kind": "substation"}],
        "demands": [
            {"id": 1, "bus": 2, "p": 1.0, "q": 0.33},
            {"id": 2, "bus": 3, "p": 2.0, "q": 0.66},
            {"id": 3, "bus": 4, "p": 0.5, "q": 0.16},
        ],
    }
    (tmp_path / "case.json").write_text(json.dumps(case))
    (tmp_path / "damage.json").write_text(json.dumps({"damaged_line_ids": [2]}))
    (tmp_path / "scen.json").write_text(
        json.dumps({"placement": {"name": "toy", "der_nodes": [3], "p_max": 0.4,
                                   "q_min": -0.2, "q_max": 0.2}})
    )
    return tmp_path


def _args(toy_dir, out, extra=()):
    return [
        "--case", str(toy_dir / "case.json"),
        "--damage", str(toy_dir / "damage.json"),
        "--scenario", str(toy_dir / "scen.json"),
        "--out", str(out),
        *extra,
    ]


def test_plan_writes_outputs(toy_dir, capsys):
    out = toy_dir / "out_plan"
    code = main(["plan", *_args(toy_dir, out), "--mode", "base"])
    assert code == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["energization"] == {"line:2": 1}
    ens = json.loads((out / "rop_ens.json").read_text())
    assert ens["ens_mwh"] == pytest.approx(2.0)  # 2 MW stranded for one period
    assert ens["optimal"] is True
    assert "meta" in ens and "created_utc" in ens["meta"]


def test_no_damage_plan_exit_zero(toy_dir):
    (toy_dir / "nodmg.json").write_text(json.dumps({"damaged_line_ids": []}))
    out = toy_dir / "out_nodmg"
    code = main([
        "plan", "--case", str(toy_dir / "case.json"),
        "--damage", str(toy_dir / "nodmg.json"),
        "--scenario", str(toy_dir / "scen.json"),
        "--out", str(out), "--mode", "base",
    ])
    assert code == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["schedule"] == [[]]


@pytest.mark.parametrize("mode", ["base", "home", "community"])
def test_undamaged_bundled_plan_reads_exactly_zero_ens(tmp_path, capsys, mode):
    (tmp_path / "nodmg.json").write_text(json.dumps({"damaged_line_ids": []}))
    out = tmp_path / "out"
    assert main(["plan", "--damage", str(tmp_path / "nodmg.json"), "--out", str(out),
                 "--mode", mode]) == 0
    ens = json.loads((out / "rop_ens.json").read_text())
    assert ens["ens_mwh"] == 0.0 and not str(ens["ens_mwh"]).startswith("-")
    assert " ENS 0.000 MWh" in capsys.readouterr().out


# Runs in a fresh interpreter: each command must leave scipy unimported.
NO_SCIPY_SCRIPT = """
import sys

def check(after):
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, f"{after} imported {loaded[:5]}"

import gridrestore.cli
check("import gridrestore.cli")
from gridrestore.cli import main
out = sys.argv[1]
for mode in ("base", "community"):
    assert main(["plan", "--mode", mode, "--out", f"{out}/{mode}"]) == 0
    check(f"plan --mode {mode}")
assert main(["simulate", "--plan", f"{out}/community/plan.json",
             "--actual-mode", "community", "--out", f"{out}/simulate"]) == 0
check("simulate")
"""


def test_dp_path_commands_never_import_scipy(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRIDRESTORE_")}
    env["PYTHONPATH"] = str(Path(gridrestore.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "simulate" / "rip_summary.json").is_file()


def test_missing_case_exit_one(toy_dir, capsys):
    code = main(["plan", "--case", str(toy_dir / "nope.json"), "--out", str(toy_dir / "x")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def _damage_without_ids(d, env):
    (d / "damage.json").write_text(json.dumps({"damaged_lines": [2]}))
    return ["plan"]


def _damage_not_json(d, env):
    (d / "damage.json").write_text("damaged_line_ids: [2]")
    return ["plan"]


def _plan_without_schedule(d, env):
    (d / "plan.json").write_text(json.dumps({"energization": {}, "objective_mwh": 0.0}))
    return ["simulate", "--plan", str(d / "plan.json")]


def _plan_with_string_schedule(d, env):
    plan = {"schedule": "line:2", "energization": {"line:2": 1}, "objective_mwh": 0.0}
    (d / "plan.json").write_text(json.dumps(plan))
    return ["simulate", "--plan", str(d / "plan.json")]


def _plan_energizes_outside_schedule(d, env):
    plan = {"schedule": [[], ["line:2"]], "energization": {"line:2": 2}, "objective_mwh": 0.0}
    (d / "plan.json").write_text(json.dumps(plan))
    return ["simulate", "--plan", str(d / "plan.json")]


def _plan_schedule_disagrees_with_energization(d, env):
    plan = {"schedule": [[], ["line:2"], []], "energization": {"line:2": 2},
            "objective_mwh": 0.0}
    (d / "plan.json").write_text(json.dumps(plan))
    return ["simulate", "--plan", str(d / "plan.json")]


def _plan_with_fractional_period(d, env):
    plan = {"schedule": [[], ["line:2"]], "energization": {"line:2": 1.5}, "objective_mwh": 0.0}
    (d / "plan.json").write_text(json.dumps(plan))
    return ["simulate", "--plan", str(d / "plan.json")]


def _damage_with_fractional_id(d, env):
    (d / "damage.json").write_text(json.dumps({"damaged_line_ids": [2.7]}))
    return ["plan"]


def _scenario_der_nodes(d, nodes):
    placement = {"name": "toy", "der_nodes": nodes, "p_max": 0.4}
    (d / "scen.json").write_text(json.dumps({"placement": placement}))
    return ["plan", "--mode", "community"]


def _scenario_with_fractional_der_bus(d, env):
    return _scenario_der_nodes(d, [3.7])  # not bus 3


def _scenario_with_string_der_bus(d, env):
    return _scenario_der_nodes(d, ["4"])


def _scenario_with_bool_der_bus(d, env):
    return _scenario_der_nodes(d, [True])  # not bus 1


def _scenario_with_string_der_nodes(d, env):
    return _scenario_der_nodes(d, "34")  # not buses 3 and 4


def _scenario_rating(d, field, value):
    placement = {"name": "toy", "der_nodes": [3], "p_max": 0.4, field: value}
    (d / "scen.json").write_text(json.dumps({"placement": placement}))
    return ["plan", "--mode", "community"]


def _scenario_with_bool_p_max(d, env):
    return _scenario_rating(d, "p_max", True)  # not 1 MW per DER


def _scenario_with_string_q_min(d, env):
    return _scenario_rating(d, "q_min", "-0.05")


def _plan_field(d, field, value):
    plan = {"schedule": [[], ["line:2"]], "energization": {"line:2": 1}, "objective_mwh": 2.0,
            field: value}
    (d / "plan.json").write_text(json.dumps(plan))
    return ["simulate", "--plan", str(d / "plan.json")]


def _plan_with_string_optimal(d, env):
    return _plan_field(d, "optimal", "false")  # not True


def _plan_with_bool_objective(d, env):
    return _plan_field(d, "objective_mwh", True)


def _plan_with_string_gap(d, env):
    return _plan_field(d, "gap", "0.5")


def _case_record_field(d, records, index, field, value):
    case = json.loads((d / "case.json").read_text())
    case[records][index][field] = value
    (d / "case.json").write_text(json.dumps(case))
    return ["plan"]


def _bus_with_string_damaged(d, env):
    return _case_record_field(d, "buses", 2, "damaged", "false")  # not damaged


def _line_with_string_susceptance(d, env):
    return _case_record_field(d, "lines", 0, "b", "1.0")


def _demand_with_string_power(d, env):
    return _case_record_field(d, "demands", 0, "p", "abc")


def _bus_with_null_voltage_bound(d, env):
    return _case_record_field(d, "buses", 1, "v_min", None)


def _bus_with_misspelt_damaged(d, env):
    return _case_record_field(d, "buses", 2, "damagd", True)  # not an undamaged bus


def _generator_with_unknown_field(d, env):
    return _case_record_field(d, "generators", 0, "cost", 1.0)


def _demand_with_nan_power(d, env):
    return _case_record_field(d, "demands", 0, "p", float("nan"))  # json writes NaN


def _scenario_with_infinite_p_max(d, env):
    return _scenario_rating(d, "p_max", float("inf"))


def _plan_with_nan_objective(d, env):
    return _plan_field(d, "objective_mwh", float("nan"))


def _scenario_with_misspelt_p_max(d, env):
    return _scenario_rating(d, "p_mx", 0.5)  # not a 0.5 MW rating


def _damage_with_unknown_field(d, env):
    (d / "damage.json").write_text(json.dumps({"damaged_line_ids": [2], "damaged_bus_ids": [3]}))
    return ["plan"]


def _plan_with_unknown_key(d, env):
    return _plan_field(d, "objective", 2.0)


def _simulate_with_tol(d, tol):
    plan = {"schedule": [[], ["line:2"]], "energization": {"line:2": 1}, "objective_mwh": 2.0}
    (d / "plan.json").write_text(json.dumps(plan))
    return ["simulate", "--plan", str(d / "plan.json"), "--tol", tol]


def _infinite_tol(d, env):
    return _simulate_with_tol(d, "inf")


def _nan_tol(d, env):
    return _simulate_with_tol(d, "nan")


def _tol_variable_zero(d, env):
    env.setenv("GRIDRESTORE_TOL", "0")
    return _simulate_with_tol(d, "0")[:-2]


def _negative_gap(d, env):
    return ["plan", "--gap", "-0.01"]


def _gap_variable_infinite(d, env):
    env.setenv("GRIDRESTORE_GAP", "inf")
    return ["plan"]


def _case_with_list_bus_record(d, env):
    case = json.loads((d / "case.json").read_text())
    case["buses"][1] = [2]
    (d / "case.json").write_text(json.dumps(case))
    return ["plan"]


def _case_with_number_for_buses(d, env):
    case = json.loads((d / "case.json").read_text())
    case["buses"] = 5
    (d / "case.json").write_text(json.dumps(case))
    return ["plan"]


def _plan_without_periods(d, env):
    (d / "damage.json").write_text(json.dumps({"damaged_line_ids": []}))
    plan = {"schedule": [], "energization": {}, "objective_mwh": 0.0}
    (d / "plan.json").write_text(json.dumps(plan))
    return ["simulate", "--plan", str(d / "plan.json")]


def _zero_horizon(d, env):
    return ["plan", "--horizon", "0"]


def _thermal_limit_beyond_angle_bound(d, env):
    case = json.loads((d / "case.json").read_text())
    case["lines"][0]["thermal_limit"] = 80.0  # 80 / |b| = 1.6 rad > 0.52 rad
    (d / "case.json").write_text(json.dumps(case))
    return ["plan"]


def _line_without_susceptance(d, env):
    case = json.loads((d / "case.json").read_text())
    case["lines"][2]["b"] = 0.0  # no DC flow at any angle, yet a positive thermal limit
    (d / "case.json").write_text(json.dumps(case))
    return ["plan"]


def _horizon_variable_not_int(d, env):
    env.setenv("GRIDRESTORE_HORIZON", "abc")
    return ["plan"]


def _gap_variable_not_float(d, env):
    env.setenv("GRIDRESTORE_GAP", "tight")
    return ["plan"]


def _tol_variable_not_float(d, env):
    env.setenv("GRIDRESTORE_TOL", "1e-6x")
    plan = {"schedule": [[], ["line:2"]], "energization": {"line:2": 1}, "objective_mwh": 2.0}
    (d / "plan.json").write_text(json.dumps(plan))
    return ["simulate", "--plan", str(d / "plan.json")]


@pytest.mark.parametrize(
    "corrupt",
    [
        _damage_without_ids,
        _damage_not_json,
        _plan_without_schedule,
        _plan_with_string_schedule,
        _plan_energizes_outside_schedule,
        _plan_schedule_disagrees_with_energization,
        _plan_with_fractional_period,
        _damage_with_fractional_id,
        _scenario_with_fractional_der_bus,
        _scenario_with_string_der_bus,
        _scenario_with_bool_der_bus,
        _scenario_with_string_der_nodes,
        _scenario_with_bool_p_max,
        _scenario_with_string_q_min,
        _plan_with_string_optimal,
        _plan_with_bool_objective,
        _plan_with_string_gap,
        _bus_with_string_damaged,
        _line_with_string_susceptance,
        _demand_with_string_power,
        _bus_with_null_voltage_bound,
        _case_with_list_bus_record,
        _case_with_number_for_buses,
        _bus_with_misspelt_damaged,
        _generator_with_unknown_field,
        _demand_with_nan_power,
        _scenario_with_infinite_p_max,
        _plan_with_nan_objective,
        _plan_without_periods,
        _zero_horizon,
        _thermal_limit_beyond_angle_bound,
        _line_without_susceptance,
        _horizon_variable_not_int,
        _gap_variable_not_float,
        _tol_variable_not_float,
        _scenario_with_misspelt_p_max,
        _damage_with_unknown_field,
        _plan_with_unknown_key,
        _infinite_tol,
        _nan_tol,
        _tol_variable_zero,
        _negative_gap,
        _gap_variable_infinite,
    ],
)
def test_bad_input_exits_one(toy_dir, capsys, monkeypatch, corrupt):
    command, *extra = corrupt(toy_dir, monkeypatch)
    code = main([command, *_args(toy_dir, toy_dir / "out_bad"), *extra])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (toy_dir / "out_bad").exists()  # a refused input leaves no output directory


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--plan", "missing.json", "--tol", "inf"], "--tol must be finite and above 0, got inf"),
        (["simulate", "--plan", "missing.json", "--tol=-1e-6"],
         "--tol must be finite and above 0, got -1e-06"),
        (["plan", "--gap", "nan"], "--gap must be finite and at least 0, got nan"),
        (["sweep", "--horizon", "0"], "--horizon must be at least 1, got 0"),
    ],
)
def test_number_flag_ranges_are_checked_before_any_work(toy_dir, capsys, argv, message):
    out = toy_dir / "never_made"
    assert main([*argv, "--case", str(toy_dir / "missing_case.json"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "file, text",
    [
        ("damage.json", '{"damaged_line_ids": [2], "damaged_bus_ids": []}'),
        ("scen.json", '{"placement": {"name": "typo", "der_nodes": [3], "p_mx": 0.5}}'),
        ("case.json", '{"base_mva": 1%s}' % ("0" * 400)),
    ],
    ids=["misspelt damage field", "misspelt placement field", "base_mva 10**400"],
)
def test_refused_sweep_input_leaves_no_output_directory(toy_dir, capsys, file, text):
    (toy_dir / file).write_text(text)
    out = toy_dir / "out_sweep"
    assert main(["sweep", *_args(toy_dir, out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_number_flag_range_bounds_are_accepted(toy_dir):
    out = toy_dir / "out_bounds"
    assert main(["plan", *_args(toy_dir, out), "--gap", "0", "--horizon", "2"]) == 0


def test_number_variable_out_of_range_names_the_variable(toy_dir, capsys, monkeypatch):
    monkeypatch.setenv("GRIDRESTORE_GAP", "inf")
    out = toy_dir / "never_made"
    assert main(["plan", *_args(toy_dir, out)]) == 1
    assert capsys.readouterr().err == "error: GRIDRESTORE_GAP must be finite and at least 0, got inf\n"
    assert not out.exists()


def test_malformed_number_variable_fails_only_its_readers(toy_dir, capsys, monkeypatch):
    monkeypatch.setenv("GRIDRESTORE_HORIZON", "abc")
    assert main(["plan", *_args(toy_dir, toy_dir / "out_plan")]) == 1
    assert "GRIDRESTORE_HORIZON='abc'" in capsys.readouterr().err
    # plan does not read the replay tolerance
    monkeypatch.delenv("GRIDRESTORE_HORIZON")
    monkeypatch.setenv("GRIDRESTORE_TOL", "abc")
    assert main(["plan", *_args(toy_dir, toy_dir / "out_plan")]) == 0
    out = toy_dir / "sweep_out"
    out.mkdir()
    (out / "ens_summary.csv").write_text(
        "placement,mode,rop_ens_mwh,rip_ens_mwh\ntoy,base,2.0,2.0\n"
    )
    for name in ("HORIZON", "GAP", "TOL"):
        monkeypatch.setenv(f"GRIDRESTORE_{name}", "abc")
    assert main(["report", "--out", str(out)]) == 0
    assert "toy" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--horizon", "--gap"])
def test_simulate_rejects_planning_flags(toy_dir, capsys, flag):
    plan = toy_dir / "plan.json"
    plan.write_text(json.dumps({"schedule": [[], ["line:2"]], "energization": {"line:2": 1},
                                "objective_mwh": 2.0}))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", *_args(toy_dir, toy_dir / "out_sim"), "--plan", str(plan), flag, "3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def test_simulate_roundtrip(toy_dir):
    out = toy_dir / "out_sim"
    assert main(["plan", *_args(toy_dir, out), "--mode", "base"]) == 0
    code = main([
        "simulate", *_args(toy_dir, out),
        "--plan", str(out / "plan.json"), "--actual-mode", "base",
    ])
    assert code == 0
    summary = json.loads((out / "rip_summary.json").read_text())
    assert summary["converged"] is True
    assert summary["ens_mwh"] == pytest.approx(2.0, abs=1e-6)
    served = (out / "served.csv").read_text().splitlines()
    assert served[0] == "demand_id,t0,t1"
    assert len(served) == 4


def test_simulate_names_the_failing_family_of_each_period(tmp_path, capsys):
    # a must-run 0.5 MW unit alone with a 0.1 MW demand until line 1 is back
    case = {
        "base_mva": 1.0,
        "buses": [{"id": 1, "is_reference": True}, {"id": 2}],
        "lines": [{"id": 1, "from_bus": 1, "to_bus": 2, "g": 50.0, "b": -50.0,
                   "thermal_limit": 8.0}],
        "generators": [
            {"id": 1, "bus": 1, "p_min": -10, "p_max": 10, "q_min": -5, "q_max": 5,
             "kind": "substation"},
            {"id": 2, "bus": 2, "p_min": 0.5, "p_max": 1.0, "q_min": 0, "q_max": 0,
             "kind": "utility_der"},
        ],
        "demands": [{"id": 1, "bus": 2, "p": 0.1, "q": 0.03}],
    }
    files = {
        "case.json": case,
        "damage.json": {"damaged_line_ids": [1]},
        "scen.json": {"placement": {"name": "none", "der_nodes": []}},
        "plan.json": {"schedule": [[], ["line:1"]], "energization": {"line:1": 1},
                      "objective_mwh": 0.0},
    }
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    out = tmp_path / "out"
    code = main([
        "simulate", "--case", str(tmp_path / "case.json"),
        "--damage", str(tmp_path / "damage.json"),
        "--scenario", str(tmp_path / "scen.json"),
        "--plan", str(tmp_path / "plan.json"), "--out", str(out),
    ])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "simulate: period 0: constraint residual 4.000e-01 (balance_p) above tolerance 1.0e-06"
    ]
    summary = json.loads((out / "rip_summary.json").read_text())
    assert summary["periods_not_converged"] == [0]


SWEEP_OUTPUTS = (
    "ens_summary.csv",
    "reconnection.csv",
    "sensitivity.csv",
    "fig2_ens.json",
    "fig4_reconnection.json",
    "fig5_group_ens.json",
    "fig6_sensitivity.json",
)


def _assert_same_sweep_outputs(out1, out2):
    """All sweep outputs match apart from the timestamp in ``meta``."""
    for name in SWEEP_OUTPUTS:
        assert (out1 / name).exists(), name
        a = (out1 / name).read_text()
        b = (out2 / name).read_text()
        if name.endswith(".json"):
            a = re.sub(r'"created_utc": "[^"]*"', '"created_utc": ""', a)
            b = re.sub(r'"created_utc": "[^"]*"', '"created_utc": ""', b)
        assert a == b, f"{name} differs"


def test_sweep_outputs_and_determinism(toy_dir):
    out1 = toy_dir / "sweep1"
    out2 = toy_dir / "sweep2"
    for out in (out1, out2):
        code = main(["sweep", *_args(toy_dir, out)])
        assert code == 0
    _assert_same_sweep_outputs(out1, out2)
    rows = (out1 / "ens_summary.csv").read_text().strip().splitlines()
    assert rows[0] == "placement,mode,rop_ens_mwh,rip_ens_mwh"
    assert len(rows) == 1 + 3  # one placement file given, three modes
    sens = (out1 / "sensitivity.csv").read_text().strip().splitlines()
    assert len(sens) == 1 + 9


def test_jobs_flag_has_no_effect(toy_dir):
    out = toy_dir / "out_jobs"
    assert main(["plan", *_args(toy_dir, out), "--jobs", "1"]) == 0
    simulate = ["simulate", *_args(toy_dir, out), "--plan", str(out / "plan.json")]
    assert main([*simulate, "--jobs", "1"]) == 0
    assert main(["sweep", *_args(toy_dir, toy_dir / "sweep")]) == 0
    for jobs in ("1", "2"):
        out = toy_dir / f"sweep_jobs{jobs}"
        assert main(["sweep", *_args(toy_dir, out), "--jobs", jobs]) == 0
        _assert_same_sweep_outputs(toy_dir / "sweep", out)


def test_report_summarizes_sweep(toy_dir, capsys):
    out = toy_dir / "sweep_rep"
    assert main(["sweep", *_args(toy_dir, out)]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "ENS by case" in text
    assert "toy" in text
    assert main(["report", "--out", str(toy_dir / "empty")]) == 1


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_sweep_without_der_writes_null_and_report_prints_dash(toy_dir, capsys):
    # no DER anywhere: the DER group of every case is empty
    (toy_dir / "scen.json").write_text(
        json.dumps({"placement": {"name": "none", "der_nodes": []}})
    )
    out = toy_dir / "sweep_none"
    assert main(["sweep", *_args(toy_dir, out)]) == 0
    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=_refuse_constant)
    rows = json.loads((out / "fig4_reconnection.json").read_text())["rows"]
    assert len(rows) == 3
    for row in rows:
        assert row["der_avg_hours"] is None
        assert row["non_der_avg_hours"] == pytest.approx(1.0 / 3.0)  # one of three late
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    fig4 = lines[lines.index("average reconnection time (hours):") + 2 :]
    assert [line.split()[2:] for line in fig4] == [["-", "0.33"]] * 3


def test_env_variable_overrides(toy_dir, monkeypatch):
    out = toy_dir / "out_env"
    monkeypatch.setenv("GRIDRESTORE_CASE", str(toy_dir / "case.json"))
    monkeypatch.setenv("GRIDRESTORE_DAMAGE", str(toy_dir / "damage.json"))
    monkeypatch.setenv("GRIDRESTORE_SCENARIO", str(toy_dir / "scen.json"))
    monkeypatch.setenv("GRIDRESTORE_OUT", str(out))
    code = main(["plan", "--mode", "base"])
    assert code == 0
    assert (out / "plan.json").exists()


def test_sweep_reads_scenario_variable(toy_dir, monkeypatch):
    monkeypatch.setenv("GRIDRESTORE_SCENARIO", str(toy_dir / "scen.json"))
    out = toy_dir / "sweep_env"
    args = ["--case", str(toy_dir / "case.json"), "--damage", str(toy_dir / "damage.json")]
    assert main(["sweep", *args, "--out", str(out)]) == 0
    rows = (out / "ens_summary.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["toy"] * 3
    # an explicit flag replaces the variable rather than adding to it
    monkeypatch.setenv("GRIDRESTORE_SCENARIO", str(toy_dir / "missing.json"))
    out = toy_dir / "sweep_flag"
    flags = ["--scenario", str(toy_dir / "scen.json"), "--out", str(out)]
    assert main(["sweep", *args, *flags]) == 0
    rows = (out / "ens_summary.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["toy"] * 3


# Each sweep table: its header, and the pattern of every row (ENS to six
# decimals, reconnection hours to three, flags as 0/1).
SWEEP_CSV_FORMATS = {
    "ens_summary.csv": (
        "placement,mode,rop_ens_mwh,rip_ens_mwh",
        r"toy,[a-z_]+,-?\d+\.\d{6},-?\d+\.\d{6}",
    ),
    "reconnection.csv": (
        "placement,mode,demand,bus,has_der,t_d_hours",
        r"toy,[a-z_]+,\d+,\d+,[01],\d+\.\d{3}",
    ),
    "sensitivity.csv": (
        "placement,assumed,actual,ens_mwh,converged",
        r"toy,[a-z_]+,[a-z_]+,-?\d+\.\d{6},[01]",
    ),
}
# Each figure file: its row list's key and the keys of every row.
SWEEP_JSON_ROWS = {
    "fig2_ens.json": ("cases", {"placement", "mode", "rop_ens_mwh", "rip_ens_mwh"}),
    "fig4_reconnection.json": ("rows", {"placement", "mode", "der_avg_hours", "non_der_avg_hours"}),
    "fig5_group_ens.json": ("rows", {"placement", "mode", "der_group_mwh", "non_der_group_mwh"}),
    "fig6_sensitivity.json": ("rows", {"placement", "assumed", "actual", "ens_mwh"}),
}


def test_sweep_output_formats(toy_dir, capsys):
    out = toy_dir / "sweep_formats"
    assert main(["sweep", *_args(toy_dir, out)]) == 0
    tables = {}
    for name, (header, row) in SWEEP_CSV_FORMATS.items():
        lines = (out / name).read_text().splitlines()
        assert lines[0] == header, name
        assert len(lines) > 1, name
        for line in lines[1:]:
            assert re.fullmatch(row, line), (name, line)
        tables[name] = [line.split(",") for line in lines[1:]]
    assert len(tables["reconnection.csv"]) == 3 * 3  # three modes, three demands
    figures = {}
    for name, (key, row_keys) in SWEEP_JSON_ROWS.items():
        data = json.loads((out / name).read_text())
        assert set(data) == {"description", key, "meta"}, name
        assert data[key] and all(set(r) == row_keys for r in data[key]), name
        figures[name] = data[key]
    # the CSV and the figure file of a table hold the same rows
    for name, csv_name in (("fig2_ens.json", "ens_summary.csv"),
                           ("fig6_sensitivity.json", "sensitivity.csv")):
        rows, csv_rows = figures[name], tables[csv_name]
        assert len(rows) == len(csv_rows)
        for r, cells in zip(rows, csv_rows):
            # the row keys' order is the CSV header's; the CSV adds converged
            values = [r[k] for k in SWEEP_CSV_FORMATS[csv_name][0].split(",") if k in r]
            assert cells[: len(values)] == [
                f"{v:.6f}" if isinstance(v, float) else v for v in values
            ]


def test_module_entry_point_runs(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRIDRESTORE_")}
    env["PYTHONPATH"] = str(Path(gridrestore.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "gridrestore.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: gridrestore")


def _benchmark_module(monkeypatch, name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_and_restores_every_name(toy_dir, capsys, monkeypatch):
    """The benchmark's tracer patches names on the package's modules; each
    must exist, be called through its module, and come back unpatched."""
    tracing = _benchmark_module(monkeypatch, "tracing")
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patched)
        out = toy_dir / "traced"
        assert cli.main(["plan", *_args(toy_dir, out)]) == 0
        assert cli.main(["simulate", *_args(toy_dir, out), "--plan", str(out / "plan.json")]) == 0
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
    spans = tracer.spans
    under_main = {s.name for s in spans if s.parent >= 0 and spans[s.parent].name == "cli.main"}
    assert under_main >= {
        "model.load_case", "model.apply_damage", "scenarios.apply_der_mode",
        "rop.build_rop", "rop.solve_rop", "replay.simulate_plan",
    }


def test_shipped_and_benchmark_inputs_load(tmp_path, monkeypatch):
    """The strict readers take every input file the package ships and the
    benchmark reads: a reader that refused one would fail every run."""
    assert validate(datasets.bundled_case()).ok
    placements = [datasets.bundled_placement(name) for name in ("uniform", "clustered")]
    assert [len(p.der_nodes) for p in placements] == [29, 16]
    assert len(datasets.bundled_damage_ids()) == 18
    workloads = _benchmark_module(monkeypatch, "workloads")
    plans = sorted((workloads.FROZEN / "plans").glob("plan_*.json"))
    assert len(plans) == 6
    for path in plans:  # read only
        assert RestorationPlan.load(path).n_periods == 19
    storms = workloads.StormsWorkload(seed=1, workdir=tmp_path)
    storms.load_inputs()
    assert storms.damage_files
    for path, lines in zip(storms.damage_files, storms.storms):
        assert datasets.load_damage_file(path) == lines
