"""Command-line entry point.

Subcommands: ``plan`` (solve the restoration ordering), ``simulate``
(replay a plan through the per-period AC OPF), ``sweep`` (the full
two-placement, three-assumed by three-actual study) and ``report``
(summarize a sweep directory). Each subcommand takes only the flags it
reads; ``plan``, ``simulate`` and ``sweep`` also accept ``--jobs``, which
has no effect, so that scripts written for the former worker count keep
running. Every flag can also be supplied through an environment variable
named ``GRIDRESTORE_<FLAG>`` (for example ``GRIDRESTORE_CASE``); explicit
flags win, and a malformed numeric variable is an error only for the
commands that read it. ``--horizon`` must be at least 1, ``--gap`` finite
and at least 0, ``--tol`` finite and above 0; a value outside its range
is an error before any work. ``sweep`` builds each result table once:
``ens_summary.csv`` and ``fig2_ens.json`` hold the same per-case rows,
``sensitivity.csv`` and ``fig6_sensitivity.json`` the same per-cell rows
(the CSV adds ``converged``). Outputs are deterministic: repeated runs
produce byte-identical files except for the ``meta`` block in JSON
outputs, which carries the timestamp. The AC replay solves its islands
on every usable core, and neither the core count nor
``OPENBLAS_NUM_THREADS`` changes its values.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

from . import datasets, milp, replay
from .errors import ConfigError, GridRestoreError
from .model import TimeGrid, apply_damage, load_case, time_grid_for
from .replay import simulate_plan
from .rop import RestorationPlan, build_rop, rop_ens_mwh, solve_rop
from .scenarios import DerMode, DerPlacement, apply_der_mode, load_scenario
from .study import run_study

ENV_PREFIX = "GRIDRESTORE_"
# numeric flags: type, default, help text and the range a given value must
# lie in; each subcommand takes the ones it reads, and main casts and
# checks them before any work
NUMBER_FLAGS = {
    "horizon": (int, None, "periods (default: 1 + damaged count)", "at least 1", lambda n: n >= 1),
    "gap": (float, milp.DEFAULT_REL_GAP, "MILP relative gap (instances the subset DP does not solve)",
            "finite and at least 0", lambda x: 0 <= x < math.inf),
    "tol": (float, replay.DEFAULT_RESIDUAL_TOL, "AC residual tolerance",
            "finite and above 0", lambda x: 0 < x < math.inf),
}


def _env_default(name: str, fallback=None):
    return os.environ.get(ENV_PREFIX + name.upper(), fallback)


def _number(args, name: str):
    """A numeric flag, else its environment variable, else its default; a
    value outside the flag's range is a ConfigError. The variable is cast
    here, not by the parser, so a malformed one fails only its readers."""
    cast, default, _, rule, ok = NUMBER_FLAGS[name]
    value, source = getattr(args, name), f"--{name}"
    if value is None:
        source = ENV_PREFIX + name.upper()
        raw = os.environ.get(source)
        if raw is None:
            return default
        try:
            value = cast(raw)
        except ValueError:
            raise ConfigError(f"{source}={raw!r} is not a valid {cast.__name__}") from None
    if not ok(value):
        raise ConfigError(f"{source} must be {rule}, got {value}")
    return value


def _network(args):
    net = load_case(args.case) if args.case else datasets.bundled_case()
    ids = datasets.load_damage_file(args.damage) if args.damage else datasets.bundled_damage_ids()
    return apply_damage(net, ids)


def _placements(args) -> list[DerPlacement]:
    # the environment default is read here, not by the parser, so that an
    # explicit --scenario replaces it instead of appending to it
    raw = args.scenario or _env_default("scenario")
    if not raw:
        return [datasets.bundled_placement("uniform"), datasets.bundled_placement("clustered")]
    return [
        datasets.bundled_placement(p) if p in ("uniform", "clustered") else load_scenario(p)
        for p in (raw if isinstance(raw, list) else [raw])
    ]


def _time_grid(args, network) -> TimeGrid:
    return time_grid_for(network) if args.horizon is None else TimeGrid(args.horizon)


def _meta() -> dict:
    return {
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "tool": "gridrestore",
    }


def _write_json(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["meta"] = _meta()
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))


def _write_csv(path: Path, header: str, rows: list[dict]) -> None:
    """The comma-separated ``header``, then the fields it names of each row;
    a float is written to six decimals."""
    names = header.split(",")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(names)
        for row in rows:
            w.writerow(f"{row[n]:.6f}" if isinstance(row[n], float) else row[n] for n in names)


def _null_if_nan(hours: float) -> float | None:
    """An empty customer group's average (nan) as JSON null: nan is not JSON."""
    return None if math.isnan(hours) else hours


def _hours_cell(hours: float | None) -> str:
    return f"{'-':>10}" if hours is None else f"{hours:>10.2f}"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gridrestore",
        description="Restoration planning for radial feeders with DERs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, text, numbers, scenario):
        """A subcommand with the input and output flags, the numeric flags
        in ``numbers`` and the no-op ``--jobs``; ``scenario`` holds the
        keywords of its ``--scenario``."""
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--case", default=_env_default("case"), help="case JSON (default: bundled feeder)")
        sp.add_argument("--scenario", **scenario)
        sp.add_argument("--damage", default=_env_default("damage"), help="damage JSON (default: bundled storm set)")
        sp.add_argument("--out", default=_env_default("out", "out"), help="output directory")
        for n in numbers:
            cast, _, help_text, _, _ = NUMBER_FLAGS[n]
            sp.add_argument(f"--{n}", type=cast, help=help_text)
        sp.add_argument("--jobs", dest="unused_jobs", help="no effect: the replay uses every usable core")
        return sp

    one_scenario = {"help": "scenario JSON (default: bundled uniform)"}
    sp = command("plan", "solve the restoration ordering problem", ("horizon", "gap"), one_scenario)
    sp.add_argument("--mode", default="base", help="assumed DER mode: base|home|community")
    sp = command("simulate", "replay a plan through per-period AC OPF", ("tol",), one_scenario)
    sp.add_argument("--plan", required=True, help="plan.json produced by `plan`")
    sp.add_argument("--actual-mode", default="base", help="actual DER mode during implementation")
    command("sweep", "full two-placement, 3x3 assumed/actual study", tuple(NUMBER_FLAGS), {
        "action": "append",
        "help": "scenario JSON; repeat for several (default: bundled uniform + clustered)",
    })
    sp = sub.add_parser("report", help="print a summary of a sweep output directory")
    sp.add_argument("--out", default=_env_default("out", "out"), help="sweep output directory")
    return p


def _one_case(args, mode_text: str):
    """The network, placement, DER mode and case that ``plan`` and ``simulate`` read."""
    network = _network(args)
    placement = _placements(args)[0]
    mode = DerMode.parse(mode_text)
    return network, placement, mode, apply_der_mode(network, placement, mode)


def _out(args) -> Path:
    """The output directory, made once every input is read: a refused input leaves none."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_plan(args) -> int:
    network, placement, mode, case = _one_case(args, args.mode)
    instance = build_rop(case, _time_grid(args, network))
    out = _out(args)
    plan = solve_rop(instance, rel_gap=args.gap)
    plan.save(out / "plan.json")
    ens = rop_ens_mwh(plan, instance)
    _write_json(
        out / "rop_ens.json",
        {
            "placement": placement.name,
            "mode": mode.value,
            "objective_mwh": plan.objective_mwh,
            "ens_mwh": ens,
            "total_demand_energy_mwh": instance.total_demand_energy_mwh(),
            "optimal": plan.optimal,
            "gap": plan.gap,
        },
    )
    print(f"plan: {placement.name}/{mode.value} ENS {ens:.3f} MWh "
          f"({'optimal' if plan.optimal else f'gap {plan.gap:.2e}'})")
    return 0 if plan.optimal else 2


def cmd_simulate(args) -> int:
    _, placement, mode, case = _one_case(args, args.actual_mode)
    plan = RestorationPlan.load(args.plan)
    out = _out(args)
    result = simulate_plan(case, plan, tol=args.tol)
    result.save(out / "rip_result.json")
    result.write_served_csv(out / "served.csv")
    failed = [t for t, s in enumerate(result.states) if not s.converged]
    for t in failed:
        print(f"simulate: period {t}: {result.states[t].message}", file=sys.stderr)
    _write_json(
        out / "rip_summary.json",
        {
            "placement": placement.name,
            "actual_mode": mode.value,
            "served_mwh": result.served_mwh,
            "ens_mwh": result.ens_mwh,
            "converged": result.converged,
            "max_residual": result.max_residual,
            "periods_not_converged": failed,
        },
    )
    print(f"simulate: {placement.name}/{mode.value} RIP ENS {result.ens_mwh:.3f} MWh "
          f"(converged={result.converged})")
    return 0 if result.converged else 3


def cmd_sweep(args) -> int:
    network, placements = _network(args), _placements(args)
    grid, out = _time_grid(args, network), _out(args)
    study = run_study(network, placements, grid, rel_gap=args.gap, tol=args.tol)

    for (name, mode), plan in study.plans.items():
        plan.save(out / f"plan_{name}_{mode.value}.json")
        print(f"rop: {name}/{mode.value} ENS {study.rop_ens[(name, mode)]:.3f} MWh")
    failures = []
    for (name, assumed, actual), result in study.replays.items():
        if not result.converged:
            failures.append((name, assumed.value, actual.value))
        print(
            f"rip: {name} assumed={assumed.value} actual={actual.value} "
            f"ENS {result.ens_mwh:.3f} MWh"
        )

    cases = [
        {"placement": name, "mode": mode.value, "rop_ens_mwh": ens,
         "rip_ens_mwh": study.replays[(name, mode, mode)].ens_mwh}
        for (name, mode), ens in study.rop_ens.items()
    ]
    cells = [
        {"placement": name, "assumed": assumed.value, "actual": actual.value,
         "ens_mwh": result.ens_mwh}
        for (name, assumed, actual), result in study.replays.items()
    ]
    demands = [
        {"placement": name, "mode": mode.value, "demand": d.id, "bus": d.bus,
         "has_der": int(d.id in case.der_demand_ids),
         "t_d_hours": f"{study.reconnection[(name, mode)].hours(d.id):.3f}"}
        for (name, mode), case in study.cases.items()
        for d in case.network.demands
    ]
    _write_csv(out / "ens_summary.csv", "placement,mode,rop_ens_mwh,rip_ens_mwh", cases)
    _write_csv(out / "reconnection.csv", "placement,mode,demand,bus,has_der,t_d_hours", demands)
    _write_csv(
        out / "sensitivity.csv", "placement,assumed,actual,ens_mwh,converged",
        [{**cell, "converged": int(result.converged)}
         for cell, result in zip(cells, study.replays.values())],
    )

    reconnection = [
        {"placement": name, "mode": mode.value,
         "der_avg_hours": _null_if_nan(recon.der_avg_hours),
         "non_der_avg_hours": _null_if_nan(recon.non_der_avg_hours)}
        for (name, mode), recon in study.reconnection.items()
    ]
    group_ens = [
        {"placement": name, "mode": mode.value,
         "der_group_mwh": rep.der_group_mwh, "non_der_group_mwh": rep.non_der_group_mwh}
        for (name, mode), rep in study.group_ens.items()
    ]
    for file, description, key, rows in (
        ("fig2_ens.json", "ENS per case: schedule-stage (DC) vs replay-stage (AC)", "cases", cases),
        ("fig4_reconnection.json", "average reconnection hours for DER / non-DER groups", "rows",
         reconnection),
        ("fig5_group_ens.json", "ENS split by DER / non-DER customer group", "rows", group_ens),
        ("fig6_sensitivity.json", "replay ENS under mismatched DER assumptions", "rows", cells),
    ):
        _write_json(out / file, {"description": description, key: rows})
    if failures:
        print(f"sweep finished with non-converged cells: {failures}", file=sys.stderr)
        return 1
    print(f"sweep complete: outputs in {out}")
    return 0


# The tables of ``report``: the file each reads, its title, its column
# heads and one row's line.
REPORT_TABLES = (
    ("ens_summary.csv", "ENS by case (MWh)",
     f"{'placement':<10} {'mode':<22} {'schedule (DC)':>13} {'replay (AC)':>12}",
     lambda r: f"{r['placement']:<10} {r['mode']:<22} "
               f"{float(r['rop_ens_mwh']):>13.3f} {float(r['rip_ens_mwh']):>12.3f}"),
    ("sensitivity.csv", "replay ENS under mismatched assumptions (MWh)",
     f"{'placement':<10} {'assumed':<22} {'actual':<22} {'ens':>8}",
     lambda r: f"{r['placement']:<10} {r['assumed']:<22} {r['actual']:<22} "
               f"{float(r['ens_mwh']):>8.3f}"),
    ("fig4_reconnection.json", "average reconnection time (hours)",
     f"{'placement':<10} {'mode':<22} {'DER group':>10} {'non-DER':>10}",
     lambda r: f"{r['placement']:<10} {r['mode']:<22} "
               f"{_hours_cell(r['der_avg_hours'])} {_hours_cell(r['non_der_avg_hours'])}"),
)


def cmd_report(args) -> int:
    out = Path(args.out)
    if not (out / "ens_summary.csv").exists():
        print(f"no sweep outputs found in {out}", file=sys.stderr)
        return 1
    print(f"results in {out}:")
    for file, title, heads, line in REPORT_TABLES:
        path = out / file
        if not path.exists():
            continue
        if path.suffix == ".csv":
            with open(path) as f:
                rows = list(csv.DictReader(f))
        else:
            rows = json.loads(path.read_text())["rows"]
        print(f"\n{title}:")
        print(f"  {heads}")
        for r in rows:
            print(f"  {line(r)}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name in NUMBER_FLAGS:
            if hasattr(args, name):
                setattr(args, name, _number(args, name))
        commands = {"plan": cmd_plan, "simulate": cmd_simulate, "sweep": cmd_sweep,
                    "report": cmd_report}
        return commands[args.command](args)
    except (GridRestoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
