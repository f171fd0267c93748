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
commands that read it. Outputs are deterministic: repeated runs produce
byte-identical files except for the ``meta`` block in JSON outputs,
which carries the timestamp. The AC replay solves its islands on every
usable core, and neither the core count nor ``OPENBLAS_NUM_THREADS``
changes its values.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import datasets, milp, replay
from .errors import ConfigError, GridRestoreError
from .model import Network, TimeGrid, apply_damage, load_case, time_grid_for
from .replay import simulate_plan
from .rop import RestorationPlan, build_rop, rop_ens_mwh, solve_rop
from .scenarios import DerMode, DerPlacement, apply_der_mode, load_scenario
from .study import run_study

ENV_PREFIX = "GRIDRESTORE_"
# numeric flags: type and help text; each subcommand takes the ones it reads
NUMBER_FLAGS = {
    "horizon": (int, "periods (default: 1 + damaged count)"),
    "gap": (float, "MILP relative gap (instances the subset DP does not solve)"),
    "tol": (float, "AC residual tolerance"),
}


@dataclass
class RunConfig:
    case_path: str | None = None
    scenario_paths: tuple[str, ...] = ()
    damage_path: str | None = None
    horizon: int | None = None
    out_dir: str = "out"
    gap: float = milp.DEFAULT_REL_GAP
    tol: float = replay.DEFAULT_RESIDUAL_TOL

    def load_network(self) -> Network:
        net = (
            load_case(self.case_path) if self.case_path else datasets.bundled_case()
        )
        ids = (
            datasets.load_damage_file(self.damage_path)
            if self.damage_path
            else datasets.bundled_damage_ids()
        )
        return apply_damage(net, ids)

    def placements(self) -> list[DerPlacement]:
        if not self.scenario_paths:
            return [
                datasets.bundled_placement("uniform"),
                datasets.bundled_placement("clustered"),
            ]
        out = []
        for p in self.scenario_paths:
            if p in ("uniform", "clustered"):  # bundled shorthand
                out.append(datasets.bundled_placement(p))
            else:
                out.append(load_scenario(p))
        return out

    def time_grid(self, network: Network) -> TimeGrid:
        if self.horizon is not None:
            if self.horizon < 1:
                raise ConfigError(f"--horizon must be at least 1, got {self.horizon}")
            return TimeGrid(self.horizon)
        return time_grid_for(network)


def _env_default(name: str, fallback=None):
    return os.environ.get(ENV_PREFIX + name.upper(), fallback)


def _number(args, name: str, cast, fallback):
    """A numeric flag, else its environment variable, else ``fallback``.

    The variable is cast here, not while the parser is built, so a
    malformed value fails only the commands that read it.
    """
    value = getattr(args, name)
    if value is not None:
        return value
    raw = _env_default(name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        variable = ENV_PREFIX + name.upper()
        raise ConfigError(f"{variable}={raw!r} is not a valid {cast.__name__}") from None


def _meta() -> dict:
    return {
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "tool": "gridrestore",
    }


def _write_json(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["meta"] = _meta()
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))


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

    def common(sp, numbers, scenario_multiple=False):
        """The input and output flags, then the numeric flags in ``numbers``."""
        sp.add_argument("--case", default=_env_default("case"), help="case JSON (default: bundled feeder)")
        # the environment default is read in _config_from_args, so that an
        # explicit --scenario replaces it instead of appending to it
        if scenario_multiple:
            sp.add_argument(
                "--scenario",
                action="append",
                help="scenario JSON; repeat for several (default: bundled uniform + clustered)",
            )
        else:
            sp.add_argument("--scenario", help="scenario JSON (default: bundled uniform)")
        sp.add_argument("--damage", default=_env_default("damage"), help="damage JSON (default: bundled storm set)")
        sp.add_argument("--out", default=_env_default("out", "out"), help="output directory")
        for name in numbers:
            cast, text = NUMBER_FLAGS[name]
            sp.add_argument(f"--{name}", type=cast, help=text)

    def unused_jobs(sp):
        sp.add_argument("--jobs", dest="unused_jobs", help="no effect: the replay uses every usable core")

    sp = sub.add_parser("plan", help="solve the restoration ordering problem")
    common(sp, ("horizon", "gap"))
    unused_jobs(sp)
    sp.add_argument("--mode", default="base", help="assumed DER mode: base|home|community")
    sp = sub.add_parser("simulate", help="replay a plan through per-period AC OPF")
    common(sp, ("tol",))
    unused_jobs(sp)
    sp.add_argument("--plan", required=True, help="plan.json produced by `plan`")
    sp.add_argument("--actual-mode", default="base", help="actual DER mode during implementation")
    sp = sub.add_parser("sweep", help="full two-placement, 3x3 assumed/actual study")
    common(sp, tuple(NUMBER_FLAGS), scenario_multiple=True)
    unused_jobs(sp)
    sp = sub.add_parser("report", help="print a summary of a sweep output directory")
    sp.add_argument("--out", default=_env_default("out", "out"), help="sweep output directory")
    return p


def _config_from_args(args) -> RunConfig:
    scenarios: tuple[str, ...] = ()
    raw = args.scenario or _env_default("scenario")
    if raw:
        scenarios = tuple(raw) if isinstance(raw, list) else (raw,)
    numbers = {
        name: _number(args, name, cast, getattr(RunConfig, name))
        for name, (cast, _) in NUMBER_FLAGS.items()
        if hasattr(args, name)
    }
    return RunConfig(
        case_path=args.case,
        scenario_paths=scenarios,
        damage_path=args.damage,
        out_dir=args.out,
        **numbers,
    )


def cmd_plan(config: RunConfig, mode_text: str) -> int:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    network = config.load_network()
    placement = config.placements()[0]
    mode = DerMode.parse(mode_text)
    case = apply_der_mode(network, placement, mode)
    grid = config.time_grid(network)
    instance = build_rop(case, grid)
    plan = solve_rop(instance, rel_gap=config.gap)
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


def cmd_simulate(config: RunConfig, plan_path: str, actual_mode_text: str) -> int:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    network = config.load_network()
    placement = config.placements()[0]
    mode = DerMode.parse(actual_mode_text)
    case = apply_der_mode(network, placement, mode)
    plan = RestorationPlan.load(plan_path)
    result = simulate_plan(case, plan, tol=config.tol)
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


def cmd_sweep(config: RunConfig) -> int:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    network = config.load_network()
    study = run_study(
        network,
        config.placements(),
        config.time_grid(network),
        rel_gap=config.gap,
        tol=config.tol,
    )

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

    def matched(name: str, mode: DerMode) -> float:
        return study.replays[(name, mode, mode)].ens_mwh

    with open(out / "ens_summary.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["placement", "mode", "rop_ens_mwh", "rip_ens_mwh"])
        for (name, mode), ens in study.rop_ens.items():
            w.writerow([name, mode.value, f"{ens:.6f}", f"{matched(name, mode):.6f}"])

    with open(out / "reconnection.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["placement", "mode", "demand", "bus", "has_der", "t_d_hours"])
        for (name, mode), case in study.cases.items():
            recon = study.reconnection[(name, mode)]
            for d in case.network.demands:
                w.writerow(
                    [name, mode.value, d.id, d.bus, int(d.id in case.der_demand_ids),
                     f"{recon.hours(d.id):.3f}"]
                )

    with open(out / "sensitivity.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["placement", "assumed", "actual", "ens_mwh", "converged"])
        for (name, assumed, actual), result in study.replays.items():
            w.writerow(
                [name, assumed.value, actual.value, f"{result.ens_mwh:.6f}",
                 int(result.converged)]
            )

    _write_json(
        out / "fig2_ens.json",
        {
            "description": "ENS per case: schedule-stage (DC) vs replay-stage (AC)",
            "cases": [
                {
                    "placement": name,
                    "mode": mode.value,
                    "rop_ens_mwh": ens,
                    "rip_ens_mwh": matched(name, mode),
                }
                for (name, mode), ens in study.rop_ens.items()
            ],
        },
    )
    _write_json(
        out / "fig4_reconnection.json",
        {
            "description": "average reconnection hours for DER / non-DER groups",
            "rows": [
                {
                    "placement": name,
                    "mode": mode.value,
                    "der_avg_hours": _null_if_nan(recon.der_avg_hours),
                    "non_der_avg_hours": _null_if_nan(recon.non_der_avg_hours),
                }
                for (name, mode), recon in study.reconnection.items()
            ],
        },
    )
    _write_json(
        out / "fig5_group_ens.json",
        {
            "description": "ENS split by DER / non-DER customer group",
            "rows": [
                {
                    "placement": name,
                    "mode": mode.value,
                    "der_group_mwh": rep.der_group_mwh,
                    "non_der_group_mwh": rep.non_der_group_mwh,
                }
                for (name, mode), rep in study.group_ens.items()
            ],
        },
    )
    _write_json(
        out / "fig6_sensitivity.json",
        {
            "description": "replay ENS under mismatched DER assumptions",
            "rows": [
                {
                    "placement": name,
                    "assumed": assumed.value,
                    "actual": actual.value,
                    "ens_mwh": result.ens_mwh,
                }
                for (name, assumed, actual), result in study.replays.items()
            ],
        },
    )
    if failures:
        print(f"sweep finished with non-converged cells: {failures}", file=sys.stderr)
        return 1
    print(f"sweep complete: outputs in {out}")
    return 0


def cmd_report(out_dir: str) -> int:
    out = Path(out_dir)
    summary = out / "ens_summary.csv"
    if not summary.exists():
        print(f"no sweep outputs found in {out}", file=sys.stderr)
        return 1
    print(f"results in {out}:")
    with open(summary) as f:
        rows = list(csv.DictReader(f))
    print("\nENS by case (MWh):")
    print(f"  {'placement':<10} {'mode':<22} {'schedule (DC)':>13} {'replay (AC)':>12}")
    for r in rows:
        print(
            f"  {r['placement']:<10} {r['mode']:<22} "
            f"{float(r['rop_ens_mwh']):>13.3f} {float(r['rip_ens_mwh']):>12.3f}"
        )
    sens = out / "sensitivity.csv"
    if sens.exists():
        with open(sens) as f:
            srows = list(csv.DictReader(f))
        print("\nreplay ENS under mismatched assumptions (MWh):")
        print(f"  {'placement':<10} {'assumed':<22} {'actual':<22} {'ens':>8}")
        for r in srows:
            print(
                f"  {r['placement']:<10} {r['assumed']:<22} {r['actual']:<22} "
                f"{float(r['ens_mwh']):>8.3f}"
            )
    fig4 = out / "fig4_reconnection.json"
    if fig4.exists():
        rows4 = json.loads(fig4.read_text())["rows"]
        print("\naverage reconnection time (hours):")
        print(f"  {'placement':<10} {'mode':<22} {'DER group':>10} {'non-DER':>10}")
        for r in rows4:
            print(
                f"  {r['placement']:<10} {r['mode']:<22} "
                f"{_hours_cell(r['der_avg_hours'])} {_hours_cell(r['non_der_avg_hours'])}"
            )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plan":
            return cmd_plan(_config_from_args(args), args.mode)
        if args.command == "simulate":
            return cmd_simulate(_config_from_args(args), args.plan, args.actual_mode)
        if args.command == "sweep":
            return cmd_sweep(_config_from_args(args))
        if args.command == "report":
            return cmd_report(args.out)
    except GridRestoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
