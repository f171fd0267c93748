"""Regenerate the benchmark's frozen inputs and correctness references.

Solves the six bundled restoration-ordering MILPs (2 placements x 3 DER
modes) and replays each plan under all three actual modes (18 cells),
then writes

* ``perfbench/frozen/plans/plan_<placement>_<mode>.json`` -- the plans
  the ``replay`` workload replays, so that it runs no MILP;
* ``perfbench/frozen/reference.json`` -- the 6 schedule and 18 replay
  ENS values the workloads check against, with the commit they came from.

Run from the repository root: ``python3 perfbench/freeze.py`` (about
three minutes on two cores). Only rerun it when a change is meant to
move the reference values, and say so in that change.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FROZEN = Path(__file__).resolve().parent / "frozen"
sys.path.insert(0, str(ROOT / "src"))

from gridrestore import datasets  # noqa: E402
from gridrestore.model import time_grid_for  # noqa: E402
from gridrestore.replay import simulate_plan  # noqa: E402
from gridrestore.rop import build_rop, rop_ens_mwh, solve_rop  # noqa: E402
from gridrestore.scenarios import DerMode, apply_der_mode  # noqa: E402

PLACEMENTS = ("uniform", "clustered")
MODES = (DerMode.BASE, DerMode.HOME_MICROGRID, DerMode.COMMUNITY_MICROGRID)


def commit_id() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    network = datasets.bundled_damaged_case()
    grid = time_grid_for(network)
    (FROZEN / "plans").mkdir(parents=True, exist_ok=True)
    rop_ens, rip_ens, plans = {}, {}, {}
    for name in PLACEMENTS:
        placement = datasets.bundled_placement(name)
        for mode in MODES:
            instance = build_rop(apply_der_mode(network, placement, mode), grid)
            plan = solve_rop(instance)
            if not plan.optimal:
                raise SystemExit(f"{name}/{mode.value}: MILP not proven optimal")
            plans[(name, mode)] = plan
            plan.save(FROZEN / "plans" / f"plan_{name}_{mode.value}.json")
            rop_ens[f"{name}/{mode.value}"] = rop_ens_mwh(plan, instance)
            print(f"rop {name}/{mode.value} ENS {rop_ens[f'{name}/{mode.value}']:.6f}", flush=True)
    for name in PLACEMENTS:
        placement = datasets.bundled_placement(name)
        for assumed in MODES:
            for actual in MODES:
                case = apply_der_mode(network, placement, actual)
                result = simulate_plan(case, plans[(name, assumed)])
                if not result.converged:
                    raise SystemExit(f"{name}/{assumed.value}/{actual.value}: replay did not converge")
                key = f"{name}/{assumed.value}/{actual.value}"
                rip_ens[key] = result.ens_mwh
                print(f"rip {key} ENS {result.ens_mwh:.6f}", flush=True)
    reference = {
        "commit": commit_id(),
        "rop_ens_mwh": rop_ens,
        "rip_ens_mwh": rip_ens,
    }
    (FROZEN / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
