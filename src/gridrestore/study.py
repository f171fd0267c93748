"""The two-stage restoration study: ordering plans, then AC replays.

For every placement and assumed DER mode, ``run_study`` solves one
restoration-ordering problem. It then replays every plan through the
per-period AC OPF under every actual DER mode, and reports reconnection
times and group ENS for each plan. The ``sweep`` command and the
acceptance suite both run the study through this function.

The replays of one actual case are one ``replay.simulate_plans`` call,
so the plans of every assumed mode share that case's island solves.

Stages are called through their module attributes (``rop.build_rop``,
``replay.simulate_plans`` ...) so that an instrumented run that wraps
those attributes sees every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import metrics, milp, replay, rop, scenarios
from .errors import GridRestoreError
from .model import Network, TimeGrid
from .scenarios import DerMode, DerPlacement, EffectiveCase

ALL_MODES = (DerMode.BASE, DerMode.HOME_MICROGRID, DerMode.COMMUNITY_MICROGRID)


@dataclass(frozen=True)
class StudyResult:
    """Everything the study computes.

    Per-plan entries are keyed ``(placement name, mode)``; replays are
    keyed ``(placement name, assumed mode, actual mode)``. Every dict
    iterates in study order: placements as given, modes as in
    ``ALL_MODES``.
    """

    cases: dict[tuple[str, DerMode], EffectiveCase]
    instances: dict[tuple[str, DerMode], rop.RopInstance]
    plans: dict[tuple[str, DerMode], rop.RestorationPlan]
    rop_ens: dict[tuple[str, DerMode], float]
    reconnection: dict[tuple[str, DerMode], metrics.ReconnectionReport]
    group_ens: dict[tuple[str, DerMode], metrics.EnsReport]
    replays: dict[tuple[str, DerMode, DerMode], replay.RipResult]
    rop_seconds: float  # wall time of the ROP builds and solves


def run_study(
    network: Network,
    placements: list[DerPlacement],
    grid: TimeGrid,
    *,
    rel_gap: float = milp.DEFAULT_REL_GAP,
    tol: float = replay.DEFAULT_RESIDUAL_TOL,
) -> StudyResult:
    """Solve one plan per (placement, mode) and replay it under every mode.

    Each (placement, actual mode) case replays the plans of all assumed
    modes in one ``replay.simulate_plans`` call, which solves each
    distinct island of the case once.
    """
    names = [placement.name for placement in placements]
    if len(set(names)) != len(names):
        raise GridRestoreError(f"placement names must be unique, got {names}")
    cases = {
        (case.placement.name, case.mode): case
        for case in scenarios.enumerate_cases(network, placements, ALL_MODES)
    }
    instances, plans, rop_ens = {}, {}, {}
    t0 = time.perf_counter()
    for key, case in cases.items():
        instance = rop.build_rop(case, grid)
        plan = rop.solve_rop(instance, rel_gap=rel_gap)
        instances[key], plans[key] = instance, plan
        rop_ens[key] = rop.rop_ens_mwh(plan, instance)
    rop_seconds = time.perf_counter() - t0

    replays = {}
    for name in names:
        by_actual = {
            actual: replay.simulate_plans(
                cases[(name, actual)],
                [plans[(name, assumed)] for assumed in ALL_MODES],
                tol=tol,
                step_hours=grid.step_hours,
            )
            for actual in ALL_MODES
        }
        for k, assumed in enumerate(ALL_MODES):
            for actual in ALL_MODES:
                replays[(name, assumed, actual)] = by_actual[actual][k]

    reconnection, group_ens = {}, {}
    for key, case in cases.items():
        plan = plans[key]
        reconnection[key] = metrics.reconnection_times(plan, case, grid.step_hours)
        group_ens[key] = metrics.energy_not_served(
            plan.served_fraction, case.network.demands, grid.step_hours,
            der_demand_ids=case.der_demand_ids, base_mva=case.network.base_mva,
        )

    return StudyResult(
        cases=cases,
        instances=instances,
        plans=plans,
        rop_ens=rop_ens,
        reconnection=reconnection,
        group_ens=group_ens,
        replays=replays,
        rop_seconds=rop_seconds,
    )
