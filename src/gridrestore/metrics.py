"""Performance criteria: energy not served and reconnection times.

Group splits (customers with vs. without DERs) follow the placement that
defined the case, so the base scenario reports the same two groups even
though its DERs supply nothing. Reconnection times run down the radial
feeder tree (``Network.radial_tree``) one depth level at a time, from
each element's first working period (``Network.work_periods``), which
the AC replay reads too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridRestoreError
from .rop import RestorationPlan
from .scenarios import EffectiveCase


@dataclass(frozen=True)
class EnsReport:
    total_mwh: float
    der_group_mwh: float
    non_der_group_mwh: float
    fraction: float
    per_demand_mwh: dict[int, float]


@dataclass(frozen=True)
class ReconnectionReport:
    period_by_demand: dict[int, int]
    step_hours: float
    der_avg_hours: float
    non_der_avg_hours: float

    def hours(self, demand_id: int) -> float:
        return self.period_by_demand[demand_id] * self.step_hours


def energy_not_served(
    x: np.ndarray,
    demands,
    step_hours: float,
    der_demand_ids=None,
    base_mva: float = 1.0,
) -> EnsReport:
    """ENS = sum over periods and demands of (1 - x) * demand * step."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != len(demands):
        raise ValueError(
            f"served-fraction matrix shape {x.shape} does not match {len(demands)} demands"
        )
    if x.min(initial=0.0) < -1e-9 or x.max(initial=0.0) > 1 + 1e-9:
        raise ValueError("served fractions must lie in [0, 1]")
    n_periods = x.shape[1]
    p = np.array([d.p for d in demands]) * base_mva
    unserved = (1.0 - x) * p[:, None] * step_hours
    per_demand = unserved.sum(axis=1)
    if der_demand_ids is None:
        der_demand_ids = {d.id for d in demands if d.has_der}
    der_mask = np.array([d.id in der_demand_ids for d in demands])
    total = float(per_demand.sum())
    energy = float(p.sum() * n_periods * step_hours)
    return EnsReport(
        total_mwh=total,
        der_group_mwh=float(per_demand[der_mask].sum()),
        non_der_group_mwh=float(per_demand[~der_mask].sum()),
        fraction=total / energy if energy > 0 else 0.0,
        per_demand_mwh={d.id: float(v) for d, v in zip(demands, per_demand)},
    )


def reconnection_times(
    plan: RestorationPlan, case: EffectiveCase, step_hours: float = 1.0
) -> ReconnectionReport:
    """First period each demand works and has a working path to the substation.

    A running maximum down the feeder tree, one depth level at a time:
    the reference bus is reached when it works, any other bus in the
    later of its parent's period and the period its line to the parent
    works (``Network.work_periods``). Raises ``CaseValidationError`` for
    a meshed or disconnected network.
    """
    net = case.network
    tree = net.radial_tree
    work = net.work_periods(plan.energization, plan.n_periods)
    reached = np.empty(len(tree.order), dtype=np.int64)
    reached[0] = work["bus"][tree.bus_rows[0]]
    for lv in tree.levels[1:]:
        reached[lv] = np.maximum(reached[tree.parent[lv]], work["line"][tree.up_rows[lv]])
    at_bus = reached[np.argsort(tree.bus_rows)][net.arrays.demand_bus]  # at each demand's bus
    t_d = dict(zip(net.arrays.demand_ids.tolist(), np.maximum(at_bus, work["demand"]).tolist()))
    missing = [i for i, t in t_d.items() if t >= plan.n_periods]
    if missing:
        raise GridRestoreError(f"demands never reconnected to the substation: {missing}")
    der_ids = set(case.der_demand_ids)
    der = [t_d[d.id] for d in net.demands if d.id in der_ids]
    non = [t_d[d.id] for d in net.demands if d.id not in der_ids]
    return ReconnectionReport(
        period_by_demand=t_d,
        step_hours=step_hours,
        der_avg_hours=float(np.mean(der)) * step_hours if der else float("nan"),
        non_der_avg_hours=float(np.mean(non)) * step_hours if non else float("nan"),
    )

