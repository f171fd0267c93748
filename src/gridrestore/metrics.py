"""Performance criteria: energy not served and reconnection times.

Group splits (customers with vs. without DERs) follow the placement that
defined the case, so the base scenario reports the same two groups even
though its DERs supply nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridRestoreError
from .model import reachable_buses
from .rop import RestorationPlan, split_key
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
    """First period each demand has an all-energized path to the substation."""
    net = case.network
    t_d: dict[int, int] = {}
    for t in range(plan.n_periods):
        energized = plan.energized_at(t)
        lines = {split_key(k)[1] for k in energized if k.startswith("line:")}
        buses = {split_key(k)[1] for k in energized if k.startswith("bus:")}
        reached = reachable_buses(net, energized_lines=lines, energized_buses=buses)
        for d in net.demands:
            if d.id not in t_d and d.bus in reached:
                t_d[d.id] = t
    missing = [d.id for d in net.demands if d.id not in t_d]
    if missing:
        raise GridRestoreError(
            f"demands never reconnected to the substation: {missing}"
        )
    der_ids = set(case.der_demand_ids)
    der = [t_d[d.id] for d in net.demands if d.id in der_ids]
    non = [t_d[d.id] for d in net.demands if d.id not in der_ids]
    return ReconnectionReport(
        period_by_demand=t_d,
        step_hours=step_hours,
        der_avg_hours=float(np.mean(der)) * step_hours if der else float("nan"),
        non_der_avg_hours=float(np.mean(non)) * step_hours if non else float("nan"),
    )

