"""Shared test fixtures: toy feeders, a random radial generator, and an
independent DC load-shed oracle used to cross-check the scheduling MILP.

The oracle deliberately avoids the production model builder: de-energized
lines are dropped from its LP entirely, flows follow bus angles (the
production model has no angle columns), and it is solved with the
reference simplex, so the two routes share neither problem assembly nor
solver kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np

from gridrestore.milp import ProblemBuilder
from gridrestore.model import Bus, Demand, Generator, Line, Network

from simplex_reference import solve_lp

PF_Q = 0.3286841  # tan(acos(0.95))


def simple_line(lid, f, t, damaged=False, x=0.01, r=0.01, thermal=5.0):
    den = r * r + x * x
    return Line(
        lid, f, t, b=-x / den, g=r / den, thermal_limit=thermal, damaged=damaged
    )


def substation(gid=1, bus=1, p=10.0, q=5.0):
    return Generator(gid, bus, -p, p, -q, q, kind="substation")


def chain3(damage=(1, 2)):
    """1 -- 2 -- 3 with loads 1 MW and 2 MW; spec's dual-repair toy."""
    return Network(
        buses=(Bus(1, is_reference=True), Bus(2), Bus(3)),
        lines=(
            simple_line(1, 1, 2, damaged=1 in damage, thermal=8.0),
            simple_line(2, 2, 3, damaged=2 in damage, thermal=8.0),
        ),
        generators=(substation(),),
        demands=(Demand(1, 2, 1.0, 1.0 * PF_Q), Demand(2, 3, 2.0, 2.0 * PF_Q)),
    )


def two_bus(damaged=False, load=1.0):
    return Network(
        buses=(Bus(1, is_reference=True), Bus(2)),
        lines=(simple_line(1, 1, 2, damaged=damaged, thermal=8.0),),
        generators=(substation(),),
        demands=(Demand(1, 2, load, load * PF_Q),),
    )


# The element tuple of a ``Network`` whose order each ``AcState`` array follows.
STATE_ELEMENTS = {
    "v": "buses",
    "theta": "buses",
    "v_violation": "buses",
    "served": "demands",
    "p_gen": "generators",
    "q_gen": "generators",
    "p_flow_fr": "lines",
    "p_flow_to": "lines",
    "q_flow_fr": "lines",
    "q_flow_to": "lines",
}


def by_id(state, field: str) -> dict[int, float]:
    """One quantity of a period state, keyed by element id.

    ``AcState`` holds each quantity as an array in network order, so an id
    used as an index would read the wrong element without an error.
    """
    elements = getattr(state.network, STATE_ELEMENTS[field])
    return dict(zip([e.id for e in elements], getattr(state, field).tolist()))


def random_radial(rng: np.random.RandomState, n_buses=None, max_damaged=3) -> Network:
    """Random tree feeder with ample thermal margins and ample substation."""
    n = int(n_buses if n_buses is not None else rng.randint(4, 11))
    buses = tuple(Bus(i, is_reference=(i == 1)) for i in range(1, n + 1))
    lines = []
    for child in range(2, n + 1):
        parent = int(rng.randint(1, child))
        lines.append(simple_line(child - 1, parent, child, thermal=20.0))
    n_damaged = int(rng.randint(1, max_damaged + 1))
    damaged_ids = {
        int(i)
        for i in rng.choice([l.id for l in lines], size=n_damaged, replace=False)
    }
    lines = [replace(l, damaged=l.id in damaged_ids) for l in lines]
    demands = []
    did = 1
    for b in range(2, n + 1):
        if rng.rand() < 0.8:
            p = float(rng.uniform(0.2, 2.0))
            demands.append(Demand(did, b, p, p * PF_Q))
            did += 1
    if not demands:
        demands.append(Demand(1, n, 1.0, PF_Q))
    return Network(
        buses=buses,
        lines=tuple(lines),
        generators=(substation(p=50.0, q=25.0),),
        demands=tuple(demands),
    )


def random_der_feeder(rng: np.random.RandomState, n_buses=None, max_damaged=3) -> Network:
    """Random tree feeder whose thermal limits bind, with zero-floor DER units.

    Line limits (0.3-2 MW) sit at or below the loads they carry, so capacity
    limits what an island can serve. About a third of the load buses host a
    customer DER with ``p_min`` 0, as community-microgrid units do.
    """
    n = int(n_buses if n_buses is not None else rng.randint(4, 11))
    buses = tuple(Bus(i, is_reference=(i == 1)) for i in range(1, n + 1))
    n_damaged = int(rng.randint(1, min(max_damaged, n - 1) + 1))
    damaged_ids = {int(i) for i in rng.choice(np.arange(1, n), size=n_damaged, replace=False)}
    lines = tuple(
        simple_line(
            child - 1, int(rng.randint(1, child)), child,
            damaged=(child - 1) in damaged_ids, thermal=float(rng.uniform(0.3, 2.0)),
        )
        for child in range(2, n + 1)
    )
    generators = [substation(p=50.0, q=25.0)]
    demands = []
    for b in range(2, n + 1):
        p = float(rng.uniform(0.2, 2.0))
        demands.append(Demand(len(demands) + 1, b, p, p * PF_Q))
        if rng.rand() < 0.35:
            cap = float(rng.uniform(0.1, 1.5))
            generators.append(
                Generator(len(generators) + 1, b, 0.0, cap, -0.5 * cap, 0.5 * cap,
                          kind="customer_der")
            )
    return Network(
        buses=buses, lines=lines, generators=tuple(generators), demands=tuple(demands)
    )


def dc_shed_optimum(network: Network, energized_damaged: set[int]) -> float:
    """Max served MW for one period; absent lines simply do not exist."""
    b = ProblemBuilder(maximize=True)
    ref = network.reference_bus.id
    theta = {
        bus.id: b.add_column(
            0.0 if bus.id == ref else -np.inf, 0.0 if bus.id == ref else np.inf
        )
        for bus in network.buses
    }
    x = {d.id: b.add_column(0.0, 1.0, obj=d.p) for d in network.demands}
    pg = {g.id: b.add_column(g.p_min, g.p_max) for g in network.generators}
    live_lines = [
        l for l in network.lines if not l.damaged or l.id in energized_damaged
    ]
    pl = {
        l.id: b.add_column(-l.thermal_limit, l.thermal_limit)
        for l in live_lines
    }
    for l in live_lines:
        b.add_row(
            {pl[l.id]: 1.0, theta[l.from_bus]: l.b, theta[l.to_bus]: -l.b},
            lower=0.0,
            upper=0.0,
        )
    for bus in network.buses:
        coeffs: dict[int, float] = {}
        for g in network.generators:
            if g.bus == bus.id:
                coeffs[pg[g.id]] = 1.0
        for d in network.demands:
            if d.bus == bus.id:
                coeffs[x[d.id]] = -d.p
        for l in live_lines:
            if l.from_bus == bus.id:
                coeffs[pl[l.id]] = coeffs.get(pl[l.id], 0.0) - 1.0
            elif l.to_bus == bus.id:
                coeffs[pl[l.id]] = coeffs.get(pl[l.id], 0.0) + 1.0
        b.add_row(coeffs, lower=0.0, upper=0.0)
    sol = solve_lp(b.build_lp())
    assert sol.status == "optimal", sol.status
    return float(sol.objective)


def permutation_oracle(network: Network, step_hours: float = 1.0) -> float:
    """Best served energy over all repair orders, one repair per period."""
    damaged = [l.id for l in network.lines if l.damaged]
    best = -np.inf
    for order in itertools.permutations(damaged):
        served = 0.0
        for t in range(len(damaged) + 1):
            served += dc_shed_optimum(network, set(order[:t])) * step_hours
        best = max(best, served)
    return float(best)
