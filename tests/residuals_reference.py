"""Reference residual check: the loop version of ``replay.residuals``.

It reads the period state by element id, works out the energized
elements from ``Network.gates`` itself, picks the energized lines of
live islands out of ``Network.line_block`` and walks the buses, units
and demands one at a time. ``replay.residuals`` evaluates the whole line
block at once and masks the de-energized and dead elements. Both add
each bus's injections in the same order (the flows from and to each
line in line order, then the units, then the demands) and take the same
``math.hypot``, so the tests hold the two equal bit for bit.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from helpers import STATE_ELEMENTS, by_id


def residuals(state, problem) -> dict[str, float]:
    """Max absolute violation per constraint family, recomputed from scratch."""
    net = problem.case.network
    state = SimpleNamespace(**{name: by_id(state, name) for name in STATE_ELEMENTS})

    def working(kind, elements) -> frozenset[int]:
        return frozenset(
            e.id for e in elements if problem.energized.issuperset(net.gates[(kind, e.id)])
        )

    energized_line_ids = working("line", net.lines)
    energized_gen_ids = working("gen", net.generators)
    energized_demand_ids = working("demand", net.demands)

    v = np.array([state.v[b.id] for b in net.buses])
    th = np.array([state.theta[b.id] for b in net.buses])
    bus_index = net.bus_position
    live = {b for isl in problem.islands if isl.live for b in isl.buses}
    flows = (state.p_flow_fr, state.p_flow_to, state.q_flow_fr, state.q_flow_to)

    on, off = [], []
    for l in net.lines:
        (on if l.id in energized_line_ids and l.from_bus in live else off).append(l)
    # de-energized or dead-island lines: flows must be exactly zero
    flow_err = max((abs(f[l.id]) for l in off for f in flows), default=0.0)

    lines = net.line_block
    rows = np.array([net.line_position[l.id] for l in on], dtype=np.int64)
    block = lines.take(rows, lines.i[rows], lines.j[rows])
    pfr, pto, qfr, qto = (np.array([f[l.id] for l in on]) for f in flows)
    for recomputed, stated in zip(block.flows(block.terms(v, th)), (pfr, pto, qfr, qto)):
        flow_err = max(flow_err, float(np.max(np.abs(recomputed - stated), initial=0.0)))
    apparent = np.array([math.hypot(p, q) for p, q in zip(np.r_[pfr, pto], np.r_[qfr, qto])])
    thermal = float(np.max(apparent - np.tile(block.t_lim, 2), initial=0.0))
    diff = th[block.i] - th[block.j]
    angle = float(np.max(np.r_[diff - block.a_max, block.a_min - diff], initial=0.0))

    # stated flows leave each line's from end, then its to end, in line order
    ends = np.column_stack([block.i, block.j]).ravel()
    inj_p = np.zeros(len(net.buses))
    inj_q = np.zeros(len(net.buses))
    np.subtract.at(inj_p, ends, np.column_stack([pfr, pto]).ravel())
    np.subtract.at(inj_q, ends, np.column_stack([qfr, qto]).ravel())
    for g in net.generators:
        if g.id in energized_gen_ids and g.bus in live:
            inj_p[bus_index[g.bus]] += state.p_gen[g.id]
            inj_q[bus_index[g.bus]] += state.q_gen[g.id]

    balance_p = 0.0
    balance_q = 0.0
    voltage = 0.0
    # de-energized units and demands must sit at exactly zero
    shed = max(
        (
            max(abs(state.p_gen[g.id]), abs(state.q_gen[g.id]))
            for g in net.generators
            if g.id not in energized_gen_ids
        ),
        default=0.0,
    )
    shed = max(
        shed,
        max(
            (abs(state.served[d.id]) for d in net.demands if d.id not in energized_demand_ids),
            default=0.0,
        ),
    )
    for b in net.buses:
        k = bus_index[b.id]
        for d in net.demands_at.get(b.id, ()):
            inj_p[k] -= state.served[d.id] * d.p
            inj_q[k] -= state.served[d.id] * d.q
            shed = max(shed, -state.served[d.id], state.served[d.id] - 1.0, 0.0)
        if b.id in live:
            balance_p = max(balance_p, abs(inj_p[k]))
            balance_q = max(balance_q, abs(inj_q[k]))
            voltage = max(
                voltage,
                v[k] - b.v_max,
                (b.v_min - state.v_violation[b.id]) - v[k],
                0.0,
            )
        else:
            # dead or de-energized: no voltage, no service
            voltage = max(voltage, abs(v[k]))
            for d in net.demands_at.get(b.id, ()):
                shed = max(shed, abs(state.served[d.id]))
    return {
        "balance_p": float(balance_p),
        "balance_q": float(balance_q),
        "flow": float(flow_err),
        "voltage": float(voltage),
        "thermal": float(thermal),
        "angle": float(angle),
        "shed": float(shed),
    }
