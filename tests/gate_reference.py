"""Reference gating rule: loop versions of what ``Network.work_periods`` feeds.

``working`` tests each element's gate (``Network.gates``) against a set
of energized keys with ``issuperset``, one element at a time.
``union_find_islands`` finds the connected components of the working
buses and lines by union-find, from the damage flags alone, without the
gates or the feeder tree. ``assert_period_follows_gates`` holds a replay
period's masks, islands and live buses to the first two.
``reconnection_periods`` walks the feeder tree bus by bus, taking the
later of a bus's parent's period and the period its line to the parent
works, as ``metrics.reconnection_times`` did before it ran one depth
level at a time.
"""

from __future__ import annotations

from gridrestore import replay
from gridrestore.model import Bus, Demand, Generator, Line

KIND = {Bus: "bus", Line: "line", Generator: "gen", Demand: "demand"}


def working(net, energized, elements) -> frozenset[int]:
    """The ids of ``elements`` each of whose gate keys is in ``energized``."""
    return frozenset(
        e.id for e in elements if energized.issuperset(net.gates[(KIND[type(e)], e.id)])
    )


def union_find_islands(net, energized):
    """Connected components of the working buses and lines, by union-find."""
    def works(element, *buses):
        key = f"{KIND[type(element)]}:{element.id}"
        return (not element.damaged or key in energized) and all(bus_works[b] for b in buses)

    bus_works = {b.id: works(b) for b in net.buses}
    root = {b: b for b, on in bus_works.items() if on}

    def find(b):
        while root[b] != b:
            b = root[b]
        return b

    on_lines = [l for l in net.lines if works(l, l.from_bus, l.to_bus)]
    for l in on_lines:
        root[find(l.from_bus)] = find(l.to_bus)
    members = {}
    for b in sorted(root):
        members.setdefault(find(b), []).append(b)
    ref = net.reference_bus.id
    islands = []
    for buses in sorted(members.values()):
        gens = tuple(g.id for g in net.generators if g.bus in buses and works(g, g.bus))
        islands.append(replay.Island(
            buses=tuple(buses),
            lines=tuple(sorted(l.id for l in on_lines if l.from_bus in buses)),
            generators=gens,
            demands=tuple(d.id for d in net.demands if d.bus in buses and works(d, d.bus)),
            live=bool(gens),
            reference=ref if ref in buses else buses[0],
        ))
    return tuple(islands)


def reconnection_periods(plan, case) -> dict[int, int]:
    """Each demand's first period with a working path to the substation."""
    net = case.network
    tree = net.radial_tree
    never = plan.n_periods

    def works(element) -> int:
        return max((plan.energization.get(k, never) for k in net.gates[element]), default=0)

    reached: dict[int, int] = {}
    for bid, parent, line in zip(tree.order, tree.parent, tree.up):
        if line is None:
            reached[bid] = works(("bus", bid))
        else:
            reached[bid] = max(reached[tree.order[parent]], works(("line", line.id)))
    return {d.id: max(reached[d.bus], works(("demand", d.id))) for d in net.demands}


def assert_period_follows_gates(problem) -> None:
    """A replay period's four masks, its islands and its live buses, against
    ``working`` and ``union_find_islands``."""
    net, energized = problem.case.network, problem.energized
    masks = (problem.energized_buses, problem.energized_lines, problem.energized_gens,
             problem.energized_demands)
    for mask, elements in zip(masks, (net.buses, net.lines, net.generators, net.demands)):
        ids = working(net, energized, elements)
        assert mask.tolist() == [e.id in ids for e in elements], (problem.period, elements)
    islands = union_find_islands(net, energized)
    assert problem.islands == islands, problem.period
    live = {b for island in islands if island.live for b in island.buses}
    assert problem.live_buses.tolist() == [b.id in live for b in net.buses], problem.period
