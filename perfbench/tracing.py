"""In-memory span tracer installed around the functions each layer calls.

Only the traced run installs these wrappers; the timed runs never do. A
wrapper replaces a module attribute (``gridrestore.rop.solve_milp``,
``scipy.optimize.minimize`` ...) so that calls made through that name,
from the benchmark or from inside the package, open a span. Nothing in
``src/`` is edited. ``Tracer.uninstall`` puts every original back.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``op`` the operation id, which a
top-level span takes fresh and its descendants share. Some spans carry a few attributes
(MILP size, solver counts, island signatures) taken from the arguments
or the return value of the wrapped call.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self.op += 1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, annotate=None):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if annotate is not None:
                annotate(self.spans[index], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, annotate=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, annotate))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, **s.attrs,
                }) + "\n")


# -- annotations read from arguments and return values ----------------------
def _rop_size(span, args, kwargs, instance):
    lp = instance.problem.lp
    span.attrs.update(
        cols=lp.n_cols, rows=lp.n_rows, nnz=len(lp.a_vals),
        binaries=len(instance.problem.integer_columns),
    )


def _highs_result(span, args, kwargs, res):
    span.attrs.update(
        nodes=int(getattr(res, "mip_node_count", 0) or 0),
        gap=float(getattr(res, "mip_gap", 0.0) or 0.0),
        status=int(res.status),
    )


def _minimize_call(span, args, kwargs, res):
    # The island an NLP call belongs to is the owner of its balance
    # constraint (a bound method of the island model), so an SLSQP call
    # that follows a trust-constr call on the same island is its polish.
    cons = kwargs.get("constraints") or ()
    first = cons[0] if cons else None
    fun = first.get("fun") if isinstance(first, dict) else getattr(first, "fun", None)
    span.attrs.update(
        method=str(kwargs.get("method", "")).lower(),
        island=id(getattr(fun, "__self__", None)),
        nit=int(getattr(res, "nit", 0) or 0),
        nfev=int(getattr(res, "nfev", 0) or 0),
        njev=int(getattr(res, "njev", 0) or 0),
    )


def _opf_problem(span, args, kwargs, state):
    problem = args[0] if args else kwargs["problem"]
    label = problem.case.label
    span.attrs["islands"] = [
        (label, i.buses, i.lines, i.generators, i.demands)
        for i in problem.islands
        if i.live
    ]
    span.attrs["converged"] = bool(state.converged)


def install(tracer: Tracer) -> None:
    """Wrap the public functions each layer calls into."""
    import scipy.optimize

    import gridrestore.milp as milp
    from gridrestore import cli, datasets, metrics, replay, rop, scenarios

    tracer.patch(datasets, "load_case", "model.load_case")
    tracer.patch(datasets, "apply_damage", "model.apply_damage")
    tracer.patch(cli, "load_case", "model.load_case")
    tracer.patch(cli, "apply_damage", "model.apply_damage")
    for owner in (scenarios, cli):
        tracer.patch(owner, "apply_der_mode", "scenarios.apply_der_mode")
    for owner in (rop, cli):
        tracer.patch(owner, "build_rop", "rop.build_rop", _rop_size)
        tracer.patch(owner, "solve_rop", "rop.solve_rop")
    tracer.patch(rop, "solve_milp", "milp.solve_milp")
    tracer.patch(milp, "verify_solution", "milp.verify_solution")
    tracer.patch(scipy.optimize, "milp", "milp.highs", _highs_result)
    for owner in (replay, cli):
        tracer.patch(owner, "simulate_plan", "replay.simulate_plan")
    tracer.patch(replay, "build_rip_step", "replay.build_rip_step")
    tracer.patch(replay, "solve_ac_opf", "replay.solve_ac_opf", _opf_problem)
    tracer.patch(replay, "residuals", "replay.residuals")
    tracer.patch(scipy.optimize, "minimize", "replay.minimize", _minimize_call)
    for name in ("reconnection_times", "energy_not_served"):
        tracer.patch(metrics, name, f"metrics.{name}")
    tracer.patch(cli, "main", "cli.main")


# -- per-layer metrics -------------------------------------------------------
def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)

    def total(*names):
        return sum((s.duration for s in spans if s.name in names), 0.0)

    def self_total(name):
        return sum((own[i] for i, s in enumerate(spans) if s.name == name), 0.0)

    builds = [s.attrs for s in spans if s.name == "rop.build_rop"]
    highs = [s.attrs for s in spans if s.name == "milp.highs"]

    opf = [s for s in spans if s.name == "replay.solve_ac_opf"]
    live = [isl for s in opf for isl in s.attrs["islands"]]

    calls = [s for s in spans if s.name == "replay.minimize"]
    kinds = []
    for i, s in enumerate(calls):
        prev = calls[i - 1] if i else None
        if s.attrs["method"] == "trust-constr":
            kinds.append("trust")
        elif (
            kinds and kinds[-1] == "trust"
            and prev.parent == s.parent
            and prev.attrs["island"] == s.attrs["island"]
        ):
            kinds.append("polish")
        else:
            kinds.append("slsqp")
    nlp = {kind: [0, 0.0] for kind in ("slsqp", "trust", "polish")}
    for s, kind in zip(calls, kinds):
        nlp[kind][0] += 1
        nlp[kind][1] += s.duration
    # a trust-constr call rescued its island when no polish followed it
    trust_rescued = sum(
        1 for i, kind in enumerate(kinds)
        if kind == "trust" and (i + 1 == len(kinds) or kinds[i + 1] != "polish")
    )
    minimize = [s.attrs for s in calls]
    nfev = sum(a["nfev"] for a in minimize)
    njev = sum(a["njev"] for a in minimize)
    nlp_s = total("replay.minimize")
    trust_calls = nlp["trust"][0]

    out = {
        "milp.solve_s": total("milp.solve_milp"),
        "milp.highs_s": total("milp.highs"),
        "milp.verify_s": total("milp.verify_solution"),
        "milp.nodes": sum(a["nodes"] for a in highs),
        "milp.highs_calls": len(highs),
        "milp.gap": max((a["gap"] for a in highs), default=0.0),
        "rop.build_s": total("rop.build_rop"),
        "rop.extract_s": self_total("rop.solve_rop"),
        "rop.cols": sum(a["cols"] for a in builds),
        "rop.rows": sum(a["rows"] for a in builds),
        "rop.nnz": sum(a["nnz"] for a in builds),
        "rop.binaries": sum(a["binaries"] for a in builds),
        "replay.simulate_s": total("replay.simulate_plan"),
        "replay.step_s": total("replay.build_rip_step"),
        "replay.opf_s": total("replay.solve_ac_opf"),
        "replay.opf_self_s": self_total("replay.solve_ac_opf"),
        "replay.residuals_s": total("replay.residuals"),
        "replay.periods": len(opf),
        "replay.islands_live": len(live),
        "replay.islands_distinct": len(set(live)),
        "replay.distinct_ratio": len(set(live)) / len(live) if live else 0.0,
    }
    for kind, (n, seconds) in nlp.items():
        out[f"replay.nlp.{kind}_calls"] = n
        out[f"replay.nlp.{kind}_s"] = seconds
    out.update({
        "replay.nlp.rescue_ratio": trust_rescued / trust_calls if trust_calls else 0.0,
        "replay.nlp.nit": sum(a["nit"] for a in minimize),
        "replay.nlp.nfev": nfev,
        "replay.nlp.njev": njev,
        "replay.nlp.s_per_eval": nlp_s / (nfev + njev) if nfev + njev else 0.0,
        "scenarios.apply_s": total("scenarios.apply_der_mode"),
        "metrics.s": total("metrics.reconnection_times", "metrics.energy_not_served"),
        "model.load_s": total("model.load_case", "model.apply_damage"),
        "cli.self_s": self_total("cli.main"),
    })
    return out

