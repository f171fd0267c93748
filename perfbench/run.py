"""Benchmark of the gridrestore plan -> replay pipeline.

    python3 perfbench/run.py --workload plan|replay|storms --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, one table

Run from the repository root; the package is imported from ``src/``.
One client in one process runs one operation at a time (closed loop).
After set-up, the run repeats whole passes of its workload for about
``--seconds`` seconds (at least one pass).

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced pass (see ``tracing.py``), plus the
tracing overhead. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, with the environment and, for traced runs, every span, goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5  # this process plus four fresh set-up probes


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta-weighted mean of all order statistics. Step latencies cluster,
    and a plain sample median can jump across the gap between two clusters
    from one run to the next; this estimate moves smoothly instead.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n < 2:
        return float(x[0]) if n else 0.0
    cdf = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ x)


def setup(workload: str, seed: int, workdir: Path):
    """Import the package and load the workload's inputs; returns (w, s)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import gridrestore  # noqa: F401
    import gridrestore.cli  # noqa: F401

    from workloads import WORKLOADS

    w = WORKLOADS[workload](seed, workdir)
    w.load_inputs()
    return w, time.perf_counter() - t0


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """Set-up time of a fresh interpreter, imports included."""
    probe_dir = workdir / f"probe{time.perf_counter_ns()}"
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe", str(probe_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(probe_dir, ignore_errors=True)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    return float(out.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has no commit to report
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def timed_run(w, seconds: float) -> list:
    """Whole untraced passes filling about ``seconds`` (at least one)."""
    passes = [w.run_pass()]
    n = max(1, round(seconds / max(passes[0].wall_s, 1e-9)))
    passes += [w.run_pass() for _ in range(n - 1)]
    return passes


def traced_run(w, seconds: float):
    """(untraced, traced) pass pairs filling about ``seconds``."""
    import tracing

    plain, traced, tracers = [], [], []
    while True:
        plain.append(w.run_pass())
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            w.load_inputs()  # traced again so model.load_s sees the loading
            traced.append(w.run_pass())
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        spent = sum(p.wall_s for p in plain + traced)
        if spent + plain[-1].wall_s + traced[-1].wall_s > seconds * 1.25:
            return plain, traced, tracers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["plan", "replay", "storms", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "gridrestore" / "__init__.py").is_file():
        print(f"gridrestore sources not found under {SRC}", file=sys.stderr)
        return 1

    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        _, seconds = setup(args.workload, args.seed, Path(args.setup_probe))
        print(repr(seconds))
        return 0

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        w, setup_s = setup(args.workload, args.seed, workdir)
        env = environment()
        print(f"env: {json.dumps(env, sort_keys=True)}", flush=True)
        print(f"workload: {args.workload} seed={args.seed} {json.dumps(w.describe())}", flush=True)
        if args.trace:
            record = report_traced(w, args)
        else:
            samples = [setup_s] + [
                probe_setup(args.workload, args.seed, workdir)
                for _ in range(SETUP_SAMPLES - 1)
            ]
            record = report_timed(w, args, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(workload=args.workload, seed=args.seed, trace=args.trace, env=env,
                  inputs=w.describe(), reference_commit=w.reference["commit"])
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    for line in record["failures"]:
        print(f"FAILED: {line}", file=sys.stderr)
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


def _totals(passes) -> dict:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": [f for p in passes for f in p.failures],
        "failed_ratio": failed / attempted if attempted else 1.0,
        "ens_max_rel_err": max(p.ens_max_rel_err for p in passes),
    }


def report_timed(w, args, setup_samples) -> dict:
    passes = timed_run(w, args.seconds)
    units = [u for p in passes for u in p.units]
    steps = [s for u in units for s in u.steps]
    values = {
        "wall_s": statistics.median(u.wall_s for u in units),
        "cpu_s": statistics.median(u.cpu_s for u in units),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "step_p50_s": quantile(steps, 0.50),
        "step_p95_s": quantile(steps, 0.95),
    }
    record = _totals(passes)
    spec = _metric_units("end_to_end")
    record["metrics"] = {k: {"value": values[k], "unit": spec[k]} for k in spec}
    walls = [u.wall_s for u in units]
    record["samples"] = {
        "passes": len(passes),
        "units": len(units),
        "wall_s": walls,
        "wall_s_quartiles": [quantile(walls, 0.25), quantile(walls, 0.75)],
        "steps": len(steps),
        "unit_steps": [u.steps for u in units],
        "setup_s": setup_samples,
    }
    _print_table(args.workload, record)
    return record


def report_traced(w, args) -> dict:
    import tracing

    plain, traced, tracers = traced_run(w, args.seconds)
    spec = _metric_units("per_layer")
    layers = [tracing.layer_metrics(t.spans) for t in tracers]
    unsteady = [
        k for k, unit in spec.items()
        if unit == "count" and any(other[k] != layers[0][k] for other in layers[1:])
    ]
    values = dict(layers[0])
    values["trace_overhead"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in plain) - 1.0
    )
    values["check.ens_max_rel_err"] = max(p.ens_max_rel_err for p in plain + traced)
    values["cli.bytes_written"] = _bytes_written(w)
    record = _totals(plain + traced)
    record["metrics"] = {k: {"value": values[k], "unit": spec[k]} for k in spec}
    record["counts_differ_between_traced_passes"] = unsteady
    record["traced_passes"] = len(traced)
    OUT.mkdir(exist_ok=True)
    tracers[0].write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    _print_table(args.workload, record)
    return record


def _bytes_written(w) -> int:
    """Size of the files the CLI commands of one pass left in the work dir."""
    return sum(
        f.stat().st_size for f in w.workdir.rglob("*")
        if f.is_file() and f.name != "damage.json"
    )


def _metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _print_table(workload: str, record: dict) -> None:
    for name, m in record["metrics"].items():
        print(f"{workload:<8} {name:<28} {m['value']:>14.6g} {m['unit']}")
    print(f"{workload:<8} {'failed/attempted':<28} {record['failed']:>7}/{record['attempted']}")


def run_all(args) -> int:
    """Each workload in its own process, one table for all of them."""
    results = {}
    for workload in ("plan", "replay", "storms"):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
