"""Benchmark of harmoniccascade: three closed-loop workloads, one process each.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pump_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selfcheck

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json with no
spans recorded.  ``--trace 1`` alternates traced and untraced operations on
the same inputs; per-layer metrics come from the traced ones and the tracing
overhead is the difference of the two medians.  The last line of standard
output is one JSON object (correct, attempted, failed, metrics); the lines
before it give the workload-specific metric names, the provenance and any gate
failures.  A run with a failing gate prints its numbers and exits 1.

The package is imported from ``src/`` of the checkout, never from an installed
copy; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
LAYERS = ("semiclassical", "linearized", "correlations", "stochastic", "cli")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--minimal", action="store_true",
                    help="smallest inputs; used by --selfcheck")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, do one warm-up operation and exit")
    ap.add_argument("--selfcheck", action="store_true",
                    help="run every workload at minimal size and trip every gate")
    return ap.parse_args(argv)


def cap_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP pools at the usable core count, before numpy loads."""
    n = str(len(os.sched_getaffinity(0)))
    caps = {var: n for var in THREAD_VARS}
    os.environ.update(caps)
    return caps


def import_package():
    """Import harmoniccascade from this checkout's src/ or exit 2."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import harmoniccascade
    except ImportError as exc:
        print(f"error: cannot import harmoniccascade from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)
    if ROOT / "src" not in Path(harmoniccascade.__file__).resolve().parents:
        print(f"error: harmoniccascade imported from {harmoniccascade.__file__}, "
              "not from this checkout", file=sys.stderr)
        raise SystemExit(2)
    return harmoniccascade


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True, timeout=30).stdout
    return {"sha": git("rev-parse", "HEAD").strip() or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no").strip())}


def provenance(caps, load_at_start) -> dict:
    import numpy
    import scipy
    return {**git_state(), "nproc": len(os.sched_getaffinity(0)),
            "thread_caps": caps, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "loadavg_at_start": load_at_start, "machine": platform.machine()}


def setup_seconds(args) -> list[float]:
    """Wall times of fresh interpreters that set up and warm up the workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.minimal:
        cmd.append("--minimal")
    times = []
    for _ in range(1 if args.minimal else SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=170)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return times


def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if values else float("nan")


def measure(wl, seconds: float, trace: bool):
    """Closed loop: issue operations until the next would overrun the window.

    A calibration sample precedes every round and follows the last one.
    """
    from calibration import Calibration
    from tracing import NullTracer, Tracer
    tracer, null = Tracer(), NullTracer()
    cal = Calibration(wl.calibration_calls)
    lat = {"untraced": [], "traced": []}
    scaled: list[float] = []  # untraced latencies at the reference host speed
    rounds: list[int] = []
    work = 0.0
    attempted = failed = 0
    problems: list[str] = []
    items = wl.schedule()
    start = time.perf_counter()
    last = 0.0
    for k in itertools.count():
        round_start = time.perf_counter()
        if k and round_start - start + last > seconds:
            break
        cal.sample()
        item = next(items)
        # Traced runs do each item both ways, alternating which goes first.
        kinds = (["untraced"] if not trace
                 else ["traced", "untraced"][:: 1 if k % 2 == 0 else -1])
        for kind in kinds:
            tr = tracer if kind == "traced" else null
            attempted += 1
            t0 = time.perf_counter()
            try:
                with tr.span(f"op.{wl.name}", op=f"op-{k}"):
                    out = wl.run(item, tr)
            except Exception:  # a failed operation is counted; the loop goes on
                failed += 1
                problems.append(f"operation {item!r} raised:\n"
                                + traceback.format_exc())
                continue
            elapsed = time.perf_counter() - t0
            lat[kind].append(elapsed * 1e3)
            if kind == "untraced":
                work += wl.work(out)
                rounds.append(k)
            problems += wl.check(item, out)
            if kind == "traced":
                wl.probe(item, tracer, f"probe-{k}")
        last = time.perf_counter() - round_start
    cal.sample()
    scaled = [ms * cal.factor(k) for ms, k in zip(lat["untraced"], rounds)]
    return {"lat": lat, "scaled": scaled, "work": work,
            "attempted": attempted, "failed": failed, "problems": problems,
            "tracer": tracer, "calibration_ms": cal.samples,
            "run_factor": cal.factor()}


def layer_metrics(spans, n_ops: int, wl) -> dict:
    """Per-layer metrics from the spans of traced operations and probes."""
    from tracing import duration_ms, layer_of, self_times_ms
    from workloads import CliModes
    selfs = self_times_ms(spans)
    in_ops = [i for i, s in enumerate(spans) if s["op"].startswith("op-")]
    durs: dict[str, list[float]] = {}
    for s in spans:
        durs.setdefault(s["name"], []).append(duration_ms(s))

    def p(name, q=50):
        return percentile(durs[name], q) if name in durs else 0.0

    def per_unit(name, key, scale):
        sel = [s for s in spans if s["name"] == name]
        units = sum(s["attrs"].get(key, 0) for s in sel)
        return scale * sum(map(duration_ms, sel)) / units if units else 0.0

    def attr_total(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans
                   if s["name"] == name and s["op"].startswith("op-"))

    per_op = max(n_ops, 1)
    m = {
        "semiclassical.require_steady_state.ms_p50": (p("semiclassical.require_steady_state"), "ms"),
        "semiclassical.require_steady_state.ms_p90": (p("semiclassical.require_steady_state", 90), "ms"),
        "semiclassical.pulsing_threshold.ms": (p("semiclassical.pulsing_threshold"), "ms"),
        "linearized.from_steady_state.us": (1e3 * p("linearized.from_steady_state"), "us"),
        "linearized.spectrum_grid.ms_p50": (p("linearized.spectrum_grid"), "ms"),
        "linearized.spectrum_grid.us_per_omega": (per_unit("linearized.spectrum_grid", "points", 1e3), "us"),
        "linearized.omega_points": (attr_total("linearized.spectrum_grid", "points") / per_op, "count"),
        "correlations.evaluate_grid.ms_p50": (p("correlations.evaluate_grid"), "ms"),
        "correlations.evaluate_grid.us_per_omega": (per_unit("correlations.evaluate_grid", "points", 1e3), "us"),
        "correlations.summarize_grid.ms": (p("correlations.summarize_grid"), "ms"),
        "stochastic.run_ensemble.ns_per_traj_step": (per_unit("stochastic.run_ensemble", "traj_steps", 1e6), "ns"),
        "stochastic.rng.ns_per_traj_step": (per_unit("stochastic.rng", "traj_steps", 1e6), "ns"),
        "stochastic.traj_steps": (attr_total("stochastic.run_ensemble", "traj_steps"), "count"),
        "stochastic.divergent": (attr_total("stochastic.run_ensemble", "divergent"), "count"),
    }
    for mode in CliModes.modes:
        m[f"cli.{mode}.ms"] = (p(f"cli.{mode}"), "ms")
    m["cli.bytes_written"] = (wl.bytes_per_op, "count")
    m["cli.overhead_ms"] = ((p("cli.correlations") - p("probe.correlations_direct"))
                            if "probe.correlations_direct" in durs else 0.0, "ms")
    for layer in LAYERS + ("op",):
        total = sum(selfs[i] for i in in_ops if layer_of(spans[i]["name"]) == layer)
        name = ("trace.unaccounted_ms_per_op" if layer == "op"
                else f"{layer}.self_ms_per_op")
        m[name] = (total / per_op, "ms")
    return m


def run_workload(args, caps, load_at_start) -> int:
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    try:
        setup = [] if args.trace or args.setup_probe else setup_seconds(args)
        wl = WORKLOADS[args.workload](args.seed, args.minimal, tmp)
        problems = wl.warm_up()
        if args.setup_probe:
            return 0
        res = measure(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    problems += res["problems"]
    lat = res["lat"]
    scaled = res["scaled"]  # at the reference host speed, see calibration.py
    e2e = {
        "setup_s": ((res["run_factor"] * statistics.median(setup), "s")
                    if setup else None),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_ms_p50": (percentile(scaled, 50), "ms"),
        "op_ms_p90": (percentile(scaled, 90), "ms"),
        "work_per_s": (1e3 * res["work"] / sum(scaled) if scaled else 0.0, "1/s"),
    }
    if args.trace:
        metrics = layer_metrics(res["tracer"].spans, len(lat["traced"]), wl)
        metrics["trace.overhead_ms"] = (percentile(lat["traced"], 50)
                                        - percentile(lat["untraced"], 50), "ms")
    else:
        metrics = e2e
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "minimal": args.minimal,
        "provenance": provenance(caps, load_at_start),
        "loop": "closed, one caller",
        "samples": {k: len(v) for k, v in lat.items()},
        "work_unit": wl.work_unit,
        "named_metrics": {
            **({"setup_s": e2e["setup_s"]} if setup else {}),
            "peak_rss_mb": e2e["peak_rss_mb"],
            "failed_frac": (res["failed"] / max(res["attempted"], 1), "1"),
            **(wl.named_metrics({k: v[0] for k, v in e2e.items() if v})
               if lat["untraced"] else {}),
        },
        "setup_samples_s": setup, "raw_latencies_ms": lat,
        "scaled_latencies_ms": scaled,
        "calibration_ms": res["calibration_ms"],
        "problems": problems,
    }
    if args.trace:
        n = max(len(lat["traced"]), 1)
        traced_mean = sum(lat["traced"]) / n
        accounted = sum(v for k, (v, _) in metrics.items()
                        if k.endswith(".self_ms_per_op"))
        report["trace_accounting"] = {
            "traced_op_ms_mean": traced_mean,
            "layer_self_ms_per_op": accounted,
            "unaccounted_ms_per_op": metrics["trace.unaccounted_ms_per_op"][0]}
        res["tracer"].write(OUT / f"trace-{args.workload}-{args.seed}.json",
                            {"workload": args.workload, "seed": args.seed})
    stamp = f"{args.workload}-{args.seed}-trace{args.trace}"
    (OUT / f"result-{stamp}.json").write_text(json.dumps(
        {**report, "metrics": metrics}, indent=1, default=str))

    for name, (value, unit) in report["named_metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if args.trace:
        print(f"trace accounting: {json.dumps(report['trace_accounting'])}")
    print(f"provenance: {json.dumps(report['provenance'])}")
    print(f"samples: {json.dumps(report['samples'])}")
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    correct = not problems and res["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    load_at_start = list(os.getloadavg())
    args = parse_args(sys.argv[1:] if argv is None else argv)
    caps = cap_threads()
    import_package()
    if args.selfcheck:
        from selfcheck import selfcheck
        return selfcheck()
    if not args.workload:
        print("error: --workload is required", file=sys.stderr)
        return 2
    return run_workload(args, caps, load_at_start)


if __name__ == "__main__":
    sys.exit(main())
