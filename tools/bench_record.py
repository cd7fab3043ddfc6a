"""Record the benchmark of a change, and of its parent, in BENCH_<pr>.json.

Runs ``perfbench/run.py`` for every workload in ``BENCHMARK.json`` at seed
9001 (or ``--seed``) for the benchmark's ``run_seconds``: ``--trace 0`` runs
for the end-to-end metrics and ``--trace 1`` runs for the per-layer metrics,
three pairs (as many as the ``--trace 0`` pairs when a workload has fewer).
Runs in the parent checkout (``--parent DIR``) and in this one alternate, the
side that runs first swapping from pair to pair, and every pair of either
kind is compared metric by metric.  Each run's result file is copied under
``.perfbench/bench-<pr>/`` and named in the record, next to its metrics, git
SHA, ``nproc`` and calibration samples.  A run at another seed, which repeats
a claim on inputs the change was not tuned on, goes to
``BENCH_<pr>_seed<seed>.json`` and ``.perfbench/bench-<pr>_seed<seed>/``.

    python3 tools/bench_record.py --pr N --parent ../parent \\
        --runs pump_sweep=10 --runs ensemble_flagship=3 --runs cli_modes=3

Standard library only; ``perfbench/`` and ``BENCHMARK.json`` are only read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
SEED = 9001


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True,
                    help="number in the output name BENCH_<pr>.json")
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout of the parent commit to run alternately")
    ap.add_argument("--seed", type=int, default=SEED,
                    help=f"perfbench seed; default {SEED}")
    ap.add_argument("--runs", action="append", default=[], metavar="WORKLOAD=N",
                    help="--trace 0 pairs per workload; default 3 each")
    args = ap.parse_args(argv)
    runs = {w["name"]: 3 for w in SPEC["workloads"]}
    for item in args.runs:
        name, _, n = item.partition("=")
        if name not in runs or not n.isdigit() or int(n) < 1:
            ap.error(f"--runs expects WORKLOAD=N with N >= 1, got {item!r}")
        runs[name] = int(n)
    args.runs = runs
    return args


def source_digest(checkout: Path) -> str:
    """SHA-256 over src/, so an uncommitted change is identified too."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        h.update(str(path.relative_to(checkout)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_once(checkout: Path, workload: str, seed: int, trace: int,
             keep: Path) -> dict:
    """One perfbench run in checkout; its result file is copied to keep."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    # every run with this seed writes the same name: clear the last one's
    produced = checkout / ".perfbench" / f"result-{workload}-{seed}-trace{trace}.json"
    produced.unlink(missing_ok=True)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    record = json.loads(produced.read_text()) if produced.exists() else {}
    if produced.exists():
        keep.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(produced, keep)
    return {
        "exit_code": proc.returncode,
        "correct": summary.get("correct", False),
        "attempted": summary.get("attempted"),
        "failed": summary.get("failed"),
        "metrics": {k: v["value"] for k, v in summary.get("metrics", {}).items()},
        "git": {k: record.get("provenance", {}).get(k) for k in ("sha", "dirty")},
        "nproc": record.get("provenance", {}).get("nproc"),
        "loadavg_at_start": record.get("provenance", {}).get("loadavg_at_start"),
        # per round, to the microsecond; the result file keeps full precision
        "calibration_ms": [[round(x, 3) for x in rnd]
                           for rnd in record.get("calibration_ms", [])],
        "result_file": str(keep.relative_to(ROOT)) if record else None,
        "problems": record.get("problems") or (
            proc.stderr.strip().splitlines()[-3:] if proc.returncode else []),
    }


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile, linearly interpolated."""
    if len(values) < 2:
        return list(values) * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def describe(runs: list[dict]) -> dict:
    """Per metric: every run's value, and their quartiles."""
    names = sorted({k for r in runs for k in r["metrics"]})
    out = {}
    for name in names:
        values = [r["metrics"][name] for r in runs if name in r["metrics"]]
        out[name] = {"runs": values, "q1_median_q3": quartiles(values)}
    return out


def compare(parent: list[dict], change: list[dict]) -> dict:
    """Pairwise wins and the median shift of every metric both sides report.

    A gain may be claimed when the change wins at least 9 of 10 pairs (ties
    count for neither) and the medians differ by more than the parent's
    interquartile range.  A regression is an end-to-end median worse than
    the parent's by more than the metric's bound in BENCHMARK.json; per-layer
    metrics have no bound.
    """
    out = {}
    for name, better in BETTER.items():
        pairs = [(p["metrics"].get(name), c["metrics"].get(name))
                 for p, c in zip(parent, change)]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            continue
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in pairs)
        q1, med_p, q3 = quartiles([p for p, _ in pairs])
        med_c = quartiles([c for _, c in pairs])[1]
        worse_rel = sign * (med_c - med_p) / med_p if med_p else 0.0
        out[name] = {
            "pairs": len(pairs), "change_wins": wins,
            "parent_median": med_p, "change_median": med_c,
            "parent_iqr": q3 - q1,
            "ratio_parent_over_change": med_p / med_c if med_c else None,
            "gain_rule_met": (wins >= 0.9 * len(pairs)
                              and sign * (med_p - med_c) > q3 - q1),
            "worse_by": worse_rel,
        }
        if name in BOUND:
            out[name].update(bound=BOUND[name],
                             within_bound=worse_rel <= BOUND[name])
    return out


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    name = f"{args.pr}" if args.seed == SEED else f"{args.pr}_seed{args.seed}"
    store = ROOT / ".perfbench" / f"bench-{name}"
    shutil.rmtree(store, ignore_errors=True)
    runs = {side: {} for side in sides}
    for workload, n in args.runs.items():
        for trace, count in ((0, n), (1, min(n, 3))):
            for i in range(count):
                order = list(sides) if i % 2 == 0 else list(sides)[::-1]
                for side in order:
                    keep = store / f"{side}-{workload}-trace{trace}-{i}.json"
                    res = run_once(sides[side], workload, args.seed, trace, keep)
                    runs[side].setdefault(workload, {}).setdefault(
                        f"trace{trace}", []).append(res)
                    op = res["metrics"].get("op_ms_p50")
                    print(f"{side:6} {workload:17} trace{trace} #{i}: "
                          f"correct={res['correct']} op_ms_p50="
                          f"{op if op is None else round(op, 3)}", flush=True)

    report = {
        "benchmark": {"command": SPEC["command"], "seed": args.seed,
                      "seconds": SPEC["run_seconds"], "runs": args.runs,
                      "order": "alternating pairs, first side swapped each pair"},
        "sides": {},
    }
    for side, checkout in sides.items():
        report["sides"][side] = {
            "src_sha256": source_digest(checkout),
            "workloads": {
                wl: {"end_to_end": describe(r["trace0"]),
                     "per_layer": describe(r["trace1"]),
                     "runs": r["trace0"] + r["trace1"]}
                for wl, r in runs[side].items()},
        }
    report["comparison"] = {wl: {
        "end_to_end": compare(runs["parent"][wl]["trace0"],
                              runs["change"][wl]["trace0"]),
        "per_layer": compare(runs["parent"][wl]["trace1"],
                             runs["change"][wl]["trace1"]),
    } for wl in args.runs}
    out = ROOT / f"BENCH_{name}.json"
    # one line per (nested) list of numbers: only whitespace changes
    text = re.sub(r"\[[-+.\deE,\s\[\]]*\]",
                  lambda m: " ".join(m.group().split()),
                  json.dumps(report, indent=1))
    out.write_text(text + "\n")
    print(f"wrote {out.name}")
    bad = [r for s in runs.values() for w in s.values() for t in w.values()
           for r in t if not r["correct"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
