"""The three benchmark workloads and their correctness gates.

Each workload is a closed loop driven by ``run.py``: one caller, the next
operation issued only after the last returned.  A workload exposes

* ``schedule()``: an endless iterator over operation inputs, all derived from
  the workload seed;
* ``warm_up()``: one untimed operation or check before measuring, returning
  gate problems;
* ``run(item, tracer)``: the timed operation, with a span around every call
  into a package layer;
* ``check(item, out)``: the correctness gates, returning a list of problems
  (empty when the output is correct);
* ``work(out)``: units of work the operation completed;
* ``probe(item, tracer, op_id)``: extra layer timings taken outside the
  operation, in traced runs only.

Gates take outputs, never recompute them inside the timed region, so the
self-check in ``run.py`` can feed them perturbed outputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import io
import itertools
import json
import re
import shutil
from pathlib import Path

import numpy as np

from harmoniccascade import (
    REGIME_PRESETS,
    DriftDiffusion,
    evaluate_grid,
    lyapunov_covariance,
    make_rng,
    require_steady_state,
    run_ensemble,
    spectrum_grid,
    summarize_grid,
)
from harmoniccascade import cli

from tracing import NullTracer

REFERENCE = Path(__file__).resolve().parent / "reference"

# Self-pulsing thresholds of the two presets (ROADMAP, README).
THRESHOLDS = {1: 230.4, 2: 896.0}
PRESET_PUMP = 105.0
# Heisenberg floor with the tolerance the test suite applies to it.
PRODUCT_FLOOR = 1.0 - 1e-9
RESIDUAL_MAX = 1e-12
REL_TOL = 1e-9
# Largest standardized deviation accepted for any ensemble moment.  Seed runs
# peak at 2.0-2.7 over 36 covariance entries; 5 SE leaves a false-alarm rate
# near 1e-5 per ensemble while a real defect lands tens of SE away.
Z_MAX = 5.0
DIVERGENCE_BUDGET = 0.01


def derived_key(seed: int, *path: int) -> int:
    """A 64-bit key derived from the workload seed, for Philox and jitter."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------- pump_sweep

def summary_to_dict(summary) -> dict[str, list[float]]:
    """Flatten a GridSummary into name -> [minimum, omega at the minimum]."""
    flat = {}
    for field in ("min_v_pair", "min_v_triple", "min_obr"):
        for key, (value, omega) in getattr(summary, field).items():
            flat[f"{field}.{''.join(map(str, key))}"] = [value, omega]
    for field in ("min_sum_v_pair", "min_sum_obr"):
        value, omega = getattr(summary, field)
        flat[field] = [value, omega]
    return flat


def _close(got: float, want: float, rtol: float = REL_TOL,
           atol: float = 0.0) -> bool:
    return abs(got - want) <= rtol * abs(want) + atol


def analyse_point(regime: int, pump: float, tr):
    """SystemParams to GridSummary on the default grid, one span per call."""
    p = dataclasses.replace(REGIME_PRESETS[regime], epsilon=pump)
    with tr.span("semiclassical.require_steady_state"):
        ss = require_steady_state(p)
    with tr.span("linearized.from_steady_state"):
        dd = DriftDiffusion.from_steady_state(p, ss.state)
    with tr.span("linearized.spectrum_grid") as attrs:
        spectra = spectrum_grid(p, dd)
        attrs["points"] = len(spectra)
    with tr.span("correlations.evaluate_grid") as attrs:
        reports = evaluate_grid(spectra)
        attrs["points"] = len(reports)
    with tr.span("correlations.summarize_grid"):
        summary = summarize_grid(reports)
    return ss, spectra, summary


class PumpSweep:
    """One operation: one (regime, pump) point from SystemParams to GridSummary."""

    name = "pump_sweep"
    work_unit = "(pump, omega) criteria points"
    calibration_calls = 1

    def __init__(self, seed: int, minimal: bool, tmp: Path) -> None:
        rng = np.random.default_rng(derived_key(seed, 1))
        levels = 2 if minimal else 12
        points = []
        for regime, threshold in THRESHOLDS.items():
            frac = np.linspace(0.05, 0.95, levels)
            frac = frac + rng.uniform(-0.25, 0.25, levels) * (frac[1] - frac[0])
            frac = np.clip(frac, 0.02, 0.95)
            points += [(regime, float(f * threshold)) for f in frac]
            points.append((regime, PRESET_PUMP))
        self.points = [points[i] for i in rng.permutation(len(points))]
        self.reference = json.loads((REFERENCE / "pump105.json").read_text())
        self.bytes_per_op = 0

    def schedule(self):
        return itertools.cycle(self.points)

    def warm_up(self) -> list[str]:
        item = (1, PRESET_PUMP)
        return self.check(item, self.run(item, NullTracer()))

    def run(self, item, tr):
        return analyse_point(*item, tr)

    def check(self, item, out) -> list[str]:
        regime, pump = item
        ss, spectra, summary = out
        problems = []
        if not ss.residual <= RESIDUAL_MAX:
            problems.append(f"{item}: steady-state residual {ss.residual:.3e}")
        worst = min(float(s.s_quad.uncertainty_products().min()) for s in spectra)
        if not worst >= PRODUCT_FLOOR:
            problems.append(f"{item}: V(X)V(Y) drops to {worst!r}")
        if pump == PRESET_PUMP:
            want = self.reference[str(regime)]
            got = summary_to_dict(summary)
            for key in sorted(set(want) | set(got)):
                if key not in got or key not in want:
                    problems.append(f"{item}: summary key {key} missing")
                # The spectra are even in omega, so a minimum at the grid
                # edge ties between -20 and +20; compare where it sits by |omega|.
                elif not (_close(got[key][0], want[key][0])
                          and _close(abs(got[key][1]), abs(want[key][1]),
                                     atol=REL_TOL)):
                    problems.append(f"{item}: {key} = {got[key]}, "
                                    f"reference {want[key]}")
        return problems

    def work(self, out) -> int:
        return len(out[1])

    def probe(self, item, tr, op_id) -> None:
        pass

    def named_metrics(self, m: dict) -> dict:
        return {"analysis_ms_p50": (m["op_ms_p50"], "ms"),
                "analysis_ms_p90": (m["op_ms_p90"], "ms"),
                "sweep_points_per_s": (m["work_per_s"], "1/s")}


# --------------------------------------------------------- ensemble_flagship

def time_rng(tr, op_id: str, key: int, n_traj: int, n_steps: int) -> None:
    """The Philox draws of an ensemble alone, at its width and step count."""
    with tr.span("stochastic.rng", op=op_id) as attrs:
        rng = make_rng(key)
        for _ in range(n_steps):
            rng.standard_normal((4, n_traj))
        attrs["traj_steps"] = n_traj * n_steps


def first_order_mean_shift(p, a_matrix, cov):
    """Stationary normal-ordering correction to the mean field, A d = r.

    The same prediction the test suite uses: r collects the second-moment
    terms of the exact mean equations that the semiclassical factorization
    drops, with cov the stationary covariance of the doubled vector.
    """
    r = np.array([
        p.kappa1 * cov[1, 2],
        p.kappa1 * cov[0, 3],
        p.kappa2 * cov[3, 4] - 0.5 * p.kappa1 * cov[0, 0],
        p.kappa2 * cov[2, 5] - 0.5 * p.kappa1 * cov[1, 1],
        -0.5 * p.kappa2 * cov[2, 2],
        -0.5 * p.kappa2 * cov[3, 3],
    ])
    return np.linalg.solve(a_matrix, r)


def max_z(diff: np.ndarray, se: np.ndarray) -> float:
    """Largest |deviation| / SE over real and imaginary parts.

    An entry with zero SE must match exactly; otherwise it counts as inf.
    """
    worst = 0.0
    for d, s in ((np.abs(diff.real), se.real), (np.abs(diff.imag), se.imag)):
        z = np.where(s > 0, d / np.where(s > 0, s, 1.0),
                     np.where(d == 0, 0.0, np.inf))
        worst = max(worst, float(z.max()))
    return worst


_MOMENT_FIELDS = ("means", "means_stderr", "second_doubled",
                  "second_doubled_stderr", "fluct_cov", "fluct_cov_stderr",
                  "t_grid")


class EnsembleFlagship:
    """One operation: run_ensemble on regime 1 at the flagship size."""

    name = "ensemble_flagship"
    work_unit = "trajectory-steps"
    calibration_calls = 20  # few long operations: sample the host in bursts
    dt = 2e-3
    # Eight time units from the steady state: the slowest drift eigenvalue
    # (0.42) has relaxed the covariance and the normal-ordering mean shift
    # to well under one standard error at 10^4 trajectories.
    t_end = 8.0

    def __init__(self, seed: int, minimal: bool, tmp: Path) -> None:
        self.seed = seed
        self.n_traj = 1000 if minimal else 10_000
        self.n_steps = int(round(self.t_end / self.dt))
        self.params = REGIME_PRESETS[1]
        self.steady = require_steady_state(self.params)
        dd = DriftDiffusion.from_steady_state(self.params, self.steady.state)
        self.cov = lyapunov_covariance(dd.a_matrix, dd.d_matrix)
        self.mean = self.steady.state.doubled() + first_order_mean_shift(
            self.params, dd.a_matrix, self.cov)
        self.bytes_per_op = 0

    def schedule(self):
        return itertools.count()

    def key(self, index: int) -> int:
        return derived_key(self.seed, 2, index)

    def short_run(self, index: int):
        """A 40-step ensemble at full width: warm-up and determinism check."""
        return run_ensemble(self.params, dt=self.dt, t_end=40 * self.dt,
                            n_traj=self.n_traj, seed=self.key(index),
                            initial=self.steady.state, strict=False)

    def warm_up(self) -> list[str]:
        return self.check_identical(self.short_run(0), self.short_run(0))

    @staticmethod
    def check_identical(one, two) -> list[str]:
        problems = [f"same seed, different {name}" for name in _MOMENT_FIELDS
                    if not np.array_equal(getattr(one, name), getattr(two, name))]
        if one.divergent != two.divergent:
            problems.append("same seed, different divergent count")
        return problems

    def run(self, index, tr):
        with tr.span("stochastic.run_ensemble") as attrs:
            m = run_ensemble(self.params, dt=self.dt, t_end=self.t_end,
                             n_traj=self.n_traj, seed=self.key(index),
                             initial=self.steady.state, strict=False)
            attrs["traj_steps"] = self.n_traj * self.n_steps
            attrs["divergent"] = m.divergent
        return m

    def check(self, index, m) -> list[str]:
        problems = []
        if m.divergent > DIVERGENCE_BUDGET * m.n_traj:
            problems.append(f"ensemble {index}: {m.divergent} of {m.n_traj} "
                            "trajectories diverged")
        z_mean = max_z(m.means[-1] - self.mean, m.means_stderr[-1])
        z_cov = max_z(m.fluct_cov[-1] - self.cov, m.fluct_cov_stderr[-1])
        if not z_mean <= Z_MAX:
            problems.append(f"ensemble {index}: mean {z_mean:.2f} SE from the "
                            "shifted steady state")
        if not z_cov <= Z_MAX:
            problems.append(f"ensemble {index}: covariance {z_cov:.2f} SE "
                            "from lyapunov_covariance")
        return problems

    def work(self, m) -> int:
        return self.n_traj * self.n_steps

    def probe(self, index, tr, op_id) -> None:
        time_rng(tr, op_id, self.key(index), self.n_traj, self.n_steps)

    def named_metrics(self, m: dict) -> dict:
        return {"traj_steps_per_s": (m["work_per_s"], "1/s")}


# ------------------------------------------------------------------ cli_modes

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def compare_numeric(text: str, ref: str, rtol: float = REL_TOL) -> str | None:
    """None when text equals ref up to rtol on every number.

    Non-numeric text must match exactly.  Each number may differ by rtol
    relative to itself plus 1e-12 of the largest magnitude on its line, so
    values at roundoff level (imaginary parts of a real state) do not
    demand exact digits.
    """
    lines, ref_lines = text.splitlines(), ref.splitlines()
    if len(lines) != len(ref_lines):
        return f"{len(lines)} lines, reference has {len(ref_lines)}"
    for ln, (line, want) in enumerate(zip(lines, ref_lines), 1):
        if _NUMBER.sub("#", line) != _NUMBER.sub("#", want):
            return f"line {ln} differs in text"
        got = np.array([float(x) for x in _NUMBER.findall(line)])
        exp = np.array([float(x) for x in _NUMBER.findall(want)])
        if exp.size:
            tol = rtol * np.abs(exp) + 1e-12 * np.abs(exp).max()
            if not np.all(np.abs(got - exp) <= tol):
                return f"line {ln} differs beyond relative {rtol}"
    return None


def stochastic_rows(m) -> list[list[float]]:
    """The (time, real, imag, stderr) rows stochastic.csv should hold."""
    def row(t, val, se):
        return [t, val.real, val.imag, float(np.hypot(se.real, se.imag))]
    rows = []
    for ti, t in enumerate(m.t_grid):
        rows += [row(t, m.means[ti, s], m.means_stderr[ti, s]) for s in range(6)]
        for plus, pairs in ((1, [(i, j) for i in range(3) for j in range(3)]),
                            (0, [(i, j) for i in range(3) for j in range(i, 3)])):
            rows += [row(t, m.second_doubled[ti, 2 * i + plus, 2 * j],
                         m.second_doubled_stderr[ti, 2 * i + plus, 2 * j])
                     for i, j in pairs]
    return rows


class CliModes:
    """One operation: a pass of every CLI mode, run in-process via cli.main."""

    name = "cli_modes"
    work_unit = "CLI mode runs"
    calibration_calls = 3
    modes = ("steady", "spectra", "correlations", "threshold", "figures",
             "stochastic")

    def __init__(self, seed: int, minimal: bool, tmp: Path) -> None:
        self.tmp = tmp
        self.stochastic = {"n_traj": 50 if minimal else 300, "dt": 2e-3,
                           "t_end": 1.0 if minimal else 4.0,
                           "seed": derived_key(seed, 3) % 2**31}
        self.first: dict[str, bytes] | None = None
        self.bytes_per_op = 0

    def argv(self, mode: str, out: Path) -> list[str]:
        args = [mode, "--out", str(out)]
        if mode != "figures":  # figures without --regime writes both regimes
            args += ["--regime", "1"]
        if mode == "stochastic":
            s = self.stochastic
            args += ["--n-traj", str(s["n_traj"]), "--dt", repr(s["dt"]),
                     "--t-end", repr(s["t_end"]), "--seed", str(s["seed"])]
        return args

    def schedule(self):
        return itertools.count()

    def warm_up(self) -> list[str]:
        return self.check("warm-up", self.run("warm-up", NullTracer()))

    def run(self, index, tr):
        out = self.tmp / f"pass-{index}"
        codes = {}
        quiet = io.StringIO()  # cli.main lists the files it wrote
        with (_instrumented_cli(tr) if tr.enabled else contextlib.nullcontext()):
            for mode in self.modes:
                with tr.span(f"cli.{mode}"), contextlib.redirect_stdout(quiet):
                    codes[mode] = cli.main(self.argv(mode, out / mode))
        return codes, out

    def check(self, index, out) -> list[str]:
        codes, folder = out
        problems = [f"pass {index}: {mode} exited {rc}"
                    for mode, rc in codes.items() if rc != 0]
        files = {f"{p.parent.name}/{p.name}": p.read_bytes()
                 for p in sorted(folder.glob("*/*.csv"))}
        shutil.rmtree(folder, ignore_errors=True)
        self.bytes_per_op = sum(len(b) for b in files.values())
        if self.first is None:
            problems += self.check_against_references(files)
            if not problems:
                self.first = files
        elif files != self.first:
            changed = sorted(k for k in set(files) | set(self.first)
                             if files.get(k) != self.first.get(k))
            problems.append(f"pass {index}: not byte-identical to the first "
                            f"pass in {', '.join(changed)}")
        return problems

    def check_against_references(self, files: dict[str, bytes]) -> list[str]:
        problems = []
        refs = sorted((REFERENCE / "cli").glob("*.csv.gz"))
        expected = {p.name[:-3].replace("__", "/") for p in refs}
        expected.add("stochastic/stochastic.csv")
        if set(files) != expected:
            problems.append(f"files {sorted(files)}, expected {sorted(expected)}")
        for ref in refs:
            name = ref.name[:-3].replace("__", "/")
            if name in files:
                diff = compare_numeric(files[name].decode("utf-8"),
                                       gzip.decompress(ref.read_bytes()).decode())
                if diff:
                    problems.append(f"{name} vs seed reference: {diff}")
        text = files.get("stochastic/stochastic.csv")
        if text is not None:
            problems += self.check_stochastic(text.decode("utf-8"))
        return problems

    def check_stochastic(self, text: str) -> list[str]:
        """stochastic.csv against the library's moments for the same seed."""
        s = self.stochastic
        m = run_ensemble(REGIME_PRESETS[1], dt=s["dt"], t_end=s["t_end"],
                         n_traj=s["n_traj"], seed=s["seed"], strict=False)
        problems = []
        if m.divergent > DIVERGENCE_BUDGET * m.n_traj:
            problems.append(f"stochastic mode: {m.divergent} of {m.n_traj} "
                            "trajectories diverged")
        body = [ln for ln in text.splitlines() if not ln.startswith("#")][1:]
        got = [[float(x) for i, x in enumerate(ln.split(",")) if i != 1]
               for ln in body]
        want = stochastic_rows(m)
        if len(got) != len(want) or not np.allclose(
                np.array(got), np.array(want), rtol=REL_TOL, atol=0.0):
            problems.append("stochastic.csv differs from run_ensemble moments")
        return problems

    def work(self, out) -> int:
        return len(out[0])

    def probe(self, index, tr, op_id) -> None:
        # The correlations mode's library calls without the CLI around them,
        # then the stochastic mode's Philox draws alone.
        p = REGIME_PRESETS[1]
        grid = cli.build_config(["correlations", "--regime", "1"]).omega_grid()
        with tr.span("probe.correlations_direct", op=op_id):
            ss = require_steady_state(p)
            dd = DriftDiffusion.from_steady_state(p, ss.state)
            evaluate_grid(spectrum_grid(p, dd, grid))
        s = self.stochastic
        time_rng(tr, op_id, s["seed"], s["n_traj"], int(round(s["t_end"] / s["dt"])))

    def named_metrics(self, m: dict) -> dict:
        return {"cli_suite_s": (m["op_ms_p50"] / 1000.0, "s")}


def _traced(tr, name, fn, attrs_of=None):
    def wrapper(*args, **kwargs):
        with tr.span(name) as attrs:
            result = fn(*args, **kwargs)
            if attrs_of is not None:
                attrs.update(attrs_of(args, kwargs, result))
        return result
    return wrapper


def _ensemble_attrs(args, kwargs, m):
    steps = int(round(kwargs["t_end"] / kwargs["dt"]))
    return {"traj_steps": m.n_traj * steps, "divergent": m.divergent}


@contextlib.contextmanager
def _instrumented_cli(tr):
    """Span the library calls cli.main makes, by rebinding its module names."""
    class DriftDiffusionSpan:
        from_steady_state = staticmethod(_traced(
            tr, "linearized.from_steady_state", DriftDiffusion.from_steady_state))

    points = lambda args, kwargs, result: {"points": len(result)}  # noqa: E731
    patches = {
        "require_steady_state": _traced(tr, "semiclassical.require_steady_state",
                                        require_steady_state),
        "pulsing_threshold": _traced(tr, "semiclassical.pulsing_threshold",
                                     cli.pulsing_threshold),
        "DriftDiffusion": DriftDiffusionSpan,
        "spectrum_grid": _traced(tr, "linearized.spectrum_grid", spectrum_grid,
                                 points),
        "evaluate_grid": _traced(tr, "correlations.evaluate_grid",
                                 evaluate_grid, points),
        "run_ensemble": _traced(tr, "stochastic.run_ensemble", run_ensemble,
                                _ensemble_attrs),
    }
    saved = {name: getattr(cli, name) for name in patches}
    try:
        for name, fn in patches.items():
            setattr(cli, name, fn)
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


WORKLOADS = {w.name: w for w in (PumpSweep, EnsembleFlagship, CliModes)}
