"""Command-line front end: config parsing, run orchestration, CSV artifacts.

Configuration sources combine in a fixed precedence: built-in defaults
(regime-1 parameters), then the ``--config`` file, then flags.  A regime
selection (file key or ``--regime``, flag winning) bases all six system
parameters on that preset; combining it with explicit rate keys is rejected
so a chosen regime always means exactly its parameter set.  Only the pump
may be overridden on top (``--epsilon`` first, then a file key).

Artifacts are deterministic by construction.  A CSV is UTF-8 with LF line
endings: ``# harmoniccascade <version>``, ``# key = value`` settings, the
comma-joined header, rows of ``%.17g`` floats (the stochastic ``moment``
column as bare names), then any ``# `` footer lines.  No name or cell holds
a comma, quote, CR or LF, so nothing is quoted.  Identical configuration
(including the seed in stochastic mode) yields byte-identical files.  Files
are written only once every artifact of the mode has been computed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import REGIME_PRESETS, __version__
from .correlations import OBR_ORDER, PAIR_ORDER, TRIPLE_ORDER, evaluate_grid
from .linearized import DriftDiffusion, default_omega_grid, spectrum_grid
from .model import (NonHermitianResidue, NonPositiveRate, SystemParams,
                    validate_params)
from .semiclassical import (NoThresholdInRange, NotStationary,
                            pulsing_threshold, require_steady_state)
from .stochastic import ExcessiveDivergence, run_ensemble, step_count

__all__ = [
    "MODES",
    "ConfigParse",
    "IoError",
    "RunConfig",
    "parse_config_file",
    "build_config",
    "run",
    "main",
]

_PARAM_KEYS = ("kappa1", "kappa2", "epsilon", "gamma1", "gamma2", "gamma3")
_GRID_KEYS = ("omega_min", "omega_max", "omega_steps")
_DEFAULT_GRID = default_omega_grid()

# Scan window for threshold mode; wide enough to bracket the instability of
# both presets with room to spare.
_THRESHOLD_RANGE = (100.0, 3000.0)


class ConfigParse(ValueError):
    """Configuration file or flag could not be interpreted."""


class IoError(RuntimeError):
    """An artifact could not be written."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; validates itself on construction.

    The fields ``omega_min`` to ``n_traj`` are the run settings, the one
    declaration of their names, defaults and types: each is a config-file
    key and a flag (dashes for underscores), except that ``--omega-range``
    sets the three grid keys together.
    """

    params: SystemParams
    mode: str
    omega_min: float = float(_DEFAULT_GRID[0])
    omega_max: float = float(_DEFAULT_GRID[-1])
    omega_steps: int = _DEFAULT_GRID.size
    seed: int = 0
    out: str = "."
    dt: float = 1e-3
    t_end: float = 50.0
    n_traj: int = 1000
    regime: int | None = None
    gnuplot: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigParse(f"unknown mode {self.mode!r}; "
                              f"choose one of {', '.join(MODES)}")
        if self.regime not in (None, *REGIME_PRESETS):
            raise ConfigParse("regime must be 1 or 2")
        if not np.isfinite([self.omega_min, self.omega_max]).all():
            raise ConfigParse("omega range must be finite")
        if not self.omega_min < self.omega_max:
            raise ConfigParse("omega_min must be below omega_max")
        if self.omega_steps < 2:
            raise ConfigParse("omega_steps must be at least 2")
        try:
            step_count(self.dt, self.t_end)
        except ValueError as exc:
            raise ConfigParse(str(exc)) from exc
        if self.n_traj < 1:
            raise ConfigParse("n_traj must be at least 1")
        if not 0 <= self.seed < 2 ** 128:    # the Philox key range
            raise ConfigParse("seed must lie in [0, 2**128)")
        if self.gnuplot and self.mode == "stochastic":
            raise ConfigParse("--gnuplot has no plot for stochastic mode")
        try:
            validate_params(self.params)
        except NonPositiveRate as exc:
            raise ConfigParse(str(exc)) from exc

    def omega_grid(self) -> np.ndarray:
        """Analysis frequencies; contains 0 when the range straddles it.

        The interior point nearest zero is snapped onto it, preserving the
        requested count and both endpoints, so zero-frequency criteria are
        evaluated exactly.  A two-point grid has no interior point to snap.
        """
        g = np.linspace(self.omega_min, self.omega_max, self.omega_steps)
        inner = g[1:-1]
        if (self.omega_min < 0.0 < self.omega_max and inner.size
                and not np.any(g == 0.0)):
            inner[np.abs(inner).argmin()] = 0.0
        return g


# Run setting -> type of its value, and every key a config file may hold.
_SETTING_TYPES = {f.name: type(f.default) for f in fields(RunConfig)
                  if f.name not in ("params", "mode", "regime", "gnuplot")}
_FILE_KEYS = {**dict.fromkeys(_PARAM_KEYS, float), "mode": str, "regime": int,
              **_SETTING_TYPES}


def parse_config_file(path: str | Path) -> dict:
    """Read key = value lines; ``#`` starts a comment, blank lines ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigParse(f"cannot read config file {path}: {exc}") from exc
    entries: dict = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParse(f"{path}:{ln}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FILE_KEYS:
            raise ConfigParse(f"{path}:{ln}: unknown key {key!r}")
        try:
            entries[key] = _FILE_KEYS[key](value)
        except ValueError as exc:
            raise ConfigParse(f"{path}:{ln}: bad value for {key}: "
                              f"{value!r}") from exc
    return entries


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit; we raise
        raise ConfigParse(message)


@functools.cache
def _make_parser() -> _Parser:
    # Mode and regime are checked by RunConfig; the metavars list the choices.
    parser = _Parser(prog="harmoniccascade",
                     description="Cascaded harmonic generation analysis")
    parser.add_argument("mode", nargs="?", metavar="MODE",
                        help="one of: " + ", ".join(MODES))
    parser.add_argument("--config", metavar="PATH")
    parser.add_argument("--regime", type=int,
                        metavar="{" + ",".join(map(str, REGIME_PRESETS)) + "}")
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--omega-range", metavar="MIN:MAX:STEPS")
    for key, typ in _SETTING_TYPES.items():
        if key not in _GRID_KEYS:
            parser.add_argument("--" + key.replace("_", "-"), type=typ,
                                metavar="DIR" if key == "out" else None)
    parser.add_argument("--gnuplot", action="store_true",
                        help="also emit a gnuplot script plotting the CSVs")
    parser.add_argument("--version", action="version",
                        version=f"harmoniccascade {__version__}")
    return parser


def _join_omega_range(argv: list[str]) -> list[str]:
    # A range like -20:20:801 starts with a dash, which argparse would read
    # as another flag; fold the value into --omega-range=... form.
    out: list[str] = []
    it = iter(argv)
    for token in it:
        if token == "--omega-range":
            value = next(it, None)
            out.append(token if value is None else f"{token}={value}")
        else:
            out.append(token)
    return out


def build_config(argv: list[str]) -> RunConfig:
    """Resolve flags plus optional config file into a validated RunConfig.

    One merge sets the precedence: a flag outranks the config file, which
    outranks the default (the ``RunConfig`` field's for a run setting, the
    regime preset's for a system parameter).  ``--omega-range`` counts as
    the flags of the three grid keys.
    """
    ns = _make_parser().parse_args(_join_omega_range(argv))
    entries = parse_config_file(ns.config) if ns.config else {}
    if ns.omega_range is not None:
        parts = ns.omega_range.split(":")
        if len(parts) != 3:
            raise ConfigParse("--omega-range expects MIN:MAX:STEPS")
        try:
            for key, text in zip(_GRID_KEYS, parts):
                setattr(ns, key, _FILE_KEYS[key](text))
        except ValueError as exc:
            raise ConfigParse(f"bad --omega-range: {ns.omega_range!r}") from exc
    got = {**entries, **{key: getattr(ns, key) for key in _FILE_KEYS
                         if getattr(ns, key, None) is not None}}
    mode = got.get("mode")
    if mode is None:
        raise ConfigParse("mode is required (MODE or config key mode)")
    if mode == "figures" and not got.keys().isdisjoint(_PARAM_KEYS):
        raise ConfigParse("figures mode uses the regime presets; it takes "
                          "no --epsilon and no parameter keys")
    regime = got.get("regime")
    # A regime means exactly its parameter set; only the pump may be changed.
    if regime is not None:
        source = "--regime" if ns.regime is not None else "config key regime"
        for key in _PARAM_KEYS:
            if key != "epsilon" and key in got:
                raise ConfigParse(f"config key {key} conflicts with {source}")
    # Without a regime the rates default to preset 1; RunConfig rejects a
    # regime that has no preset.
    base = REGIME_PRESETS.get(regime, REGIME_PRESETS[1])
    params = SystemParams(**{key: got.pop(key, getattr(base, key))
                             for key in _PARAM_KEYS})
    return RunConfig(params=params, gnuplot=ns.gnuplot, **got)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _key_lines(obj, keys=_PARAM_KEYS) -> list[str]:
    return [f"{key} = {_fmt(getattr(obj, key))}" for key in keys]


def _head(config: RunConfig, *keys: str) -> list[str]:
    """Meta lines: the mode, the system parameters, then the named settings."""
    return ([f"mode = {config.mode}"] + _key_lines(config.params)
            + _key_lines(config, keys))


def _csv_text(meta: list[str], columns: dict, footer: list[str]) -> str:
    arrays = [np.asarray(values) for values in columns.values()]
    row = ",".join("%s" if a.dtype.kind == "U" else "%.17g"
                   for a in arrays) + "\n"
    return "".join([f"# harmoniccascade {__version__}\n",
                    *(f"# {line}\n" for line in meta),
                    ",".join(columns) + "\n",
                    *map(row.__mod__, zip(*(a.tolist() for a in arrays))),
                    *(f"# {line}\n" for line in footer)])


def _spectra_for(p: SystemParams, config: RunConfig):
    ss = require_steady_state(p)
    dd = DriftDiffusion.from_steady_state(p, ss.state)
    return spectrum_grid(p, dd, config.omega_grid())


def _report_columns(p: SystemParams, config: RunConfig) -> dict:
    """Every criterion of ``p`` over the grid, by column name in file order."""
    report = evaluate_grid(_spectra_for(p, config))
    return {
        "omega": report.omega,
        **{f"{name}_{i}{j}": values[i, j] for i, j in PAIR_ORDER
           for name, values in (("v", report.v_pair), ("gain", report.gains))},
        **{f"v_{i}{j}{k}": report.v_triple[i, j, k]
           for i, j, k in TRIPLE_ORDER},
        **{f"obr_{i}{j}{k}": report.obr[i, j, k] for i, j, k in OBR_ORDER},
        "sum_v_pair": report.sum_v_pair,
        "sum_obr": report.sum_obr,
    }


# figures files: name stem -> (regimes that write it, columns after omega).
_FIGURE_FILES = {
    "vij": ((2,), [f"v_{i}{j}" for i, j in PAIR_ORDER]),
    "vijk": ((2,), [f"v_{i}{j}{k}" for i, j, k in TRIPLE_ORDER]),
    "obr": ((1, 2), [f"obr_{i}{j}{k}" for i, j, k in OBR_ORDER] + ["sum_obr"]),
}
# stochastic.csv moments per sample time: (name, EnsembleMoments field,
# index into that field at one time).
_MOMENTS = (
    [(f"mean_a{i}{suffix}", "means", (2 * i - 2 + plus,))
     for i in (1, 2, 3) for plus, suffix in ((0, ""), (1, "p"))]
    + [(f"n_{i}{j}", "second_doubled", (2 * i - 1, 2 * j - 2))
       for i in (1, 2, 3) for j in (1, 2, 3)]
    + [(f"anom_{i}{j}", "second_doubled", (2 * i - 2, 2 * j - 2))
       for i in (1, 2, 3) for j in range(i, 4)]
)


# Each runner yields (file stem, meta, columns, footer) and writes nothing.
def _run_steady(config: RunConfig):
    ss = require_steady_state(config.params)
    columns = {f"alpha{i}_{part}": [value]
               for i, a in enumerate(ss.state.alpha, 1)
               for part, value in (("re", a.real), ("im", a.imag))}
    columns["residual"] = [ss.residual]
    yield "steady", _head(config), columns, []


def _run_spectra(config: RunConfig):
    spectra = _spectra_for(config.params, config)
    diagonal = np.diagonal(spectra.s_quad.matrix, axis1=-2, axis2=-1)
    names = [f"v{xy}{mode}" for mode in (1, 2, 3) for xy in "xy"]
    columns = {"omega": spectra.omega, **dict(zip(names, diagonal.T))}
    yield "spectra", _head(config, *_GRID_KEYS), columns, []


def _run_correlations(config: RunConfig):
    yield ("correlations", _head(config, *_GRID_KEYS),
           _report_columns(config.params, config), [])


def _run_stochastic(config: RunConfig):
    m = run_ensemble(config.params, dt=config.dt, t_end=config.t_end,
                     n_traj=config.n_traj, seed=config.seed, strict=False)
    # rows run over the moments of each sample time in turn
    val, se = (np.stack([getattr(m, field + kind)[(slice(None), *index)]
                         for _, field, index in _MOMENTS], axis=1).ravel()
               for kind in ("", "_stderr"))
    meta = (_head(config, "seed", "dt", "t_end", "n_traj")
            + ["stderr combines the real and imaginary standard errors "
               "in quadrature"])
    footer = [f"divergent = {m.divergent} of {m.n_traj}"]
    if not m.reliable:
        footer.append("unreliable: divergence budget exceeded")
    columns = {"time": np.repeat(m.t_grid, len(_MOMENTS)),
               "moment": [name for name, _, _ in _MOMENTS] * m.t_grid.size,
               "real": val.real, "imag": val.imag,
               "stderr": np.hypot(se.real, se.imag)}
    yield "stochastic", meta, columns, footer


def _run_threshold(config: RunConfig):
    result = pulsing_threshold(config.params, _THRESHOLD_RANGE)
    columns = {"epsilon": result.scan_eps,
               "min_real_eigenvalue": result.scan_stability}
    meta = _head(config) + ["scan = {} .. {}".format(
        *map(_fmt, _THRESHOLD_RANGE))]
    footer = [f"eps_critical = {_fmt(result.eps_critical)}",
              "bracket = {} .. {}".format(*map(_fmt, result.bracket))]
    yield "threshold", meta, columns, footer


def _run_figures(config: RunConfig):
    for regime in (config.regime,) if config.regime is not None else (1, 2):
        p = REGIME_PRESETS[regime]
        report = _report_columns(p, config)
        meta = ([f"regime = {regime}"] + _key_lines(p)
                + _key_lines(config, _GRID_KEYS))
        for stem, (file_regimes, names) in _FIGURE_FILES.items():
            if regime in file_regimes:
                yield (f"{stem}_regime{regime}", meta,
                       {c: report[c] for c in ["omega", *names]}, [])


_RUNNERS = {
    "steady": _run_steady,
    "spectra": _run_spectra,
    "correlations": _run_correlations,
    "stochastic": _run_stochastic,
    "threshold": _run_threshold,
    "figures": _run_figures,
}
MODES = tuple(_RUNNERS)

# Exit code of each error main reports instead of raising.
_EXIT_CODES = {ConfigParse: 2, NonPositiveRate: 2, NotStationary: 3,
               IoError: 4, NoThresholdInRange: 5, ExcessiveDivergence: 5,
               NonHermitianResidue: 6}


def run(config: RunConfig) -> list[Path]:
    """Compute every artifact of one mode, then write them and return their
    paths: a failed computation leaves no file and no output directory."""
    artifacts = list(_RUNNERS[config.mode](config))
    files = {f"{stem}.csv": _csv_text(meta, columns, footer)
             for stem, meta, columns, footer in artifacts}
    if config.gnuplot:
        lines = ["set datafile separator ','", "set key outside", ""]
        for stem, _, (x, *names), _ in artifacts:
            plot = ", ".join(f"'{stem}.csv' using 1:{k} with lines title "
                             f"'{name}'" for k, name in enumerate(names, 2))
            lines += [f"set xlabel '{x}'", f"plot {plot}", "pause -1", ""]
        files["plots.gp"] = "\n".join(lines)
    out = Path(config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise IoError(f"cannot write to {out}: {exc}") from exc
    return [out / name for name in files]


def main(argv: list[str] | None = None) -> int:
    """Run the command line; return 0, or an error's exit code after
    printing ``error: ...`` (2 configuration, 3 no stationary state,
    4 unwritable output, 5 no threshold in range or every trajectory
    diverged, 6 a numerical check failed)."""
    try:
        for path in run(build_config(sys.argv[1:] if argv is None else argv)):
            print(path)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items()
                    if isinstance(exc, cls))
    return 0
