"""Command-line interface tests: config resolution, artifacts, exit codes."""

import gzip
import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from harmoniccascade import (REGIME_PRESETS, NonHermitianResidue,
                             SystemParams, cli, default_omega_grid)
from harmoniccascade.cli import (
    ConfigParse,
    RunConfig,
    build_config,
    main,
    parse_config_file,
)
from oracles import relax_from_vacuum, write_csv_per_cell


def _read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    header = data[0].split(",")
    rows = [ln.split(",") for ln in data[1:]]
    comments = [ln for ln in lines if ln.startswith("#")]
    return header, rows, comments


def test_mode_is_required():
    with pytest.raises(ConfigParse, match="mode"):
        build_config([])
    with pytest.raises(ConfigParse):
        build_config(["--regime", "1"])


def test_mode_is_the_positional_or_the_config_key(tmp_path):
    # MODE outranks the file's mode key, as every flag does; --mode is no flag
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("mode = steady\n", encoding="utf-8")
    assert build_config(["--config", str(cfg_file)]).mode == "steady"
    assert build_config(["spectra", "--config",
                         str(cfg_file)]).mode == "spectra"
    with pytest.raises(ConfigParse, match="unrecognized arguments: --mode"):
        build_config(["steady", "--mode", "spectra"])
    assert main(["--mode", "spectra", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "spectra.csv").exists()


def test_unknown_mode_rejected():
    with pytest.raises(ConfigParse):
        build_config(["orbit"])


def test_regime_presets_encoded_exactly():
    for regime, preset in REGIME_PRESETS.items():
        cfg = build_config(["steady", "--regime", str(regime)])
        for field in ("kappa1", "kappa2", "epsilon", "gamma1", "gamma2",
                      "gamma3"):
            assert getattr(cfg.params, field) == getattr(preset, field)
        assert cfg.regime == regime


def test_epsilon_flag_overrides_preset():
    cfg = build_config(["steady", "--regime", "2", "--epsilon", "0"])
    assert cfg.params.epsilon == 0.0
    assert cfg.params.kappa1 == REGIME_PRESETS[2].kappa1


def test_parser_is_built_once_and_keeps_no_state():
    assert cli._make_parser() is cli._make_parser()
    assert build_config(["steady", "--gnuplot"]).gnuplot
    assert not build_config(["steady"]).gnuplot
    assert build_config(["steady", "--epsilon", "150"]).params.epsilon == 150.0
    assert build_config(["steady"]).params == REGIME_PRESETS[1]
    grid = build_config(["spectra", "--omega-range", "-5:5:11"]).omega_steps
    assert (grid, build_config(["spectra"]).omega_steps) == (11, 801)
    with pytest.raises(ConfigParse, match="mode is required"):
        build_config([])


def test_omega_range_flag():
    cfg = build_config(["spectra", "--omega-range", "-5:5:11"])
    assert (cfg.omega_min, cfg.omega_max, cfg.omega_steps) == (-5.0, 5.0, 11)
    for bad in ("1:2", "a:b:c", "-5:5:one"):
        with pytest.raises(ConfigParse):
            build_config(["spectra", "--omega-range", bad])
    with pytest.raises(ConfigParse, match="omega_min"):
        build_config(["spectra", "--omega-range", "5:-5:11"])


def test_grid_always_contains_zero_when_straddling():
    cfg = RunConfig(params=REGIME_PRESETS[1], mode="spectra",
                    omega_min=-3.0, omega_max=5.0, omega_steps=10)
    grid = cfg.omega_grid()
    assert grid.size == 10
    assert np.count_nonzero(grid == 0.0) == 1
    assert grid[0] == -3.0 and grid[-1] == 5.0
    assert np.all(np.diff(grid) > 0)
    one_sided = RunConfig(params=REGIME_PRESETS[1], mode="spectra",
                          omega_min=1.0, omega_max=5.0, omega_steps=9)
    assert not np.any(one_sided.omega_grid() == 0.0)
    # Only interior points snap: the endpoints stay as requested.
    for spec, expected in (("-1:1:2", [-1.0, 1.0]),
                           ("-1:3:3", [-1.0, 0.0, 3.0])):
        grid = build_config(["spectra", "--omega-range", spec]).omega_grid()
        assert grid.tolist() == expected


def test_invalid_settings_rejected(tmp_path, capsys):
    p = REGIME_PRESETS[1]
    with pytest.raises(ConfigParse):
        RunConfig(params=p, mode="spectra", omega_min=2.0, omega_max=1.0)
    with pytest.raises(ConfigParse):
        RunConfig(params=p, mode="spectra", omega_steps=1)
    with pytest.raises(ConfigParse):
        RunConfig(params=p, mode="stochastic", n_traj=0)
    bad = SystemParams(-1e-3, 2e-2, 105.0, 1.0, 0.5, 0.5)
    with pytest.raises(ConfigParse):
        RunConfig(params=bad, mode="steady")
    # The seed keys a Philox generator, which takes keys in [0, 2**128).
    assert RunConfig(params=p, mode="stochastic", seed=2**128 - 1).seed > 0
    for seed in (-1, -3, 10**41, 2**128):
        with pytest.raises(ConfigParse, match="seed"):
            RunConfig(params=p, mode="stochastic", seed=seed)
    cfg_file = tmp_path / "seed.cfg"
    cfg_file.write_text("seed = -3\n", encoding="utf-8")
    run = ["stochastic", "--regime", "1", "--n-traj", "4", "--t-end", "0.01",
           "--out", str(tmp_path)]
    for extra in (["--seed", "-1"], ["--seed", str(10**41)],
                  ["--config", str(cfg_file)]):
        assert main(run + extra) == 2
        assert "error: seed" in capsys.readouterr().err
    assert not (tmp_path / "stochastic.csv").exists()


def test_config_file_roundtrip(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "kappa1 = 0.01  # trailing comment\n"
        "kappa2 = 0.005\n"
        "epsilon = 105\n"
        "gamma2 = 2.0\n"
        "gamma3 = 0.25\n"
        "\n"
        "mode = steady\n"
        "seed = 9\n",
        encoding="utf-8",
    )
    cfg = build_config(["--config", str(cfg_file)])
    assert cfg.mode == "steady"
    assert cfg.seed == 9
    assert cfg.params.kappa1 == 0.01 and cfg.params.gamma3 == 0.25
    # flags outrank the file
    assert build_config(["spectra", "--config", str(cfg_file),
                         "--seed", "1"]).seed == 1


def test_default_grid_is_the_library_grid():
    grid = build_config(["spectra"]).omega_grid()
    assert grid.dtype == default_omega_grid().dtype
    assert grid.tobytes() == default_omega_grid().tobytes()
    assert np.count_nonzero(grid == 0.0) == 1


# setting, its default, a config-file line, its value, flags, their value
_PRECEDENCE = [
    ("omega_min", -20.0, "omega_min = -10", -10.0,
     ["--omega-range", "-5:5:11"], -5.0),
    ("omega_max", 20.0, "omega_max = 10", 10.0,
     ["--omega-range", "-5:5:11"], 5.0),
    ("omega_steps", 801, "omega_steps = 101", 101,
     ["--omega-range", "-5:5:11"], 11),
    ("seed", 0, "seed = 9", 9, ["--seed", "1"], 1),
    ("out", ".", "out = from-file", "from-file", ["--out", "from-flag"],
     "from-flag"),
    ("dt", 1e-3, "dt = 2e-3", 2e-3, ["--dt", "5e-3"], 5e-3),
    ("t_end", 50.0, "t_end = 4", 4.0, ["--t-end", "2"], 2.0),
    ("n_traj", 1000, "n_traj = 300", 300, ["--n-traj", "50"], 50),
]


@pytest.mark.parametrize("key, default, line, from_file, flags, from_flag",
                         _PRECEDENCE, ids=[row[0] for row in _PRECEDENCE])
def test_setting_precedence(key, default, line, from_file, flags, from_flag,
                            tmp_path):
    """Default < config file < flag, for every run setting."""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(line + "\n", encoding="utf-8")
    with_file = ["stochastic", "--config", str(cfg_file)]
    for argv, want in ((["stochastic"], default), (with_file, from_file),
                       (with_file + flags, from_flag)):
        got = getattr(build_config(argv), key)
        assert got == want and type(got) is type(want), (argv, got)


def test_omega_range_outranks_file_grid_keys(tmp_path):
    cfg_file = tmp_path / "grid.cfg"
    cfg_file.write_text("omega_min = -10\nomega_max = 10\nomega_steps = 101\n",
                        encoding="utf-8")
    from_file = build_config(["spectra", "--config", str(cfg_file)])
    assert (from_file.omega_min, from_file.omega_max,
            from_file.omega_steps) == (-10.0, 10.0, 101)
    cfg = build_config(["spectra", "--config", str(cfg_file),
                        "--omega-range", "-5:5:11"])
    assert (cfg.omega_min, cfg.omega_max, cfg.omega_steps) == (-5.0, 5.0, 11)
    assert cfg.omega_grid().tolist() == np.linspace(-5, 5, 11).tolist()


def test_file_out_decides_where_main_writes(tmp_path):
    cfg_file = tmp_path / "out.cfg"
    cfg_file.write_text(f"out = {tmp_path / 'from-file'}\n", encoding="utf-8")
    argv = ["steady", "--regime", "1", "--config", str(cfg_file)]
    assert main(argv) == 0
    assert (tmp_path / "from-file" / "steady.csv").is_file()
    assert main(argv + ["--out", str(tmp_path / "from-flag")]) == 0
    assert (tmp_path / "from-flag" / "steady.csv").is_file()
    files = sorted(p.name for p in (tmp_path / "from-file").iterdir())
    assert files == ["steady.csv"]


def test_config_file_errors(tmp_path):
    missing = tmp_path / "absent.cfg"
    with pytest.raises(ConfigParse, match="cannot read"):
        parse_config_file(missing)
    bad_line = tmp_path / "bad.cfg"
    bad_line.write_text("kappa1 0.01\n", encoding="utf-8")
    with pytest.raises(ConfigParse, match="expected key = value"):
        parse_config_file(bad_line)
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("coupling = 3\n", encoding="utf-8")
    with pytest.raises(ConfigParse, match="unknown key"):
        parse_config_file(unknown)
    bad_value = tmp_path / "value.cfg"
    bad_value.write_text("kappa1 = fast\n", encoding="utf-8")
    with pytest.raises(ConfigParse, match="bad value"):
        parse_config_file(bad_value)


def test_regime_conflicts_with_explicit_rates(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("kappa1 = 0.02\n", encoding="utf-8")
    with pytest.raises(ConfigParse, match="conflicts"):
        build_config(["steady", "--regime", "1", "--config", str(cfg_file)])


@pytest.mark.parametrize("flag, source", [
    (["--regime", "2"], "--regime"), ([], "config key regime")],
    ids=["flag", "file"])
def test_regime_conflict_names_its_source(tmp_path, flag, source):
    cfg_file = tmp_path / "run.cfg"
    regime_line = "" if flag else "regime = 2\n"
    cfg_file.write_text(regime_line + "kappa1 = 0.01\n", encoding="utf-8")
    with pytest.raises(ConfigParse) as err:
        build_config(["steady", "--config", str(cfg_file)] + flag)
    assert str(err.value) == f"config key kappa1 conflicts with {source}"


def test_steady_with_no_pump_writes_zero_row(tmp_path):
    assert main(["steady", "--epsilon", "0", "--out", str(tmp_path)]) == 0
    header, rows, _ = _read_rows(tmp_path / "steady.csv")
    assert header[:2] == ["alpha1_re", "alpha1_im"]
    assert len(rows) == 1
    assert all(float(x) == 0.0 for x in rows[0])


def test_figures_file_sets(tmp_path):
    one = tmp_path / "one"
    assert main(["figures", "--regime", "1", "--omega-range", "-4:4:9",
                 "--out", str(one)]) == 0
    assert {p.name for p in one.iterdir()} == {"obr_regime1.csv"}
    two = tmp_path / "two"
    assert main(["figures", "--regime", "2", "--omega-range", "-4:4:9",
                 "--out", str(two)]) == 0
    assert {p.name for p in two.iterdir()} == {
        "vij_regime2.csv", "vijk_regime2.csv", "obr_regime2.csv"}
    both = tmp_path / "both"
    assert main(["figures", "--omega-range", "-4:4:9",
                 "--out", str(both)]) == 0
    assert {p.name for p in both.iterdir()} == {
        "obr_regime1.csv", "vij_regime2.csv", "vijk_regime2.csv",
        "obr_regime2.csv"}


def test_figures_rejects_parameter_overrides(tmp_path, capsys):
    # figures plots the presets, so a pump or rate setting would be ignored
    assert main(["figures", "--regime", "1", "--epsilon", "150",
                 "--out", str(tmp_path / "flag")]) == 2
    assert "error:" in capsys.readouterr().err
    cfg_file = tmp_path / "rates.cfg"
    cfg_file.write_text("kappa1 = 0.02\n", encoding="utf-8")
    assert main(["figures", "--config", str(cfg_file),
                 "--out", str(tmp_path / "file")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists()
    assert not (tmp_path / "file").exists()


def test_identical_config_gives_identical_bytes(tmp_path):
    args = ["figures", "--omega-range", "-4:4:9"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("obr_regime1.csv", "vij_regime2.csv", "vijk_regime2.csv",
                 "obr_regime2.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_stochastic_artifact_is_deterministic_and_shaped(tmp_path):
    args = ["stochastic", "--regime", "1", "--dt", "0.005", "--t-end", "2",
            "--n-traj", "40", "--seed", "4"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "stochastic.csv").read_bytes() == (b / "stochastic.csv").read_bytes()
    header, rows, comments = _read_rows(a / "stochastic.csv")
    assert header == ["time", "moment", "real", "imag", "stderr"]
    # three sample times, each with 6 means + 9 occupations + 6 pair products
    assert len(rows) == 3 * 21
    assert sorted({r[0] for r in rows}) == ["1", "1.5", "2"]
    names = {r[1] for r in rows}
    assert {"mean_a1", "mean_a3p", "n_11", "n_23", "anom_12",
            "anom_33"} <= names
    assert any("divergent = 0 of 40" in c for c in comments)


def test_seventeen_digit_floats_round_trip(tmp_path):
    assert main(["steady", "--regime", "1", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "steady.csv").read_text(encoding="utf-8")
    assert "# kappa1 = 0.0050000000000000001" in text
    _, rows, _ = _read_rows(tmp_path / "steady.csv")
    value = float(rows[0][0])
    assert f"{value:.17g}" == rows[0][0]


def test_self_pulsing_exit_code_and_message(tmp_path, capsys):
    # 400 sits past a Hopf pair; far above threshold the least stable
    # eigenvalue is real, which is no self-pulsing.
    for epsilon, pulsing in (("400", True), ("1e6", False), ("1e10", False)):
        start = time.perf_counter()
        code = main(["steady", "--regime", "1", "--epsilon", epsilon,
                     "--out", str(tmp_path)])
        assert time.perf_counter() - start < 10.0
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert ("self-pulsing" in err) == pulsing


def test_steady_just_below_threshold(tmp_path):
    # 0.99 of the regime-1 threshold: stable, but slow to relax onto
    p = replace(REGIME_PRESETS[1], epsilon=228.1)
    assert main(["steady", "--regime", "1", "--epsilon", "228.1",
                 "--out", str(tmp_path)]) == 0
    _, rows, _ = _read_rows(tmp_path / "steady.csv")
    v = np.array([float(x) for x in rows[0][:6]])
    ode = relax_from_vacuum(p, t_max=5000.0)
    assert ode.converged
    assert np.abs(v[0::2] + 1j * v[1::2] - ode.state.alpha).max() < 1e-9


@pytest.mark.parametrize("regime, epsilon", [("1", "228.1"), ("2", "880"),
                                             ("1", "230.3")])
def test_spectra_just_below_threshold(regime, epsilon, tmp_path):
    # 0.99 and 0.9996 of the regime-1 and 0.98 of the regime-2 threshold,
    # where the spectral peaks are high and narrow (above 1e5 at 230.3):
    # both spectrum modes succeed and the spectra respect the uncertainty
    # bound.
    for mode in ("spectra", "correlations"):
        assert main([mode, "--regime", regime, "--epsilon", epsilon,
                     "--out", str(tmp_path)]) == 0
    _, rows, _ = _read_rows(tmp_path / "spectra.csv")
    v = np.array(rows, dtype=float)
    assert v.shape == (801, 7) and np.isfinite(v).all()
    assert (v[:, 1::2] * v[:, 2::2]).min() >= 1.0 - 1e-9
    _, rows, _ = _read_rows(tmp_path / "correlations.csv")
    assert len(rows) == 801 and np.isfinite(np.array(rows, dtype=float)).all()


def test_non_finite_pump_exit_code(tmp_path, capsys):
    for value in ("nan", "inf"):
        assert main(["steady", "--epsilon", value,
                     "--out", str(tmp_path)]) == 2
        assert "epsilon" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_parse_failure_exit_code(tmp_path, capsys):
    for args in (["orbit"], ["spectra", "--omega-range", "0:inf:5"],
                 ["stochastic", "--dt", "nan"],
                 ["stochastic", "--t-end", "inf"],
                 ["stochastic", "--dt", "inf"],
                 ["stochastic", "--dt", "1", "--t-end", "0.4"]):
        assert main(args + ["--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


def test_unwritable_output_dir(tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("", encoding="utf-8")
    code = main(["steady", "--epsilon", "0", "--out", str(blocker)])
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_gnuplot_script_references_artifacts(tmp_path):
    assert main(["figures", "--regime", "1", "--omega-range", "-4:4:9",
                 "--gnuplot", "--out", str(tmp_path)]) == 0
    script = (tmp_path / "plots.gp").read_text(encoding="utf-8")
    assert "obr_regime1.csv" in script
    assert "plot" in script


def test_gnuplot_rejected_in_stochastic_mode(tmp_path, capsys):
    code = main(["stochastic", "--regime", "1", "--n-traj", "2", "--gnuplot",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_nested_output_directory_created(tmp_path):
    nested = tmp_path / "deep" / "er"
    assert main(["steady", "--epsilon", "0", "--out", str(nested)]) == 0
    assert (nested / "steady.csv").exists()


def test_no_threshold_in_range_exit_code(tmp_path, capsys):
    cfg_file = tmp_path / "weak.cfg"
    cfg_file.write_text("kappa1 = 1e-6\nkappa2 = 2e-2\nepsilon = 105\n"
                        "gamma2 = 0.5\ngamma3 = 0.5\n", encoding="utf-8")
    code = main(["threshold", "--config", str(cfg_file),
                 "--out", str(tmp_path / "out")])
    assert code == 5
    assert "error: stable throughout" in capsys.readouterr().err


def test_total_divergence_exit_code(tmp_path, capsys):
    code = main(["stochastic", "--regime", "1", "--dt", "2", "--t-end", "40",
                 "--n-traj", "5", "--out", str(tmp_path)])
    assert code == 5
    assert "error: all trajectories diverged" in capsys.readouterr().err


def test_failed_numerical_check_exit_code(monkeypatch, tmp_path, capsys):
    # A spectrum that fails its reality check ends the run with a message
    # and its own exit code, not a traceback.
    def failing(*args, **kwargs):
        raise NonHermitianResidue("imaginary residue 1e-09 in quadrature "
                                  "spectrum at omega=0")

    monkeypatch.setattr(cli, "spectrum_grid", failing)
    for mode in ("spectra", "correlations", "figures"):
        assert main([mode, "--regime", "1", "--out", str(tmp_path)]) == 6
        assert capsys.readouterr().err.startswith("error: imaginary residue")
    assert not any(tmp_path.iterdir())


_REFERENCES = (Path(__file__).resolve().parents[1]
               / "perfbench" / "reference" / "cli")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


@pytest.mark.parametrize("mode", ["steady", "spectra", "correlations",
                                  "threshold", "figures"])
def test_deterministic_modes_match_references(mode, tmp_path):
    """Every deterministic mode reproduces its stored artifacts.

    Arguments are those the references were made with (regime 1, figures
    for both regimes).  Text outside numbers must match exactly; each number
    may differ by 1e-9 relative to itself plus 1e-12 of the largest
    magnitude on its line, so roundoff-level values (imaginary parts of a
    real state) need not match digit for digit.
    """
    args = [mode, "--out", str(tmp_path)]
    if mode != "figures":
        args += ["--regime", "1"]
    assert main(args) == 0
    # Reference files are named <mode>__<artifact>.csv.gz.
    refs = {ref.name[len(mode) + 2:-3]: ref
            for ref in _REFERENCES.glob(f"{mode}__*.csv.gz")}
    assert refs
    assert {p.name for p in tmp_path.iterdir()} == set(refs)
    for name, ref in refs.items():
        want = gzip.decompress(ref.read_bytes()).decode("utf-8").splitlines()
        got = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        assert len(got) == len(want), name
        for line, expected in zip(got, want):
            assert _NUMBER.sub("#", line) == _NUMBER.sub("#", expected)
            g = np.array([float(x) for x in _NUMBER.findall(line)])
            e = np.array([float(x) for x in _NUMBER.findall(expected)])
            if e.size:
                tol = 1e-9 * np.abs(e) + 1e-12 * np.abs(e).max()
                assert np.all(np.abs(g - e) <= tol), (name, line)


@pytest.fixture(scope="module")
def written_csvs(tmp_path_factory):
    """(path, meta, columns, footer) of each CSV every mode writes, on a
    9-point grid and a 40-trajectory ensemble."""
    calls = []
    write = cli._write_csv

    def record(path, meta, columns, footer=None):
        calls.append((path, meta, columns, footer))
        return write(path, meta, columns, footer)

    out = tmp_path_factory.mktemp("modes")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_write_csv", record)
        for mode in cli.MODES:
            args = [mode, "--omega-range", "-4:4:9", "--out", str(out / mode)]
            if mode == "stochastic":
                args += ["--n-traj", "40", "--dt", "0.005", "--t-end", "2"]
            assert main(args) == 0
    return calls


def test_writer_matches_per_cell_oracle(written_csvs, tmp_path):
    """The column writer's bytes equal csv.writer's, cell by cell."""
    assert len(written_csvs) == 9
    for path, meta, columns, footer in written_csvs:
        ref = tmp_path / path.name
        write_csv_per_cell(ref, meta, list(columns), zip(*columns.values()),
                           footer)
        assert path.read_bytes() == ref.read_bytes(), path.name
    edges = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308]
    columns = {"x": np.array(edges), "name": [f"n_{i}" for i in range(6)],
               "y": [0.1, 1.0, -2.5, 1e-300, 123456789.0, 3.0]}
    got, ref = tmp_path / "edges.csv", tmp_path / "edges_ref.csv"
    cli._write_csv(got, ["a = 1"], columns, ["end"])
    write_csv_per_cell(ref, ["a = 1"], list(columns), zip(*columns.values()),
                       ["end"])
    assert got.read_bytes() == ref.read_bytes()
    assert b"\n-0,n_0,0.10000000000000001\nnan,n_1,1\n" in got.read_bytes()


def test_no_name_or_cell_needs_quoting(written_csvs):
    # The writer joins cells with commas and quotes nothing.  Every mode ran,
    # so the headers and text cells seen are all the CLI writes.
    texts = set()
    for _, _, columns, _ in written_csvs:
        texts.update(columns)
        texts.update(cell for values in columns.values()
                     for cell in np.asarray(values).tolist()
                     if isinstance(cell, str))
    assert {name for name, _, _ in cli._MOMENTS} <= texts
    assert {name for _, names in cli._FIGURE_FILES.values()
            for name in names} <= texts
    assert {"alpha1_re", "vx1", "gain_12", "epsilon", "time"} <= texts
    assert all(text and not set(text) & set(',"\r\n') for text in texts)
