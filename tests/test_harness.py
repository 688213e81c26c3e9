"""Orchestration: config plumbing, artifacts, determinism, CLI, sweeps."""

from __future__ import annotations

import itertools
import json
import os
import signal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from stefansim.numerics import (
    ConfigurationError,
    Grid,
    NumericsError,
    integrate_interior,
)
from stefansim.elliptic import EllipticSolveError
from stefansim.analysis import UsageError, energy_table
from stefansim.initdata import DataSpec
from stefansim import _svg, elliptic, harness, initdata, stepper
from stefansim.stepper import SolverConfig
from stefansim.harness import (
    ManufacturedCase,
    _config_dict,
    _ladder,
    apply_overrides,
    build_config,
    default_config,
    parse_config_file,
    run_simulation,
    simulate,
    sweep_kappa,
    sweep_sigma,
)
from stefansim.cli import main as cli_main


def _fast_settings(**kw):
    base = {
        "t_end": 1e-3,
        "snapshot_every": 10,
        "output.svg": False,
    }
    base.update(kw)
    return base


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\n"
        "sigma = 0.0\n"
        "dt = 2.5e-5\n"
        "grid.nx = 64   # an inline comment is not part of the value\n"
        "data.alpha = 0.75\n"
        "output.svg = off\n"
    )
    settings = parse_config_file(cfg)
    assert settings["sigma"] == 0.0
    assert settings["grid.nx"] == 64
    assert settings["data.alpha"] == 0.75
    assert settings["output.svg"] is False
    merged = apply_overrides(settings, ["data.alpha=1.25", "t_end=1e-3"])
    assert merged["data.alpha"] == 1.25
    config = build_config(merged)
    assert config.data.alpha == 1.25
    assert config.t_end == 1e-3


def test_defaults_are_the_dataclass_defaults(tmp_path):
    assert build_config({}) == SolverConfig()
    # the README documents every key at its default: same keys, values, types
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(block)
    parsed = parse_config_file(cfg)
    assert {k: (type(v), v) for k, v in parsed.items()} == {
        k: (type(v), v) for k, v in default_config().items()}


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("just a line without equals\n")
    with pytest.raises(ConfigurationError):
        parse_config_file(bad)
    # a file that cannot be read is a configuration error too, naming it
    latin = tmp_path / "latin.cfg"
    latin.write_bytes(b"data.alpha = 1.0  # \xe9\n")
    for path in (tmp_path / "missing.cfg", latin):
        with pytest.raises(ConfigurationError, match=path.name):
            parse_config_file(path)
    assert cli_main(["run", "--config", str(tmp_path / "missing.cfg")]) == 4
    with pytest.raises(ConfigurationError):
        apply_overrides({}, ["oops"])
    # a misspelt key must not leave its default silently in force
    with pytest.raises(ConfigurationError) as err:
        build_config({"grid.nX": 128, "dT": 1e-3, "grid.nx": 64})
    assert str(err.value) == "unknown config keys: dT, grid.nX"
    with pytest.raises(ConfigurationError, match="unknown config keys"):
        build_config({"compat.require": False})
    # sigma and kappa select the interface law; there is no mode setting
    with pytest.raises(ConfigurationError) as err:
        build_config({"mode": "kappa", "kappa": 0.05})
    assert str(err.value) == "unknown config keys: mode"
    # the slab height is a constant of the datum: its retired key is
    # unknown even at its old value
    assert cli_main(["run", "--override", "data.eps_slab=0.25"]) == 4
    # a value must have its default's type: "flase" is no boolean
    for key, raw in (("compat.override", "flase"), ("output.svg", "nope"),
                     ("grid.nx", "abc"), ("dt", "fast"), ("kappa", "true")):
        settings = apply_overrides({}, [f"{key}={raw}"])
        with pytest.raises(ConfigurationError, match=f"config key {key} "):
            build_config(settings)
    # an integer key takes no fraction: 64.5 would be truncated to 64
    for key, raw in (("grid.nx", "64.5"), ("snapshot_every", "2.5"),
                     ("data.h0_mode", "1.5"), ("grid.ny", "inf")):
        settings = apply_overrides({}, [f"{key}={raw}"])
        with pytest.raises(ConfigurationError,
                           match=f"config key {key} needs an integer"):
            build_config(settings)
    assert build_config({"grid.nx": 64.0}).nx == 64


def test_run_simulation_checks_its_settings():
    # the run's own flags get the same check as build_config: "flase" is
    # no boolean, and must not pass as a truthy override
    config = build_config(_fast_settings(**{"data.h0_amplitude": 0.05}))
    with pytest.raises(ConfigurationError, match="config key compat.override"):
        run_simulation(config, settings={"compat.override": "flase"})
    with pytest.raises(ConfigurationError, match="unknown config keys"):
        run_simulation(config, settings={"output.svgs": False})


def test_run_artifacts_and_manifest(tmp_path):
    settings = _fast_settings()
    config = build_config(settings)
    traj, manifest = run_simulation(config, outdir=tmp_path, settings=settings)
    assert manifest.status == "completed"
    assert manifest.exit_code == 0
    listed = set(manifest.artifacts)
    on_disk = {p.name for p in tmp_path.iterdir()}
    assert listed == on_disk
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["status"] == "completed"
    assert payload["compat"]["passed"] is True
    # only a kappa run solves for a regularized datum
    assert payload["datum_solves"] == []
    csv = (tmp_path / "energies.csv").read_text().splitlines()
    assert csv[0].startswith("t,energy,")
    assert len(csv) == 2 + len(traj) - 1  # header + one row per snapshot


def test_interface_profiles_roundtrip(tmp_path):
    settings = _fast_settings()
    config = build_config(settings)
    traj, manifest = run_simulation(config, outdir=tmp_path, settings=settings)
    profiles = sorted(p for p in manifest.artifacts if p.startswith("interface"))
    assert profiles
    rows = (tmp_path / profiles[0]).read_text().splitlines()
    assert rows[0] == "x,h"
    x0, h0 = map(float, rows[1].split(","))
    assert x0 == 0.0


def test_interface_profiles_of_close_snapshots_keep_distinct_names(tmp_path):
    # snapshots 1e-7 apart share their name at 6 decimals; the names take
    # as many decimals as the picked times need, and each is listed once
    settings = _fast_settings(**{"grid.nx": 16, "grid.ny": 17, "dt": 1e-7,
                                 "t_end": 1e-6, "snapshot_every": 1})
    _, manifest = run_simulation(build_config(settings), outdir=tmp_path,
                                 settings=settings)
    profiles = [p for p in manifest.artifacts if p.startswith("interface")]
    assert profiles == ["interface_t0.0000000.csv", "interface_t0.0000002.csv",
                        "interface_t0.0000005.csv", "interface_t0.0000007.csv",
                        "interface_t0.0000010.csv"]
    assert len(set(manifest.artifacts)) == len(manifest.artifacts)
    assert set(manifest.artifacts) == {p.name for p in tmp_path.iterdir()}


def test_flat_initial_interface_prints_no_negative_zero(tmp_path):
    # a zero amplitude times a negative cosine is -0.0, which prints "-0"
    settings = _fast_settings(t_end=1e-4, snapshot_every=4)
    run_simulation(build_config(settings), outdir=tmp_path, settings=settings)
    rows = (tmp_path / "interface_t0.000000.csv").read_text().splitlines()[1:]
    assert len(rows) == 64
    assert all(row.split(",")[1] == "0" for row in rows)


def test_determinism_byte_identical(tmp_path):
    settings = _fast_settings()
    config = build_config(settings)
    run_simulation(config, outdir=tmp_path / "a", settings=settings)
    run_simulation(config, outdir=tmp_path / "b", settings=settings)
    for name in ("energies.csv",):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_compat_gate_and_override(tmp_path):
    settings = _fast_settings(**{"data.h0_amplitude": 0.05})
    config = build_config(settings)
    with pytest.raises(ConfigurationError):
        run_simulation(config, outdir=tmp_path, settings=settings)
    settings["compat.override"] = True
    traj, manifest = run_simulation(config, outdir=tmp_path, settings=settings)
    assert manifest.status == "completed"
    assert manifest.compat["passed"] is False


def test_taylor_violation_flags_within_grace(tmp_path):
    config = build_config(_fast_settings())
    grid = config.grid
    y = grid.ys
    q0 = np.broadcast_to(-0.3 * y, (grid.nx, grid.ny)).copy()
    traj = simulate(config, q0=q0, h0=np.zeros(grid.nx))
    assert traj.status == "taylor-flag"
    # halted within the grace window: well short of the full horizon
    assert traj.times[-1] <= config.t_end


def test_snapshot_divisibility_enforced(monkeypatch):
    # checked before init_state, so a bad regularized-mode config does not
    # pay for the regularized-datum solve first
    def never(*args, **kwargs):
        raise AssertionError("init_state ran before the cadence check")

    monkeypatch.setattr(harness, "init_state", never)
    config = build_config(_fast_settings(snapshot_every=7))
    with pytest.raises(ConfigurationError):
        simulate(config)


def test_cli_run_and_exit_codes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 1e-3\nsnapshot_every = 10\noutput.svg = off\n")
    code = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "manifest.json").exists()
    code = cli_main(["run", "--config", str(cfg), "--override", "dt=1.0"])
    assert code == 4
    code = cli_main(["run", "--config", str(cfg), "--override", "t_ned=1e-4"])
    assert code == 4
    code = cli_main(["run", "--config", str(cfg),
                     "--override", "snapshot_every=0",
                     "--override", "t_end=1e-4"])
    assert code == 4
    for override in ("grid.nx=abc", "dt=fast", "compat.override=flase",
                     "mode=kappa"):
        assert cli_main(["run", "--config", str(cfg),
                         "--override", override]) == 4
    assert cli_main(["sweep-sigma",
                     "--override", "sweep.sigma_ladder=0.1,abc"]) == 4


def test_cli_usage_errors_exit_as_configuration_errors(tmp_path, capsys):
    # argparse's own exit 2 is the flagged-run code: a bad command line is a
    # configuration error, and a subcommand takes only the options it reads
    # (mms reads no settings, check-data writes nothing)
    for argv in (["run", "--bogus"], ["bogus"], [],
                 ["mms", "--override", "dt=1"], ["mms", "--config", "run.cfg"],
                 ["check-data", "--out", str(tmp_path / "d")]):
        assert cli_main(argv) == 4, argv
        assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()
    with pytest.raises(SystemExit) as info:
        cli_main(["run", "--help"])
    assert info.value.code == 0


def test_cli_rejects_non_finite_step_and_horizon(capsys):
    # a NaN step passes any sign test and an infinite horizon has no step
    # count: both are configuration errors, not tracebacks from n_steps
    for override in ("dt=nan", "t_end=inf"):
        assert cli_main(["run", "--override", override]) == 4
        assert "must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("alpha", "nan"), ("h0_amplitude", "inf"), ("h0_mode", "40"),
])
def test_cli_rejects_non_finite_data(tmp_path, capsys, field, value):
    # a NaN or infinite data parameter fails the data's own check, not the
    # first step with margin = nan.  So does a mode the 64 nodes cannot
    # hold: cos 40x is cos 24x there
    assert cli_main(["run", "--out", str(tmp_path / "out"),
                     "--override", "compat.override=true",
                     "--override", f"data.{field}={value}"]) == 4
    assert field in capsys.readouterr().err


def test_cli_init_abort_writes_manifest(tmp_path):
    # a height that breaks the graph condition fails before the first step
    out = tmp_path / "d"
    code = cli_main(["run", "--out", str(out),
                     "--override", "data.h0_amplitude=1.0",
                     "--override", "compat.override=true"])
    assert code == 3
    payload = json.loads((out / "manifest.json").read_text())
    assert payload["status"] == "aborted"
    assert payload["exit_code"] == 3
    assert payload["reason"].startswith("InvalidGeometryError")


@pytest.mark.parametrize("override, passed", [
    # curved data fail the compatibility check
    ("data.h0_amplitude=0.05", False),
    # 4 steps at a cadence of 3
    ("snapshot_every=3", True),
])
def test_cli_config_error_writes_manifest(tmp_path, override, passed):
    out = tmp_path / "d"
    code = cli_main(["run", "--out", str(out), "--override", "t_end=1e-4",
                     "--override", "snapshot_every=4", "--override", override])
    assert code == 4
    payload = json.loads((out / "manifest.json").read_text())
    assert payload["status"] == "config-error"
    assert payload["exit_code"] == 4
    assert payload["reason"].startswith("ConfigurationError")
    assert payload["compat"]["passed"] is passed


@pytest.mark.parametrize("mode, extra, expected", [
    ("classical", {}, True),
    ("surface_tension", {"sigma": 0.01}, False),
    ("kappa", {"kappa": 0.1}, False),
])
def test_simulate_records_one_dissipation_entry_per_step(mode, extra, expected):
    config = build_config(_fast_settings(t_end=1e-4, snapshot_every=2,
                                         **extra))
    assert config.mode == mode
    traj = simulate(config)
    if not expected:
        assert traj.dissipation == []
        return
    assert len(traj.dissipation) == config.n_steps == 4
    # stamped at the step times, summed the way the stepper sums them
    t = 0.0
    for stamp, defect in traj.dissipation:
        t += config.dt
        assert stamp == t and np.isfinite(defect)
    assert traj.dissipation[-1][0] == traj.times[-1]


@pytest.mark.parametrize("extra, checked", [
    ({}, True), ({"sigma": 0.01}, False), ({"kappa": 0.05}, False)])
def test_dissipation_residual_is_blank_where_the_law_is_not_checked(
        tmp_path, extra, checked):
    # only an unforced classical run checks the dissipation law; a 0 in the
    # rows of any other run would read as the law holding exactly
    config = build_config(_fast_settings(
        **{"grid.nx": 16, "grid.ny": 33, "data.h0_amplitude": 0.05}, **extra))
    traj = simulate(config)
    assert traj.status == "completed" and len(traj) == 5
    harness.write_energy_csv(tmp_path, energy_table(traj))
    header, *rows = (tmp_path / "energies.csv").read_text().splitlines()
    col = header.split(",").index("dissipation_residual")
    cells = [row.split(",")[col] for row in rows]
    if checked:
        # no step is checked at t = 0
        assert cells[0] == "0" and all(cells[1:]), cells
    else:
        assert cells == [""] * len(traj)


def test_cli_sigma_alone_selects_surface_tension(tmp_path):
    out = tmp_path / "d"
    code = cli_main(["run", "--out", str(out), "--override", "sigma=0.01",
                     "--override", "t_end=1e-4", "--override", "snapshot_every=4",
                     "--override", "output.svg=false"])
    assert code == 0
    payload = json.loads((out / "manifest.json").read_text())
    assert payload["mode"] == "surface_tension"
    assert payload["sigma"] == 0.01 and payload["config"]["sigma"] == 0.01
    assert "mode" not in payload["config"]


@st.composite
def _valid_settings(draw):
    """Settings that build a config, with the law sigma and kappa select:
    dt under the CFL limit, the data bounds (modes below nx / 2), at most
    one of sigma and kappa positive."""
    nx = 2 * draw(st.integers(8, 64))
    ny = draw(st.integers(17, 257))
    limit = 0.5 * min(2 * np.pi / nx, 1.0 / (ny - 1)) ** 2
    law = draw(st.sampled_from(["classical", "surface_tension", "kappa"]))
    positive = st.floats(min_value=1e-6, max_value=1.0)
    return {
        "sigma": draw(positive) if law == "surface_tension" else 0.0,
        "kappa": draw(positive) if law == "kappa" else 0.0,
        "grid.nx": nx,
        "grid.ny": ny,
        "dt": draw(st.floats(min_value=1e-3, max_value=1.0)) * limit,
        "t_end": draw(st.floats(min_value=1e-4, max_value=1.0)),
        "snapshot_every": draw(st.integers(1, 100)),
        "data.alpha": draw(st.floats(min_value=0.1, max_value=3.0)),
        "data.h0_amplitude": draw(st.floats(min_value=-0.1, max_value=0.1)),
        "data.h0_mode": draw(st.integers(0, nx // 2 - 1)),
    }, law


@hyp_settings(max_examples=60, derandomize=True, deadline=None)
@given(_valid_settings())
def test_settings_roundtrip_through_config(case):
    settings, law = case
    # through the text form of an override, as the CLI reads it
    parsed = apply_overrides({}, [f"{k}={v!r}" for k, v in settings.items()])
    config = build_config(parsed)
    out = _config_dict(config)
    for key, value in settings.items():
        section, _, name = key.rpartition(".")
        got = out["data"][name] if section == "data" else out[
            {"grid.nx": "nx", "grid.ny": "ny"}.get(key, key)]
        assert got == value, key
    assert config.mode == law
    assert "mode" not in out


def test_cli_data_construction_abort_writes_manifest(tmp_path):
    # alpha * EPS_SLAB >= 1 admits no classical datum: the run stops at init
    out = tmp_path / "d"
    code = cli_main(["run", "--out", str(out), "--override", "data.alpha=5"])
    assert code == 3
    payload = json.loads((out / "manifest.json").read_text())
    assert payload["status"] == "aborted"
    assert payload["exit_code"] == 3
    assert payload["reason"].startswith("DataConstructionError")


def test_kappa_init_abort_writes_manifest(tmp_path, monkeypatch):
    # one fixed-point iteration cannot solve for the regularized datum
    monkeypatch.setattr(elliptic, "FIXED_POINT_MAX_ITER", 1)
    config = SolverConfig(kappa=0.1, t_end=1e-3,
                          snapshot_every=10,
                          data=DataSpec(h0_amplitude=0.05))
    with pytest.raises(EllipticSolveError):
        run_simulation(config, outdir=tmp_path)
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["status"] == "aborted"
    assert payload["reason"].startswith("EllipticSolveError")


def test_energy_table_failure_writes_manifest(tmp_path, monkeypatch):
    # a numerical failure after the run, in its energy table, ends with an
    # aborted manifest as the CLI's exit 3 does, and the manifest keeps
    # what the run recorded
    def failing(traj):
        raise UsageError("injected")

    monkeypatch.setattr(harness, "energy_table", failing)
    settings = _fast_settings(kappa=0.1, t_end=1e-4, snapshot_every=2,
                              **{"data.h0_amplitude": 0.05})
    with pytest.raises(UsageError):
        run_simulation(build_config(settings), outdir=tmp_path,
                       settings=settings)
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["status"] == "aborted"
    assert payload["exit_code"] == 3
    assert payload["reason"] == "UsageError: injected"
    assert len(payload["datum_solves"]) == 2


def test_unexpected_failure_writes_manifest_and_exits_3(tmp_path, monkeypatch,
                                                      capsys):
    # a failure that is not a NumericsError (here a program fault in the
    # energy table) still ends with an aborted manifest naming the phase,
    # and the CLI exits with the manifest's exit code, traceback on stderr
    def failing(traj):
        raise RuntimeError("injected")

    monkeypatch.setattr(harness, "energy_table", failing)
    out = tmp_path / "r"
    code = cli_main(["run", "--out", str(out), "--override", "t_end=1e-4",
                     "--override", "snapshot_every=2"])
    payload = json.loads((out / "manifest.json").read_text())
    assert code == 3 == payload["exit_code"]
    assert payload["status"] == "aborted"
    assert payload["reason"] == "RuntimeError in energy table: injected"
    assert "Traceback" in capsys.readouterr().err


def test_kappa_manifest_records_the_datum_solves(tmp_path, monkeypatch):
    # the iterations and residual of both fixed-point solves of the
    # regularized datum reach the manifest as the solver returned them
    returned = []
    solve = initdata.solve_transformed_poisson

    def recording(*args, **kwargs):
        out = solve(*args, **kwargs)
        returned.append({"iterations": out[2], "residual": out[1]})
        return out

    monkeypatch.setattr(initdata, "solve_transformed_poisson", recording)
    settings = _fast_settings(kappa=0.1, t_end=1e-4, snapshot_every=2,
                              **{"data.h0_amplitude": 0.05})
    traj, manifest = run_simulation(build_config(settings), outdir=tmp_path,
                                    settings=settings)
    assert len(returned) == 2
    assert all(r["iterations"] >= 1 for r in returned)
    assert traj.datum_solves == returned
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["datum_solves"] == returned


def test_manifest_records_flags(tmp_path):
    settings = _fast_settings(**{"data.h0_amplitude": 0.3,
                                 "compat.override": True, "t_end": 5e-3})
    traj, manifest = run_simulation(build_config(settings), outdir=tmp_path,
                                    settings=settings)
    assert traj.flags == ("smallness",)
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["flags"] == ["smallness"]


def test_manifest_wall_time_monotonic(tmp_path, monkeypatch):
    # a wall clock stepped back during the run must not give a negative time
    clock = itertools.count(1.0e9, -1.0)
    monkeypatch.setattr(harness.time, "time", lambda: next(clock))
    settings = _fast_settings()
    _, manifest = run_simulation(build_config(settings), outdir=tmp_path,
                                 settings=settings)
    assert manifest.wall_time >= 0.0
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["wall_time"] >= 0.0


def test_classical_run_builds_its_datum_once(monkeypatch):
    # the compatibility probe's datum is the one the run starts from
    calls = []
    build = initdata.build_sigma_data

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    # under every name the package binds it to
    for module in (initdata, stepper, harness):
        monkeypatch.setattr(module, "build_sigma_data", counted)
    settings = _fast_settings()
    run_simulation(build_config(settings), settings=settings)
    assert len(calls) == 1


def test_cli_check_data(tmp_path):
    assert cli_main(["check-data"]) == 0
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("data.h0_amplitude = 0.05\n")
    assert cli_main(["check-data", "--config", str(cfg)]) == 2


def test_sweep_sigma_smoke(tmp_path):
    config = build_config(_fast_settings())
    result = sweep_sigma(config, ladder=[0.05, 0.01, 0.0])
    assert result.statuses == ["completed"] * 3
    assert result.distances[-1] == 0.0
    assert result.distances[0] >= result.distances[1] > 0.0
    assert result.extras["same_horizon"]


def test_sweep_sigma_curved_reference():
    # every ladder point starts from the same curved interface, so the
    # distances to the sigma = 0 reference shrink linearly in sigma
    config = build_config(_fast_settings(**{
        "grid.nx": 16, "grid.ny": 33, "t_end": 2.5e-3, "snapshot_every": 20,
        "data.h0_amplitude": 0.05}))
    result = sweep_sigma(config, ladder=[1e-2, 1e-3, 1e-4, 0.0])
    assert result.statuses == ["completed"] * 4
    assert abs(result.fit_exponent - 1.0) <= 0.1, result.distances


def test_sweep_kappa_smoke():
    config = build_config(_fast_settings())
    result = sweep_kappa(config, ladder=[0.2, 0.1])
    assert result.statuses == ["completed"] * 2
    assert all(result.extras["uniform_bound"])
    assert all(result.extras["order_ok"])
    assert len(result.distances) == 1 and result.distances[0] > 0.0


def test_sweep_ladder_validation():
    config = build_config(_fast_settings())
    with pytest.raises(ConfigurationError):
        sweep_sigma(config, ladder=[0.1, 0.01])
    with pytest.raises(ConfigurationError):
        sweep_kappa(config, ladder=[0.1, 0.2])
    # an empty ladder is an error, not a request for the default ladder
    for sweep in (sweep_sigma, sweep_kappa):
        with pytest.raises(ConfigurationError, match="is empty"):
            sweep(config, ladder=[])
        # a boolean is no ladder entry, though float(True) is 1.0
        for ladder in ([0.1, True], [0.1, "abc"], False):
            with pytest.raises(ConfigurationError,
                               match="needs comma-separated numbers"):
                sweep(config, ladder=ladder)
    for key in ("sweep.sigma_ladder", "sweep.kappa_ladder"):
        with pytest.raises(ConfigurationError, match=f"{key} is empty"):
            _ladder(apply_overrides({}, [f"{key}=,"])[key], key)


def test_sweep_settings_are_checked_before_any_run(monkeypatch):
    def no_run(config, *args, **kwargs):
        raise AssertionError("a sweep ran despite a configuration error")

    monkeypatch.setattr(harness, "simulate", no_run)
    for command, override in (("sweep-sigma", "sweep.sigma_ladder=,"),
                              ("sweep-kappa", "sweep.kappa_ladder= , "),
                              ("sweep-kappa", "sweep.kappa_ladder=0.1,0"),
                              ("sweep-sigma", "sweep.sigma_ladder=true"),
                              # sweeps run in the calling process: a
                              # worker count is an unknown key
                              ("sweep-kappa", "sweep.workers=2")):
        assert cli_main([command, "--override", override]) == 4, override


@pytest.mark.parametrize("sweep, ladder", [
    (sweep_kappa, [0.1, 0.0]),
    (sweep_kappa, [0.1, -0.05]),
    (sweep_kappa, [float("nan"), 0.1]),
    (sweep_kappa, [float("inf"), 0.1]),
    (sweep_sigma, [0.01, -0.001, 0.0]),
    (sweep_sigma, [float("nan"), 0.0]),
    (sweep_sigma, [float("inf"), 0.0]),
])
def test_sweep_ladder_entries_are_checked_before_any_run(monkeypatch, sweep,
                                                         ladder):
    # kappa = 0 is a classical run, not a smoothing width; a negative or
    # non-finite entry is refused before the earlier points have run
    def no_run(config, *args, **kwargs):
        raise AssertionError("a sweep ran despite a bad ladder entry")

    monkeypatch.setattr(harness, "simulate", no_run)
    with pytest.raises(ConfigurationError, match="ladder entries must be"):
        sweep(build_config(_fast_settings()), ladder=ladder)


def test_mms_initial_sampling_exact():
    case = ManufacturedCase(Grid(32, 65), flat=False)
    grid = Grid(32, 65)
    q0 = case.temperature(grid, 0.0)
    fine_restricted = case.temperature(Grid(64, 129), 0.0)[::2, ::2]
    assert np.max(np.abs(q0 - fine_restricted)) <= 1e-10


def _direct_sources(case, t, r):
    """Reference: the sources by the run's stencils on an r-times refined grid.

    No separability and no closed form is used: extend h(t), build the
    bundle, apply the velocity and the expanded Laplacian to q(t), extend
    the exact height rate for the map velocity, then keep the run-grid
    nodes.
    """
    from stefansim.geometry import extend_edge, metric_bundle
    from stefansim.operators import (
        compute_velocity,
        transformed_laplacian_expanded,
    )
    from stefansim.stepper import height_rate

    fine = Grid(r * case.grid.nx, r * (case.grid.ny - 1) + 1)
    q = case.temperature(fine, t)
    qt = case.amp * case._dtfac(t) * case._profile(fine)
    bundle = metric_bundle(fine, case.height(fine, t))
    v = compute_velocity(fine, bundle, q)
    w = extend_edge(fine, case.height_rate_exact(fine, t))
    src_q = qt - transformed_laplacian_expanded(fine, bundle, q) + v[1] * w
    src_h = case.height_rate_exact(fine, t) - height_rate(bundle, v)
    return src_q[::r, ::r], src_h[::r]


@pytest.mark.parametrize("flat", [True, False])
@pytest.mark.parametrize("shape", [(32, 65), (64, 129)])
def test_mms_sources_match_direct_evaluation(flat, shape):
    # the closed-form sources against the stencil reference on 1x, 2x and
    # 4x refined grids: the stencils are exact on the flat fields, and on
    # the curved fields the difference is the reference's second-order
    # truncation error, so it falls 4x per refinement
    case = ManufacturedCase(Grid(*shape), flat=flat)
    t1, t2, t3 = 2.5e-5, 1.0e-3, 7.3e-3
    # out of order and repeated, so a stale cached level shows
    calls = [("q", t1), ("h", t2), ("q", t1), ("h", t1), ("q", 0.0),
             ("h", 0.0), ("q", t3), ("q", t3), ("h", t3), ("h", t2)]
    refs = {t: [_direct_sources(case, t, r) for r in (1, 2, 4)]
            for _, t in calls}
    for kind, t in calls:
        source = case.source_q if kind == "q" else case.source_h
        ref = [level[0 if kind == "q" else 1] for level in refs[t]]
        got = source(t)
        assert got.shape == ref[0].shape
        diffs = [got - r for r in ref]
        if kind == "q":
            # the wall rows are left out: row 0 of the reference takes q_yy
            # from a one-sided stencil and converges at first order only
            diffs = [d[:, 3:-3] for d in diffs]
        errs = [np.max(np.abs(d)) for d in diffs]
        if flat:
            bound = 1e-10 * np.max(np.abs(ref[0])) if kind == "q" else 1e-13
            assert max(errs) <= bound
        else:
            assert errs[0] >= 3.5 * errs[1] >= 3.5 ** 2 * errs[2]
        # the caller owns the returned array
        expected = got.copy()
        got[...] = np.nan
        assert np.array_equal(source(t), expected)


@pytest.mark.parametrize("flat", [True, False])
def test_mms_run_error_is_one_simulate_run(monkeypatch, flat):
    # run_error is one simulate call, bit for bit the init_state + advance
    # loop on the case's own grid and sources
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(harness, "simulate", counted)
    dt, t_end = 2.5e-5, 5e-4
    error = ManufacturedCase(Grid(16, 33), flat=flat).run_error(16, 33, dt, t_end)
    assert len(calls) == 1

    case = ManufacturedCase(Grid(16, 33), flat=flat)
    config = SolverConfig(nx=16, ny=33, dt=dt, t_end=t_end,
                          source_q=case.source_q, source_h=case.source_h)
    grid = config.grid
    state = stepper.init_state(config, q0=case.temperature(grid, 0.0),
                               h0=case.height(grid, 0.0))
    assert config.n_steps == 20
    for _ in range(config.n_steps):
        state = stepper.advance(state, config)
    dq = state.q - case.temperature(grid, t_end)
    assert error == float(np.sqrt(integrate_interior(dq * dq, grid)))


def test_mms_run_error_refuses_a_run_that_stops_early(monkeypatch):
    # a run that aborts yields no error value
    taken = []

    def diverging(state, config):
        taken.append(state.t)
        if len(taken) == 3:
            raise stepper.StepDivergedError("injected at the third step")
        return stepper.advance(state, config)

    monkeypatch.setattr(harness, "advance", diverging)
    case = ManufacturedCase(Grid(16, 33), flat=False)
    with pytest.raises(NumericsError, match="injected at the third step"):
        case.run_error(16, 33, 2.5e-5, 5e-4)
    assert len(taken) == 3


def test_mms_run_error_runs_on_the_case_grid():
    case = ManufacturedCase(Grid(16, 33), flat=False)
    with pytest.raises(ConfigurationError, match="run_error"):
        case.run_error(32, 65, 2.5e-5, 5e-4)


def test_svg_emission_listed_in_manifest(tmp_path):
    settings = _fast_settings()
    settings["output.svg"] = True
    config = build_config(settings)
    _, manifest = run_simulation(config, outdir=tmp_path, settings=settings)
    svgs = [a for a in manifest.artifacts if a.endswith(".svg")]
    assert set(svgs) == {"energies.svg", "margin.svg", "interface.svg"}
    for name in svgs:
        body = (tmp_path / name).read_text()
        assert body.startswith("<svg") and body.endswith("</svg>")


def test_svg_ticks_end_on_an_axis_one_ulp_wide(tmp_path):
    # a tick step below half an ulp of the axis start cannot advance a
    # running sum; the alarm turns such a hang into a failure
    def hang(signum, frame):
        raise TimeoutError("tick loop did not end")

    one_up = float(np.nextafter(1.0, 2.0))
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        ticks = _svg._ticks(1.0, one_up)
        _svg.line_plot(tmp_path / "ulp.svg", [("y", [0.0, 1.0], [1.0, one_up])])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert 1 <= len(ticks) <= 2 * _svg._TICKS
    assert (tmp_path / "ulp.svg").read_text().endswith("</svg>")
    # at either end of the float range: an ulp-wide axis, a span whose tick
    # step underflows (log10 of zero), and a span that overflows
    for lo, hi in ((1.0, one_up), (0.0, 5e-324), (-5e-324, 0.0),
                   (-1.7e308, 1.7e308), (0.0, 1.7976931348605183e308), (0.0, 0.3)):
        ticks = _svg._ticks(lo, hi)
        assert ticks and all(lo <= t <= hi for t in ticks), (lo, hi, ticks)
        assert all(a < b for a, b in zip(ticks, ticks[1:])), (lo, hi, ticks)


@pytest.mark.parametrize("value", [2.0**53, 1e17, -1e17])
def test_svg_plots_a_flat_axis_at_or_beyond_two_to_the_53(tmp_path, value):
    # 1 is below half an ulp there, so widening a flat axis by 1 left it zero
    # wide and every point a division by zero
    path = tmp_path / "flat.svg"
    for series in (("y", [value, value], [0.0, 1.0]),
                   ("y", [0.0, 1.0], [value, value])):
        _svg.line_plot(path, [series])
        text = path.read_text()
        assert text.endswith("</svg>") and "nan" not in text


def test_sweep_points_order_independent():
    config = build_config(_fast_settings())
    a = sweep_sigma(config, ladder=[0.05, 0.01, 0.0])
    b = sweep_sigma(config, ladder=[0.01, 0.05, 0.0])
    by_sigma_a = dict(zip(a.values, a.distances))
    by_sigma_b = dict(zip(b.values, b.distances))
    assert by_sigma_a == by_sigma_b
    # the verdict too: distances are compared by decreasing sigma
    assert a.monotone == b.monotone


def test_sweep_json_roundtrip(tmp_path):
    from stefansim.harness import write_sweep

    config = build_config(_fast_settings())
    result = sweep_kappa(config, ladder=[0.2, 0.1])
    path = write_sweep(tmp_path, result)
    payload = json.loads(path.read_text())
    assert payload["parameter"] == "kappa"
    assert payload["values"] == [0.2, 0.1]


def test_zero_data_runs_to_completion():
    config = build_config(_fast_settings())
    grid = config.grid
    traj = simulate(config, q0=np.zeros((grid.nx, grid.ny)),
                    h0=np.zeros(grid.nx))
    assert traj.status == "completed"
    assert np.max(np.abs(traj.snaps[-1].q)) == 0.0
    assert np.max(np.abs(traj.snaps[-1].h)) == 0.0


def test_sweeps_run_each_point_once_in_the_calling_process(monkeypatch):
    # every ladder point is one harness.simulate call, made in ladder order
    # by this process; the benchmark collects a sweep's trajectories there
    calls = []

    def counted(config, *args, **kwargs):
        calls.append((os.getpid(), config.sigma, config.kappa))
        return simulate(config, *args, **kwargs)

    monkeypatch.setattr(harness, "simulate", counted)
    config = build_config(_fast_settings(**{"grid.nx": 16, "grid.ny": 33}))
    sweep_sigma(config, ladder=[0.05, 0.0])
    sweep_kappa(config, ladder=[0.2, 0.1])
    pid = os.getpid()
    assert calls == [(pid, 0.05, 0.0), (pid, 0.0, 0.0),
                     (pid, 0.0, 0.2), (pid, 0.0, 0.1)]


def test_dissipation_series_is_the_two_state_formula():
    # each heat content is computed once and carried to the next step; the
    # series is bit for bit the formula evaluated on both states of a step
    config = build_config(_fast_settings(t_end=1e-4, snapshot_every=2,
                                         **{"data.h0_amplitude": 0.05}))
    traj = simulate(config)
    grid, dt = config.grid, config.dt
    old = stepper.init_state(config)
    expected = []
    for _ in range(config.n_steps):
        new = stepper.advance(old, config)
        a_old = 0.5 * integrate_interior(old.q**2 * old.jac, grid)
        a_new = 0.5 * integrate_interior(new.q**2 * new.jac, grid)
        b_new = integrate_interior((new.v[0] ** 2 + new.v[1] ** 2) * new.jac, grid)
        expected.append((old.t + dt, ((a_new - a_old) / dt + b_new) / max(b_new, 1e-30)))
        old = new
    assert traj.dissipation == expected


def test_run_with_output_leaves_masked_arrays_unloaded(tmp_path):
    # numpy.ma costs about 10 ms to import; the first np.unique loads it,
    # so a run and its CSV and SVG output use none; numpy.polynomial (about
    # 0.75 MB and 3 ms) is not needed for the classical datum either
    import subprocess
    import sys

    code = ("import sys; from stefansim.harness import build_config, run_simulation; "
            "run_simulation(build_config({'grid.nx': 16, 'grid.ny': 33, "
            "'t_end': 1e-3, 'snapshot_every': 10}), sys.argv[1]); "
            "assert 'numpy.ma' not in sys.modules; "
            "assert 'numpy.polynomial' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "energies.svg").exists()
