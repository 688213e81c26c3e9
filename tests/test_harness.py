"""Orchestration: config plumbing, artifacts, determinism, CLI, sweeps."""

from __future__ import annotations

import json

import numpy as np
import pytest

from stefansim.numerics import ConfigurationError, Grid
from stefansim.elliptic import EllipticSolveError
from stefansim.initdata import DataSpec
from stefansim.stepper import SolverConfig
from stefansim.harness import (
    ManufacturedCase,
    apply_overrides,
    build_config,
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
        "mode = classical\n"
        "dt = 2.5e-5\n"
        "grid.nx = 64\n"
        "data.alpha = 0.75\n"
        "output.svg = off\n"
    )
    settings = parse_config_file(cfg)
    assert settings["mode"] == "classical"
    assert settings["grid.nx"] == 64
    assert settings["data.alpha"] == 0.75
    assert settings["output.svg"] is False
    merged = apply_overrides(settings, ["data.alpha=1.25", "t_end=1e-3"])
    assert merged["data.alpha"] == 1.25
    config = build_config(merged)
    assert config.data.alpha == 1.25
    assert config.t_end == 1e-3


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("just a line without equals\n")
    with pytest.raises(ConfigurationError):
        parse_config_file(bad)
    with pytest.raises(ConfigurationError):
        apply_overrides({}, ["oops"])


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


def test_snapshot_divisibility_enforced():
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


def test_kappa_init_abort_writes_manifest(tmp_path):
    # one fixed-point iteration cannot solve for the regularized datum
    config = SolverConfig(mode="kappa", kappa=0.1, t_end=1e-3,
                          snapshot_every=10, elliptic_max_iter=1,
                          data=DataSpec(h0_amplitude=0.05))
    with pytest.raises(EllipticSolveError):
        run_simulation(config, outdir=tmp_path)
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["status"] == "aborted"
    assert payload["reason"].startswith("EllipticSolveError")

def test_manifest_records_flags(tmp_path):
    settings = _fast_settings(**{"data.h0_amplitude": 0.3,
                                 "compat.override": True, "t_end": 5e-3})
    traj, manifest = run_simulation(build_config(settings), outdir=tmp_path,
                                    settings=settings)
    assert traj.flags == ("smallness",)
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["flags"] == ["smallness"]

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


def test_mms_initial_sampling_exact():
    case = ManufacturedCase(Grid(32, 65), flat=False)
    grid = Grid(32, 65)
    q0 = case.temperature(grid, 0.0)
    fine_restricted = case.temperature(case.fine, 0.0)[::2, ::2]
    assert np.max(np.abs(q0 - fine_restricted)) <= 1e-10


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


def test_sweep_points_order_independent():
    config = build_config(_fast_settings())
    a = sweep_sigma(config, ladder=[0.05, 0.01, 0.0])
    b = sweep_sigma(config, ladder=[0.01, 0.05, 0.0])
    by_sigma_a = dict(zip(a.values, a.distances))
    by_sigma_b = dict(zip(b.values, b.distances))
    assert by_sigma_a == by_sigma_b


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
    assert np.max(np.abs(traj.snaps[-1]["q"])) == 0.0
    assert np.max(np.abs(traj.snaps[-1]["h"])) == 0.0


def test_sweep_parallel_workers_match_serial():
    config = build_config(_fast_settings())
    serial = sweep_sigma(config, ladder=[0.05, 0.0], workers=1)
    parallel = sweep_sigma(config, ladder=[0.05, 0.0], workers=2)
    assert serial.distances == parallel.distances
