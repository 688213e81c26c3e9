"""Command-line interface.

Subcommands: ``run`` (one simulation with full reporting), ``sweep-sigma``
and ``sweep-kappa`` (parameter ladders), ``check-data`` (compatibility
report for the configured initial data), ``mms`` (manufactured-solution
convergence study).  Exit codes: 0 completed, 2 stability-margin flag or
failed data check, 3 aborted, 4 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .numerics import ConfigurationError, NumericsError
from .initdata import compat_residuals
from .stepper import initial_data
from .harness import (
    apply_overrides,
    build_config,
    mms_convergence,
    parse_config_file,
    run_simulation,
    sweep_kappa,
    sweep_sigma,
    write_sweep,
    _ladder,
)

EXIT_OK = 0
EXIT_FLAGGED = 2
EXIT_ABORTED = 3
EXIT_CONFIG = 4


def _add_common(parser):
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value configuration file")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory for artifacts")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config entry")


def _settings(args) -> dict:
    settings = {}
    if args.config is not None:
        settings.update(parse_config_file(args.config))
    return apply_overrides(settings, args.override)


def _cmd_run(args) -> int:
    settings = _settings(args)
    config = build_config(settings)
    traj, manifest = run_simulation(config, outdir=args.out, settings=settings)
    print(f"status: {manifest.status}"
          + (f" ({manifest.reason})" if manifest.reason else ""))
    print(f"final t = {traj.times[-1]:.6g}, margin = {traj.margins[-1]:.6g}")
    return manifest.exit_code


def _cmd_sweep_sigma(args) -> int:
    settings = _settings(args)
    config = build_config(settings)
    ladder = _ladder(settings, "sweep.sigma_ladder")
    workers = int(settings.get("sweep.workers", 1))
    result = sweep_sigma(config, ladder, workers=workers)
    if args.out is not None:
        write_sweep(args.out, result)
    print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    ok = result.monotone and result.extras.get("same_horizon", False)
    return EXIT_OK if ok else EXIT_FLAGGED


def _cmd_sweep_kappa(args) -> int:
    settings = _settings(args)
    config = build_config(settings)
    ladder = _ladder(settings, "sweep.kappa_ladder")
    workers = int(settings.get("sweep.workers", 1))
    result = sweep_kappa(config, ladder, workers=workers)
    if args.out is not None:
        write_sweep(args.out, result)
    print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    ok = result.monotone and all(result.extras.get("uniform_bound", []))
    return EXIT_OK if ok else EXIT_FLAGGED


def _cmd_check_data(args) -> int:
    settings = _settings(args)
    config = build_config(settings)
    q0, h0 = initial_data(config)
    report = compat_residuals(config.grid, q0, h0, sigma=config.sigma)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_FLAGGED


def _cmd_mms(args) -> int:
    table = mms_convergence()
    print(json.dumps(table, indent=2, sort_keys=True))
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "mms.json").write_text(
            json.dumps(table, indent=2, sort_keys=True) + "\n"
        )
    return EXIT_OK if table["spatial_pass"] and table["temporal_pass"] else EXIT_FLAGGED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stefansim",
        description="Stefan problem simulator in a fixed-domain harmonic gauge",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("run", _cmd_run),
        ("sweep-sigma", _cmd_sweep_sigma),
        ("sweep-kappa", _cmd_sweep_kappa),
        ("check-data", _cmd_check_data),
        ("mms", _cmd_mms),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_ABORTED


if __name__ == "__main__":
    sys.exit(main())
