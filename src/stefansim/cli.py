"""Command-line interface.

Subcommands: ``run`` (one simulation with full reporting), ``sweep-sigma``
and ``sweep-kappa`` (parameter ladders), ``check-data`` (compatibility
report for the configured initial data), ``mms`` (manufactured-solution
convergence study).  Each subcommand takes only the options it reads.
Exit codes (``harness.EXIT_CODES``): 0 completed, 2 stability-margin flag
or failed data check, 3 aborted (an unexpected exception too, with its
traceback on stderr), 4 configuration error, a usage error included.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from functools import partial
from pathlib import Path

from .numerics import ConfigurationError, NumericsError
from .initdata import build_sigma_data, compat_residuals
from .harness import (
    EXIT_ABORTED,
    EXIT_CONFIG,
    EXIT_FLAGGED,
    EXIT_OK,
    apply_overrides,
    build_config,
    mms_convergence,
    parse_config_file,
    run_simulation,
    sweep_kappa,
    sweep_sigma,
    write_sweep,
    _completed,
)

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2, the flagged-run code: a usage error exits 4
        self.print_usage(sys.stderr)
        raise ConfigurationError(message)


_OPTIONS = {
    "config": dict(type=Path, help="key = value configuration file"),
    "out": dict(type=Path, help="output directory for artifacts"),
    "override": dict(action="append", default=[], metavar="KEY=VALUE",
                     help="override a config entry"),
}
#: the subcommands that read fewer options than all of ``_OPTIONS``
_READS = {"check-data": ("config", "override"), "mms": ("out",)}


def _settings(args) -> dict:
    """The config file and the overrides, completed with the defaults."""
    settings = {}
    if args.config is not None:
        settings.update(parse_config_file(args.config))
    return _completed(apply_overrides(settings, args.override))


def _cmd_run(args) -> int:
    settings = _settings(args)
    config = build_config(settings)
    traj, manifest = run_simulation(config, outdir=args.out, settings=settings)
    print(f"status: {manifest.status}"
          + (f" ({manifest.reason})" if manifest.reason else ""))
    print(f"final t = {traj.times[-1]:.6g}, margin = {traj.margins[-1]:.6g}")
    return manifest.exit_code


def _cmd_sweep(ladder_key, sweep, verdict, args) -> int:
    """A parameter ladder: passes if monotone and ``verdict`` holds."""
    settings = _settings(args)
    config = build_config(settings)
    result = sweep(config, settings[ladder_key])
    if args.out is not None:
        write_sweep(args.out, result)
    print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    ok = result.monotone and verdict(result.extras)
    return EXIT_OK if ok else EXIT_FLAGGED


def _cmd_check_data(args) -> int:
    settings = _settings(args)
    config = build_config(settings)
    q0, h0 = build_sigma_data(config.grid, config.data, config.sigma)
    report = compat_residuals(config.grid, q0, h0, sigma=config.sigma)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_FLAGGED


def _cmd_mms(args) -> int:
    table = mms_convergence()
    text = json.dumps(table, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "mms.json").write_text(text + "\n")
    return EXIT_OK if table["spatial_pass"] and table["temporal_pass"] else EXIT_FLAGGED


def main(argv=None) -> int:
    parser = _Parser(
        prog="stefansim",
        description="Stefan problem simulator in a fixed-domain harmonic gauge",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("run", _cmd_run),
        ("sweep-sigma", partial(_cmd_sweep, "sweep.sigma_ladder", sweep_sigma,
                                lambda extras: extras["same_horizon"])),
        ("sweep-kappa", partial(_cmd_sweep, "sweep.kappa_ladder", sweep_kappa,
                                lambda extras: all(extras["uniform_bound"]))),
        ("check-data", _cmd_check_data),
        ("mms", _cmd_mms),
    ):
        p = sub.add_parser(name)
        for option in _READS.get(name, _OPTIONS):
            p.add_argument(f"--{option}", **_OPTIONS[option])
        p.set_defaults(func=fn)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_ABORTED
    except Exception:
        # a run has written its aborted manifest
        traceback.print_exc()
        return EXIT_ABORTED


if __name__ == "__main__":
    sys.exit(main())
