"""Command-line driver.

Subcommands: evolve, spectrum, sweep, modes, resonances.  A config file
(``--config``, flat key = value text) supplies defaults; flags override.
Each subcommand calls public `analysis` functions only, a run and its
writer; ``spectrum`` is the overlap sweep written one row per mode.
Exit codes: 0 success, 2 invalid configuration or an unwritable output path
(checked before the run), 3 numerical-tolerance violation, 4 ``sweep`` or
``spectrum`` completed with per-frequency failures (each failed frequency
is listed in the sidecar's ``failures`` and on stderr; ``spectrum`` writes
no rows for it).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import (
    _CONFIG_KEYS,
    ExperimentConfig,
    config_from_values,
    load_config,
    output_path,
    pair_resonances,
    read_sweep_csv,
    run_evolution,
    run_nmax_sweep,
    run_overlap_sweep,
    spectrum_at,
    write_evolution_csv,
    write_modes_csv,
    write_resonances_csv,
    write_spectrum_csv,
    write_sweep_csv,
)
from .errors import ConfigError, ToleranceError
from .floquet import REPORTED_MODES
from .version import __version__


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file with defaults")
    for key in _CONFIG_KEYS:
        if key == "refine_peaks":
            parser.add_argument("--no-refine", dest=key, action="store_const", const="0",
                                help="skip grid refinement around population peaks")
        elif key == "substeps":
            parser.add_argument(
                "--substeps", dest=key,
                help="substeps per driving period (>= 256; default: each integrator's "
                     "own rule); how each route uses them: README 'Numerical scheme'")
        else:
            parser.add_argument(f"--{key.replace('_', '-')}", dest=key)


def _configure(args) -> tuple[ExperimentConfig, Path]:
    """The run's configuration and its output path, checked before the run."""
    overrides = {key: getattr(args, key) for key in _CONFIG_KEYS}
    config = (load_config(args.config, overrides) if args.config
              else config_from_values({}, overrides))
    return config, output_path(config, args.output)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driven-lattice",
        description="Floquet-Bloch spectra and stroboscopic dynamics of a "
                    "periodically driven 1D barrier lattice",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="site-population trace over the horizon")
    _add_config_flags(p)
    p.add_argument("--method", choices=("floquet", "direct"), default="floquet")
    p.add_argument("--bands", help="comma-separated band labels, e.g. 0,1,2")
    p.add_argument("--output", default="evolve.csv")

    p = sub.add_parser("spectrum", help="quasienergies vs driving frequency")
    _add_config_flags(p)
    p.add_argument("--output", default="spectrum.csv")

    p = sub.add_parser("sweep", help="n_max / overlap / gap vs driving frequency")
    _add_config_flags(p)
    p.add_argument("--overlap-only", action="store_true",
                   help="skip population traces (spectra columns only)")
    p.add_argument("--output", default="sweep.csv")

    p = sub.add_parser("modes", help="sampled mode profiles at one frequency")
    _add_config_flags(p)
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--count", type=int, default=REPORTED_MODES)
    p.add_argument("--output", default="modes.csv")

    p = sub.add_parser("resonances", help="predicted resonances vs detected dips")
    _add_config_flags(p)
    p.add_argument("--sweep-csv", required=True,
                   help="sweep output providing the overlap curve")
    p.add_argument("--alpha-max", type=int, default=20)
    p.add_argument("--folds", type=int, default=2)
    p.add_argument("--output", default="resonances.csv")

    return parser


def _cmd_evolve(args) -> int:
    config, path = _configure(args)
    bands = None
    if args.bands is not None:
        try:
            bands = tuple(int(tok) for tok in args.bands.split(","))
        except ValueError as exc:
            raise ConfigError(f"--bands expects integer labels, got {args.bands!r}") from exc
    trace = run_evolution(config, bands=bands, method=args.method)
    return _finish(write_evolution_csv(path, config, trace))


def _finish(path, failures=()) -> int:
    print(path)
    for omega, error in failures:
        print(f"failed omega={omega:g}: {error}", file=sys.stderr)
    return 4 if failures else 0


def _cmd_spectrum(args) -> int:
    config, path = _configure(args)
    sweep = run_overlap_sweep(config)
    return _finish(write_spectrum_csv(path, sweep), sweep.failures)


def _cmd_sweep(args) -> int:
    config, path = _configure(args)
    sweep = run_overlap_sweep(config) if args.overlap_only else run_nmax_sweep(config)
    return _finish(write_sweep_csv(path, sweep), sweep.failures)


def _cmd_modes(args) -> int:
    config, path = _configure(args)
    spectrum = spectrum_at(config, config.lattice.omega, args.kappa)
    return _finish(write_modes_csv(path, config, spectrum, count=args.count))


def _cmd_resonances(args) -> int:
    config, path = _configure(args)
    omegas, overlaps = read_sweep_csv(args.sweep_csv, config.lattice)
    rows = pair_resonances(config.lattice, omegas, overlaps,
                           alpha_max=args.alpha_max, max_folds=args.folds)
    return _finish(write_resonances_csv(path, config, rows))


_COMMANDS = {
    "evolve": _cmd_evolve,
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
    "modes": _cmd_modes,
    "resonances": _cmd_resonances,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print(f"numerical tolerance violated: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
