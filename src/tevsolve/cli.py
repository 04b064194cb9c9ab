"""Command-line front end.

    tevsolve spectrum  --config cfg.json [overrides]
    tevsolve grid      --config cfg.json [overrides]
    tevsolve converge  --config cfg.json --side below|above [overrides]
    tevsolve sweep     --config cfg.json [overrides]
    tevsolve selftest

Flags override config keys.  Exit codes: 0 success, 2 configuration error
(any bad input: a value, a degenerate curve, an unwritable output file),
3 numerical failure, 4 partial results.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .errors import ConfigError, NumericalError
from .studies import (
    COMMANDS,
    CONFIG_KEYS,
    StudyConfig,
    config_from_dict,
    converge_table,
    display,
    grid_table,
    run_contour_grid,
    run_convergence_study,
    run_monotonicity_sweep,
    run_spectrum,
    spectrum_table,
    sweep_table,
    write_flag,
    write_table,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_PARTIAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tevsolve",
        description="Interior transmission eigenvalues with two conductive boundary parameters",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in zip(COMMANDS, (
        "compute the eigenvalue list",
        "|d_m| lattice over a complex rectangle",
        "lambda -> 1 convergence/EOC study",
        "monotonicity sweep over n, eta, or lambda",
    )):
        sp = sub.add_parser(command, help=text)
        sp.add_argument("--config", help="JSON configuration file")
        for key in CONFIG_KEYS:
            if key.flag and command in key.commands:
                sp.add_argument(key.flag, dest=key.path, type=_split if key.comma else None,
                                choices=key.choices, help=key.help,
                                metavar=None if key.choices else key.name.upper())
        sp.add_argument("-q", "--quiet", action="store_true", help="suppress the stdout table")
    sub.add_parser("selftest", help="run the built-in oracle suites")
    return parser


def _split(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def _load_config(args: argparse.Namespace) -> StudyConfig:
    """The config file's document with the given flags written into it."""
    doc = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    flags = vars(args)
    for key in CONFIG_KEYS:
        if flags.get(key.path) is not None:
            write_flag(doc, key, flags[key.path])
    return config_from_dict(doc)


def _run_selftest() -> int:
    from .selftest import run_selftest

    results = run_selftest()
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] {r.name} ({r.seconds:.1f}s) - {r.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERICAL


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "selftest":
        return _run_selftest()
    try:
        cfg = _load_config(args)
        partial: list = []
        if args.command == "spectrum":
            table = spectrum_table(run_spectrum(cfg, partial_errors=partial))
        elif args.command == "converge":
            table = converge_table(run_convergence_study(cfg))
        elif args.command == "sweep":
            result = run_monotonicity_sweep(cfg)
            if any(not r.complete for r in result.rows):
                partial.append("incomplete sweep rows")
            table = sweep_table(result)
        else:  # grid; argparse admits no other command
            table = grid_table(run_contour_grid(cfg))
        text = write_table(table, cfg.out, cfg.fmt)
        if not args.quiet:
            if args.command == "grid" and cfg.out:
                print(f"wrote {len(table) - 1} lattice points to {cfg.out}")
            else:
                print(display(table))
        elif cfg.out is None:
            sys.stdout.write(text)
        return EXIT_PARTIAL if partial else EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
