"""Command-line interface: one subcommand per computation family.

Units are hbar = 1 throughout; energies, masses and lengths must be
mutually consistent (k = sqrt(2 m E)).  Every subcommand reads one JSON
config and writes deterministic CSV/JSON result files plus a metadata
sidecar.  Exit status: 0 success, 1 configuration error, 2 physics-level
failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import NamedTuple

from .scenarios import bundled_regression_config, run_scenario


class Command(NamedTuple):
    scenario: str
    help: str
    dump_flag: tuple[str, str] | None = None  # (flag, help) of the runner's dump option
    bundled_config: bool = False  # --config may be omitted for the bundled regression model


COMMANDS = {
    "scatter": Command("scatter_scan", "phase-shift and amplitude scan over an energy range",
                       ("--dump-wavefunction",
                        "also write radial wave functions as CSV (r, Re phi, Im phi)")),
    "dwell": Command("dwell_scan", "dwell/phase time report scan (CSV)"),
    "winful1d": Command("winful_1d",
                        "1-d barrier dwell time split into phase time plus self-interference"),
    "kp": Command("kp_find", "outgoing-boundary complex eigenvalue search",
                  ("--dump-eigenfunctions",
                   "also write each eigenfunction as CSV (r, Re phi, Im phi)")),
    "threebody": Command("three_body", "separable three-body dwell time and lifetime report"),
    "verify": Command("identity_suite", "run every identity check against a model set",
                      bundled_config=True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwelltime",
        description=(
            "Quantum dwell/phase times and outgoing-boundary resonances for "
            "finite-range potentials.  All quantities use hbar = 1 with "
            "consistent user units, k = sqrt(2 m E)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.bundled_config:
            p.add_argument("--config", default=None,
                           help="scenario config JSON (default: bundled regression model)")
        else:
            p.add_argument("--config", required=True, help="scenario config JSON")
        p.add_argument("--out", default=None, help="directory for result files")
        if command.dump_flag is not None:
            flag, help_text = command.dump_flag
            p.add_argument(flag, dest="dump", action="store_true", help=help_text)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use and then reused."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    config = args.config
    if config is None:
        config = bundled_regression_config()
    return run_scenario(config, out_dir=args.out,
                        scenario_override=COMMANDS[args.command].scenario,
                        dump=getattr(args, "dump", False))


if __name__ == "__main__":
    sys.exit(main())
