"""Command-line interface: one subcommand per computation family.

Units are hbar = 1 throughout; energies, masses and lengths must be
mutually consistent (k = sqrt(2 m E)).  Every subcommand reads one JSON
config and writes deterministic CSV/JSON result files plus a metadata
sidecar.  Exit status: 0 success, 1 configuration error, 2 physics-level
failure.
"""

from __future__ import annotations

import argparse
import sys

from .scenarios import bundled_regression_config, run_scenario

_SUBCOMMANDS = {
    "scatter": "scatter_scan",
    "dwell": "dwell_scan",
    "winful1d": "winful_1d",
    "kp": "kp_find",
    "threebody": "three_body",
    "verify": "identity_suite",
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

    specs = {
        "scatter": "phase-shift and amplitude scan over an energy range",
        "dwell": "dwell/phase time report scan (CSV)",
        "winful1d": "1-d barrier dwell time split into phase time plus self-interference",
        "kp": "outgoing-boundary complex eigenvalue search",
        "threebody": "separable three-body dwell time and lifetime report",
        "verify": "run every identity check against a model set",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        if name == "verify":
            p.add_argument("--config", default=None,
                           help="scenario config JSON (default: bundled regression model)")
        else:
            p.add_argument("--config", required=True, help="scenario config JSON")
        p.add_argument("--out", default=None, help="directory for result files")
        if name == "scatter":
            p.add_argument("--dump-wavefunction", action="store_true",
                           help="also write radial wave functions as CSV (r, Re phi, Im phi)")
        if name == "kp":
            p.add_argument("--dump-eigenfunctions", action="store_true",
                           help="also write each eigenfunction as CSV (r, Re phi, Im phi)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = args.config
    if config is None:
        config = bundled_regression_config()
    return run_scenario(
        config,
        out_dir=args.out,
        scenario_override=_SUBCOMMANDS[args.command],
        dump_wavefunction=getattr(args, "dump_wavefunction", False),
        dump_eigenfunctions=getattr(args, "dump_eigenfunctions", False),
    )


if __name__ == "__main__":
    sys.exit(main())
