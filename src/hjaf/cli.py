"""Command-line front end.

``solve`` runs a refinement study of an evolution problem; ``indicators``
dumps detection maps for one of the fixed singular functions.  Exit code 0
on success, nonzero with a message on configuration, stability or oracle
failures.  Every CSV uses '.' decimals, comma separators and a header row.

Each option's destination is a field of the run config (``CliConfig``,
``IndicatorRunConfig``) and an option left out is not set, so every
default lives in the config dataclass alone.
"""
from __future__ import annotations

import argparse
import sys

from .filtering import SCHEME_NAMES, EvolutionError
from .harness import (CliConfig, IndicatorRunConfig, run_convergence,
                      run_indicators)
from .indicators2d import Formula2D
from .monotone import CflViolation
from .problems import INDICATOR_IDS, PLACEMENTS, PROBLEM_IDS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjaf",
        description="Adaptive filtered Hamilton-Jacobi solver and "
                    "smoothness-indicator benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="refinement study of an evolution problem",
                           argument_default=argparse.SUPPRESS)
    solve.add_argument("--test", dest="test_id", required=True,
                       choices=PROBLEM_IDS, help="problem id")
    solve.add_argument("--scheme", choices=SCHEME_NAMES)
    solve.add_argument("--refinements", type=int)
    solve.add_argument("--K", type=float,
                       help="safety factor on the switching scale (> 1/2)")
    solve.add_argument("--M", type=float,
                       help="smoothness threshold in (0, 1/2)")
    solve.add_argument("--sigma", type=float,
                       help="desingularization constant")
    solve.add_argument("--indicator", choices=[f.value for f in Formula2D])
    solve.add_argument("--epsilon-fixed", type=float,
                       help="fixed switching scale for f-hc-fixed "
                            "(default 20*dx per level)")
    solve.add_argument("--lw2-corrected", action="store_true",
                       help="use the symmetric staggered secants in the "
                            "lw2/richtmyer schemes instead of the legacy "
                            "index pattern")
    solve.add_argument("--out", dest="out_dir", metavar="OUT",
                       help="output directory")

    ind = sub.add_parser("indicators", help="detection maps for a fixed function",
                         argument_default=argparse.SUPPRESS)
    ind.add_argument("--test", dest="test_id", required=True,
                     choices=INDICATOR_IDS)
    ind.add_argument("--dx", type=float)
    ind.add_argument("--placement", choices=PLACEMENTS)
    ind.add_argument("--variant",
                     help="full|partial|split in 2D; raw|mapped-g|weno-z|"
                          "weno-z-new in 1D (default: full / mapped-g)")
    ind.add_argument("--M", type=float)
    ind.add_argument("--sigma", type=float)
    ind.add_argument("--out", dest="out_dir", metavar="OUT",
                     help="output directory")
    return parser


def main(argv=None) -> int:
    options = vars(_build_parser().parse_args(argv))
    command = options.pop("command")
    try:
        if command == "solve":
            run_convergence(CliConfig(**options)).write_csv(sys.stdout)
        else:
            result = run_indicators(IndicatorRunConfig(**options))
            flagged = int((result.phi == 0).sum())
            print(f"nodes={result.phi.size} flagged={flagged}")
        return 0
    except (ValueError, KeyError, CflViolation, EvolutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
