"""Command line entry points.

``mdtube run <config>`` executes a scenario config and writes its
artifacts; ``mdtube verify`` runs the acceptance test suite.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .scenarios import ConfigError, parse_config, run_scenario


def _cmd_run(args) -> int:
    try:
        config = parse_config(args.config)
        if args.levels is not None:
            config = replace(config, levels=args.levels)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or config.out_dir
    try:
        run_scenario(config, out_dir)
    except Exception as exc:
        print(f"error: scenario failed: {exc}", file=sys.stderr)
        return 1
    print(f"wrote outputs to {out_dir}")
    return 0


def _cmd_verify(_args) -> int:
    import pytest

    here = Path(__file__).resolve()
    candidates = [here.parents[2] / "tests" / "test_acceptance.py",
                  Path.cwd() / "tests" / "test_acceptance.py"]
    for candidate in candidates:
        if candidate.is_file():
            # -s keeps the per-criterion PASS/FAIL report lines visible
            return pytest.main(["-v", "-s", str(candidate)])
    print("error: tests/test_acceptance.py not found; run from the "
          "repository root", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mdtube",
        description="Mixed-dimensional tube-network diffusion solver")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config")
    run_p.add_argument("config", help="path to a scenario config file")
    run_p.add_argument("--out", help="output directory (overrides config)")
    run_p.add_argument("--levels", type=int,
                       help="number of refinement levels (overrides config)")
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify", help="run the acceptance suite")
    verify_p.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":                  # pragma: no cover
    sys.exit(main())
