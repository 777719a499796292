"""Command line front end: run one scenario, sweep policies, or validate a file.

Exit status is 0 on success, 2 on scenario parse/validation problems and 1 on
any other failure.  Results go to --out or stdout.
"""

import argparse
import sys

from .engine import run
from .errors import ParseError, SfcSchedError, ValidationError
from .reporting import (emit_results, read_scenario_file, render_results,
                        report_rows, run_sweep, scenario_from_dict, sweep_from_dict)
from .scenario import POLICY_NAMES


def _add_common(parser):
    parser.add_argument("--scenario", help="scenario file (JSON); defaults apply")
    parser.add_argument("--policy", choices=POLICY_NAMES,
                        help="override the scenario policy")
    parser.add_argument("--seed", type=int, help="override the rng seed")
    parser.add_argument("--out", help="output path (stdout when omitted)")
    parser.add_argument("--format", choices=("csv", "structured"), default="csv")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sfcsched",
        description="Chain scheduling simulator: fair weighted vs greedy policies")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="simulate one scenario")
    _add_common(run_p)
    sweep_p = sub.add_parser("sweep", help="policy comparison sweep")
    _add_common(sweep_p)
    sweep_p.add_argument("--var", choices=("demand", "load"), default="demand",
                         help="sweep the demand count or the background load")
    val_p = sub.add_parser("validate", help="parse and validate a scenario file")
    val_p.add_argument("--scenario", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # read once: the file may be a pipe
        raw = read_scenario_file(args.scenario) if args.scenario is not None else {}
        scenario = scenario_from_dict(raw)
        # every command checks the whole file, the sweep section included
        sweep = sweep_from_dict(raw, scenario)
        if args.command == "validate":
            print(f"{args.scenario}: ok")
            return 0
        if args.seed is not None:
            scenario = scenario.with_overrides(rng_seed=args.seed)
        if args.policy is not None:
            scenario = scenario.with_overrides(policy=args.policy)
        if args.command == "run":
            rows = report_rows([run(scenario)], "demand", scenario.request_count)
        else:
            if args.policy is not None:
                sweep.policies = (args.policy,)
            rows = run_sweep(scenario, sweep, var=args.var)
        if args.out:
            emit_results(rows, args.out, args.format)
        else:
            sys.stdout.write(render_results(rows, args.format))
        return 0
    except SfcSchedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParseError, ValidationError)) else 1


if __name__ == "__main__":
    sys.exit(main())
