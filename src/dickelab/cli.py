"""Command line entry points: scan, compare, oracle.

Exit codes: 0 success/pass, 1 threshold or check failure, 2 config/IO
error.
"""

import argparse
import json
import sys
from pathlib import Path

from .oracle import oracle_check
from .scan import ConfigError, compare_report, load_rows, parse_config, parse_thresholds, run_scan

ORACLE_TOL = 1e-10
ORACLE_NMAX = 6


def _cmd_scan(args) -> int:
    try:
        config = parse_config(args.config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        written = run_scan(config)
    except OSError as exc:
        print(f"cannot write scan output: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


def _cmd_compare(args) -> int:
    thresholds = None
    if args.thresholds is not None:
        try:
            thresholds = parse_thresholds(json.loads(Path(args.thresholds).read_text(encoding="utf-8")))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read thresholds: {exc}", file=sys.stderr)
            return 2
        except ConfigError as exc:
            print("invalid thresholds: " + "; ".join(exc.errors), file=sys.stderr)
            return 2
    try:
        rows = load_rows(args.data_dir)
    except (OSError, KeyError, ValueError) as exc:
        print(f"cannot load comparison data: {exc}", file=sys.stderr)
        return 2
    report = compare_report(rows, thresholds)
    header = f"{'quantity':<12} {'rows':>5} {'enforced':>8} {'max_dev':>12} {'median_dev':>12} {'threshold':>10} {'status':>8}"
    print(header)
    for q in report.quantities:
        fmt = lambda v: "-" if v is None else f"{v:.6f}"
        status = "-" if q.passed is None else ("pass" if q.passed else "FAIL")
        print(f"{q.quantity:<12} {q.n_rows:>5} {q.n_enforced:>8} {fmt(q.max_deviation):>12} "
              f"{fmt(q.median_deviation):>12} {fmt(q.threshold):>10} {status:>8}")
    print(f"overall: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_oracle(args) -> int:
    try:
        config = parse_config(args.config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    worst = 0.0
    for ratio in config.g_over_gc:
        try:
            report = oracle_check(config.params_at(ratio), ORACLE_NMAX)
        except ValueError as exc:
            print(f"oracle cross-check not possible: {exc}", file=sys.stderr)
            return 2
        worst = max(worst, report.max_spectrum_deviation)
        print(f"g/g_c={ratio:g}  max spectrum deviation = {report.max_spectrum_deviation:.3e}")
    ok = worst <= ORACLE_TOL
    print(f"oracle check: {'pass' if ok else 'FAIL'} (worst {worst:.3e}, tolerance {ORACLE_TOL:.0e})")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dickelab",
        description="Coupling sweeps and ED-vs-analytic comparisons for the qubit-cavity model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="run a sweep from a JSON config and write data files")
    p_scan.add_argument("config", help="path to the run configuration (JSON)")
    p_scan.set_defaults(func=_cmd_scan)

    p_cmp = sub.add_parser("compare", help="check written sweep data against deviation thresholds")
    p_cmp.add_argument("data_dir", help="directory holding scan output CSVs")
    p_cmp.add_argument("--thresholds", help="JSON file {quantity: max_rel_deviation}", default=None)
    p_cmp.set_defaults(func=_cmd_compare)

    p_orc = sub.add_parser("oracle", help="cross-check the Hamiltonian against the 2^N brute force")
    p_orc.add_argument("config", help="path to the run configuration (JSON)")
    p_orc.set_defaults(func=_cmd_oracle)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
