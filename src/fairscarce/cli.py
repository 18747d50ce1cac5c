"""Command-line interface.

Subcommands:
  make-demo   write the bundled census-like corpus and its schema
  train-attr  phase 1: train the attribute classifier, emit proxies
  train-fair  phase 2: train one fair (or unconstrained) model from a run dir
              and print the header and the one row of its results.csv
  sweep       (variant x slack x seed) sweep over a run dir, from a config file
  fig2        the uncertainty-threshold study CSV
  table       mean/std summary rows from a sweep's results.csv

Exit codes: 0 success, 1 the run itself failed, 2 bad input or usage.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__, attribute, harness, metrics, synthdata
from .errors import ConfigError, FairscarceError


def _require_at_least(flag: str, value, low) -> None:
    """Numbers from the command line are checked before any work starts."""
    if value < low:
        raise ConfigError(f"{flag} must be >= {low}, got {value}")


def _require_finite(flag: str, value: float) -> None:
    # argparse's float() accepts "nan" and "inf"
    if not math.isfinite(value):
        raise ConfigError(f"{flag} must be a finite number, got {value}")


def _require_out_file(out) -> None:
    """An --out file that could not be written fails before any work starts."""
    path = Path(out)
    if path.is_dir() or not path.parent.is_dir():
        raise ConfigError(f"--out {path}: " + ("is a directory" if path.is_dir()
                                               else f"{path.parent} is not a directory"))


def _cmd_make_demo(args) -> int:
    _require_at_least("--rows", args.rows, 1)
    _require_at_least("--seed", args.seed, 0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    synthdata.write_corpus(out / "census.csv", args.rows, args.seed)
    synthdata.write_schema(out / "census.schema")
    print(f"wrote {out / 'census.csv'} ({args.rows} rows) and {out / 'census.schema'}")
    return 0


def _cmd_train_attr(args) -> int:
    cfg = attribute.AttrTrainConfig(seed=args.seed, epochs=args.epochs,
                                    lambda_max=args.lambda_max)
    artifacts = harness.run_attribute_phase(
        args.data, args.schema, args.out, ratio=args.ratio,
        test_fraction=args.test_fraction, seed=args.seed, train_config=cfg,
        lenient=args.lenient)
    summary = artifacts.config
    print(f"run dir: {args.out}")
    if args.lenient:
        print(f"malformed rows dropped: {summary['rows_dropped']}")
    print(f"epochs run: {summary['epochs_run']}  "
          f"test attribute accuracy: {summary['test_attr_accuracy']:.4f}  "
          f"mean D1 uncertainty: {summary['d1_mean_uncertainty']:.4f}")
    return 0


def _cmd_train_fair(args) -> int:
    _require_finite("--eps", args.eps)
    _require_finite("--H", args.H)
    _require_at_least("--eps", args.eps, 0.0)
    _require_at_least("--H", args.H, 0.0)
    _require_at_least("--seed", args.seed, 0)
    source = harness.parse_uncertainty_source(args.uncertainty_source)
    if args.out:
        _require_out_file(args.out)
    artifacts = harness.load_run(args.run)
    if args.proxies:
        artifacts.proxies = harness.load_checked_proxies(args.proxies,
                                                         artifacts.split.d1.sample_ids)
    report, _ = harness.run_cell(artifacts, args.variant, args.constraint, args.eps,
                                 args.seed, args.H, source)
    text = harness.RESULTS_HEADER + "\n" + harness.results_row(
        args.variant, args.constraint, args.eps, args.seed, args.H, source, report) + "\n"
    print(text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _cmd_sweep(args) -> int:
    config = harness.parse_sweep_config(args.config)
    outcome = harness.run_sweep(config, progress=lambda msg: print(msg, flush=True))
    print(f"results: {outcome.results_path}")
    print(f"pareto:  {outcome.pareto_path}")
    print(f"manifest: {outcome.manifest_path}")
    if outcome.n_failed:
        print(f"{outcome.n_failed} cell(s) failed; see manifest", file=sys.stderr)
        return 1
    return 0


def _cmd_fig2(args) -> int:
    try:
        grid = [float(v) for v in args.grid.split(",")] if args.grid else None
    except ValueError:
        raise ConfigError(f"--grid must be comma-separated numbers, got {args.grid!r}") from None
    for h_cut in grid or ():
        _require_finite("--grid", h_cut)
    _require_at_least("--seeds", args.seeds, 1)
    _require_at_least("--seed", args.seed, 0)
    if args.out is not None:
        _require_out_file(args.out)
    artifacts = harness.load_run(args.run)
    out = Path(args.run) / "fig2.csv" if args.out is None else Path(args.out)
    kwargs = {"seeds": args.seeds, "base_seed": args.seed}
    if grid:
        kwargs["h_grid"] = grid
    harness.fig2_study(artifacts, out, **kwargs)
    print(f"wrote {out}")
    return 0


def _cmd_table(args) -> int:
    results = Path(args.run) / "results.csv"
    for line in harness.table_summary(results):
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairscarce", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"fairscarce {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-demo", help="write the bundled census-like corpus")
    p.add_argument("--rows", type=int, default=48842)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="data")
    p.set_defaults(func=_cmd_make_demo)

    p = sub.add_parser("train-attr", help="train the sensitive-attribute classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--ratio", type=float, default=0.2)
    p.add_argument("--test-fraction", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lambda-max", type=float, default=1.0)
    p.add_argument("--lenient", action="store_true", help="drop malformed rows instead of failing")
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=_cmd_train_attr)

    p = sub.add_parser("train-fair", help="train one fair-phase model")
    p.add_argument("--variant", required=True, choices=harness.VARIANTS)
    p.add_argument("--constraint", default="dp", choices=metrics.GAPS)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--H", type=float, default=0.3)
    p.add_argument("--proxies", default=None,
                   help="proxy csv listing the run's d1 rows in d1 row order "
                        "(defaults to the run directory's proxies.csv)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--uncertainty-source", default="mc-dropout",
                   help=f"which rows count as certain: {harness.SOURCE_FORMS}")
    p.add_argument("--run", required=True, help="run directory from train-attr")
    p.add_argument("--out", default=None,
                   help="also write the header and the one results.csv row to this file")
    p.set_defaults(func=_cmd_train_fair)

    p = sub.add_parser("sweep", help="run a sweep from a key=value config file")
    p.add_argument("--config", required=True,
                   help="a file of key = value lines; keys: " + ", ".join(harness._SWEEP_KEYS))
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fig2", help="uncertainty-threshold study")
    p.add_argument("--run", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--grid", default=None, help="comma-separated H values")
    p.add_argument("--seeds", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("table", help="summary rows from a sweep run directory")
    p.add_argument("--run", required=True)
    p.set_defaults(func=_cmd_table)
    return parser


def main(argv=None) -> int:
    # argparse exits with 2 on usage errors already
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        # an OSError is a path that cannot be read or written as asked
        # (missing, a directory, an existing file): bad usage, like a bad setting
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FairscarceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
