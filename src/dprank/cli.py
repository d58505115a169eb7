"""Command-line entry points: synth, eval, sweep, report.

Exit codes: 0 success, 1 config validation failure, 2 runtime failure,
3 privacy-budget overdraft.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import ConfigError, ExperimentConfig, run_eval, run_sweep, \
    run_synth, summarize
from .privacy import PrivacyOverdraftError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_OVERDRAFT = 3


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config)
    if args.out is not None:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.threads is not None:
        cfg.threads = args.threads
    return cfg


def _add_common(parser):
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--threads", type=int,
                        help="parallel worker processes for independent runs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dprank",
        description="Differentially private graph synthesis experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="train and synthesize graphs")
    _add_common(p_synth)

    p_eval = sub.add_parser("eval", help="evaluate synthetic runs")
    p_eval.add_argument("--original", required=True, help="original edge list")
    p_eval.add_argument("--synthetic-dir", required=True,
                        help="directory produced by synth")
    p_eval.add_argument("--out", help="report output directory")
    p_eval.add_argument("--downstream", action="store_true",
                        help="also run link prediction / node classification")
    p_eval.add_argument("--labels", help="node-id,class-id CSV for classification")

    p_sweep = sub.add_parser("sweep", help="synth + eval across epsilons")
    _add_common(p_sweep)

    p_report = sub.add_parser("report", help="print a report summary")
    p_report.add_argument("--dir", required=True, help="evaluated directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            cfg = _load_config(args)
            out = run_synth(cfg)
            print(f"synthesis outputs written to {out}")
        elif args.command == "eval":
            if args.labels is not None and not args.downstream:
                # the labels are read only by the downstream classifier
                raise ConfigError(["--labels requires --downstream; pass "
                                   "both to score node classification"])
            run_eval(args.original, args.synthetic_dir, out_dir=args.out,
                     downstream=args.downstream,
                     labels_path=args.labels)
            out = args.out or args.synthetic_dir
            print(f"evaluation report written to {out}")
        elif args.command == "sweep":
            cfg = _load_config(args)
            out = run_sweep(cfg)
            print(f"sweep outputs written to {out}")
        elif args.command == "report":
            print(summarize(args.dir))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PrivacyOverdraftError as exc:
        print(f"privacy overdraft: {exc}", file=sys.stderr)
        return EXIT_OVERDRAFT
    except Exception as exc:  # CLI boundary: report and set the exit code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
