"""Command-line experiment runner.

``levyhull run --config <path> [--seed <u64>] [--workers <n>] [--out <dir>]``
executes one configured experiment, writes ``report.csv`` / ``report.json``
plus each sample vector and table as ``samples/<name>.npy`` (float64, read
with ``numpy.load``; report.json names each table's columns), and exits 0
exactly when every verdict passes.

``levyhull emit-plot --report <report.json> --kind <k> [--out <dir>]``
re-reads a written report and emits plain CSV plot data
(ecdf-pair, qq, tail-loglog, scaling-table).
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import load_config
from .errors import LevyHullError
from .experiments import PLOT_KINDS, _output_dir, emit_plot_data, load_report, run, write_report


def _build_parser():
    parser = argparse.ArgumentParser(prog="levyhull", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("--config", required=True, help="configuration file (flat or JSON)")
    p_run.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_run.add_argument("--workers", type=int, default=None, help="override the worker count")
    p_run.add_argument("--out", default=None, help="override the output directory")

    p_plot = sub.add_parser("emit-plot", help="emit plot data from a written report")
    p_plot.add_argument("--report", required=True, help="path to report.json")
    p_plot.add_argument("--kind", required=True, choices=PLOT_KINDS)
    p_plot.add_argument("--out", default=None, help="output directory (default: beside the report)")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.out is not None:
        overrides["out"] = args.out
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    outdir = _output_dir(cfg.out or f"runs/{cfg.experiment}", "a report")
    report = run(cfg)
    json_path = write_report(report, outdir)
    for r in report.rows:
        verdict = "pass" if r.passed else "FAIL"
        t_part = "" if r.T != r.T else f"T={r.T:g} "
        print(f"[{verdict}] {t_part}{r.statistic} = {r.estimate:.6g} ({r.threshold})")
    print(f"report written to {json_path}")
    return 0 if report.passed else 1


def _cmd_emit_plot(args) -> int:
    report = load_report(args.report)
    outdir = args.out or Path(args.report).parent / "plots"
    paths = emit_plot_data(report, args.kind, outdir)
    for p in paths:
        print(p)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_emit_plot(args)
    except LevyHullError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
