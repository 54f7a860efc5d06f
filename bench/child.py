"""One benchmark run in a fresh interpreter.

    python3 bench/child.py run   --config C --seed N --workers W --out DIR --result R [--spans S]
    python3 bench/child.py setup --config C --seed N --result R
    python3 bench/child.py pool  --config C --seed N --result R

``run`` times set-up (``import levyhull`` plus ``load_config``) and then
``experiments.run`` followed by ``write_report``, and reports this process's
own peak resident memory; with ``--spans`` it traces the run and saves the
spans.  ``setup`` stops after set-up.  ``pool`` times the process pool of
``experiments._collect_blocks``.  The result is a JSON file; the report goes
to ``--out``.  ``levyhull`` must be importable (the caller sets PYTHONPATH).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import resource
import statistics
from time import perf_counter


def _parse(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("run", "setup", "pool"))
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--result", required=True)
    p.add_argument("--spans")
    return p.parse_args(argv)


def _pool_probe(cfg, experiments, repeats=5):
    """Pool start cost (one-block draw at two workers minus one worker) and
    the two-worker speed-up of the full hull draw."""
    model, T = cfg.model, cfg.t_grid[-1]

    def timed(fn, *args):
        t = perf_counter()
        fn(*args)
        return perf_counter() - t

    one_block = (model, T, experiments.BLOCK, cfg.seed, "pool-probe", cfg.cutoff)
    timed(experiments.draw_quintuples, *one_block, 1)  # warm caches
    blocks = {1: [], 2: []}
    for k in range(repeats):
        for w in ((1, 2) if k % 2 == 0 else (2, 1)):
            blocks[w].append(timed(experiments.draw_quintuples, *one_block, w))
    hull = (model, T, cfg.reps, cfg.seed, "identity-hull")
    w1 = timed(experiments.draw_hull_stats, *hull, 1)
    w2 = timed(experiments.draw_hull_stats, *hull, 2)
    return {
        "pool_start_s": statistics.median(blocks[2]) - statistics.median(blocks[1]),
        "draw_hull_stats_w1_s": w1,
        "draw_hull_stats_w2_s": w2,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    t0 = perf_counter()
    import levyhull
    from levyhull import config, experiments

    cfg = config.load_config(args.config)
    setup_s = perf_counter() - t0
    cfg = dataclasses.replace(cfg, seed=args.seed, workers=args.workers)

    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "levyhull_file": levyhull.__file__,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.mode == "pool":
        result.update(_pool_probe(cfg, experiments))
    elif args.mode == "run":
        tracer = None
        if args.spans:
            import tracing

            tracer = tracing.Tracer(f"{cfg.experiment}/{cfg.seed}/{args.workers}")
            tracing.install(tracer)
        t1 = perf_counter()
        report = experiments.run(cfg)
        experiments.write_report(report, args.out)
        result["wall_s"] = perf_counter() - t1
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if tracer is not None:
            tracer.save(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
