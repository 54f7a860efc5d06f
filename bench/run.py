"""levyhull benchmark: time to a criterion verdict, end to end and per layer.

    python3 bench/run.py --workload identity|clt|tail|hull-battery|all
                         [--seed N] [--seconds S] [--trace 0|1]

Untraced (``--trace 0``): a closed loop of fresh interpreters, one run at a
time, each running the workload's config end to end, until ``--seconds``
have passed (at least two runs).  Prints ``wall_s`` (the fastest run: on a
shared host the minimum is far steadier than the median), the median
``setup_s`` and ``peak_rss_mb``, and ``fail_share`` per workload, then a
provenance line and, last, one JSON object.  Traced (``--trace 1``): one pass that traces every
workload once at ``workers = 1`` and prints the per-layer metrics.  The seed
defaults to each config's shipped seed.  Every run's report is checked by the
gate in ``workloads.py``; the exit code is 0 only when it passes.  See
bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracing
from workloads import (
    EXPECTED_ROWS,
    WORKLOADS,
    check_report,
    config_hash_differs,
    tree_digest,
)

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 5      # set-up timings per workload: runs plus set-up-only probes
MIN_RUNS = 2           # so that every untraced run checks repeat determinism
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150


def metric_units():
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them;
    a single value is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class Runner:
    """Starts one child interpreter at a time inside a scratch directory of
    the checkout, and removes the directory on close."""

    def __init__(self):
        base = ROOT / ".bench_tmp"
        base.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=base))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.count = 0
        self.versions = None

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass

    def path(self, stem):
        self.count += 1
        return self.tmp / f"{self.count:04d}-{stem}"

    def spawn(self, cmd):
        """Run ``cmd`` in its own session; kill the whole group on timeout
        so that no pool worker outlives it.  Returns (code, stdout, stderr)."""
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
            raise
        return proc.returncode, out, err

    def child(self, mode, workload, seed, workers=1, out=None, spans=None):
        """One ``child.py`` run; returns its result dict or None if it failed."""
        w = WORKLOADS[workload]
        result = self.path(f"{workload}-{mode}.json")
        cmd = [sys.executable, str(BENCH / "child.py"), mode, "--config", str(ROOT / w.config),
               "--seed", str(seed), "--workers", str(workers), "--result", str(result)]
        if out is not None:
            cmd += ["--out", str(out)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        code, _, err = self.spawn(cmd)
        if code != 0:
            sys.stderr.write(f"{workload} {mode} run failed (exit {code}):\n{err[-2000:]}\n")
            return None
        res = json.loads(result.read_text())
        if not Path(res["levyhull_file"]).resolve().is_relative_to(ROOT / "src"):
            sys.stderr.write(f"imported levyhull from {res['levyhull_file']}, not from src/\n")
            return None
        self.versions = res["versions"]
        return res

    def import_times(self):
        """Cumulative import seconds of levyhull and scipy.integrate from
        ``python -X importtime``."""
        code, _, err = self.spawn([sys.executable, "-X", "importtime", "-c", "import levyhull"])
        if code != 0:
            raise RuntimeError(f"import levyhull failed:\n{err[-2000:]}")
        return import_cumulative(err, "levyhull"), import_cumulative(err, "scipy.integrate")


def import_cumulative(text, package):
    """Cumulative seconds spent importing ``package`` and its submodules,
    from ``-X importtime`` output.  scipy loads subpackages lazily, so the
    package's own line can be missing; the outermost lines of the package's
    modules are summed instead."""
    lines = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)\s*$", line)
        if m:
            lines.append((len(m.group(2)), m.group(3), int(m.group(1))))

    def member(name):
        return name == package or name.startswith(package + ".")

    total, enclosing = 0, {}
    # the output is in post-order; reversed, every module follows its parent
    for depth, name, cumulative in reversed(lines):
        enclosing = {d: n for d, n in enclosing.items() if d < depth}
        if member(name) and not any(member(n) for n in enclosing.values()):
            total += cumulative
        enclosing[depth] = name
    return total / 1e6


# ---------------------------------------------------------------------------
# untraced runs
# ---------------------------------------------------------------------------

class Tally:
    """Rows attempted and failed, and whether every check passed."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.ok = True
        self.notes = []

    def rows(self, workload, failed, note=None):
        self.attempted += len(EXPECTED_ROWS[workload])
        self.failed += failed
        if failed:
            self.ok = False
            self.notes.append(note or f"{workload}: {failed} row(s) differ from the expected verdict")

    def fail(self, note):
        self.ok = False
        self.notes.append(note)


def run_untraced(runner, workload, seed, seconds, tally):
    """Closed loop of end-to-end runs; returns metric -> list of samples."""
    w = WORKLOADS[workload]
    shipped = seed == w.shipped_seed
    samples = {"wall_s": [], "setup_s": [], "peak_rss_mb": []}
    reference = None
    runs = 0
    deadline = perf_counter() + seconds
    while runs < MIN_RUNS or perf_counter() < deadline:
        runs += 1
        out = runner.path(f"{workload}-report")
        res = runner.child("run", workload, seed, w.workers, out=out)
        if res is None:
            tally.rows(workload, len(EXPECTED_ROWS[workload]), f"{workload}: a run raised")
            continue
        failed = check_report(workload, out, shipped)
        digest = tree_digest(out)
        reference = reference or digest
        if digest != reference:
            tally.rows(workload, len(EXPECTED_ROWS[workload]),
                       f"{workload}: report bytes differ between repeats of seed {seed}")
        else:
            tally.rows(workload, failed)
        shutil.rmtree(out, ignore_errors=True)
        for k in samples:
            samples[k].append(res[k])
    while len(samples["setup_s"]) < SETUP_SAMPLES:
        res = runner.child("setup", workload, seed)
        if res is None:
            tally.fail(f"{workload}: a set-up probe failed")
            break
        samples["setup_s"].append(res["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# traced pass
# ---------------------------------------------------------------------------

def seed_for(workload, seed_arg):
    """The seed given on the command line, else the config's shipped seed."""
    return WORKLOADS[workload].shipped_seed if seed_arg is None else seed_arg


def run_traced(runner, seed_arg, tally):
    """Trace every workload once at workers 1, and time the untraced
    counterparts the per-layer metrics compare against."""
    spans, traced_wall, untraced_wall, outs = {}, {}, {}, {}
    for name, w in WORKLOADS.items():
        seed = seed_for(name, seed_arg)
        out, span_file = runner.path(f"{name}-traced"), runner.path(f"{name}-spans.npz")
        res = runner.child("run", name, seed, 1, out=out, spans=span_file)
        if res is None:
            tally.rows(name, len(EXPECTED_ROWS[name]), f"{name}: the traced run raised")
            continue
        tally.rows(name, check_report(name, out, seed == w.shipped_seed))
        spans[name] = tracing.load_spans(span_file)
        traced_wall[name] = res["wall_s"]
        outs[name] = out
    for name, w in WORKLOADS.items():
        if name not in outs:
            continue
        seed = seed_for(name, seed_arg)
        out = runner.path(f"{name}-untraced")
        res = runner.child("run", name, seed, w.workers, out=out)
        if res is None:
            tally.rows(name, len(EXPECTED_ROWS[name]), f"{name}: the untraced run raised")
            continue
        failed = check_report(name, out, seed == w.shipped_seed)
        # traced and untraced reports must agree byte for byte; across worker
        # counts only provenance.config_hash may differ (it hashes `workers`)
        canonical = w.workers != 1
        if tree_digest(out, canonical) != tree_digest(outs[name], canonical):
            tally.rows(name, len(EXPECTED_ROWS[name]),
                       f"{name}: report at workers {w.workers} differs from the traced workers-1 report")
        else:
            tally.rows(name, failed)
            if canonical and config_hash_differs(out, outs[name]):
                tally.notes.append(
                    f"{name}: report.json at workers {w.workers} differs from workers 1 only in "
                    "provenance.config_hash, which hashes the worker count"
                )
        if w.workers == 1:
            untraced_wall[name] = res["wall_s"]

    metrics = tracing.layer_metrics(list(spans.values()))
    common = [n for n in untraced_wall if n in traced_wall]
    base = sum(untraced_wall[n] for n in common)
    overhead = sum(traced_wall[n] for n in common) / base - 1.0 if base else 0.0
    metrics["trace.overhead_share"] = overhead
    for name, s in spans.items():
        own = tracing.self_times(s["start"], s["end"], s["parent"])
        gap = abs(own.sum() / 1e9 - traced_wall[name]) / traced_wall[name]
        if (own < 0).any() or gap > max(overhead, 1e-3):
            tally.fail(f"{name}: span self times do not partition the traced wall time "
                       f"(gap {gap:.2%}, overhead {overhead:.2%})")

    pool = runner.child("pool", "identity", seed_for("identity", seed_arg))
    if pool is None:
        tally.fail("identity: the pool probe failed")
        pool = {"pool_start_s": 0.0, "draw_hull_stats_w1_s": 0.0, "draw_hull_stats_w2_s": 0.0}
    metrics["experiments.pool_start_s"] = pool["pool_start_s"]
    metrics["experiments.draw_hull_stats.w2_speedup"] = tracing.ratio(
        pool["draw_hull_stats_w1_s"], pool["draw_hull_stats_w2_s"]
    )
    imports = [runner.import_times() for _ in range(IMPORT_SAMPLES)]
    metrics["import.levyhull.cumulative_s"] = statistics.median(i[0] for i in imports)
    metrics["import.scipy_integrate.cumulative_s"] = statistics.median(i[1] for i in imports)
    return metrics


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------

def git_commit():
    """Commit of the checkout read from .git, or None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=None,
                   help="config seed for every run (default: each config's shipped seed)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measuring time per workload of an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _check_layout():
    missing = [str(p) for p in (ROOT / "src" / "levyhull" / "__init__.py",
                                *(ROOT / w.config for w in WORKLOADS.values()))
               if not p.is_file()]
    if missing:
        sys.stderr.write("benchmark needs the levyhull source tree; missing: "
                         + ", ".join(missing) + "\n")
        return False
    return True


def main(argv=None) -> int:
    args = _parse(argv)
    if not _check_layout():
        return 2
    e2e_units, layer_units = metric_units()
    load_start = os.getloadavg()
    runner = Runner()
    tally = Tally()
    metrics = {}
    try:
        if args.trace:
            values = run_traced(runner, args.seed, tally)
            for name, unit in layer_units.items():
                metrics[name] = {"value": values[name], "unit": unit}
                print(f"{name:52s} {values[name]:14.6g} {unit}")
        else:
            names = list(WORKLOADS) if args.workload == "all" else [args.workload]
            for name in names:
                seed = seed_for(name, args.seed)
                attempted, failed = tally.attempted, tally.failed
                samples = run_untraced(runner, name, seed, args.seconds, tally)
                for metric, unit in e2e_units.items():
                    vals = samples[metric] or [0.0]  # every run failed: the gate fails too
                    q1, med, q3 = quartiles(vals)
                    value = min(vals) if metric == "wall_s" else med
                    key = metric if len(names) == 1 else f"{name}.{metric}"
                    metrics[key] = {"value": value, "unit": unit}
                    print(f"{name:13s} {metric:12s} {value:10.4f} {unit:3s} min {min(vals):10.4f} "
                          f"q1 {q1:10.4f} median {med:10.4f} q3 {q3:10.4f} n {len(vals)}")
                rows = tally.attempted - attempted
                share = (tally.failed - failed) / rows if rows else 1.0
                print(f"{name:13s} {'fail_share':12s} {share:17.4f} share  "
                      f"({tally.failed - failed} of {rows} rows, seed {seed})")
    finally:
        runner.close()
    for note in tally.notes:
        print(f"note: {note}")
    provenance = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "versions": runner.versions,
        "git_commit": git_commit(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(result_line(tally, metrics))
    return 0 if tally.ok else 1


def result_line(tally, metrics) -> str:
    """The last output line: the gate's verdict, row counts and metrics."""
    return json.dumps({
        "correct": tally.ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    })


if __name__ == "__main__":
    raise SystemExit(main())
