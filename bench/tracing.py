"""Span tracing of levyhull's public functions, from outside the package.

:func:`install` replaces each traced function at every module attribute that
refers to it, because callers look functions up by the name they imported
(``sbrep`` calls its own ``sample_increment`` binding, not
``levyhull.models.sample_increment``).  Spans are kept in flat integer
arrays in start order (a parent always precedes its children), written out
once at the end, and reduced to per-layer metrics by :func:`layer_metrics`.
Tracing assumes one thread and no forked workers, so traced runs use
``workers = 1``.
"""
from __future__ import annotations

import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np


def _size(x):
    return int(np.size(x))


def _stick_cells(args, kwargs, result):
    """(cells generated, cells needed): a row needs its sticks up to the
    first one after which ``T * L`` falls below the cutoff."""
    n_rows, T, cutoff = args[:3]
    t, _ = result
    left = T - np.cumsum(t, axis=1)     # scaled remainder after each stick
    needed = int(np.count_nonzero(left >= cutoff)) + n_rows
    return t.size, min(needed, t.size)


def _report_bytes(args, kwargs, result):
    files = [p for p in Path(result).parent.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


# span name -> counter(args, kwargs, result) -> (work, useful) or None
TRACED = {
    "models.sample_path": lambda a, k, r: (len(r.times), 0),
    "models.sample_increment": None,
    "models.stable_standard": lambda a, k, r: (_size(r), 0),
    "sticks.stick_matrix": _stick_cells,
    "sbrep.sample_quintuple": None,
    "sbrep.normalize_finite_variance": None,
    "hull.concave_majorant": lambda a, k, r: (len(r) + 1, 0),
    "hull.convex_minorant": lambda a, k, r: (len(r) + 1, 0),
    "hull.merge_collinear": None,
    "hull.shape_stats": None,
    "limitlaws.draw_limit_stable_zero_mean": lambda a, k, r: (len(r[0]), 0),
    "stats.ks_two_sample": None,
    "stats.ks_distance_to_cdf": None,
    "stats.tail_slope": None,
    "experiments.draw_quintuples": None,
    "experiments.draw_hull_stats": None,
    "experiments.run": None,
    "experiments.write_report": _report_bytes,
}


class Tracer:
    """In-memory span store: name id, start/end (ns), parent index, and two
    counters (work done, useful share of it) per span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.cols = {c: array("q") for c in ("name", "start", "end", "parent", "work", "useful")}
        self._open: list[int] = []

    def wrap(self, name, fn, counter=None):
        nid = len(self.names)
        self.names.append(name)
        c = self.cols
        names_, starts, ends, parents = c["name"], c["start"], c["end"], c["parent"]
        works, usefuls = c["work"], c["useful"]
        open_ = self._open

        def traced(*args, **kwargs):
            idx = len(starts)
            names_.append(nid)
            parents.append(open_[-1] if open_ else -1)
            starts.append(0)
            ends.append(0)
            works.append(0)
            usefuls.append(0)
            open_.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                open_.pop()
                starts[idx] = t0
                ends[idx] = t1
            if counter is not None:
                works[idx], usefuls[idx] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            run_id=np.array(self.run_id),
            **{k: np.frombuffer(v, dtype=np.int64) for k, v in self.cols.items()},
        )


def install(tracer: Tracer) -> list:
    """Wrap every :data:`TRACED` function at each imported levyhull module
    attribute bound to it; returns the replaced ``(module, name, original)``
    bindings so that a caller can restore them."""
    modules = [m for n, m in list(sys.modules.items()) if n == "levyhull" or n.startswith("levyhull.")]
    replaced = []
    for span, counter in TRACED.items():
        mod_name, attr = span.split(".")
        fn = getattr(sys.modules[f"levyhull.{mod_name}"], attr)
        wrapped = tracer.wrap(span, fn, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                    replaced.append((mod, key, fn))
    return replaced


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(start, end, parent):
    """Span duration minus the durations of its direct children.  Children of
    one thread are disjoint and lie inside their parent, so this is the time
    no child covers."""
    start, end, parent = (np.asarray(a, dtype=np.int64) for a in (start, end, parent))
    dur = end - start
    covered = np.zeros_like(dur)
    child = parent >= 0
    np.add.at(covered, parent[child], dur[child])
    return dur - covered


def load_spans(path) -> dict:
    with np.load(path) as z:
        spans = {k: z[k] for k in z.files}
    spans["names"] = [str(n) for n in spans["names"]]
    spans["run_id"] = str(spans["run_id"])
    return spans


def per_name(spans_list) -> dict:
    """Totals per span name over several span files: calls, inclusive and
    self seconds, work and useful counters, and calls per parent name."""
    out = {}
    for s in spans_list:
        nid, parent = s["name"], s["parent"]
        dur = (s["end"] - s["start"]) / 1e9
        own = self_times(s["start"], s["end"], parent) / 1e9
        parent_nid = np.where(parent >= 0, nid[np.maximum(parent, 0)], -1)
        for k, name in enumerate(s["names"]):
            sel = nid == k
            agg = out.setdefault(name, {
                "calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": 0, "useful": 0, "by_parent": {},
            })
            agg["calls"] += int(sel.sum())
            agg["incl_s"] += float(dur[sel].sum())
            agg["self_s"] += float(own[sel].sum())
            agg["work"] += int(s["work"][sel].sum())
            agg["useful"] += int(s["useful"][sel].sum())
            counts = np.bincount(parent_nid[sel] + 1, minlength=len(s["names"]) + 1)
            for p in np.flatnonzero(counts):
                pname = s["names"][p - 1] if p else ""
                agg["by_parent"][pname] = agg["by_parent"].get(pname, 0) + int(counts[p])
    return out


def ratio(a, b, scale=1.0):
    """``scale * a / b``, or 0 when nothing was counted."""
    return scale * a / b if b else 0.0


def layer_metrics(spans_list) -> dict:
    """Per-layer metric values (see bench/README.md for units)."""
    t = per_name(spans_list)
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": 0, "useful": 0, "by_parent": {}}

    def g(name):
        return t.get(name, empty)

    def per_call(name, scale):
        return ratio(g(name)["incl_s"], g(name)["calls"], scale)

    def per_work(name, scale):
        return ratio(g(name)["incl_s"], g(name)["work"], scale)

    inc, quin = g("models.sample_increment"), g("sbrep.sample_quintuple")
    path, stick = g("models.sample_path"), g("sticks.stick_matrix")
    cm = g("hull.concave_majorant")
    return {
        "models.sample_path.us_per_path": per_call("models.sample_path", 1e6),
        "models.sample_path.points_per_path": ratio(path["work"], path["calls"]),
        "models.sample_increment.us_per_call": per_call("models.sample_increment", 1e6),
        "models.sample_increment.calls_per_draw": ratio(
            inc["by_parent"].get("sbrep.sample_quintuple", 0), quin["calls"]
        ),
        "models.stable_standard.ns_per_draw": per_work("models.stable_standard", 1e9),
        "sticks.stick_matrix.ns_per_cell": per_work("sticks.stick_matrix", 1e9),
        "sticks.stick_matrix.useful_share": ratio(stick["useful"], stick["work"]),
        "sbrep.sample_quintuple.us_per_draw": per_call("sbrep.sample_quintuple", 1e6),
        "sbrep.normalize_finite_variance.us_per_call": per_call("sbrep.normalize_finite_variance", 1e6),
        "hull.concave_majorant.us_per_path": per_call("hull.concave_majorant", 1e6),
        "hull.concave_majorant.vertices_per_path": ratio(cm["work"], cm["calls"]),
        "hull.merge_collinear.us_per_path": per_call("hull.merge_collinear", 1e6),
        "hull.shape_stats.us_per_path": per_call("hull.shape_stats", 1e6),
        "limitlaws.draw_limit_stable_zero_mean.us_per_draw": per_work(
            "limitlaws.draw_limit_stable_zero_mean", 1e6
        ),
        "stats.ks_two_sample.ms_per_call": per_call("stats.ks_two_sample", 1e3),
        "stats.ks_distance_to_cdf.ms_per_call": per_call("stats.ks_distance_to_cdf", 1e3),
        "stats.tail_slope.ms_per_call": per_call("stats.tail_slope", 1e3),
        "experiments.write_report.s": g("experiments.write_report")["incl_s"],
        "experiments.write_report.bytes": float(g("experiments.write_report")["work"]),
        "experiments.run.self_s": g("experiments.run")["self_s"],
    }
