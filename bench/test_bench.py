"""Tests of the benchmark's own arithmetic, output schema and correctness gate.

Run with ``PYTHONPATH=src python -m pytest bench/test_bench.py``.
"""
import dataclasses
import json
import statistics

import numpy as np
import pytest

import run
import tracing
import workloads

# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------


def test_self_time_of_nested_spans():
    # root [0, 100] holds A [10, 40] (which holds a [15, 25]) and B [50, 90]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 90]
    parent = [-1, 0, 1, 0]
    own = tracing.self_times(start, end, parent)
    assert own.tolist() == [30, 20, 10, 40]
    assert own.sum() == end[0] - start[0]


def test_tracer_records_parents_counters_and_layer_metrics():
    tr = tracing.Tracer("test")
    inner = tr.wrap("models.sample_increment", lambda x: x)
    outer = tr.wrap("sbrep.sample_quintuple", lambda n: [inner(i) for i in range(n)])
    path = tr.wrap("models.sample_path", lambda n: np.arange(n), lambda a, k, r: (len(r), 0))
    outer(3)
    outer(5)
    path(7)
    s = {k: np.frombuffer(v, dtype=np.int64) for k, v in tr.cols.items()}
    s["names"] = tr.names
    assert s["parent"].tolist() == [-1, 0, 0, 0, -1, 4, 4, 4, 4, 4, -1]
    assert (s["end"] >= s["start"]).all()
    m = tracing.layer_metrics([s])
    assert m["models.sample_increment.calls_per_draw"] == 4.0
    assert m["models.sample_path.points_per_path"] == 7.0
    assert m["sticks.stick_matrix.ns_per_cell"] == 0.0  # layer not exercised


def test_save_and_load_round_trip(tmp_path):
    tr = tracing.Tracer("rid")
    tr.wrap("stats.tail_slope", lambda: None)()
    tr.save(tmp_path / "spans.npz")
    s = tracing.load_spans(tmp_path / "spans.npz")
    assert s["names"] == ["stats.tail_slope"] and s["run_id"] == "rid"
    assert s["parent"].tolist() == [-1]


def test_stick_cells_counts_sticks_until_the_cutoff():
    # scaled sticks of two rows with T = 1, cutoff 0.1: row 0 needs 2 sticks
    # (remainders 0.5, 0.05), row 1 needs 3 (0.6, 0.3, 0.01)
    t = np.array([[0.5, 0.45, 0.04, 0.01], [0.4, 0.3, 0.29, 0.005]])
    assert tracing._stick_cells((2, 1.0, 0.1), {}, (t, None)) == (8, 5)


def test_install_wraps_every_binding_a_caller_uses():
    levyhull = pytest.importorskip("levyhull")
    from levyhull import experiments, models, sbrep

    tr = tracing.Tracer("install")
    replaced = tracing.install(tr)
    try:
        assert hasattr(sbrep.sample_increment, "__wrapped__")
        experiments.draw_quintuples(models.BrownianDrift(1.0), 100.0, 4, 1, "t", 1e-3, 1)
    finally:
        for mod, key, fn in replaced:
            setattr(mod, key, fn)
    assert levyhull.sample_path is models.sample_path
    s = {k: np.frombuffer(v, dtype=np.int64) for k, v in tr.cols.items()}
    s["names"] = tr.names
    by_name = tracing.per_name([s])
    assert by_name["sbrep.sample_quintuple"]["calls"] == 4
    assert by_name["sbrep.sample_quintuple"]["by_parent"] == {"experiments.draw_quintuples": 4}
    assert by_name["models.sample_increment"]["by_parent"]["sbrep.sample_quintuple"] >= 4


# ---------------------------------------------------------------------------
# summary statistics
# ---------------------------------------------------------------------------


def test_quartiles_match_statistics_quantiles():
    vals = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 3.2]
    q1, q2, q3 = run.quartiles(vals)
    assert [q1, q2, q3] == statistics.quantiles(vals, n=4)
    assert q2 == statistics.median(vals)
    assert run.quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        run.quartiles([])


def test_import_cumulative_sums_outermost_package_lines():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy.integrate._a",
        "import time:        50 |        150 |     scipy.integrate._b",
        "import time:        20 |         20 |     scipy.integrate._c",
        "import time:       400 |        600 |   levyhull.models",
        "import time:        10 |        700 | levyhull",
    ])
    assert run.import_cumulative(text, "scipy.integrate") == pytest.approx(170e-6)
    assert run.import_cumulative(text, "levyhull") == pytest.approx(700e-6)
    assert run.import_cumulative(text, "absent") == 0.0


# ---------------------------------------------------------------------------
# output schema
# ---------------------------------------------------------------------------


def test_benchmark_file_matches_the_metrics_the_harness_emits():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e, layers = run.metric_units()
    assert list(e2e) == ["wall_s", "setup_s", "peak_rss_mb"]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    spans = {"names": [], **{k: np.zeros(0, dtype=np.int64) for k in ("name", "start", "end", "parent", "work", "useful")}}
    traced_here = set(tracing.layer_metrics([spans]))
    measured_apart = {"experiments.pool_start_s", "experiments.draw_hull_stats.w2_speedup",
                      "import.levyhull.cumulative_s", "import.scipy_integrate.cumulative_s",
                      "trace.overhead_share"}
    assert traced_here | measured_apart == set(layers)


def test_result_line_schema():
    tally = run.Tally()
    tally.rows("tail", 0)
    line = run.result_line(tally, {"wall_s": {"value": 1.25, "unit": "s"}})
    obj = json.loads(line)
    assert list(obj) == ["correct", "attempted", "failed", "metrics"]
    assert obj["correct"] is True and obj["attempted"] == 2 and obj["failed"] == 0
    assert obj["metrics"]["wall_s"] == {"value": 1.25, "unit": "s"}
    tally.rows("tail", 1)
    assert json.loads(run.result_line(tally, {}))["correct"] is False


def test_missing_source_tree_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run._check_layout() is False


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def _identity_rows(p_values, passed):
    names = ("upsilon", "final", "sup", "gamma")
    return [
        {"T": 50.0, "statistic": f"identity_ks_{n}", "estimate": 0.01, "se_or_d": 0.01,
         "p_value": p, "threshold": "p > 0.01", "passed": ok}
        for n, p, ok in zip(names, p_values, passed)
    ]


def test_gate_accepts_matching_verdicts_and_rejects_a_wrong_expectation():
    rows = _identity_rows([0.5, 0.2, 0.003, 0.9], [True, True, False, True])
    expected = workloads.expected_verdicts("identity", rows, shipped=False)
    assert expected == [True, True, False, True]
    assert workloads.failed_rows("identity", rows, expected) == 0
    # the shipped seed expects every row to pass
    shipped = workloads.expected_verdicts("identity", rows, shipped=True)
    assert workloads.failed_rows("identity", rows, shipped) == 1
    wrong = [True, False, False, True]
    assert workloads.failed_rows("identity", rows, wrong) == 1


def test_gate_rejects_a_verdict_the_numbers_do_not_support():
    rows = _identity_rows([0.5, 0.2, 0.003, 0.9], [True, True, True, True])
    expected = workloads.expected_verdicts("identity", rows, shipped=False)
    assert workloads.failed_rows("identity", rows, expected) == 1


def test_gate_fails_every_row_of_a_malformed_report():
    rows = _identity_rows([0.5, 0.5, 0.5, 0.5], [True] * 4)
    assert workloads.failed_rows("identity", rows[:3], [True] * 4) == 4
    rows[0]["estimate"] = float("nan")
    assert workloads.failed_rows("identity", rows, [True] * 4) == 4


def test_clt_trend_rule_needs_strictly_falling_distances():
    rows = [
        {"T": T, "statistic": "clt_ks_distance", "estimate": d, "passed": True}
        for T, d in ((1e3, 0.05), (1e5, 0.03), (1e7, 0.04))
    ] + [
        {"T": 1e7, "statistic": "clt_ks_final", "estimate": 0.04, "passed": True},
        {"T": 1e7, "statistic": "clt_variance_ratio", "estimate": 1.2, "passed": False},
    ]
    assert workloads.expected_verdicts("clt", rows, shipped=False) == [True, True, False, True, False]


def _write_hull_report(tmp_path, seed):
    levyhull = pytest.importorskip("levyhull")
    from levyhull import experiments

    cfg = levyhull.load_config(run.ROOT / workloads.WORKLOADS["hull-battery"].config)
    cfg = dataclasses.replace(cfg, reps=100, seed=seed)
    out = tmp_path / f"r{seed}"
    experiments.write_report(experiments.run(cfg), out)
    return out


def test_gate_on_a_written_report_rejects_an_altered_copy(tmp_path):
    out = _write_hull_report(tmp_path, seed=5)
    assert workloads.check_report("hull-battery", out, shipped=False) == 0
    assert workloads.check_report("hull-battery", out, shipped=True) == 0
    digest = workloads.tree_digest(out)
    assert workloads.tree_digest(_write_hull_report(tmp_path / "again", seed=5)) == digest

    path = out / "report.json"
    payload = json.loads(path.read_text())
    payload["rows"][0]["estimate"] = 3.0      # violations counted, verdict kept
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    assert workloads.check_report("hull-battery", out, shipped=False) == 1
    (out / "report.json").write_text("{")
    assert workloads.check_report("hull-battery", out, shipped=False) == 5
    assert workloads.tree_digest(out) != digest


def test_canonical_digest_ignores_only_the_config_hash(tmp_path):
    out = _write_hull_report(tmp_path, seed=6)
    raw, canonical = workloads.tree_digest(out), workloads.tree_digest(out, canonical=True)
    path = out / "report.json"
    payload = json.loads(path.read_text())
    payload["provenance"]["config_hash"] = "0" * 16
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    assert workloads.tree_digest(out) != raw
    assert workloads.tree_digest(out, canonical=True) == canonical
    (out / "report.csv").write_text("altered\n")
    assert workloads.tree_digest(out, canonical=True) != canonical
