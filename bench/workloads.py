"""Benchmark workloads and the correctness gate that checks their reports.

Each workload is one shipped criterion config run end to end.  The gate
re-derives every threshold row's verdict from the row's own numbers with the
rules below, which restate the criteria independently of the program.  At a
config's shipped seed every row must also pass, as the acceptance tests
require; at any other seed a row may legitimately fail its statistical test,
so there the program's verdict must equal the rule's verdict.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    config: str         # path relative to the repository root
    workers: int        # worker count for untraced runs
    shipped_seed: int   # the seed in the config file


# why each workload is here: bench/README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("identity", "configs/criterion03_exact_in_law.cfg", 2, 103),
        Workload("clt", "configs/criterion04_clt_trend.cfg", 1, 20260411),
        Workload("tail", "configs/criterion07_tail_index.cfg", 1, 107),
        Workload("hull-battery", "configs/criterion11_hull_invariants.cfg", 1, 111),
    )
}


# ---------------------------------------------------------------------------
# expected verdicts
# ---------------------------------------------------------------------------
# A rule maps (row, earlier rows of the same statistic) to the verdict the
# criterion implies.  Rows are dicts as written to report.json.

def _ks(level):
    return lambda row, prev: row["p_value"] is not None and row["p_value"] > level


def _below(limit):
    return lambda row, prev: row["estimate"] < limit


def _near(target, tol, strict=False):
    if strict:
        return lambda row, prev: abs(row["estimate"] - target) < tol
    return lambda row, prev: abs(row["estimate"] - target) <= tol


def _decreasing(row, prev):
    return not prev or row["estimate"] < prev[-1]["estimate"]


def _zero(row, prev):
    return row["estimate"] == 0.0


# (T, statistic) -> rule, in report order
EXPECTED_ROWS = {
    "identity": [
        (50.0, "identity_ks_upsilon", _ks(0.01)),
        (50.0, "identity_ks_final", _ks(0.01)),
        (50.0, "identity_ks_sup", _ks(0.01)),
        (50.0, "identity_ks_gamma", _ks(0.01)),
    ],
    "clt": [
        (1e3, "clt_ks_distance", _decreasing),
        (1e5, "clt_ks_distance", _decreasing),
        (1e7, "clt_ks_distance", _decreasing),
        (1e7, "clt_ks_final", _below(0.1)),
        (1e7, "clt_variance_ratio", _near(1.0, 0.15, strict=True)),
    ],
    "tail": [
        (None, "tail_slope", _near(-0.75, 0.1)),
        (None, "perpetuity_ks", _ks(0.01)),
    ],
    "hull-battery": [
        (None, "domination_violations", _zero),
        (None, "conservation_violations", _zero),
        (None, "monotonicity_violations", _zero),
        (None, "sandwich_violations", _zero),
        (None, "oracle_mismatches", _zero),
    ],
}


def expected_verdicts(workload: str, rows: list, shipped: bool) -> list:
    """Verdict each expected row should carry; at the shipped seed all pass."""
    spec = EXPECTED_ROWS[workload]
    if shipped:
        return [True] * len(spec)
    out, seen = [], {}
    for (_, stat, rule), row in zip(spec, rows):
        prev = seen.setdefault(stat, [])
        out.append(bool(rule(row, prev)))
        prev.append(row)
    return out


def failed_rows(workload: str, rows: list, expected: list) -> int:
    """Rows whose verdict differs from ``expected``.  A report whose rows are
    not exactly the expected (T, statistic) list, or hold a non-finite
    estimate, fails every row."""
    spec = EXPECTED_ROWS[workload]
    keys = [(r.get("T"), r.get("statistic")) for r in rows]
    if keys != [(T, stat) for T, stat, _ in spec]:
        return len(spec)
    if not all(isinstance(r.get("estimate"), float) and math.isfinite(r["estimate"]) for r in rows):
        return len(spec)
    return sum(bool(r.get("passed")) != want for r, want in zip(rows, expected))


def check_report(workload: str, outdir, shipped: bool) -> int:
    """Failed rows of a written report; an unreadable report fails all."""
    path = Path(outdir) / "report.json"
    try:
        rows = json.loads(path.read_text())["rows"]
        return failed_rows(workload, rows, expected_verdicts(workload, rows, shipped))
    except (OSError, ValueError, KeyError, TypeError):
        return len(EXPECTED_ROWS[workload])


# ---------------------------------------------------------------------------
# report digests
# ---------------------------------------------------------------------------

def tree_digest(outdir, canonical: bool = False) -> str:
    """SHA-256 over every file of a written report, path and bytes.

    ``canonical`` drops ``provenance.config_hash`` from report.json before
    hashing.  That field hashes the whole config including ``workers``, so
    it differs between two worker counts although the package README
    promises worker-independent reports; the traced pass reports that gap
    and requires every other byte to agree.
    """
    root = Path(outdir)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        data = path.read_bytes()
        if canonical and rel == "report.json":
            payload = json.loads(data)
            payload.get("provenance", {}).pop("config_hash", None)
            data = json.dumps(payload, indent=2, sort_keys=True).encode()
        h.update(rel.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def config_hash_differs(outdir_a, outdir_b) -> bool:
    """True when two reports disagree in ``provenance.config_hash``."""
    def read(d):
        return json.loads((Path(d) / "report.json").read_text())["provenance"].get("config_hash")
    return read(outdir_a) != read(outdir_b)
