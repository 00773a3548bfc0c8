#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A B``.

``A`` (the parent) and ``B`` (the change) are each a directory of the
per-run JSON files ``run.py`` leaves under ``raw/``, or one file holding
one such record or a list of them (as ``baseline/*.json`` do).
For every end-to-end metric on every workload the medians are compared
against the metric's bound in ``BENCHMARK.json``:

* ``pass``       B's median is no worse than A's by more than the bound;
* ``regressed``  it is worse by more than the bound;
* ``unresolved`` the run-to-run spread (quartile distance over median, the
  wider of the two sides) exceeds the bound, so the runs cannot tell —
  unless every run of B reads better than every run of A, which passes.

``fail_frac`` regresses on any increase.  The three exact metrics
(``sim_s``, ``bytes_read``, ``bytes_per_edge``) are also checked for
identity on every seed both sides ran.  ``--layers`` adds the per-layer
medians of the traced runs side by side, without verdicts (they have no
bounds).  Exits 1 if anything regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402


def load(path: str) -> "list[dict]":
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, f) for f in os.listdir(path) if f.endswith(".json"))
    else:
        files = [path]
    records = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            loaded = json.load(fh)
        for record in loaded if isinstance(loaded, list) else [loaded]:
            if not record.get("smoke"):
                record["metrics"]["ok_frac"] = (
                    1.0 - record["metrics"].get("fail_frac", 0.0))
                records.append(record)
    return records


def by_workload(records: "list[dict]", trace: int) -> "dict[str, list[dict]]":
    out: "dict[str, list[dict]]" = {}
    for r in records:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def spread(values: "list[float]") -> float:
    """Quartile distance as a share of the median (0 for a single run)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def verdict(a: "list[float]", b: "list[float]", better: str, bound: float):
    """``(verdict, change, spread)``; ``change`` > 0 means B is worse."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    wide = max(spread(a), spread(b))
    if wide > bound:
        clear_win = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return ("pass" if clear_win else "unresolved"), change, wide
    return ("regressed" if change > bound else "pass"), change, wide


def exact_note(ra: "list[dict]", rb: "list[dict]", name: str) -> str:
    """Whether an exact metric is identical on the seeds both sides ran."""
    def per_seed(rs):
        out: "dict[int, set]" = {}
        for r in rs:
            out.setdefault(r["fingerprint"]["seed"], set()).add(r["metrics"][name])
        return out

    sa, sb = per_seed(ra), per_seed(rb)
    shared = sorted(set(sa) & set(sb))
    if not shared:
        return ""
    changed = [s for s in shared if sa[s] != sb[s] or len(sa[s]) > 1]
    return "  identical" if not changed else f"  differs on seeds {changed}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="parent: directory of run records, or one file")
    ap.add_argument("b", help="change: directory of run records, or one file")
    ap.add_argument("--layers", action="store_true",
                    help="also list per-layer medians of the traced runs")
    args = ap.parse_args()
    catalogue = spec.load_catalogue()
    rec_a, rec_b = load(args.a), load(args.b)
    a0, b0 = by_workload(rec_a, 0), by_workload(rec_b, 0)

    regressed = 0
    print(f"{'workload':<13} {'metric':<16} {'A median':>12} {'B median':>12} "
          f"{'worse by':>9} {'spread':>8} {'bound':>7}  verdict")
    for w in spec.WORKLOADS:
        if w not in a0 or w not in b0:
            continue
        for m in catalogue["end_to_end"]:
            name = m["name"]
            va = [r["metrics"][name] for r in a0[w]]
            vb = [r["metrics"][name] for r in b0[w]]
            if name == "ok_frac":
                fa = statistics.median(1.0 - v for v in va)
                fb = statistics.median(1.0 - v for v in vb)
                v, change, wide = ("regressed" if fb > fa else "pass"), fb - fa, 0.0
            else:
                v, change, wide = verdict(va, vb, m["better"], m["bound"])
            note = exact_note(a0[w], b0[w], name) if name in spec.EXACT_METRICS else ""
            regressed += v == "regressed"
            print(f"{w:<13} {name:<16} {statistics.median(va):>12.6g} "
                  f"{statistics.median(vb):>12.6g} {change:>+9.2%} {wide:>8.2%} "
                  f"{m['bound']:>7.2%}  {v}{note}")
        print(f"{'':<13} n = {len(a0[w])} vs {len(b0[w])} runs")

    if args.layers:
        a1, b1 = by_workload(rec_a, 1), by_workload(rec_b, 1)
        print(f"\n{'workload':<13} {'layer metric':<36} {'A median':>12} {'B median':>12}")
        for w in spec.WORKLOADS:
            if w not in a1 or w not in b1:
                continue
            for m in catalogue["per_layer"]:
                name = m["name"]
                va = [r["metrics"][name] for r in a1[w] if r["metrics"].get(name) is not None]
                vb = [r["metrics"][name] for r in b1[w] if r["metrics"].get(name) is not None]
                if va and vb:
                    print(f"{w:<13} {name:<36} {statistics.median(va):>12.6g} "
                          f"{statistics.median(vb):>12.6g}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
