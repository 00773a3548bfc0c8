"""Collate recorded experiment tables into one markdown report.

``python -m repro report`` (or :func:`build_report`) gathers every table
``python -m repro bench --results`` wrote into ``benchmarks/results/`` and
emits a single document ordered like the paper's evaluation section — the
artefact to attach to a reproduction write-up.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.bench.experiments import EXPERIMENTS


@dataclass
class ReportStatus:
    found: "list[str]"
    missing: "list[str]"
    unknown: "list[str]"


def build_report(results_dir: str) -> tuple[str, ReportStatus]:
    """Assemble the markdown report; returns (text, status).

    Sections follow :data:`~repro.bench.experiments.EXPERIMENTS`.  Missing
    tables are listed (``python -m repro bench --results DIR`` produces
    them); unknown files in the directory are appended at the end
    so nothing recorded is dropped silently.
    """
    titles = dict(result for _, _, result, _ in EXPERIMENTS)
    present = {
        os.path.splitext(f)[0]
        for f in os.listdir(results_dir)
        if f.endswith(".txt")
    } if os.path.isdir(results_dir) else set()
    found = [stem for stem in titles if stem in present]
    missing = [stem for stem in titles if stem not in present]
    unknown = sorted(present - set(titles))

    lines = [
        "# G-Store reproduction — experiment report",
        "",
        f"Generated from `{results_dir}`.",
        "",
    ]
    for stem in found + unknown:
        with open(
            os.path.join(results_dir, f"{stem}.txt"), "r", encoding="utf-8"
        ) as fh:
            body = fh.read().rstrip()
        title = titles.get(stem, f"(unindexed) {stem}")
        lines += [f"## {title}", "", "```", body, "```", ""]
    if missing:
        lines.append("## Missing experiments")
        lines.append("")
        lines.append(
            f"Run `python -m repro bench --results {results_dir}` to produce: "
            + ", ".join(f"`{m}`" for m in missing)
        )
        lines.append("")
    return "\n".join(lines), ReportStatus(found, missing, unknown)
