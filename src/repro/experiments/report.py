"""Markdown report generation for the experiment suite.

``python -m repro experiments --all --report out.md`` renders every table
into one document, with environment and reproduction metadata — the file a
reader diffs against EXPERIMENTS.md to confirm the repository reproduces
its own numbers.
"""

from __future__ import annotations

import platform
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Union

from .suite import ALL_EXPERIMENTS, run_all
from .tables import Table


def table_to_markdown(table: Table) -> str:
    """Render a :class:`Table` as GitHub-flavored markdown."""
    lines = [f"### {table.title}", ""]
    header = "| " + " | ".join(str(c) for c in table.columns) + " |"
    sep = "|" + "|".join("---" for _ in table.columns) + "|"
    lines.append(header)
    lines.append(sep)
    for row in table.rows:
        lines.append("| " + " | ".join(Table._fmt(v) for v in row) + " |")
    for note in table.notes:
        lines.append("")
        lines.append(f"*Note: {note}*")
    profile = getattr(table, "profile", None)
    if profile is not None:
        lines.append("")
        lines.append("#### Profile")
        lines.append("")
        lines.append("```")
        lines.append(str(profile))
        lines.append("```")
    return "\n".join(lines)


def build_report(names: Optional[Sequence[str]] = None,
                 trace_dir: Optional[str] = None,
                 profile: bool = False) -> str:
    """Run experiments and return the full markdown document.

    ``trace_dir``/``profile`` forward to
    :func:`repro.experiments.suite.run_all`; profiled tables gain a
    ``#### Profile`` section.
    """
    chosen = list(names) if names is not None else sorted(ALL_EXPERIMENTS)
    unknown = [n for n in chosen if n not in ALL_EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments: {', '.join(unknown)}")
    tables = run_all(chosen, trace_dir=trace_dir, profile=profile)
    parts: List[str] = [
        "# repro experiment report",
        "",
        f"- python: `{sys.version.split()[0]}`",
        f"- platform: `{platform.platform()}`",
        f"- experiments: {', '.join(chosen)}",
        "",
        "All numbers are reproducible: the suite derives every random",
        "stream from fixed seeds.  See EXPERIMENTS.md for the claim-vs-",
        "measured discussion of each table.",
        "",
    ]
    for table in tables:
        parts.append(table_to_markdown(table))
        parts.append("")
    return "\n".join(parts)


def write_report(path: Union[str, Path],
                 names: Optional[Sequence[str]] = None,
                 trace_dir: Optional[str] = None,
                 profile: bool = False) -> Path:
    """Build and write the report; returns the path."""
    path = Path(path)
    path.write_text(build_report(names, trace_dir=trace_dir,
                                 profile=profile))
    return path
