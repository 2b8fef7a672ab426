"""Generate docs/API.md from the package's public surface.

Run from the repo root::

    python tools/gen_api_docs.py

Walks the public modules, collects classes/functions with their signatures
and first docstring paragraphs, and writes a browsable reference.  Purely
introspective — the source docstrings remain the single source of truth.
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

MODULES = [
    "repro",
    "repro.core.api",
    "repro.core.results",
    "repro.graphs.graph",
    "repro.graphs.generators",
    "repro.graphs.weights",
    "repro.graphs.io",
    "repro.graphs.interop",
    "repro.runtime.driver",
    "repro.runtime.metrics",
    "repro.observe.events",
    "repro.observe.tracing",
    "repro.observe.profiling",
    "repro.models.base",
    "repro.models.execution",
    "repro.mpc.cluster",
    "repro.mpc.matching",
    "repro.mpc.kernel",
    "repro.congest.network",
    "repro.congest.node",
    "repro.congest.policies",
    "repro.congest.message",
    "repro.congest.utilities",
    "repro.congest.asynchrony",
    "repro.congest.kernels",
    "repro.congest.sharding",
    "repro.matching.core",
    "repro.matching.paths",
    "repro.matching.conflict",
    "repro.matching.verify",
    "repro.matching.cover",
    "repro.matching.sequential.hopcroft_karp",
    "repro.matching.sequential.blossom",
    "repro.matching.sequential.hungarian",
    "repro.matching.sequential.greedy",
    "repro.matching.sequential.local_search",
    "repro.matching.sequential.tree_dp",
    "repro.matching.sequential.brute",
    "repro.dist.israeli_itai",
    "repro.dist.luby_mis",
    "repro.dist.generic_mcm",
    "repro.dist.local_views",
    "repro.dist.bipartite_counting",
    "repro.dist.token_mis",
    "repro.dist.bipartite_mcm",
    "repro.dist.general_mcm",
    "repro.dist.auction",
    "repro.dist.b_matching",
    "repro.dist.tree_mwm",
    "repro.dist.checkers",
    "repro.dist.random_tools",
    "repro.dist.weighted.gain",
    "repro.dist.weighted.class_greedy",
    "repro.dist.weighted.local_greedy",
    "repro.dist.weighted.algorithm5",
    "repro.dist.weighted.hv_local",
    "repro.switchsim.crossbar",
    "repro.switchsim.traffic",
    "repro.switchsim.schedulers",
    "repro.switchsim.simulator",
    "repro.switchsim.updates",
    "repro.stream.service",
    "repro.stream.workload",
    "repro.stream.replay",
    "repro.cellular.scenario",
    "repro.cellular.assignment",
    "repro.lca.oracle",
    "repro.experiments.suite",
    "repro.experiments.parallel",
    "repro.experiments.tables",
    "repro.experiments.stats",
    "repro.experiments.report",
]


def first_paragraph(doc: str) -> str:
    if not doc:
        return "(undocumented)"
    paragraph = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


def describe_callable(name: str, obj) -> str:
    try:
        sig = str(inspect.signature(obj))
    except (TypeError, ValueError):
        sig = "(...)"
    return f"- **`{name}{sig}`** — {first_paragraph(inspect.getdoc(obj))}"


def describe_module(dotted: str) -> str:
    module = importlib.import_module(dotted)
    lines = [f"## `{dotted}`", "", first_paragraph(inspect.getdoc(module)), ""]
    members = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != dotted:
            continue  # only items defined here, not re-exports
        if inspect.isclass(obj):
            members.append(f"- **`class {name}`** — "
                           f"{first_paragraph(inspect.getdoc(obj))}")
            for mname, mobj in sorted(vars(obj).items()):
                if mname.startswith("_") or not callable(mobj):
                    continue
                doc = inspect.getdoc(mobj)
                if doc:
                    members.append(
                        f"  - `.{mname}()` — {first_paragraph(doc)}")
        elif inspect.isfunction(obj):
            members.append(describe_callable(name, obj))
    lines.extend(members or ["(no public members)"])
    lines.append("")
    return "\n".join(lines)


def main() -> None:
    parts = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py` — do not edit by hand.",
        "Every entry's full documentation lives in the source docstrings.",
        "",
    ]
    for dotted in MODULES:
        parts.append(describe_module(dotted))
    out = Path("docs/API.md")
    out.write_text("\n".join(parts))
    print(f"wrote {out} ({len(parts)} sections)")


if __name__ == "__main__":
    main()
