"""Render a flame-style cost report from a JSONL event trace.

Run from the repo root::

    PYTHONPATH=src python -m repro trace bipartite:40x40:0.1 --out run.jsonl
    PYTHONPATH=src python tools/profile_report.py run.jsonl

The report reconstructs the phase nesting from the trace's
``PhaseStart``/``PhaseEnd`` events and attributes every round's message and
bit cost (from ``RoundEnd``) to the innermost open phase, inclusively —
the textual equivalent of a flame graph: indentation is nesting depth,
and each frame shows its total (self + children) cost.  Augmentations and
checker verdicts are annotated inline, so the report doubles as a compact
run summary.

Composed protocols carry two round accounts (see
:mod:`repro.runtime.metrics`): *physical* rounds of the parent network and
*emulated* rounds of ``fold="emulate"`` subnetwork runs, whose physical
cost appears as an emulation charge instead.  A closing ``PhaseEnd`` with
``fold: emulate`` reclassifies the rounds counted inside that phase as
emulated (the ``emu`` column) and attributes the charge recorded in its
``detail`` to the enclosing physical account, so the root row reports the
end-to-end ``rounds_total`` = physical + emulated — matching
``Metrics.rounds_total`` up to pipelining charges and driver-level
``charge_rounds`` calls, neither of which appears in a trace.  (Messages/bits stay raw and inclusive: they describe the traffic
that actually flowed, whichever account it was billed to.)

Offline only: it needs nothing but the trace file, so reports can be
produced (and diffed) long after the run, on another machine.
"""

from __future__ import annotations

import argparse
from typing import List

from repro.observe.events import (
    Augmentation,
    CheckerVerdict,
    PhaseEnd,
    PhaseStart,
    RoundEnd,
    load_trace,
)


class Frame:
    """One phase occurrence in the reconstructed call tree."""

    def __init__(self, label: str, depth: int) -> None:
        self.label = label
        self.depth = depth
        self.rounds = 0        # physical rounds (incl. emulation charges)
        self.sub_rounds = 0    # emulated (virtual subnetwork) rounds
        self.messages = 0
        self.bits = 0
        self.augmentations = 0
        self.paths = 0
        self.detail = ""
        self.children: List["Frame"] = []

    @property
    def rounds_total(self) -> int:
        """End-to-end rounds: physical plus emulated (Metrics.rounds_total)."""
        return self.rounds + self.sub_rounds


def build_tree(events) -> Frame:
    """Fold the event stream into a root frame with nested phase frames."""
    root = Frame(label="run", depth=0)
    stack: List[Frame] = [root]
    for event in events:
        if isinstance(event, PhaseStart):
            frame = Frame(label=f"{event.algorithm} {event.phase}",
                          depth=len(stack))
            stack[-1].children.append(frame)
            stack.append(frame)
        elif isinstance(event, PhaseEnd):
            if len(stack) > 1:
                done = stack.pop()
                if event.detail:
                    done.detail = " ".join(
                        f"{k}={v}" for k, v in event.detail.items())
                if event.detail.get("fold") == "emulate":
                    # everything counted inside this phase ran on a
                    # virtual subnetwork: move it to the emulated account
                    # and bill the parent the recorded physical charge
                    # (older traces carry no charge; assume factor 1)
                    virtual = done.rounds
                    done.sub_rounds += virtual
                    done.rounds = 0
                    charge = event.detail.get(
                        "charge", event.detail.get("rounds", 0))
                    done.rounds += charge
                    for frame in stack:
                        frame.rounds += charge - virtual
                        frame.sub_rounds += virtual
        elif isinstance(event, RoundEnd):
            # inclusive attribution: every open frame owns the round
            for frame in stack:
                frame.rounds += 1
                frame.messages += event.messages
                frame.bits += event.bits
        elif isinstance(event, Augmentation):
            stack[-1].augmentations += 1
            stack[-1].paths += event.paths
        elif isinstance(event, CheckerVerdict):
            verdict = "ok" if event.ok else f"{event.complaints} complaint(s)"
            stack[-1].detail = (stack[-1].detail + " "
                                if stack[-1].detail else "") + \
                f"[{event.checker}: {verdict}]"
    return root


def render(root: Frame) -> str:
    total_rounds = max(root.rounds_total, 1)
    lines = [
        f"{'phase':<44} {'rounds':>7} {'emu':>6} {'rnd%':>6} {'messages':>9} "
        f"{'bits':>11} {'paths':>6}"
    ]

    def _walk(frame: Frame) -> None:
        label = "  " * frame.depth + frame.label
        share = 100.0 * frame.rounds_total / total_rounds
        paths = str(frame.paths) if frame.paths else "-"
        emu = str(frame.sub_rounds) if frame.sub_rounds else "-"
        lines.append(
            f"{label:<44} {frame.rounds:>7} {emu:>6} {share:>5.1f}% "
            f"{frame.messages:>9} {frame.bits:>11} {paths:>6}"
        )
        if frame.detail:
            lines.append("  " * (frame.depth + 1) + f"  ({frame.detail})")
        for child in frame.children:
            _walk(child)

    _walk(root)
    if root.sub_rounds:
        lines.append(
            f"rounds_total={root.rounds_total} "
            f"(physical {root.rounds} + emulated {root.sub_rounds})")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="flame-style phase/cost report from a JSONL trace")
    parser.add_argument("trace", help="trace file written by JsonlTraceWriter "
                                      "(python -m repro trace ... --out)")
    args = parser.parse_args(argv)
    events = load_trace(args.trace)
    if not events:
        print(f"{args.trace}: empty trace")
        return 1
    print(render(build_tree(events)))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # output piped into a pager that quit early: not an error
        raise SystemExit(0)
