"""Per-protocol and per-phase cost profiling, as an event-bus observer.

A :class:`Profiler` subscribes to the structural round and phase events and
accumulates, per protocol, the wall-clock time, round count, message count
and bit volume — and, per algorithm phase, the inclusive wall-clock and
traffic between its :class:`~repro.observe.events.PhaseStart` and
:class:`~repro.observe.events.PhaseEnd`.  Because it rides the bus, a
profiled run stays on the batched CSR engine and its outputs are
bit-identical to an unprofiled run.

``Network.run`` surfaces the profiler's account as ``RunResult.profile``
and the high-level API as ``MatchingResult.profile`` (via
``repro.run(..., profile=True)``); ``python -m repro profile`` and
``tools/profile_report.py`` render the same numbers on the command line.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from .events import (
    PHASE_END,
    PHASE_START,
    ROUND_END,
    ROUND_START,
    Event,
    EventBus,
    JsonlTraceWriter,
)


@dataclass
class ProtocolProfile:
    """Accumulated cost of one protocol across every run on the network."""

    protocol: str
    rounds: int = 0
    messages: int = 0
    bits: int = 0
    wall: float = 0.0


@dataclass
class PhaseProfile:
    """Inclusive cost of one ``(algorithm, phase)`` label.

    ``entries`` counts how many times the phase was entered; rounds,
    messages and wall are summed over all entries and include everything
    nested inside (flame-graph semantics).  ``counters`` sums the numeric
    values of each entry's :class:`~repro.observe.events.PhaseEnd`
    ``detail`` dict — the drivers' per-phase counters (sampled edges,
    ``delta_est``, ``dropped_edges``, ``decay_ratio``, ...) aggregate
    here without any extra instrumentation in the driver.
    """

    algorithm: str
    phase: str
    entries: int = 0
    rounds: int = 0
    messages: int = 0
    wall: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)


class _OpenPhase:
    __slots__ = ("key", "t0", "rounds", "messages")

    def __init__(self, key: Tuple[str, str], t0: float) -> None:
        self.key = key
        self.t0 = t0
        self.rounds = 0
        self.messages = 0


@dataclass
class ProfileReport:
    """An immutable snapshot of a :class:`Profiler`'s account."""

    protocols: List[ProtocolProfile] = field(default_factory=list)
    phases: List[PhaseProfile] = field(default_factory=list)
    wall: float = 0.0

    def protocol(self, name: str) -> Optional[ProtocolProfile]:
        for p in self.protocols:
            if p.protocol == name:
                return p
        return None

    def table(self) -> str:
        """The per-protocol (and, when present, per-phase) cost table."""
        lines = [
            f"{'protocol':<22} {'rounds':>7} {'messages':>9} "
            f"{'bits':>11} {'wall_s':>8} {'wall%':>6}"
        ]
        total = self.wall or sum(p.wall for p in self.protocols) or 1.0
        for p in self.protocols:
            lines.append(
                f"{p.protocol:<22} {p.rounds:>7} {p.messages:>9} "
                f"{p.bits:>11} {p.wall:>8.4f} {100.0 * p.wall / total:>5.1f}%"
            )
        if self.phases:
            lines.append("")
            lines.append(
                f"{'phase':<30} {'entries':>7} {'rounds':>7} "
                f"{'messages':>9} {'wall_s':>8}"
            )
            for ph in self.phases:
                label = f"{ph.phase} ({ph.algorithm})"
                lines.append(
                    f"{label:<30} {ph.entries:>7} {ph.rounds:>7} "
                    f"{ph.messages:>9} {ph.wall:>8.4f}"
                )
                if ph.counters:
                    rendered = " ".join(
                        f"{k}={v:g}" for k, v in sorted(ph.counters.items()))
                    lines.append(f"    counters: {rendered}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.table()


class Profiler:
    """Bus observer accumulating wall-clock and traffic per protocol/phase.

    ``clock`` is injectable for deterministic tests.  The profiler never
    subscribes to the per-message stream, so its overhead is a few
    callbacks per round regardless of message volume.
    """

    interest = (ROUND_START, ROUND_END, PHASE_START, PHASE_END)

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.protocols: Dict[str, ProtocolProfile] = {}
        self.phases: Dict[Tuple[str, str], PhaseProfile] = {}
        self.wall = 0.0
        self._round_t0: Optional[float] = None
        self._open: List[_OpenPhase] = []

    def on_event(self, event: Event) -> None:
        kind = event.kind
        if kind == ROUND_START:
            self._round_t0 = self._clock()
        elif kind == ROUND_END:
            now = self._clock()
            dt = (now - self._round_t0) if self._round_t0 is not None else 0.0
            self._round_t0 = None
            profile = self.protocols.get(event.protocol)
            if profile is None:
                profile = self.protocols[event.protocol] = ProtocolProfile(
                    protocol=event.protocol
                )
            profile.rounds += 1
            profile.messages += event.messages
            profile.bits += event.bits
            profile.wall += dt
            self.wall += dt
            for open_phase in self._open:
                open_phase.rounds += 1
                open_phase.messages += event.messages
        elif kind == PHASE_START:
            self._open.append(
                _OpenPhase((event.algorithm, event.phase), self._clock())
            )
        elif kind == PHASE_END:
            key = (event.algorithm, event.phase)
            for i in range(len(self._open) - 1, -1, -1):
                if self._open[i].key == key:
                    open_phase = self._open.pop(i)
                    break
            else:
                return  # unmatched PhaseEnd: ignore defensively
            profile = self.phases.get(key)
            if profile is None:
                profile = self.phases[key] = PhaseProfile(
                    algorithm=event.algorithm, phase=event.phase
                )
            profile.entries += 1
            profile.rounds += open_phase.rounds
            profile.messages += open_phase.messages
            profile.wall += self._clock() - open_phase.t0
            for name, value in getattr(event, "detail", {}).items():
                if isinstance(value, (int, float)) and not isinstance(
                        value, bool):
                    profile.counters[name] = (
                        profile.counters.get(name, 0) + value)

    def report(self) -> ProfileReport:
        """A snapshot of the current account (ordered by wall desc)."""
        protocols = sorted(
            (replace(p) for p in self.protocols.values()),
            key=lambda p: (-p.wall, p.protocol),
        )
        phases = [replace(p) for p in self.phases.values()]
        return ProfileReport(protocols=protocols, phases=phases,
                             wall=self.wall)

    def table(self) -> str:
        return self.report().table()


class ObservabilityScope:
    """Resolves the ``observe``/``trace``/``profile`` keywords of one run.

    Every entry point of the unified API — the static drivers in
    :mod:`repro.core.api` and the streaming
    :class:`~repro.stream.service.MatchingService` alike — shares the
    observability trio.  This helper builds (or augments) the observer set
    handed to ``Network(observe=...)`` / the service's bus, and remembers
    what it created so results can be stamped and owned writers closed:

    * ``trace`` — a path (a :class:`JsonlTraceWriter` is opened and owned)
      or an existing writer (borrowed: flushed, never closed);
    * ``profile`` — truthy opens a fresh :class:`Profiler`, or pass one in;
    * ``observe`` — an :class:`EventBus` (extras subscribe onto it), a
      single observer, or a list of observers.

    :meth:`stamp` writes ``profile``/``trace_path`` onto a result without
    tearing anything down (a long-lived service stamps many results);
    :meth:`finish` stamps and then :meth:`close`\\ s (the one-shot entry
    points' pattern).
    """

    def __init__(self, observe: Any, trace: Any, profile: Any) -> None:
        self.writer: Optional[JsonlTraceWriter] = None
        self._owns_writer = False
        if trace is not None:
            if isinstance(trace, JsonlTraceWriter):
                self.writer = trace
            else:
                self.writer = JsonlTraceWriter(trace)
                self._owns_writer = True
        self.profiler: Optional[Profiler] = None
        if profile:
            self.profiler = (profile if isinstance(profile, Profiler)
                             else Profiler())
        extras = [o for o in (self.writer, self.profiler) if o is not None]
        if isinstance(observe, EventBus):
            for extra in extras:
                observe.subscribe(extra)
            self.observe: Any = observe
        else:
            observers: list = []
            if observe is not None:
                observers.extend(observe if isinstance(observe, (list, tuple))
                                 else [observe])
            observers.extend(extras)
            self.observe = observers or None

    def stamp(self, result: Any) -> Any:
        """Write ``trace_path``/``profile`` onto ``result`` (no teardown)."""
        if self.writer is not None:
            result.trace_path = self.writer.path
            self.writer.flush()
        if self.profiler is not None:
            result.profile = self.profiler.report()
        return result

    def close(self) -> None:
        """Close a trace writer this scope opened (borrowed writers stay)."""
        if self.writer is not None and self._owns_writer:
            self.writer.close()

    def finish(self, result: Any) -> Any:
        """Stamp ``result`` and release what the scope owns."""
        self.stamp(result)
        self.close()
        return result
