"""Structured observability: the event bus the delivery engines emit natively.

The paper's claims are *cost* claims — ``O(k^3 log Delta + k^2 log n)``
rounds, ``O(log n)``-bit messages — so seeing what a run actually did is as
important as the matching it returns.  This module provides the typed event
stream that makes runs inspectable without slowing them down:

* :class:`EventBus` — a publish/subscribe hub.  Subscribers declare an
  *interest mask* (the event kinds they want) and, for the high-volume
  :class:`MessageDelivered` stream, an optional *per-edge sampling rate*.
  The engines check ``bus.wants(kind)`` once per round, so a network with
  no subscribers (or none interested in a kind) pays one dictionary lookup
  per round — never per message.
* Typed events — :class:`RoundStart`/:class:`RoundEnd` and
  :class:`MessageDelivered` from the transport layer, and
  :class:`PhaseStart`/:class:`PhaseEnd`, :class:`Augmentation`,
  :class:`TokenCollision`, :class:`MISDecision`, :class:`CheckerVerdict`
  from the algorithm drivers, and :class:`BatchStart`/:class:`BatchEnd`/
  :class:`Repair` from the streaming matching service
  (:mod:`repro.stream`), so algorithmic structure and transport cost
  appear on one timeline.
* :class:`JsonlTraceWriter` / :func:`load_trace` — stream events to disk
  as JSON lines and reload them as the same event sequence, for offline
  timeline rendering (:func:`render_timeline`) and run-to-run diffing
  (:func:`diff_traces`).  By default the writer records the *structural*
  events only; per-message capture is opt-in (``messages=True`` or a
  ``sample=`` rate) because serializing every delivered message costs more
  than delivering it.
* :func:`observing` — an ambient-observer context: every :class:`Network`
  constructed inside the ``with`` block attaches to the given observers,
  which is how ``python -m repro experiments --trace DIR`` captures whole
  experiment tables without threading a bus through every call site.
* :func:`resolve_bus` / :class:`Observable` — the executor side, shared by
  every executor: how an ``observe=`` argument becomes a bus, and the
  ``wants``/``emit``/``observer_for`` surface drivers publish through.

Event emission never touches the network's random streams, so an observed
run is bit-identical to an unobserved one (outputs, rounds, metrics) — the
engine-golden tests enforce this.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

# ---------------------------------------------------------------------------
# Event taxonomy
# ---------------------------------------------------------------------------

#: Kind tags, also the ``"kind"`` field of each JSONL line.
ROUND_START = "round_start"
ROUND_END = "round_end"
MESSAGE_DELIVERED = "message"
PHASE_START = "phase_start"
PHASE_END = "phase_end"
AUGMENTATION = "augmentation"
TOKEN_COLLISION = "token_collision"
MIS_DECISION = "mis_decision"
CHECKER_VERDICT = "checker_verdict"
BATCH_START = "batch_start"
BATCH_END = "batch_end"
REPAIR = "repair"


class Event:
    """Base class of all observability events; ``kind`` tags each subclass."""

    kind = "event"

    __slots__ = ()


@dataclass
class RoundStart(Event):
    """The network is about to deliver round ``round`` of ``protocol``."""

    kind = "round_start"

    protocol: str
    round: int


@dataclass
class RoundEnd(Event):
    """Round ``round`` completed: delivery plus every node's computation.

    ``messages``/``bits`` are this round's traffic; ``dropped`` counts
    messages removed by fault injection (paid for but never delivered).
    """

    kind = "round_end"

    protocol: str
    round: int
    messages: int = 0
    bits: int = 0
    dropped: int = 0


@dataclass
class MessageDelivered(Event):
    """One delivered message.  High-volume: subscribe with a sampling rate
    unless you need every edge."""

    kind = "message"

    protocol: str
    round: int
    sender: int
    receiver: int
    bits: int
    payload: Any = None


@dataclass
class PhaseStart(Event):
    """An algorithm driver entered a logical phase (e.g. ``ell=3``)."""

    kind = "phase_start"

    algorithm: str
    phase: str


@dataclass
class PhaseEnd(Event):
    """The matching :class:`PhaseStart`'s phase finished; ``detail`` carries
    driver-specific summary numbers (iterations, paths applied, ...)."""

    kind = "phase_end"

    algorithm: str
    phase: str
    detail: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Augmentation(Event):
    """Augmenting paths were applied to the current matching.

    ``paths`` is how many were applied at once; ``size`` the matching
    size (or weight, for weighted algorithms) afterwards; ``gain`` the
    weight gained (weighted algorithms only).
    """

    kind = "augmentation"

    algorithm: str
    phase: str
    paths: int
    size: float
    gain: float = 0.0


@dataclass
class TokenCollision(Event):
    """Tokens met at ``node`` during token selection; the token of leader
    ``winner`` survived and ``losers`` tokens vanished (Section 3.2)."""

    kind = "token_collision"

    node: int
    winner: int
    losers: int


@dataclass
class MISDecision(Event):
    """A node's final in/out decision in a maximal-independent-set run."""

    kind = "mis_decision"

    node: int
    selected: bool
    context: str = ""


@dataclass
class CheckerVerdict(Event):
    """Outcome of a distributed self-check (:mod:`repro.dist.checkers`)."""

    kind = "checker_verdict"

    checker: str
    ok: bool
    complaints: int = 0


@dataclass
class BatchStart(Event):
    """A streaming service is about to apply update batch ``epoch``.

    ``updates`` is the raw update count of the batch (before coalescing);
    the matching :class:`BatchEnd` reports what the batch actually did.
    """

    kind = "batch_start"

    service: str
    epoch: int
    updates: int


@dataclass
class BatchEnd(Event):
    """The matching :class:`BatchStart`'s batch committed.

    ``seeds`` is the number of repair-worklist seed nodes left after
    coalescing (net topology changes plus broken matched edges);
    ``augmentations`` how many augmenting paths the repair applied;
    ``size`` the matching size afterwards.  Timings stay out of the event
    stream on purpose — traces must be bit-identical run to run.
    """

    kind = "batch_end"

    service: str
    epoch: int
    updates: int
    seeds: int = 0
    augmentations: int = 0
    size: int = 0


@dataclass
class Repair(Event):
    """One invariant-repair pass of a streaming service batch.

    ``mode`` is ``"local"`` (worklist repair seeded at the touched nodes),
    ``"recompute"`` (the repair region was large enough to escalate to a
    from-scratch distributed run on the execution ladder), or ``"init"``
    (the service establishing the invariant on its initial graph).
    """

    kind = "repair"

    service: str
    epoch: int
    mode: str
    seeds: int
    augmentations: int
    nodes_explored: int


EVENT_CLASSES: Dict[str, Type[Event]] = {
    cls.kind: cls
    for cls in (
        RoundStart, RoundEnd, MessageDelivered, PhaseStart, PhaseEnd,
        Augmentation, TokenCollision, MISDecision, CheckerVerdict,
        BatchStart, BatchEnd, Repair,
    )
}

#: Every event kind, in taxonomy order.
ALL_KINDS: Tuple[str, ...] = tuple(EVENT_CLASSES)

#: The low-volume kinds: everything except the per-message stream.
STRUCTURAL_KINDS: Tuple[str, ...] = tuple(
    k for k in ALL_KINDS if k != MESSAGE_DELIVERED
)

_FIELD_NAMES: Dict[Type[Event], Tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls)) for cls in EVENT_CLASSES.values()
}

KindSpec = Union[str, Type[Event]]


def _kind_name(kind: KindSpec) -> str:
    """Normalize an event class or kind string to the canonical kind tag."""
    name = kind if isinstance(kind, str) else getattr(kind, "kind", None)
    if name not in EVENT_CLASSES:
        known = ", ".join(ALL_KINDS)
        raise ValueError(f"unknown event kind {kind!r}; known kinds: {known}")
    return name


# ---------------------------------------------------------------------------
# Deterministic per-edge sampling
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def edge_sample_unit(sender: int, receiver: int) -> float:
    """A deterministic pseudo-uniform value in [0, 1) for a directed edge.

    Sampling must not consume any :class:`random.Random` stream (that would
    perturb the algorithms being observed), so it hashes the edge instead:
    a subscriber with ``sample=r`` receives exactly the messages whose
    edge hashes below ``r`` — the *same* edges in every round and every
    run, which is what makes sampled traces comparable run-to-run.
    """
    x = (sender * 0x9E3779B97F4A7C15 + receiver * 0xC2B2AE3D27D4EB4F + 1) & _MASK64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _MASK64
    x ^= x >> 29
    return x / float(1 << 64)


# ---------------------------------------------------------------------------
# The bus
# ---------------------------------------------------------------------------

Observer = Callable[[Event], None]


class EventBus:
    """Routes events to subscribers by kind, with optional edge sampling.

    A subscriber is any callable taking one event, or any object with an
    ``on_event(event)`` method.  Its interest mask comes from the
    ``kinds=`` argument, falling back to the object's ``interest``
    attribute, falling back to *all* kinds; likewise ``sample=`` falls
    back to the object's ``sample`` attribute (``None`` = every message).
    Sampling applies only to the :class:`MessageDelivered` stream.
    """

    __slots__ = ("_routes", "_observers")

    def __init__(self) -> None:
        # kind -> list of (callback, sample, observer-identity)
        self._routes: Dict[str, List[Tuple[Observer, Optional[float], Any]]] = {}
        self._observers: List[Any] = []

    # -- subscription ----------------------------------------------------
    def subscribe(self, observer: Any,
                  kinds: Optional[Iterable[KindSpec]] = None,
                  sample: Optional[float] = None) -> Any:
        """Attach ``observer``; returns it, so construction can be inline."""
        callback = getattr(observer, "on_event", observer)
        if not callable(callback):
            raise TypeError(
                f"observer {observer!r} is not callable and has no on_event()"
            )
        if kinds is None:
            kinds = getattr(observer, "interest", None)
        if sample is None:
            sample = getattr(observer, "sample", None)
        if sample is not None and not 0.0 <= sample <= 1.0:
            raise ValueError("sample must be in [0, 1]")
        names = ALL_KINDS if kinds is None else tuple(
            _kind_name(k) for k in kinds
        )
        for name in names:
            self._routes.setdefault(name, []).append(
                (callback, sample, observer)
            )
        self._observers.append(observer)
        return observer

    def unsubscribe(self, observer: Any) -> None:
        """Detach every route of ``observer`` (no-op if not subscribed)."""
        for name in list(self._routes):
            kept = [r for r in self._routes[name] if r[2] is not observer]
            if kept:
                self._routes[name] = kept
            else:
                del self._routes[name]
        self._observers = [o for o in self._observers if o is not observer]

    @property
    def subscribers(self) -> List[Any]:
        return list(self._observers)

    def find(self, cls: type) -> Optional[Any]:
        """The first subscribed observer that is an instance of ``cls``."""
        for observer in self._observers:
            if isinstance(observer, cls):
                return observer
        return None

    # -- emission --------------------------------------------------------
    def wants(self, kind: KindSpec) -> bool:
        """True iff at least one subscriber is interested in ``kind``.

        This is the engines' per-round fast check: O(1), no allocation.
        """
        name = kind if isinstance(kind, str) else kind.kind
        return name in self._routes

    def emit(self, event: Event) -> None:
        """Deliver one event to every interested subscriber."""
        routes = self._routes.get(event.kind)
        if not routes:
            return
        if event.kind == MESSAGE_DELIVERED:
            for callback, sample, _ in routes:
                if (sample is None
                        or edge_sample_unit(event.sender, event.receiver) < sample):
                    callback(event)
            return
        for callback, _, _ in routes:
            callback(event)

    def emit_messages(self, events: Sequence[MessageDelivered]) -> None:
        """Deliver one round's message batch (applies per-edge sampling)."""
        routes = self._routes.get(MESSAGE_DELIVERED)
        if not routes:
            return
        for callback, sample, _ in routes:
            if sample is None:
                for event in events:
                    callback(event)
            else:
                for event in events:
                    if edge_sample_unit(event.sender, event.receiver) < sample:
                        callback(event)


# ---------------------------------------------------------------------------
# Ambient observers (how `--trace DIR` reaches every Network an experiment
# builds without threading a bus through each call site)
# ---------------------------------------------------------------------------

_AMBIENT: List[EventBus] = []


def ambient_bus() -> Optional[EventBus]:
    """The innermost :func:`observing` bus, or None outside any context."""
    return _AMBIENT[-1] if _AMBIENT else None


class observing:
    """Context manager: every Network built inside attaches the observers.

    ::

        with observing(JsonlTraceWriter("run.jsonl")) as bus:
            approx_mcm(graph, eps=0.25, seed=0)

    An explicit ``observe=`` argument takes precedence over the
    ambient bus.  Contexts nest; the innermost wins.
    """

    def __init__(self, *observers: Any) -> None:
        self.bus = EventBus()
        for observer in observers:
            self.bus.subscribe(observer)

    def __enter__(self) -> EventBus:
        _AMBIENT.append(self.bus)
        return self.bus

    def __exit__(self, *exc_info: Any) -> None:
        _AMBIENT.remove(self.bus)


# ---------------------------------------------------------------------------
# The executor side, shared by every executor
# ---------------------------------------------------------------------------


def resolve_bus(observe: Any) -> Optional[EventBus]:
    """The bus an executor's ``observe=`` argument names.

    An :class:`EventBus` is used as is; one observer, or a list or tuple
    of them, is subscribed onto a fresh bus; ``None`` falls back to the
    innermost :func:`observing` bus (None outside any context).
    """
    if observe is None:
        return ambient_bus()
    if isinstance(observe, EventBus):
        return observe
    bus = EventBus()
    for observer in (observe if isinstance(observe, (list, tuple))
                     else (observe,)):
        bus.subscribe(observer)
    return bus


class Observable:
    """The observation surface drivers see on every executor.

    A subclass sets ``bus`` (usually from :func:`resolve_bus`); the class
    default ``None`` is an executor that is never observed.
    """

    bus: Optional[EventBus] = None

    def wants(self, kind: KindSpec) -> bool:
        """True iff an observer is interested in ``kind`` (False when
        unobserved) — drivers guard expensive event construction with it."""
        bus = self.bus
        return bus is not None and bus.wants(kind)

    def emit(self, event: Event) -> None:
        """Publish a driver-level event on the bus (no-op when unobserved)."""
        bus = self.bus
        if bus is not None:
            bus.emit(event)

    def observer_for(self, kind: KindSpec) -> Optional[Observer]:
        """``bus.emit`` when someone is interested in ``kind``, else None.

        The hook for instrumentation inside node programs: drivers thread
        the returned callable through ``shared`` only when an observer is
        actually listening, so unobserved runs carry no closure at all.
        """
        bus = self.bus
        if bus is not None and bus.wants(kind):
            return bus.emit
        return None


# ---------------------------------------------------------------------------
# JSONL persistence
# ---------------------------------------------------------------------------


class JsonlTraceWriter:
    """Streams events to ``path`` as one JSON object per line.

    By default the writer subscribes to the *structural* kinds (rounds,
    phases, augmentations, collisions, MIS decisions, checker verdicts) —
    those cost a few events per round and keep the run on the engine's
    fast path.  Pass ``messages=True`` for full per-message capture, or
    ``sample=rate`` for deterministic per-edge sampling of the message
    stream; an explicit ``kinds=`` overrides the mask entirely.

    Payloads are persisted as ``repr`` strings and reloaded with
    ``ast.literal_eval``, so runs whose payloads are built from Python
    literals (everything in this library) round-trip exactly through
    :func:`load_trace`.
    """

    def __init__(self, path: Union[str, Path],
                 kinds: Optional[Iterable[KindSpec]] = None,
                 messages: bool = False,
                 sample: Optional[float] = None) -> None:
        self.path = Path(path)
        if kinds is not None:
            self.interest: Tuple[str, ...] = tuple(_kind_name(k) for k in kinds)
        elif messages or sample is not None:
            self.interest = ALL_KINDS
        else:
            self.interest = STRUCTURAL_KINDS
        self.sample = sample
        self.count = 0
        self.counts: Dict[str, int] = {}
        self._fh: Optional[IO[str]] = self.path.open("w")

    def on_event(self, event: Event) -> None:
        if self._fh is None:
            raise ValueError(f"trace writer for {self.path} is closed")
        record: Dict[str, Any] = {"kind": event.kind}
        for name in _FIELD_NAMES[type(event)]:
            record[name] = getattr(event, name)
        if event.kind == MESSAGE_DELIVERED:
            record["payload"] = repr(record["payload"])
        self._fh.write(json.dumps(record, separators=(",", ":"), default=repr))
        self._fh.write("\n")
        self.count += 1
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _parse_payload(text: Any) -> Any:
    """Invert the writer's ``repr`` encoding; unknown reprs stay strings."""
    if not isinstance(text, str):
        return text
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def load_trace(path: Union[str, Path]) -> List[Event]:
    """Reload a JSONL trace as the event sequence the writer observed."""
    events: List[Event] = []
    with Path(path).open() as fh:
        for line_number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.pop("kind", None)
            cls = EVENT_CLASSES.get(kind)
            if cls is None:
                raise ValueError(
                    f"{path}:{line_number}: unknown event kind {kind!r}"
                )
            if cls is MessageDelivered:
                record["payload"] = _parse_payload(record.get("payload"))
            events.append(cls(**record))
    return events


# ---------------------------------------------------------------------------
# Offline rendering and diffing
# ---------------------------------------------------------------------------

_MAX_RENDERED_PAYLOAD = 40


def _render_one(event: Event) -> str:
    if isinstance(event, RoundStart):
        return f"[{event.protocol} r{event.round:>3}] round start"
    if isinstance(event, RoundEnd):
        drop = f" dropped={event.dropped}" if event.dropped else ""
        return (f"[{event.protocol} r{event.round:>3}] round end: "
                f"{event.messages} msgs, {event.bits} bits{drop}")
    if isinstance(event, MessageDelivered):
        text = repr(event.payload)
        if len(text) > _MAX_RENDERED_PAYLOAD:
            text = text[:_MAX_RENDERED_PAYLOAD - 3] + "..."
        return (f"[{event.protocol} r{event.round:>3}] "
                f"{event.sender:>4} -> {event.receiver:<4} "
                f"({event.bits:>4}b) {text}")
    if isinstance(event, PhaseStart):
        return f"{event.algorithm}: phase {event.phase} {{"
    if isinstance(event, PhaseEnd):
        detail = " ".join(f"{k}={v}" for k, v in event.detail.items())
        return f"}} {event.algorithm}: phase {event.phase} done  {detail}".rstrip()
    if isinstance(event, Augmentation):
        gain = f" gain={event.gain:.4g}" if event.gain else ""
        return (f"{event.algorithm}[{event.phase}]: augment "
                f"{event.paths} path(s) -> size {event.size:g}{gain}")
    if isinstance(event, TokenCollision):
        return (f"token collision at {event.node}: leader {event.winner} "
                f"survives, {event.losers} token(s) die")
    if isinstance(event, MISDecision):
        verdict = "in MIS" if event.selected else "dominated"
        ctx = f" ({event.context})" if event.context else ""
        return f"MIS decision: node {event.node} {verdict}{ctx}"
    if isinstance(event, CheckerVerdict):
        verdict = "ok" if event.ok else f"{event.complaints} complaint(s)"
        return f"checker {event.checker}: {verdict}"
    if isinstance(event, BatchStart):
        return (f"[{event.service} e{event.epoch:>4}] batch start: "
                f"{event.updates} update(s)")
    if isinstance(event, BatchEnd):
        return (f"[{event.service} e{event.epoch:>4}] batch end: "
                f"{event.seeds} seed(s), {event.augmentations} "
                f"augmentation(s) -> size {event.size}")
    if isinstance(event, Repair):
        return (f"[{event.service} e{event.epoch:>4}] repair ({event.mode}): "
                f"{event.seeds} seed(s), {event.augmentations} "
                f"augmentation(s), {event.nodes_explored} node(s) explored")
    return repr(event)


def render_timeline(events: Iterable[Event]) -> str:
    """A human-readable timeline, indented by phase nesting depth."""
    lines: List[str] = []
    depth = 0
    for event in events:
        if isinstance(event, PhaseEnd) and depth > 0:
            depth -= 1
        lines.append("  " * depth + _render_one(event))
        if isinstance(event, PhaseStart):
            depth += 1
    return "\n".join(lines)


def diff_traces(a: Sequence[Event], b: Sequence[Event]
                ) -> Optional[Tuple[int, Optional[Event], Optional[Event]]]:
    """First divergence between two event sequences, or None if identical.

    Returns ``(index, event_a, event_b)`` where either event is None when
    one trace is a strict prefix of the other — the primitive behind
    run-to-run comparisons (same seed, different code revision).
    """
    for i, (ea, eb) in enumerate(zip(a, b)):
        if ea != eb:
            return i, ea, eb
    if len(a) != len(b):
        i = min(len(a), len(b))
        return (i,
                a[i] if i < len(a) else None,
                b[i] if i < len(b) else None)
    return None
