"""Round-by-round execution traces for debugging distributed runs.

Attach a :class:`Tracer` to a :class:`~repro.congest.network.Network` (via
``observe=[tracer]``) and every delivered message is recorded as the
:class:`~repro.observe.events.MessageDelivered` event the bus hands it.
Traces can be filtered (by protocol, node, round window) and rendered as a
compact timeline (:func:`~repro.observe.events.render_timeline`) — the
tool that made the token-collision and synchronizer bugs in this library
findable, kept as a first-class debugging aid.

The tracer is an :class:`~repro.observe.events.EventBus` subscriber with
``interest = ("message",)``, so traced runs stay on the batched CSR
engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional

from .events import MessageDelivered, render_timeline


@dataclass
class Tracer:
    """Collects delivered messages; optionally bounded to the most recent."""

    #: Bus interest mask: the tracer only wants the per-message stream.
    interest = ("message",)

    capacity: Optional[int] = None
    events: List[MessageDelivered] = field(default_factory=list)

    def on_event(self, event: MessageDelivered) -> None:
        """Bus-subscriber entry point: a MessageDelivered per delivery."""
        self.record(event)

    def record(self, event: MessageDelivered) -> None:
        self.events.append(event)
        if self.capacity is not None and len(self.events) > self.capacity:
            del self.events[: len(self.events) - self.capacity]

    # -- queries ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def filter(self, protocol: Optional[str] = None,
               node: Optional[int] = None,
               rounds: Optional[range] = None,
               predicate: Optional[Callable[[MessageDelivered], bool]] = None
               ) -> List[MessageDelivered]:
        """Events matching every given criterion."""
        out = []
        for e in self.events:
            if protocol is not None and e.protocol != protocol:
                continue
            if node is not None and node not in (e.sender, e.receiver):
                continue
            if rounds is not None and e.round not in rounds:
                continue
            if predicate is not None and not predicate(e):
                continue
            out.append(e)
        return out

    def messages_between(self, a: int, b: int) -> List[MessageDelivered]:
        """The conversation along one edge, in delivery order."""
        return [e for e in self.events
                if {e.sender, e.receiver} == {a, b}]

    def render(self, events: Optional[Iterable[MessageDelivered]] = None
               ) -> str:
        return render_timeline(self.events if events is None else events)

    def protocols(self) -> List[str]:
        seen: List[str] = []
        for e in self.events:
            if e.protocol not in seen:
                seen.append(e.protocol)
        return seen
