"""Streaming matching: batched dynamic maintenance of the paper's invariant.

The dynamic counterpart of the static entry points: a
:class:`MatchingService` ingests edge insertions/deletions/weight updates,
coalesces them into per-superstep batches, and restores "no augmenting
path of length <= 2k-1" after each batch — so the maintained matching is a
(1 - 1/(k+1))-approximation at every committed epoch.  See
:mod:`repro.stream.service` for the algorithm and
:mod:`repro.stream.replay` for the replay/benchmark harnesses.
"""

from .service import BatchStats, MatchingService, MatchingSnapshot, StreamResult
from .replay import (
    ReplayReport,
    percentile,
    replay_events,
    replay_switch,
)
from .workload import EdgeUpdate, as_update, load_updates, random_churn, save_updates

__all__ = [
    "BatchStats",
    "EdgeUpdate",
    "MatchingService",
    "MatchingSnapshot",
    "ReplayReport",
    "StreamResult",
    "as_update",
    "load_updates",
    "percentile",
    "random_churn",
    "replay_events",
    "replay_switch",
    "save_updates",
]
