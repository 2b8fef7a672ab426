"""Outside-in layer tracing: spans recorded around the program's layers.

The tracer wraps public functions and methods of :mod:`repro` from the
benchmark's side, so the program itself is unchanged.  Each call through a
wrapper records one span ``[id, parent, op, layer, name, start, end,
note]``; the harness opens the root span of every op.  Spans stay in
memory and are written as JSON lines once, at the end of the run.

A layer's self time is its spans' duration minus the time their direct
child spans cover, so the self times of one op's spans sum to the op's
root span exactly.  A target that no longer exists (after a refactor) is
reported in :attr:`Tracer.absent` and its layer reads as zero; the run does
not fail.

Only the traced run imports this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: layer -> the ``module:attribute.path`` targets whose calls it times
LAYERS: Dict[str, Tuple[str, ...]] = {
    "matching.oracle": ("repro.core.api:max_cardinality",
                        "repro.core.api:max_weight_bipartite"),
    "matching.verify": ("repro.core.api:certify",),
    "dist.driver": ("repro.core.api:general_mcm",
                    "repro.core.api:bipartite_mcm",
                    "repro.core.api:israeli_itai"),
    "congest.network_init": ("repro.congest.network:Network.__init__",),
    "congest.run": ("repro.congest.network:Network.run",),
    "congest.sharding.spawn": (
        "repro.congest.sharding:ShardedNetwork.__init__",),
    "congest.sharding.partition": ("repro.congest.sharding:partition_graph",),
    "congest.sharding.execute": (
        "repro.congest.sharding:ShardedNetwork.execute",),
    "mpc.cluster_init": ("repro.mpc.cluster:MPCCluster.__init__",),
    "mpc.driver": ("repro.mpc:mpc_maximal",),
    "graphs.to_csr": ("repro.graphs.graph:Graph.to_csr",),
    # Network.run resolves through the module-level name; explain_execution
    # and the MPC cluster go through the model objects
    "models.resolve": ("repro.congest.network:resolve_execution",
                       "repro.models.base:CongestModel.resolve",
                       "repro.models.base:MPCModel.resolve"),
    "stream.apply": ("repro.stream.service:MatchingService.apply",),
    "stream.commit": ("repro.stream.service:MatchingService.commit",),
    "stream.snapshot": ("repro.stream.service:MatchingService.snapshot",),
}

#: the layer of the root span the harness opens around each op
ROOT_LAYER = "core.api"

_ID, _PARENT, _OP, _LAYER, _NAME, _START, _END, _NOTE = range(8)


def _resolve(target: str) -> Tuple[Any, str]:
    """``"pkg.mod:Cls.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise AttributeError(f"{target} not found")
    return owner, attr


class Tracer:
    """Span recorder plus the wrappers that feed it.

    :meth:`install` patches every target in :data:`LAYERS`;
    :meth:`uninstall` puts the exact original objects back.  Use
    :meth:`root` to open an op's root span.
    """

    def __init__(self, layers: Optional[Dict[str, Tuple[str, ...]]] = None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.layers = LAYERS if layers is None else layers
        self.clock = clock
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self.absent: Dict[str, str] = {}
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any, bool]] = []

    # -- wrapping --------------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        """Wrap every present target; record the missing ones as absent."""
        if self._saved:
            return
        for layer, targets in self.layers.items():
            for target in targets:
                try:
                    owner, attr = _resolve(target)
                except (ImportError, AttributeError) as exc:
                    self.absent[target] = f"{layer}: {exc}"
                    continue
                own = attr in vars(owner)
                original = vars(owner)[attr] if own else getattr(owner, attr)
                setattr(owner, attr, self._wrap(layer, target, original))
                self._saved.append((owner, attr, original, own))

    def uninstall(self) -> None:
        """Restore the original objects, in reverse order of patching."""
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        tracer = self
        note_tier = layer == "models.resolve"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
                if note_tier:
                    span[_NOTE] = getattr(result, "tier", None)
                return result
            finally:
                tracer._close(span)

        return wrapper

    # -- spans -----------------------------------------------------------
    def _open(self, layer: str, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                self.op, layer, name, self.clock(), 0.0, None]
        self.spans.append(span)
        self._stack.append(span[_ID])
        return span

    def _close(self, span: list) -> None:
        span[_END] = self.clock()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, op: int,
             layer: str = ROOT_LAYER) -> Iterator[list]:
        """Open the root span of op ``op`` around the ``with`` body."""
        self.op = op
        span = self._open(layer, name)
        try:
            yield span
        finally:
            self._close(span)
            self.op = None

    # -- analysis --------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: duration minus the duration of its direct children."""
        own = [s[_END] - s[_START] for s in self.spans]
        for s in self.spans:
            if s[_PARENT] is not None:
                own[s[_PARENT]] -= s[_END] - s[_START]
        return own

    def by_op(self) -> Dict[int, Dict[str, Dict[str, float]]]:
        """op -> layer -> ``{"calls", "self_s"}``; spans outside any op
        are left out."""
        own = self.self_times()
        out: Dict[int, Dict[str, Dict[str, float]]] = {}
        for s, self_s in zip(self.spans, own):
            if s[_OP] is None:
                continue
            row = out.setdefault(s[_OP], {}).setdefault(
                s[_LAYER], {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s
        return out

    def tiers(self) -> Dict[str, int]:
        """How often each execution tier was resolved."""
        counts: Dict[str, int] = {}
        for s in self.spans:
            if s[_NOTE] is not None:
                counts[s[_NOTE]] = counts.get(s[_NOTE], 0) + 1
        return counts

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[_ID], "parent": s[_PARENT], "op": s[_OP],
                    "layer": s[_LAYER], "name": s[_NAME],
                    "start": s[_START], "end": s[_END],
                    **({"tier": s[_NOTE]} if s[_NOTE] is not None else {}),
                }) + "\n")
