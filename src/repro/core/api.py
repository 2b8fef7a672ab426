"""The high-level public API of the library.

One keyword surface for every algorithm family: each entry point takes the
graph plus the shared keywords ``seed``, ``policy``, ``max_rounds`` and the
observability trio ``observe``/``trace``/``profile`` (and ``eps``/``k``
where an approximation target applies), and returns a
:class:`MatchingResult` whose ``network_metrics`` carries the full
round/message/bit account of the distributed run:

* :func:`approx_mcm` — the paper's (1 - eps)-approximate maximum-cardinality
  matching; dispatches between the bipartite CONGEST algorithm
  (Theorem 3.10), the general-graph reduction (Theorem 3.15), and the
  generic LOCAL algorithm (Theorem 3.7).
* :func:`approx_mwm` — the paper's (1/2 - eps)-approximate maximum-weight
  matching (Theorem 4.5), or the LOCAL (1 - eps)-MWM of the Section 4
  Remark.
* :func:`maximal_matching` — the Israeli-Itai baseline.
* :func:`exact_mcm` / :func:`exact_mwm` — sequential exact references.
* :func:`stream_matching` — dynamic graphs: replay a stream of edge/node
  updates through a :class:`~repro.stream.service.MatchingService` that
  maintains the paper's invariant under batched repair.
* :func:`run` — the single facade: ``repro.run("mcm", graph, eps=0.25)``.

Observability: ``observe=`` attaches an event bus or observers to the run's
network (see :mod:`repro.observe.events`; a
:class:`~repro.observe.tracing.Tracer` rides along as ``observe=[tracer]``);
``trace=path`` streams the run's structured events to a JSONL file
(reloadable via :func:`~repro.observe.events.load_trace`, path echoed as
``MatchingResult.trace_path``); ``profile=True`` attaches a
:class:`~repro.observe.profiling.Profiler` and surfaces its report as
``MatchingResult.profile``.  All three compose, and none of them changes
the delivery engine or the run's outputs.  Algorithms that run
sub-protocols on derived graphs (the conflict-graph MIS of the generic
algorithm, HV's per-class MIS, Algorithm 5's black boxes) do so through
:class:`~repro.runtime.driver.Subnetwork`, so their events appear nested
in traces/profiles and their cost shows up on the same result:
``MatchingResult.rounds`` is the parent's physical account (unchanged
from earlier releases) and ``MatchingResult.rounds_total`` additionally
counts the virtual sub-protocol rounds
(``network_metrics.sub_rounds``/``subnetwork_rounds``).

Every distributed result is verified (:class:`Certificate`): validity,
maximality, and a ratio floor certified without the optimum
(``certificate.ratio_floor``: Lemma 3.3, or an LP dual for weighted
runs).  No entry point computes the exact optimum: a measured
``cardinality_ratio``/``weight_ratio`` is a test-mode number, not a cost
every call pays (:func:`exact_mcm`/:func:`exact_mwm` and
``approx_mwm(reference=...)`` supply it on request).  Everything after the
graph is keyword-only.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional, Union

from ..congest.network import Network
from ..congest.policies import CONGEST, LOCAL, PIPELINE, BandwidthPolicy
from ..observe.profiling import ObservabilityScope, Profiler
from ..graphs.graph import Graph
from ..matching.sequential.blossom import max_cardinality
from ..matching.sequential.hungarian import max_weight_bipartite
from ..matching.verify import certify
from ..dist.bipartite_mcm import bipartite_mcm
from ..dist.general_mcm import general_mcm
from ..dist.generic_mcm import generic_mcm
from ..dist.israeli_itai import israeli_itai
from ..dist.weighted.algorithm5 import approximate_mwm
from ..dist.weighted.hv_local import hv_mwm
from .results import MatchingResult


def eps_to_k(eps: float) -> int:
    """Phases needed for a (1 - eps) guarantee: (1 - 1/(k+1)) >= 1 - eps."""
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    return max(1, math.ceil(1.0 / eps) - 1)


def approx_mcm(graph: Graph, *, eps: float = 0.25,
               k: Optional[int] = None, seed: int = 0,
               model: str = "congest",
               policy: Optional[BandwidthPolicy] = None,
               max_rounds: Optional[int] = None,
               observe: Any = None,
               trace: Any = None,
               profile: Any = None,
               execution: Any = None) -> MatchingResult:
    """(1 - eps)-approximate maximum-cardinality matching.

    ``model="congest"`` uses Theorem 3.10 on bipartite inputs and
    Theorem 3.15 (Algorithm 4 with certified stopping) otherwise;
    ``model="local"`` forces the generic Algorithm 1.  ``k`` overrides the
    phase count directly (``eps`` is ignored then).

    The certificate proves Lemma 3.3 without the optimum:
    ``certificate.ratio_floor`` is k/(k+1) when no augmenting path with
    <= 2k-1 edges exists.  On bipartite inputs (either model) one layered
    alternating BFS checks it in O(n + m); on general ones Algorithm 4's
    exact stopping rule has already checked it, and the LOCAL model
    enumerates paths up to 2k-1 edges, as Algorithm 1 itself does.
    """
    if k is None:
        k = eps_to_k(eps)
    elif k < 1:
        raise ValueError("k must be at least 1")
    obs = ObservabilityScope(observe, trace, profile)
    split, proven = graph.bipartition(), False
    if model == "local":
        net = Network(graph, policy=policy or LOCAL, seed=seed,
                      max_rounds=max_rounds, observe=obs.observe,
                      execution=execution)
        res = generic_mcm(graph, k=k, seed=seed, network=net)
        matching, metrics, detail, name = (
            res.matching, res.metrics, res, "generic_mcm(local)"
        )
    elif model == "congest":
        net = Network(graph, policy=policy or PIPELINE, seed=seed,
                      max_rounds=max_rounds, observe=obs.observe,
                      execution=execution)
        if split is not None:
            bres = bipartite_mcm(graph, k=k, seed=seed, network=net)
            matching, metrics, detail, name = (
                bres.matching, bres.metrics, bres, "bipartite_mcm"
            )
        else:
            gres = general_mcm(graph, k=k, seed=seed, stopping="exact",
                               network=net)
            matching, metrics, detail, name = (
                gres.matching, gres.metrics, gres, "general_mcm"
            )
            proven = gres.certified
    else:
        raise ValueError(f"unknown model {model!r}; use 'congest' or 'local'")

    cert = certify(graph, matching, k=k, bipartition=split, proven=proven)
    return obs.finish(MatchingResult(
        matching=matching, algorithm=name,
        certificate=cert, metrics=metrics, detail=detail))


def approx_mwm(graph: Graph, *, eps: float = 0.1, seed: int = 0,
               model: str = "congest", black_box: str = "class_greedy",
               reference: Optional[float] = None,
               policy: Optional[BandwidthPolicy] = None,
               max_rounds: Optional[int] = None,
               observe: Any = None,
               trace: Any = None,
               profile: Any = None,
               execution: Any = None) -> MatchingResult:
    """Approximate maximum-weight matching.

    ``model="congest"``: Algorithm 5, a (1/2 - eps)-MWM (Theorem 4.5).
    ``model="local"``: the Section 4 Remark's (1 - eps)-MWM.
    ``model="auction"``: the Bertsekas auction, a (1 - eps)-MWM for
    *bipartite* graphs in the CONGEST model (event-driven; rounds grow as
    1/eps).

    The certificate proves a weight floor on every model and graph by weak
    LP duality: from y_v = w(M(v)), one pass over the edges raises an
    endpoint of each edge with y_u + y_v < w_uv, and
    ``certificate.ratio_floor`` is w(M) / sum(y) <= w(M) / w(M*).  Since
    sum(y) >= 2 w(M), this floor never exceeds 1/2 on a graph with an
    edge: enough to certify Theorem 4.5's 1/2 - eps, never the (1 - eps)
    of the other models.  A floor below a model's claim is reported, not
    raised.  ``reference`` optionally supplies the optimum weight for
    ``certificate.weight_ratio`` (e.g. from :func:`exact_mwm` or
    networkx); the entry point computes no optimum itself.
    """
    obs = ObservabilityScope(observe, trace, profile)
    if model == "congest":
        net = Network(graph, policy=policy or CONGEST, seed=seed,
                      max_rounds=max_rounds, observe=obs.observe,
                      execution=execution)
        res = approximate_mwm(graph, eps=eps, seed=seed, black_box=black_box,
                              network=net)
        matching, metrics, detail, name = (
            res.matching, res.metrics, res, f"algorithm5({black_box})"
        )
    elif model == "local":
        net = Network(graph, policy=policy or LOCAL, seed=seed,
                      max_rounds=max_rounds, observe=obs.observe,
                      execution=execution)
        hres = hv_mwm(graph, eps=eps, seed=seed, network=net)
        matching, metrics, detail, name = (
            hres.matching, hres.metrics, hres, "hv_mwm(local)"
        )
    elif model == "auction":
        from ..dist.auction import auction_mwm

        anet = Network(graph, policy=policy or CONGEST, seed=seed,
                       max_rounds=max_rounds, observe=obs.observe,
                       execution=execution)
        amatching, anet = auction_mwm(graph, eps=eps, seed=seed, network=anet)
        matching, metrics, detail, name = (
            amatching, anet.metrics, None, "auction"
        )
    else:
        raise ValueError(
            f"unknown model {model!r}; use 'congest', 'local', or 'auction'"
        )

    cert = certify(graph, matching, optimum_weight=reference, dual=True)
    return obs.finish(MatchingResult(
        matching=matching, algorithm=name,
        certificate=cert, metrics=metrics, detail=detail))


def maximal_matching(graph: Graph, *, seed: int = 0,
                     policy: Optional[BandwidthPolicy] = None,
                     max_rounds: Optional[int] = None,
                     observe: Any = None,
                     trace: Any = None,
                     profile: Any = None,
                     execution: Any = None) -> MatchingResult:
    """The Israeli-Itai baseline: a maximal (hence 1/2-approximate) matching.

    The certificate works as for :func:`approx_mcm` at k = 1: the
    certified floor is 1/2 exactly when the matching is maximal.
    """
    obs = ObservabilityScope(observe, trace, profile)
    net = Network(graph, policy=policy or CONGEST, seed=seed,
                  max_rounds=max_rounds, observe=obs.observe,
                  execution=execution)
    matching = israeli_itai(net)
    cert = certify(graph, matching, k=1)
    return obs.finish(MatchingResult(
        matching=matching, algorithm="israeli_itai",
        certificate=cert, metrics=net.metrics))


def mpc_maximal_matching(graph: Graph, *, alpha: float = 0.5, seed: int = 0,
                         observe: Any = None,
                         trace: Any = None,
                         profile: Any = None,
                         execution: Any = None) -> MatchingResult:
    """Maximal matching under the simulated MPC model.

    Runs the sparsify/best/local-MIS/integrate driver
    (:func:`repro.mpc.mpc_maximal`, five supersteps per iteration) on an
    :class:`~repro.mpc.cluster.MPCCluster` with a hard per-machine budget
    of ``S = ceil(n**alpha)`` words; an ``alpha`` too small for the input
    raises :class:`~repro.mpc.cluster.MemoryExceeded`.  The result's
    ``rounds`` are MPC *supersteps* and ``network_metrics`` carries the
    memory account (``memory_peak_words`` <= ``memory_limit_words``).
    The observability trio and the certificate work exactly as for
    :func:`maximal_matching`.
    """
    from ..mpc import MPCCluster, mpc_maximal as _mpc_driver

    obs = ObservabilityScope(observe, trace, profile)
    cluster = MPCCluster(graph, alpha=alpha, seed=seed,
                         observe=obs.observe, execution=execution)
    res = _mpc_driver(cluster)
    cert = certify(graph, res.matching, k=1)
    result = MatchingResult(
        matching=res.matching, algorithm=f"mpc_maximal(alpha={alpha:g})",
        certificate=cert, metrics=cluster.metrics, detail=res)
    bus = cluster.bus
    if bus is not None:
        profiler = bus.find(Profiler)
        if profiler is not None:
            result.profile = profiler.report()
    return obs.finish(result)


def exact_mcm(graph: Graph) -> MatchingResult:
    """Exact maximum-cardinality matching (Hopcroft-Karp / blossom)."""
    matching = max_cardinality(graph)
    cert = certify(graph, matching, optimum_size=matching.size)
    return MatchingResult(matching=matching, algorithm="exact_mcm",
                          certificate=cert)


def exact_mwm(graph: Graph) -> MatchingResult:
    """Exact maximum-weight matching for *bipartite* graphs (Hungarian)."""
    matching = max_weight_bipartite(graph)
    cert = certify(graph, matching,
                   optimum_weight=matching.weight(graph))
    return MatchingResult(matching=matching, algorithm="exact_mwm",
                          certificate=cert)


def _local_mcm(graph: Graph, **kwargs) -> MatchingResult:
    """Registry entry for ``"generic_mcm"``: the LOCAL-model Algorithm 1."""
    kwargs.setdefault("model", "local")
    return approx_mcm(graph, **kwargs)


def stream_matching(graph: Optional[Graph] = None, *,
                    updates: Any = (),
                    batch: Optional[int] = 64,
                    eps: Optional[float] = None,
                    k: Optional[int] = None,
                    seed: int = 0,
                    execution: Any = None,
                    observe: Any = None,
                    trace: Any = None,
                    profile: Any = None,
                    max_rounds: Optional[int] = None,
                    **service_kwargs: Any):
    """Dynamic maintenance: stream ``updates`` through a matching service.

    The streaming member of the unified API: same keyword surface as the
    static entry points (``eps``/``k``, ``seed``, ``execution``, and the
    observability trio), but the input is a *stream* of edge updates —
    an iterable of :class:`~repro.stream.workload.EdgeUpdate` (or
    ``("insert", u, v[, w])``-style tuples), or a path to a JSONL trace
    from :func:`~repro.stream.workload.save_updates`.  Updates are applied
    in batches of ``batch`` (``None`` = one batch), each batch repairing
    the invariant "no augmenting path <= 2k-1", so the returned
    :class:`~repro.stream.service.StreamResult` carries a matching that is
    a (1 - 1/(k+1))-approximation of the *final* graph, certified like
    every other entry point
    (:meth:`~repro.stream.service.MatchingService.result`).  For
    interactive / long-lived streams, use
    :class:`~repro.stream.service.MatchingService` directly.
    """
    from pathlib import Path as _Path

    from ..stream.service import MatchingService
    from ..stream.workload import load_updates

    service = MatchingService(
        graph, eps=eps, k=k, seed=seed, execution=execution,
        observe=observe, trace=trace, profile=profile, batch=batch,
        max_rounds=max_rounds, **service_kwargs)
    if isinstance(updates, (str, _Path)):
        updates = load_updates(updates)
    service.apply(updates)
    result = service.result()
    service.close()
    return result


#: Name -> entry point registry backing :func:`run`.  Aliases cover the
#: shorthand most call sites use ("mcm", "mwm", "maximal") and the
#: paper-facing driver names ("bipartite_mcm", "general_mcm", "generic_mcm",
#: "algorithm5"), which resolve to the entry point that runs that driver.
ALGORITHMS = {
    "approx_mcm": approx_mcm,
    "mcm": approx_mcm,
    "bipartite_mcm": approx_mcm,
    "general_mcm": approx_mcm,
    "generic_mcm": _local_mcm,
    "approx_mwm": approx_mwm,
    "mwm": approx_mwm,
    "algorithm5": approx_mwm,
    "maximal_matching": maximal_matching,
    "maximal": maximal_matching,
    "israeli_itai": maximal_matching,
    "mpc_maximal": mpc_maximal_matching,
    "mpc": mpc_maximal_matching,
    "exact_mcm": exact_mcm,
    "exact_mwm": exact_mwm,
    "stream": stream_matching,
    "matching_service": stream_matching,
}


def run(algorithm: Union[str, Callable[..., MatchingResult]], graph: Graph,
        **kwargs) -> MatchingResult:
    """One facade over every entry point.

    ``algorithm`` is a registry name (``"mcm"``, ``"approx_mcm"``,
    ``"mwm"``, ``"approx_mwm"``, ``"maximal"``, ``"exact_mcm"``,
    ``"exact_mwm"``, ``"stream"``, ...) or any callable with the
    ``fn(graph, **kwargs)``
    shape.  All remaining keywords are forwarded unchanged, so
    ``repro.run("mcm", g, eps=0.25, seed=3, trace="run.jsonl")`` is exactly
    ``approx_mcm(g, eps=0.25, seed=3, trace="run.jsonl")``.
    """
    if callable(algorithm):
        fn = algorithm
    else:
        fn = ALGORITHMS.get(str(algorithm).lower())
        if fn is None:
            known = ", ".join(sorted(ALGORITHMS))
            raise ValueError(
                f"unknown algorithm {algorithm!r}; known names: {known}"
            )
    return fn(graph, **kwargs)
