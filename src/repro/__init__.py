"""repro: distributed approximate matching in the CONGEST model.

A full reproduction of "Improved Distributed Approximate Matching"
(Lotker, Patt-Shamir, Pettie; SPAA 2008 / J. ACM 2015), built on the
PODC 2007 line of work it extends.  The package provides:

* a synchronous CONGEST/LOCAL network simulator with bit-level message
  accounting (:mod:`repro.congest`);
* a second computation model on the shared runtime seam
  (:mod:`repro.models`): simulated MPC with a hard sublinear
  ``S = ceil(n**alpha)``-word memory cap per machine and a maximal
  matching driver (:mod:`repro.mpc`);
* the paper's algorithms — generic (1-eps)-MCM, bipartite CONGEST
  (1-1/k)-MCM, the general-graph reduction, and the weighted
  (1/2-eps)-MWM — plus the Israeli-Itai and Luby building blocks
  (:mod:`repro.dist`);
* sequential exact/approximate baselines (:mod:`repro.matching`);
* an input-queued switch simulator for the paper's motivating
  application (:mod:`repro.switchsim`);
* a streaming matching service maintaining the paper's invariant under
  batched edge/node updates (:mod:`repro.stream`);
* a local-computation-algorithm matching oracle (:mod:`repro.lca`);
* the experiment harness regenerating every claim (:mod:`repro.experiments`).

Quick start::

    from repro import approx_mcm, run
    from repro.graphs import random_bipartite

    graph = random_bipartite(100, 100, 0.05, rng=0)
    result = approx_mcm(graph, eps=0.25, seed=0)
    # the certificate's ratio floor is proved without the optimum
    print(result.size, result.certificate.ratio_floor, result.rounds)

    # or via the single facade, by registry name:
    result = run("mcm", graph, eps=0.25, seed=0)
    print(result.network_metrics.total_bits)

    # observe a run without leaving the fast engine: JSONL trace + profile
    result = run("bipartite_mcm", graph, eps=0.25, trace="run.jsonl",
                 profile=True)
    print(result.trace_path, result.profile)

    # pick how protocols execute with one knob: a tier name or a full plan;
    # "auto" runs a protocol's kernel in-process whatever the graph's size
    # (shard workers start only when a plan asks for them), "node" pins
    # the per-node reference path
    result = run("maximal", graph, execution="node")
    result = run("maximal", graph, execution=ExecutionPlan(tier="kernel"))

    # dynamic graphs: stream updates through the same facade...
    result = run("stream", graph, updates=[("insert", 0, 105),
                                           ("delete", 3, 110)], eps=0.25)
    # ...or hold a long-lived service and commit batches interactively
    from repro import MatchingService
    with MatchingService(graph, eps=0.25) as svc:
        svc.insert_edge(0, 105).delete_edge(3, 110)
        svc.commit()
        print(svc.snapshot().size, svc.verify_invariant())

    # the MPC model: maximal matching under a hard per-machine memory cap
    result = run("mpc_maximal", graph, alpha=0.6, seed=0)
    print(result.rounds,  # supersteps
          result.network_metrics.memory_peak_words)

Every distributed entry point shares the keyword surface ``(graph, *,
eps/k, seed, policy, max_rounds, observe, trace, profile, execution)``
and returns a :class:`MatchingResult`; the sequential references
``exact_mcm``/``exact_mwm`` take only the graph.  ``execution=`` takes a
tier name or an :class:`~repro.models.execution.ExecutionPlan`.  Each
result's certificate carries a ratio floor proved without the optimum
(``certificate.ratio_floor``: Lemma 3.3, or an LP dual for weighted
runs); no entry point computes the optimum itself.
"""

from .core import (
    ALGORITHMS,
    MatchingResult,
    approx_mcm,
    approx_mwm,
    eps_to_k,
    exact_mcm,
    exact_mwm,
    maximal_matching,
    mpc_maximal_matching,
    run,
    stream_matching,
)
from .congest import (
    EventBus,
    ExecutionPlan,
    FaultSpec,
    JsonlTraceWriter,
    Profiler,
    load_trace,
    observing,
)
from .graphs import BipartiteGraph, Graph
from .matching import Matching
from .stream import EdgeUpdate, MatchingService, StreamResult

__version__ = "9.1.0"

__all__ = [
    "ALGORITHMS",
    "MatchingResult",
    "approx_mcm",
    "approx_mwm",
    "eps_to_k",
    "exact_mcm",
    "exact_mwm",
    "maximal_matching",
    "mpc_maximal_matching",
    "run",
    "stream_matching",
    "EdgeUpdate",
    "MatchingService",
    "StreamResult",
    "EventBus",
    "ExecutionPlan",
    "FaultSpec",
    "JsonlTraceWriter",
    "Profiler",
    "load_trace",
    "observing",
    "BipartiteGraph",
    "Graph",
    "Matching",
    "__version__",
]
