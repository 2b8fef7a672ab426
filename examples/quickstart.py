"""Quickstart: approximate matchings through the high-level API.

Run with::

    python examples/quickstart.py

Builds a random bipartite graph and a general weighted graph, runs the
paper's algorithms next to the Israeli-Itai baseline and the exact optimum,
and prints what each achieved and what it cost in CONGEST rounds.  Every
entry point certifies a ratio floor without the optimum; this tour also
measures each ratio against the exact optimum it computes.
"""

from repro import approx_mcm, approx_mwm, exact_mcm, maximal_matching
from repro.graphs import gnp, random_bipartite, uniform_weights


def cardinality_demo() -> None:
    print("=" * 64)
    print("Maximum-cardinality matching on bipartite G(60, 60, 0.06)")
    print("=" * 64)
    graph = random_bipartite(60, 60, 0.06, rng=42)
    optimum = exact_mcm(graph)
    print(f"exact optimum (Hopcroft-Karp):      size={optimum.size}")

    baseline = maximal_matching(graph, seed=1)
    print(f"Israeli-Itai baseline:              size={baseline.size} "
          f"ratio={baseline.size / optimum.size:.3f} "
          f"rounds={baseline.rounds}")

    for eps in (0.5, 0.25, 0.1):
        result = approx_mcm(graph, eps=eps, seed=1)
        print(f"paper (1-{eps})-MCM  [{result.algorithm}]: "
              f"size={result.size} "
              f"ratio={result.size / optimum.size:.3f} "
              f"(certified >= {result.certificate.ratio_floor:.3f}) "
              f"rounds={result.rounds}")
    print()


def weighted_demo() -> None:
    print("=" * 64)
    print("Maximum-weight matching on general G(50, 0.12), uniform weights")
    print("=" * 64)
    graph = gnp(50, 0.12, rng=7, weight_fn=uniform_weights(1, 100))

    from repro.experiments.suite import exact_mwm_weight

    optimum = exact_mwm_weight(graph)
    print(f"exact optimum weight:               {optimum:.1f}")

    for eps in (0.3, 0.1):
        result = approx_mwm(graph, eps=eps, seed=7, reference=optimum)
        print(f"paper (1/2-{eps})-MWM [{result.algorithm}]: "
              f"weight={result.weight:.1f} "
              f"ratio={result.certificate.weight_ratio:.3f} "
              f"(certified >= {result.certificate.ratio_floor:.3f}) "
              f"rounds={result.rounds}")

    local = approx_mwm(graph, eps=0.25, seed=7, model="local",
                       reference=optimum)
    print(f"LOCAL (1-eps)-MWM [{local.algorithm}]:   "
          f"weight={local.weight:.1f} "
          f"ratio={local.certificate.weight_ratio:.3f}")
    print()


def main() -> None:
    cardinality_demo()
    weighted_demo()
    print("Every result above is verified: matchings are checked edge-by-"
          "edge,\nratio floors are certified without the optimum, and each "
          "ratio\nis measured against the exact optimum.")


if __name__ == "__main__":
    main()
