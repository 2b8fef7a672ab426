"""Regenerate EXPERIMENTS.md from the current experiment suite.

Run from the repo root::

    python tools/gen_experiments_md.py

Every table is re-measured at the canonical scales and the prose's cited
numbers are pulled from the fresh tables, so the document always matches
what ``pytest benchmarks/ --benchmark-only`` reproduces.
"""

import sys

from repro.experiments.suite import ALL_EXPERIMENTS


def main() -> None:

    print("running the full suite...", flush=True)
    T = {}
    for name in sorted(ALL_EXPERIMENTS):
        T[name] = ALL_EXPERIMENTS[name]()
        print(f"  {name} done", flush=True)


    def tb(name):
        return "```\n" + T[name].format().rstrip() + "\n```"


    def row(name, match):
        """First row of table `name` for which match(row) is true."""
        for r in T[name].rows:
            if match(r):
                return r
        raise LookupError(name)


    # prose-cited values, pulled live -------------------------------------------
    t9_diag = {r[1]: r for r in T["t09"].rows if r[0] == "diagonal"}
    diag_pim = t9_diag["pim"][3]
    diag_islip = t9_diag["islip"][3]
    diag_ours = t9_diag["dist_mcm"][3]
    t11_token = row("t11", lambda r: "token" in r[0])
    t11_luby = row("t11", lambda r: "Luby" in r[0])

    doc = f"""# EXPERIMENTS — paper claims vs. measured results

    The reproduced paper ("Improved Distributed Approximate Matching", Lotker,
    Patt-Shamir, Pettie; see DESIGN.md for the title-collision note) is a
    **theory paper with no evaluation section** — there are no tables or figures
    to re-plot.  The benchmark harness therefore reproduces its *claims*: every
    theorem and load-bearing lemma gets an experiment that measures the claimed
    approximation ratio, round complexity, or message size on the CONGEST
    simulator, plus the introduction's switch-scheduling motivation.  All tables
    below are regenerated by ``pytest benchmarks/ --benchmark-only -s`` (one
    benchmark target per table) or ``python tools/gen_experiments_md.py``; runs
    are deterministic given the recorded seeds.

    Reading guide: "who wins and by what factor" is the reproduction target.
    Absolute round counts depend on simulator conventions (3 rounds per
    Israeli-Itai iteration, pipelining charges, etc.) and carry no meaning
    beyond their growth rates.

    ---

    ## T1 — Theorem 3.10: (1 − 1/(k+1))-MCM in bipartite graphs

    **Claim.** For every k, the bipartite CONGEST algorithm outputs a matching
    with no augmenting path shorter than 2k+1, hence a (1 − 1/(k+1))
    approximation (Lemmas 3.2/3.3; the paper states the ratio as (1 − 1/k) with
    k shifted by one).

    **Measured.** Every run sits above its certified bound, and the ratio climbs
    toward 1 as k grows.  The harness additionally certifies, per run, that no
    augmenting path of length ≤ 2k−1 remains (`tests/test_bipartite_mcm.py`).

    {tb('t01')}

    ## T2 — Theorem 3.10: round complexity O(k³ log Δ + k² log n)

    **Claim.** For fixed k and bounded degree, rounds grow as O(log n).

    **Measured.** Rounds per log₂(n) stay flat across an 8× range of n — the
    O(log n) scaling.  The `max msg bits` column grows with log n only; the
    counting/token values are shipped in O(log n)-bit chunks per Lemma 3.9 and
    the chunking charge is already inside the round totals.

    {tb('t02')}

    ## T3 — Theorem 3.15: (1 − 1/k)-MCM in general graphs

    **Claim.** Algorithm 4 (random red/blue sampling + bipartite Aug) reaches the
    same approximation family on arbitrary graphs, with iteration count
    independent of n.

    **Measured.** With the certified stopping rule (run until no augmenting path
    of length ≤ 2k−1 survives anywhere), every run meets the bound on both
    Erdős–Rényi and random-regular graphs, in few sampling iterations — far
    below the paper's worst-case 2^{{2k+1}}(k+1) ln k tail bound, as expected on
    non-adversarial instances.

    {tb('t03')}

    ## T4 — Israeli–Itai baseline (the algorithm the paper improves on)

    **Claim (Israeli & Itai 1986, quoted by the paper).** Maximal matching — a
    1/2-MCM — in O(log n) rounds w.h.p.

    **Measured.** Rounds per log₂ n stay flat; ratios on random graphs hover
    near 0.88 (maximality guarantees only 0.5 — adversarial instances such as
    `augmenting_chain` do push it toward 1/2, see `tests/test_sequential.py`).
    Compare with T1/T3: the paper's algorithms buy the last 10–15% of
    cardinality that maximality leaves on the table.

    {tb('t04')}

    ## T5 — Theorem 4.5: (1/2 − ε)-MWM

    **Claim.** Algorithm 5 turns any δ-MWM black box into a (1/2 − ε)-MWM in
    O(log(1/ε)) black-box invocations.

    **Measured.** The class-greedy black box alone (our Lemma 4.4 substitute,
    δ = 1/5) is lifted by Algorithm 5 above every (1/2 − ε) guarantee and above
    the black box itself on every seed.  On these random instances the fixed
    point is already near the optimum; the guarantee line is what the paper
    promises, the measured line what one gets.

    {tb('t05')}

    ## T6 — Lemma 4.3: convergence w(M_i) ≥ ½(1 − e^(−2δi/3)) w(M*)

    **Claim.** The matching weight converges geometrically to ½ w(M*) at rate
    2δ/3 per iteration.

    **Measured.** The per-iteration trace dominates the lemma's curve at every
    step (by a wide margin — the bound is a worst case).

    {tb('t06')}

    ## T7 — Lemmas 3.2/3.3: the Hopcroft–Karp phase structure

    **Claim.** After the phase that eliminates augmenting paths of length ≤ ell,
    the matching is a (1 − 2/(ell+3))-approximation; each phase's maximal
    disjoint path set strictly raises the shortest augmenting path length.

    **Measured.** Every phase of the distributed run clears its bound, and the
    per-phase sizes track the sequential Hopcroft–Karp trace (note line) —
    the distributed algorithm follows the same staircase.

    {tb('t07')}

    ## T8 — CONGEST(log n) message-size compliance

    **Claim.** All Section 3.2/4 algorithms use O(log n)-bit messages
    (Theorem 3.10, Theorem 4.5); the counting/token quantities of Lemma 3.8 are
    O(ell log n) bits and are pipelined in chunks (Lemma 3.9).

    **Measured.** Israeli–Itai and the weighted class-greedy never exceed a few
    bits and fit whole messages in one round (strict enforcement guards them in
    the test suite).  The bipartite algorithm's largest values fit in 2 chunks
    of the per-round budget, with bits/log₂ n *decreasing* as n grows — the
    constant is bounded, exactly the claim.

    {tb('t08')}

    ## T9 — Figure 1 motivation: switch scheduling

    **Claim (Section 1).** Switch fabrics realize one matching per cycle;
    PIM/iSLIP are Israeli–Itai descendants and "no better than II" in the worst
    case, which motivates better matchings.

    **Measured.** Under skewed diagonal traffic at load 0.9, the scheduler built
    from the paper's (1 − 1/(k+1))-MCM runs at {diag_ours:.1f} cycles of mean
    delay vs {diag_pim:.1f} (PIM) and {diag_islip:.1f} (iSLIP), tracking the
    exact max-size scheduler.  The hotspot row is oversubscribed (the hot
    output receives > 1 cell/cycle), so throughput is capped identically for
    everyone — matching quality cannot create capacity; the differences show
    under admissible load.

    {tb('t09')}

    ## T10 — Ablation: Algorithm 4's coloring bias

    **Claim (implicit in Observation 3.12).** A fixed augmenting path of length
    ell survives the bichromatic sampling with probability 2^(−ell); the
    algorithm uses fair coins.

    **Measured.** Strongly skewed coins (p = 0.8) roughly double the
    iterations-to-done; values around 1/2 are all fine on these instances (path
    survival at k = 2 is dominated by short paths, so the optimum is shallow —
    the trend, not a sharp peak, is the reproduction target).

    {tb('t10')}

    ## T11 — Ablation: token MIS vs explicit Luby on C_M(ell)

    **Claim (Section 3.2).** The token-based emulation selects a maximal set of
    augmenting paths like the explicit conflict-graph MIS, while replacing the
    flooded local views (Θ((|V|+|E|) log n)-bit messages, Lemma 3.4) with
    near-O(log n)-bit traffic.

    **Measured.** Equal approximation quality; the generic algorithm's largest
    message is {t11_luby[3]} bits vs the token algorithm's {t11_token[3]} on an
    18+18-node instance — and the former grows with the graph while the latter
    grows with log n only.

    {tb('t11')}

    ## T12 — Ablation: the δ-MWM black box inside Algorithm 5

    **Claim (Theorem 4.5, parametric).** Any constant-δ black box works; δ only
    sets the iteration count (3/2δ) ln(2/ε).

    **Measured.** Both black boxes land within a point of each other in final
    ratio; the δ = 1/2 local-greedy needs far fewer iterations, per the
    formula — but has no worst-case round bound per iteration (a decreasing
    weight chain serializes it; see `tests/test_weighted.py`).

    {tb('t12')}

    ---

    # Extension experiments (beyond the paper's claims)

    ## T13 — Footnote 2: the alpha synchronizer

    **Claim (footnote 2).** The synchrony assumption is WLOG via Awerbuch's
    alpha synchronizer.

    **Measured.** The same Israeli–Itai node program produces *bit-identical*
    outputs under fixed, uniform, and heavy-tailed delays; the cost is the
    pulse traffic and virtual time following the slowest links.  The end-to-end
    drivers (Theorem 3.10 pipeline, Algorithm 4, tree DP, the auction) also run
    unchanged and identically over the asynchronous engine
    (`SynchronizedNetwork`; see `tests/test_asynchrony.py`).

    {tb('t13')}

    ## T14 — Trees: exact distributed DP vs Algorithm 5

    The tree special case the paper's history section highlights
    (Hoepman–Kutten–Lotker).  Our distributed two-state DP pays O(diameter)
    rounds for ratio exactly 1.0; Algorithm 5 keeps its O(log)-ish rounds and
    lands around 0.95 — the locality/quality trade-off in one table.

    {tb('t14')}

    ## T15 — Dynamic maintenance of the Lemma 3.3 invariant

    Keeping "no augmenting path of length ≤ 2k−1" under random edge churn by
    local repair: the invariant (hence the (1 − 1/(k+1)) ratio) holds after
    every update, with a bounded number of nodes explored per update —
    independent of n (see `tests/test_dynamic.py::TestLocality`).

    {tb('t15')}

    ## T16 — Switch delay vs offered load

    The classic input-queued switch figure: better per-cycle matchings delay
    the congestion knee.  The paper's (1 − 1/(k+1))-MCM scheduler tracks the
    exact max-weight scheduler across the load sweep while PIM/iSLIP (maximal
    matchings) lift off first; LQF sits in between.

    {tb('t16')}

    ## T17 — Cellular coverage (Patt-Shamir–Rawitz–Scalosub)

    The 4G assignment application the paper's related-work section cites as
    building on its matching algorithm.  Stations have limited capacity and
    clients cluster in hotspots; assignment = maximum-weight b-matching.  The
    distributed mutual-proposal negotiation reproduces the sequential greedy
    exactly (same locally-dominant choices) and beats the naive best-SNR rule
    by 20–35% in total rate and coverage, in single-digit communication rounds.

    {tb('t17')}

    ## T18 — The auction alternative on bipartite weighted graphs

    Bertsekas' auction buys a (1 − ε) guarantee on bipartite inputs — stronger
    than Algorithm 5's (1/2 − ε) — at the price of rounds that grow as prices
    climb in ε-steps, and it is event-driven (it runs unchanged, bit-identically,
    under the asynchronous engine).  Algorithm 5 remains the only O(polylog)
    option for *general* weighted graphs.

    {tb('t18')}

    ---

    ## T19 — MPC alpha scaling: sublinear-memory maximal matching

    **Claim.** (Beyond the paper; the sampling step of the Ghaffari–Uitto
    line of work.) Maximal matching is computable in the MPC model with
    strongly sublinear memory ``S = ceil(n^alpha)`` words per machine;
    shrinking alpha trades more machines for less memory, the
    per-machine cap is never exceeded, and each iteration peels a fixed
    fraction of the alive edges, so iterations stay within O(log Δ).

    **Measured.** The simulated cluster (`repro.mpc`) enforces the cap with
    a hard in-run guard (`MemoryExceeded`), so the `peak/S` column < 1 is a
    *guarantee*, not an observation.  Every run stays maximal, and smaller
    alpha spreads the graph over more machines; below the 16-word floor
    the cluster refuses to start.  Supersteps follow the iteration count
    alone: each iteration takes five (sparsify, best, local MIS, and two
    for integrate) after one for input distribution, and the table
    asserts `supersteps = 1 + 5 · iterations` on every run.  So alpha
    trades machines for memory, not supersteps: at n = 10,000 every alpha
    from 0.3 to 0.9 runs 5 iterations, 26 supersteps.  `max survival` is
    the largest fraction of alive edges that outlives any one iteration,
    and `max iters/log2 Delta` divides iterations by log2 of the maximum
    degree.  ``benchmarks/test_t19_mpc_alpha.py`` runs T19 at n = 10,000
    for alpha 0.3 to 0.9 and asserts that every iteration at least halves
    the alive edges, that iterations stay within 2 · log2 Δ, and that
    every run is maximal with peak/S < 1.

    {tb('t19')}

    ---

    ## Summary of claim status

    | Claim | Status |
    |---|---|
    | Thm 3.7 (generic (1−ε)-MCM, LOCAL) | reproduced; certified per-phase (T11, tests) |
    | Thm 3.10 (bipartite (1−1/k)-MCM, CONGEST) | reproduced; bounds certified (T1), O(log n) rounds (T2), O(log n)-bit chunks (T8) |
    | Thm 3.15 (general (1−1/k)-MCM) | reproduced with certified stopping (T3); the paper's iteration tail bound is loose in practice, as expected |
    | Lemma 3.8 (path counting) | verified exactly against enumeration (tests) |
    | Lemma 4.1 (wrap gain) | property-tested on random instances |
    | Lemma 4.2 corollary (bounded local search) | executable: `local_search_mwm` meets k/(k+1) on every tested instance |
    | Lemma 4.3 (convergence) | trace dominates the bound (T6) |
    | Thm 4.5 ((1/2−ε)-MWM) | reproduced (T5, T12) with the class-greedy substitute black box (DESIGN.md, Substitutions) |
    | §4 Remark ((1−ε)-MWM, LOCAL) | reproduced (tests; ratios ≥ 1−ε on all seeds) |
    | §1 motivation (switch scheduling) | reproduced (T9, T16): better matchings → lower delay/backlog at high load |
    | footnote 1 (rings force approximation) | demonstrated (`examples/ring_worst_case.py`) |
    | footnote 2 (synchrony WLOG) | executable (T13): bit-identical outputs under the alpha synchronizer |
    | related work: c-matching, trees, LCAs, 4G assignment | implemented as extensions (b-matching, tree DP, LCA oracle, cellular; T14, T15, T17) |
    | beyond the paper: sublinear-memory MPC maximal matching | implemented as a second computation model (repro.mpc; T19): the cap holds, supersteps are 1 + 5 per iteration at every alpha, and every iteration at least halves the alive edges (benchmarks/test_t19_mpc_alpha.py) |

    **Known deltas from the paper.**

    1. The δ-MWM black box is a weight-class greedy with the same approximation
       guarantee but O(log n · log(n/ε)) rounds instead of the PODC 2007
       algorithm's O(log n) — Algorithm 5's measured rounds inherit that extra
       log factor (DESIGN.md, Substitutions #1).
    2. "W.h.p. within R rounds" statements are realized as Las Vegas loops that
       run until a checkable certificate holds; reported rounds are the actual
       (certified) executions.
    3. Round constants are simulator conventions; only growth rates are
       meaningful.
    """

    with open("EXPERIMENTS.md", "w") as f:
        f.write(doc)
    print("EXPERIMENTS.md regenerated")


if __name__ == "__main__":
    main()
