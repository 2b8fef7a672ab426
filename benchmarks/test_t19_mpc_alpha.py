"""Benchmark T19: MPC maximal matching, memory and edge decay vs alpha.

Runs at n = 10,000 and checks what the analysis predicts of a peeling
loop: the alive edges fall by a fixed factor every iteration, and the
iterations stay within a constant times log2 of the maximum degree.
"""

from repro.experiments.suite import t19_mpc_alpha


def test_t19_mpc_alpha(benchmark):
    table = benchmark.pedantic(
        t19_mpc_alpha,
        kwargs=dict(n=10000, p=0.0008,
                    alphas=(0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
                    seeds=(0, 1)),
        rounds=1, iterations=1,
    )
    table.show()
    assert len(table.rows) == 7
    col = {name: i for i, name in enumerate(table.columns)}
    for row in table.rows:
        assert row[col["maximal"]] == "yes"  # every run maximal
        assert row[col["peak/S"]] < 1        # the per-machine cap holds
        # every iteration at least halves the alive edges
        assert row[col["max survival"]] <= 0.5, row
        # iterations within 2 log2 Δ
        assert row[col["max iters/log2 Delta"]] <= 2, row
