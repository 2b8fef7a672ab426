"""Benchmark T19: MPC maximal matching, supersteps and peak memory vs alpha.

Runs at n = 10,000, the scale where the superstep trend holds; at the
table's default n = 600 seed noise outweighs it.
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
    for row in table.rows:
        assert row[7] == "yes"  # every run maximal
        assert row[6] < 1       # peak/S: the per-machine cap holds
    steps = [row[3] for row in table.rows]
    # mean supersteps strictly fall as alpha grows
    assert all(a > b for a, b in zip(steps, steps[1:])), steps
