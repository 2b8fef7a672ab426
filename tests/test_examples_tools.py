"""Smoke tests: examples import cleanly; tools regenerate their outputs."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
TOOLS = sorted((ROOT / "tools").glob("*.py"))


def load_module(path: Path):
    spec = importlib.util.spec_from_file_location(f"_smoke_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_and_has_main(path):
    module = load_module(path)
    assert callable(getattr(module, "main", None)), f"{path.stem} lacks main()"
    assert module.__doc__, f"{path.stem} lacks a module docstring"


def test_six_examples_present():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "switch_scheduling",
        "job_assignment",
        "lca_queries",
        "ring_worst_case",
        "cellular_coverage",
    } <= names


def test_readme_quickstart_runs(capsys):
    # the first python block under README's Quickstart heading, verbatim
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quickstart = readme.split("\n## Quickstart\n", 1)[1]
    block = quickstart.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md (Quickstart)", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("path", TOOLS, ids=lambda p: p.stem)
def test_tools_import(path):
    load_module(path)


class TestLQFScheduler:
    def test_lqf_greedy_order(self):
        from repro.switchsim.schedulers import LQFScheduler

        occ = [[5, 4], [4, 1]]
        match = LQFScheduler().schedule(occ, 0)
        # longest queue (0,0) first, then (1,1) is all that remains
        assert (0, 0) in match and (1, 1) in match

    def test_lqf_valid(self):
        from repro.switchsim.schedulers import LQFScheduler

        occ = [[2, 0, 1], [0, 3, 0], [1, 0, 0]]
        match = LQFScheduler().schedule(occ, 0)
        ins = [i for i, _ in match]
        outs = [j for _, j in match]
        assert len(set(ins)) == len(ins) and len(set(outs)) == len(outs)
        for i, j in match:
            assert occ[i][j] > 0


class TestAsyncHaltedBufferRegression:
    def test_late_message_to_halted_node_does_not_hang(self):
        """Regression: messages buffered for a node that halts used to keep
        the async quiescence condition from ever firing (the auction hit
        max_rounds).  The run must terminate promptly."""
        from repro.congest.asynchrony import SynchronizedNetwork, UniformDelay
        from repro.dist import auction_mwm
        from repro.graphs import random_bipartite, uniform_weights
        from repro.matching.sequential import max_weight_bipartite

        g = random_bipartite(10, 10, 0.4, rng=3, weight_fn=uniform_weights())
        sync, _ = auction_mwm(g, eps=0.1, seed=5)
        asy, _ = auction_mwm(
            g, eps=0.1, seed=5,
            network=SynchronizedNetwork(g, UniformDelay(0.2, 3.0), seed=5))
        assert asy == sync
        opt = max_weight_bipartite(g).weight(g)
        assert asy.weight(g) >= 0.9 * opt - 1e-9
