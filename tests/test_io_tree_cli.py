"""Tests for graph I/O, the forest DP, and the command-line interface."""

import pytest

from repro.graphs import (
    BipartiteGraph,
    GraphError,
    cycle_graph,
    gnp,
    path_graph,
    random_bipartite,
    random_tree,
    star_graph,
    uniform_weights,
)
from repro.graphs.io import (
    read_edge_list,
    read_json,
    write_edge_list,
    write_json,
)
from repro.matching.sequential import brute_force_mwm
from repro.matching.sequential.tree_dp import is_forest, max_weight_forest
from repro.matching.verify import verify_matching


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = gnp(15, 0.3, rng=1, weight_fn=uniform_weights())
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        h = read_edge_list(path)
        assert h.nodes == g.nodes
        assert {(u, v, w) for u, v, w in h.edges()} == set(g.edges())

    def test_isolated_nodes_preserved(self, tmp_path):
        from repro.graphs import Graph

        g = Graph()
        g.add_node(7)
        g.add_edge(0, 1)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        h = read_edge_list(path)
        assert h.has_node(7)
        assert h.num_nodes == 3

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0 1 2.5  # inline\n2\n")
        g = read_edge_list(path)
        assert g.weight(0, 1) == 2.5
        assert g.has_node(2)

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2 3\n")
        with pytest.raises(GraphError):
            read_edge_list(path)
        path.write_text("a b\n")
        with pytest.raises(GraphError):
            read_edge_list(path)


class TestJsonIO:
    def test_round_trip_plain(self, tmp_path):
        g = gnp(10, 0.4, rng=2, weight_fn=uniform_weights())
        path = tmp_path / "g.json"
        write_json(g, path)
        h = read_json(path)
        assert set(h.edges()) == set(g.edges())

    def test_round_trip_bipartite(self, tmp_path):
        g = random_bipartite(5, 6, 0.4, rng=3)
        path = tmp_path / "g.json"
        write_json(g, path)
        h = read_json(path)
        assert isinstance(h, BipartiteGraph)
        assert h.left == g.left
        assert set(h.edges()) == set(g.edges())


class TestForestDP:
    def test_is_forest(self):
        assert is_forest(path_graph(6))
        assert is_forest(star_graph(4))
        assert not is_forest(cycle_graph(5))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_on_random_trees(self, seed):
        g = random_tree(11, rng=seed, weight_fn=uniform_weights())
        m = max_weight_forest(g)
        verify_matching(g, m)
        assert abs(m.weight(g) - brute_force_mwm(g).weight(g)) < 1e-9

    def test_path_alternation(self):
        g = path_graph(6)
        m = max_weight_forest(g)
        assert m.size == 3

    def test_rejects_cycles(self):
        with pytest.raises(GraphError):
            max_weight_forest(cycle_graph(4))

    def test_forest_with_isolates(self):
        from repro.graphs import Graph

        g = Graph()
        g.add_node(9)
        g.add_edge(0, 1, 5.0)
        g.add_edge(2, 3, 1.0)
        g.add_edge(3, 4, 2.0)
        m = max_weight_forest(g)
        assert m.edge_set() == frozenset({(0, 1), (3, 4)})

    def test_star_picks_heaviest_leaf(self):
        from repro.graphs import Graph

        g = Graph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(0, 2, 9.0)
        g.add_edge(0, 3, 4.0)
        m = max_weight_forest(g)
        assert m.contains_edge(0, 2)
        assert m.size == 1

    def test_large_tree_no_recursion_issue(self):
        g = path_graph(3000)  # a 3000-node path would break naive recursion
        m = max_weight_forest(g)
        assert m.size == 1500


class TestCLI:
    def test_experiments_list(self, capsys):
        from repro.__main__ import main

        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        assert "t01" in out and "t13" in out

    def test_experiments_unknown(self, capsys):
        from repro.__main__ import main

        assert main(["experiments", "t99"]) == 2

    def test_experiments_nothing(self, capsys):
        from repro.__main__ import main

        assert main(["experiments"]) == 2

    def test_match_unweighted(self, tmp_path, capsys):
        from repro.__main__ import main

        g = gnp(14, 0.3, rng=1)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert main(["match", str(path), "--eps", "0.5", "--output"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out
        assert "rounds" in out

    def test_match_weighted(self, tmp_path, capsys):
        from repro.__main__ import main

        g = random_bipartite(6, 6, 0.4, rng=2, weight_fn=uniform_weights())
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert main(["match", str(path), "--weighted", "--eps", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "algorithm5" in out

    # trace/profile offer only the names they can run: the sequential
    # references take no observability keywords, the stream entries report
    # no rounds, and an unknown name is a usage error too
    @pytest.mark.parametrize("name", ["exact_mcm", "stream", "nope"])
    def test_trace_rejects_names_it_cannot_run(self, name, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "t.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["trace", "gnp:20:0.2", "--algorithm", name,
                  "--out", str(out)])
        assert exc.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and f"invalid choice: '{name}'" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["trace", "profile"])
    def test_mpc_memory_guard_is_one_line(self, command, tmp_path, capsys):
        from repro.__main__ import main

        # the default alpha 0.5 gives S=5 words on 20 nodes: below the floor
        argv = [command, "gnp:20:0.2", "--algorithm", "mpc"]
        if command == "trace":
            argv += ["--out", str(tmp_path / "t.jsonl")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("memory guard tripped")
        assert captured.out == ""
