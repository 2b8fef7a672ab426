"""The ratio harness's mechanics (tools/bench_ratios.py), on fake rows.

The rows here are made of fake samples that advance a fake clock by a
given number of seconds, so no workload runs and each test is instant;
the stream-row helpers run on two-edge graphs.
"""

import importlib.util
import json
from functools import partial
from pathlib import Path

import pytest

TOOL = Path(__file__).parent.parent / "tools" / "bench_ratios.py"


def _load():
    spec = importlib.util.spec_from_file_location("_bench_ratios", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def fake_side(clock, durations, outputs=None, log=None, label=None):
    """Samples whose i-th call takes ``durations[i]`` fake seconds."""
    for i, seconds in enumerate(durations):
        def sample(seconds=seconds, i=i):
            if log is not None:
                log.append(label)
            clock.now += seconds
            return "out" if outputs is None else outputs[i]
        yield sample


def fake_row(clock, ref, fast, **fields):
    return bench.Row("suite/fake", "fake workload", "ref", "fast",
                     (fake_side(clock, ref), fake_side(clock, fast)),
                     pairs=len(ref), **fields)


def test_sides_alternate_order_pair_by_pair():
    clock, log = FakeClock(), []
    row = bench.Row(
        "suite/fake", "fake workload", "ref", "fast",
        (fake_side(clock, [1] * 4, log=log, label="ref"),
         fake_side(clock, [1] * 4, log=log, label="fast")),
        pairs=4)
    bench.measure(row, clock=clock)
    assert log == ["ref", "fast", "fast", "ref", "ref", "fast", "fast", "ref"]


def test_ratio_is_the_median_per_pair_ratio():
    clock = FakeClock()
    # per-pair ratios 4, 1, 3: median 3, while the ratio of median times
    # is 4, the mean ratio 2.67 and the ratio of total times 2.8
    record = bench.measure(fake_row(clock, [4, 1, 9], [1, 1, 3]),
                           clock=clock)
    assert record["pair_ratios"] == [4.0, 1.0, 3.0]
    assert record["ratio"] == 3.0
    assert "failed" not in record


def test_unequal_outputs_fail_the_row():
    clock = FakeClock()
    row = bench.Row("suite/fake", "fake workload", "ref", "fast",
                    (fake_side(clock, [2, 2], outputs=["a", "b"]),
                     fake_side(clock, [1, 1], outputs=["a", "c"])),
                    pairs=2)
    record = bench.measure(row, clock=clock)
    assert record["failed"] == "pair 1: outputs differ"
    assert "ratio" not in record


def test_a_custom_check_replaces_equality():
    clock = FakeClock()
    row = fake_row(clock, [2], [1], check=lambda ref, fast: "spot check")
    assert bench.measure(row, clock=clock)["failed"] == "pair 0: spot check"


def test_missed_target_fails():
    clock = FakeClock()
    missed = bench.measure(fake_row(clock, [2, 2, 2], [1, 1, 1],
                                    target=3.0), clock=clock)
    assert missed["ratio"] == 2.0
    assert missed["failed"] == "ratio 2x is below the 3x target"
    met = bench.measure(fake_row(clock, [2, 2, 2], [1, 1, 1], target=1.5),
                        clock=clock)
    assert "failed" not in met


def test_skip_reason_is_recorded_and_does_not_fail(monkeypatch, capsys):
    skipped = bench.Row("suite/skipped", "fake workload", "ref", "fast",
                        target=3.0, skip="needs 4 cores")
    monkeypatch.setitem(bench.SUITES, "fake", lambda: [skipped])
    assert bench.main(["fake"]) == 0
    assert "skipped (needs 4 cores)" in capsys.readouterr().out
    record = bench.measure(skipped)
    assert record["skipped"] == "needs 4 cores"
    assert "ratio" not in record and "failed" not in record


def test_a_failed_row_fails_the_run(monkeypatch, capsys):
    clock = FakeClock()
    monkeypatch.setattr(bench, "measure",
                        partial(bench.measure, clock=clock))
    monkeypatch.setitem(bench.SUITES, "fake", lambda: [
        fake_row(clock, [1, 1, 1], [1, 1, 1], target=2.0)])
    assert bench.main(["fake"]) == 1
    assert "FAILED suite/fake: ratio 1x" in capsys.readouterr().out


@pytest.mark.parametrize("factor,fails", [(0.79, True), (0.81, False)])
def test_check_against_tolerates_down_to_0_8_of_committed(
        factor, fails, monkeypatch, tmp_path):
    committed = tmp_path / "committed.json"
    committed.write_text(json.dumps(
        {"meta": {}, "rows": {"suite/fake": {"ratio": 10.0}}}))
    clock = FakeClock()
    monkeypatch.setattr(bench, "measure",
                        partial(bench.measure, clock=clock))
    monkeypatch.setitem(bench.SUITES, "suite", lambda: [
        fake_row(clock, [10 * factor] * 3, [1, 1, 1])])
    status = bench.main(["suite", "--check-against", str(committed),
                         "--json", str(tmp_path / "now.json")])
    assert status == (1 if fails else 0)
    written = json.loads((tmp_path / "now.json").read_text())
    assert written["rows"]["suite/fake"]["ratio"] == round(10 * factor, 2)


def test_rows_missing_or_skipped_on_either_side_are_reported_not_failed():
    current = {
        "s/skipped-now": {"skipped": "no numpy"},
        "s/new": {"ratio": 2.0},
        "s/skipped-then": {"ratio": 2.0},
        "s/same": {"ratio": 2.0},
    }
    committed = {
        "s/skipped-now": {"ratio": 5.0},
        "s/gone": {"ratio": 5.0},
        "s/skipped-then": {"skipped": "1 core"},
        "s/same": {"ratio": 2.0},
    }
    failures, notes = bench.regressions(current, committed)
    assert failures == []
    assert sorted(note.split(":")[0] for note in notes) == [
        "s/gone", "s/new", "s/skipped-now", "s/skipped-then"]


# --- the stream row: successive windows, untimed guarantee check -------

def test_stream_pairs_replay_successive_windows_from_their_start_graph():
    Update = bench.EdgeUpdate
    first, second = bench.Graph(), bench.Graph()
    first.add_edge(0, 1)
    second.add_edge(5, 6)
    windows = [(first, [Update("insert", 1, 2)]),
               (second, [Update("weight", 5, 6, 0.5)])]
    samples = bench.windowed(windows, partial(bench.MatchingService, k=2),
                             batch=64, convert=bench.per_event)
    one, two = next(samples)(), next(samples)()
    assert sorted(one.graph.edges()) == [(0, 1, 1.0), (1, 2, 1.0)]
    # per_event replays the weight update as an insert: the heavier
    # weight wins, where an exact overwrite would leave 0.5
    assert sorted(two.graph.edges()) == [(5, 6, 1.0)]
    # each window starts from its own graph, untouched by the replays
    assert sorted(first.edges()) == [(0, 1, 1.0)]
    assert next(samples, None) is None


class FakeService:
    epoch = 3
    guarantee = 2 / 3

    def __init__(self, invariant, ratio):
        self.invariant, self.ratio = invariant, ratio

    def verify_invariant(self):
        return self.invariant

    def current_ratio(self):
        return self.ratio


def test_stream_check_fails_a_broken_invariant_or_guarantee():
    assert bench.guarantee_broken(None, FakeService(True, 0.7)) is None
    assert bench.guarantee_broken(None, FakeService(False, 1.0)) == (
        "invariant violated at epoch 3")
    assert bench.guarantee_broken(None, FakeService(True, 0.6)) == (
        "ratio 0.600 below the guarantee 0.667 at epoch 3")
