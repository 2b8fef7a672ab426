"""Tests for experiment report generation."""

import pytest

from repro.experiments import (
    build_report,
    table_to_markdown,
    write_report,
)
from repro.experiments.tables import Table


class TestReport:
    def test_table_to_markdown(self):
        t = Table("Title", ["a", "b"])
        t.add_row(1, 2.5)
        t.add_note("hello")
        md = table_to_markdown(t)
        assert "### Title" in md
        assert "| a | b |" in md
        assert "| 1 | 2.5 |" in md
        assert "*Note: hello*" in md

    def test_build_report_subset(self):
        md = build_report(["t04"])
        assert "Israeli-Itai" in md
        assert "# repro experiment report" in md

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            build_report(["t99"])

    def test_write_report(self, tmp_path):
        path = write_report(tmp_path / "r.md", ["t04"])
        assert path.exists()
        assert "Israeli-Itai" in path.read_text()

    def test_cli_report_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "cli_report.md"
        assert main(["experiments", "t04", "--report", str(out)]) == 0
        assert out.exists()
