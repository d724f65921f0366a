"""Text renderers for every figure and table."""

import numpy as np
import pytest

from repro.core import report
from repro.core.casestudies import case_study_table
from repro.core.popularity import top10_appearance_counts, top_consumers
from repro.core.statefrac import state_energy_fractions
from repro.core.transitions import (
    bytes_since_foreground,
    persistence_durations,
    trace_timeline,
)
from repro.policy import kill_policy_savings


def test_render_table_alignment():
    text = report.render_table(
        ["name", "value"], [("a", 1), ("bbbb", 22)], title="T"
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1]
    assert set(lines[2]) <= {"-", " "}
    assert len(lines) == 5


def test_cell_formatting():
    text = report.render_table(["x"], [(0.000123,), (1234567.0,), (3.14159,), (0,)])
    assert "0.000123" in text
    assert "3.14" in text


def test_format_duration():
    assert report.format_duration(30) == "30s"
    assert report.format_duration(600) == "10min"
    assert report.format_duration(7300) == "2.0h"
    assert report.format_duration(3 * 86400) == "3.0d"


def test_render_fig1(small_dataset):
    text = report.render_fig1(top10_appearance_counts(small_dataset))
    assert "Figure 1" in text
    assert "top10" in text


def test_render_fig2(small_study):
    text = report.render_fig2(
        top_consumers(small_study, by="energy"),
        top_consumers(small_study, by="data"),
    )
    assert "Figure 2a" in text and "Figure 2b" in text
    assert "J/MB" in text


def test_render_fig3(small_study):
    text = report.render_fig3(state_energy_fractions(small_study))
    assert "Figure 3" in text
    assert "foreground" in text and "service" in text
    assert "%" in text


def test_render_fig4(small_dataset):
    view = trace_timeline(small_dataset, "com.android.chrome")
    text = report.render_fig4(view)
    assert "Figure 4" in text
    assert "background" in text


def test_render_fig5(small_dataset):
    samples = persistence_durations(small_dataset, app="com.android.chrome")
    text = report.render_fig5(samples)
    assert "Figure 5" in text
    assert "p50" in text


def test_render_fig6(small_dataset):
    edges, totals = bytes_since_foreground(small_dataset)
    text = report.render_fig6(edges, totals)
    assert "Figure 6" in text
    assert "MB" in text


def test_render_table1(small_study):
    text = report.render_table1(case_study_table(small_study))
    assert "Table 1" in text
    assert "J/day" in text
    # Class labels appear once per block.
    assert text.count("Social media") == 1


def test_render_table2(medium_study):
    results = [
        kill_policy_savings(medium_study, app)
        for app in ("com.sina.weibo", "com.facebook.orca")
    ]
    text = report.render_table2(results)
    assert "Table 2" in text
    assert "weibo" in text
    assert "A: % days only bg traffic" in text


def test_render_headlines():
    text = report.render_headlines({"background fraction": 0.84})
    assert "0.84" in text
