"""Table 1 case studies."""

import pytest

from repro.core.casestudies import (
    CASE_STUDY_CLASSES,
    case_study_row,
    case_study_table,
    efficiency_spread,
)
from repro.errors import AnalysisError
from repro.units import MB


def test_classes_match_paper_structure():
    names = [cls for cls, _ in CASE_STUDY_CLASSES]
    assert names == [
        "Social media",
        "Periodic update services",
        "Widgets",
        "Streaming",
        "Podcasts",
    ]
    assert sum(len(apps) for _, apps in CASE_STUDY_CLASSES) == 16


def test_row_metrics_consistent(medium_study):
    row = case_study_row(medium_study, "com.android.email")
    assert row.users > 0
    assert row.joules_per_day > 0
    # Internal consistency: J/MB == (J/flow) / (MB/flow).
    assert row.joules_per_mb == pytest.approx(
        row.joules_per_flow / row.mb_per_flow, rel=1e-6
    )
    assert row.total_bytes / MB / row.n_flows == pytest.approx(row.mb_per_flow)


def test_unknown_background_app(medium_study):
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        case_study_row(medium_study, "org.mozilla.firefox.nonexistent")


def test_csv_study_without_a_case_study_app(tmp_path):
    """A CSV study registers only the apps its files name: Table 1
    renders without the missing apps' rows instead of raising."""
    from repro import StudyEnergy
    from repro.core.report import render_table1
    from repro.trace.io_text import dataset_from_csv

    packets = tmp_path / "p.csv"
    packets.write_text(
        "timestamp,size,direction,app,conn\n"
        + "".join(
            f"{600.0 * i + d},{size},{way},com.sina.weibo,{i}\n"
            for i in range(1, 20)
            for d, size, way in ((0.0, 300, "up"), (0.2, 1400, "down"))
        )
    )
    events = tmp_path / "e.csv"
    events.write_text(
        "timestamp,kind,app,value\n0.0,process,com.sina.weibo,background\n"
    )
    study = StudyEnergy(dataset_from_csv([(packets, events)]))
    with pytest.raises(AnalysisError, match="not in the study"):
        case_study_row(study, "com.twitter.android")
    rows = case_study_table(study)
    assert [r.app for r in rows] == ["com.sina.weibo"]
    text = render_table1(rows)
    assert "com.sina.weibo" in text and "com.twitter.android" not in text


def test_table_covers_most_apps(medium_study):
    rows = case_study_table(medium_study)
    assert len(rows) >= 10
    classes = {r.app_class for r in rows}
    assert "Social media" in classes
    assert "Periodic update services" in classes


def test_chatty_vs_batched_efficiency(medium_study):
    """The paper's headline: order-of-magnitude J/MB differences between
    functionally similar apps (Weibo vs Twitter)."""
    rows = {r.app: r for r in case_study_table(medium_study)}
    weibo = rows.get("com.sina.weibo")
    twitter = rows.get("com.twitter.android")
    if weibo is None or twitter is None:
        pytest.skip("sampled study lacks one of the apps")
    assert weibo.joules_per_mb > 10 * twitter.joules_per_mb


def test_push_services_energy_hungry(medium_study):
    rows = {r.app: r for r in case_study_table(medium_study)}
    push = rows["com.sec.spp.push"]
    assert push.joules_per_day > 300
    assert push.joules_per_mb > 20


def test_widget_cheaper_than_app(medium_study):
    """Accuweather app ≫ Accuweather widget in J/day (Table 1)."""
    rows = {r.app: r for r in case_study_table(medium_study)}
    app = rows.get("com.accuweather.android")
    widget = rows.get("com.accuweather.widget")
    if app is None or widget is None:
        pytest.skip("sampled study lacks one of the apps")
    assert app.joules_per_day > 3 * widget.joules_per_day


def test_efficiency_spread(medium_study):
    rows = case_study_table(medium_study)
    assert efficiency_spread(rows) > 10.0
    with pytest.raises(AnalysisError):
        efficiency_spread([])


def test_flow_gap_changes_flow_count(medium_study):
    tight = case_study_row(medium_study, "com.sina.weibo", flow_gap=60.0)
    loose = case_study_row(medium_study, "com.sina.weibo", flow_gap=3600.0)
    assert tight.n_flows >= loose.n_flows
    assert loose.mb_per_flow >= tight.mb_per_flow
