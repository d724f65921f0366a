"""The run-metrics layer."""

import json
import sys
import threading

import pytest

from repro.metrics import RunMetrics


def test_stage_accumulates_time_and_calls():
    metrics = RunMetrics()
    with metrics.stage("work"):
        pass
    with metrics.stage("work"):
        pass
    report = metrics.as_dict()
    assert report["stages"]["work"]["calls"] == 2
    assert report["stages"]["work"]["seconds"] >= 0.0
    assert metrics.stage_seconds("work") >= 0.0
    assert metrics.stage_seconds("never-ran") == 0.0


def test_stage_records_even_on_exception():
    metrics = RunMetrics()
    with pytest.raises(RuntimeError):
        with metrics.stage("boom"):
            raise RuntimeError("x")
    assert metrics.as_dict()["stages"]["boom"]["calls"] == 1


def test_counters():
    metrics = RunMetrics()
    metrics.count("packets", 10)
    metrics.count("packets", 5)
    metrics.count("users")
    assert metrics.counter("packets") == 15
    assert metrics.counter("users") == 1
    assert metrics.counter("missing") == 0


def test_rate_requires_both_series():
    metrics = RunMetrics()
    assert metrics.rate("packets", "attribute") is None
    metrics.count("packets", 100)
    assert metrics.rate("packets", "attribute") is None
    with metrics.stage("attribute"):
        sum(range(1000))
    rate = metrics.rate("packets", "attribute")
    assert rate is not None and rate > 0


def test_derived_rates_in_report():
    metrics = RunMetrics()
    metrics.count("attribution.packets", 1000)
    with metrics.stage("attribute"):
        sum(range(1000))
    report = metrics.as_dict()
    assert report["derived"]["attribute_packets_per_s"] > 0
    assert "generate_packets_per_s" not in report["derived"]


def test_concurrent_recording_loses_no_updates():
    """Server handler threads share one RunMetrics; no update may be lost."""
    metrics = RunMetrics()
    threads_n, calls = 8, 20_000

    def hammer():
        for _ in range(calls):
            metrics.count("store.hits")
            with metrics.stage("store.lookup"):
                pass

    threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert metrics.counter("store.hits") == threads_n * calls
    assert metrics.as_dict()["stages"]["store.lookup"]["calls"] == threads_n * calls


def test_wall_time_monotonic():
    metrics = RunMetrics()
    first = metrics.wall_time
    assert first >= 0.0
    assert metrics.wall_time >= first


def test_json_round_trip(tmp_path):
    metrics = RunMetrics()
    metrics.count("n", 3)
    parsed = json.loads(metrics.to_json())
    assert parsed["counters"] == {"n": 3}
    out = tmp_path / "metrics.json"
    metrics.write_json(out)
    assert json.loads(out.read_text())["counters"] == {"n": 3}


def test_write_json_dash_prints(capsys):
    metrics = RunMetrics()
    metrics.write_json("-")
    assert '"wall_time_s"' in capsys.readouterr().out


def test_cli_metrics_json_flag(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "m.json"
    rc = main(
        [
            "figure",
            "1",
            "--users",
            "2",
            "--days",
            "2",
            "--metrics-json",
            str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert "generate" in report["stages"]
    assert "command" in report["stages"]
    assert report["counters"]["generation.packets"] > 0
