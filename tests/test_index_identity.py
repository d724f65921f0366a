"""Bit-identity: indexed analyses equal the boolean-mask originals.

Every refactored figure/table reduction is re-derived here with the
pre-index full-array masks, inline, and compared exactly — float ``==``
and ``np.array_equal``, never ``allclose``. The indexed path may only
change *how* rows are found, never *which* rows or *in what order* they
are reduced.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.appreport import hourly_energy_profile
from repro.core.casestudies import case_study_row
from repro.core.longitudinal import WEEK, era_comparison, weekly_background_energy
from repro.core.popularity import top10_appearance_counts
from repro.core.recommend import _lingering_fraction
from repro.core.transitions import first_minute_fractions, persistence_durations
from repro.policy import killed_days, killed_drop_mask
from repro.trace.events import background_state_values, foreground_state_values
from repro.trace.intervals import background_transitions
from repro.units import DAY


def _bg_mask(packets) -> np.ndarray:
    return np.isin(packets.states, background_state_values())


def _top_app_id(study) -> int:
    totals = study.energy_by_app()
    return max(totals, key=lambda a: totals[a])


def test_bytes_by_app_equals_raw_aggregate(medium_study):
    for trace in medium_study.dataset:
        assert trace.index().bytes_by_app() == trace.packets.bytes_by_app()


def test_top10_counts_equal_masked_reference(medium_dataset):
    # reference: the original per-trace raw aggregate
    counts = {}
    for trace in medium_dataset:
        by_app = trace.packets.bytes_by_app()
        ranked = sorted(by_app, key=lambda a: by_app[a], reverse=True)[:10]
        for app_id in ranked:
            name = medium_dataset.registry.name_of(app_id)
            counts[name] = counts.get(name, 0) + 1
    expected = {n: c for n, c in counts.items() if c >= 2}
    expected = dict(sorted(expected.items(), key=lambda kv: (-kv[1], kv[0])))
    assert top10_appearance_counts(medium_dataset) == expected


def test_daily_energy_equals_masked_reference(medium_study):
    app_id = _top_app_id(medium_study)
    for trace in medium_study.dataset:
        result = medium_study.user_result(trace.user_id)
        n_days = int(np.ceil((trace.end - trace.start) / DAY))
        mask = trace.packets.apps == app_id
        days = ((trace.packets.timestamps[mask] - trace.start) // DAY).astype(
            np.int64
        )
        expected = np.bincount(
            days, weights=result.per_packet[mask], minlength=n_days
        )[:n_days]
        got = medium_study.daily_energy(trace.user_id, app_id)
        assert np.array_equal(got, expected)


def test_app_days_equal_masked_reference(medium_study):
    app_id = _top_app_id(medium_study)
    fg_values = foreground_state_values()
    bg_values = background_state_values()
    for trace in medium_study.dataset:
        packets = trace.packets
        n_days = int(np.ceil((trace.end - trace.start) / DAY))
        app = packets.apps == app_id
        days = ((packets.timestamps - trace.start) // DAY).astype(np.int64)
        fg = np.zeros(n_days, dtype=bool)
        bg = np.zeros(n_days, dtype=bool)
        fg[np.unique(days[app & np.isin(packets.states, fg_values)])] = True
        bg[np.unique(days[app & np.isin(packets.states, bg_values)])] = True
        got_fg, got_bg = medium_study.app_days_with_traffic(trace.user_id, app_id)
        assert np.array_equal(got_fg, fg)
        assert np.array_equal(got_bg, bg)


def test_hourly_profile_equals_masked_reference(medium_study):
    app = medium_study.dataset.registry.name_of(_top_app_id(medium_study))
    app_id = medium_study.dataset.registry.id_of(app)
    bins = np.zeros(24)
    for trace in medium_study.dataset:
        packets = trace.packets
        mask = packets.apps == app_id
        if not np.any(mask):
            continue
        result = medium_study.user_result(trace.user_id)
        seconds_of_day = (packets.timestamps[mask] - trace.start) % DAY
        hours = (seconds_of_day // 3600).astype(np.int64)
        bins += np.bincount(
            np.clip(hours, 0, 23),
            weights=result.per_packet[mask],
            minlength=24,
        )
    expected = tuple(float(v) for v in bins)
    assert hourly_energy_profile(medium_study, app) == expected


def test_case_study_energy_equals_masked_reference(medium_study):
    app = "com.android.email"
    app_id = medium_study.dataset.registry.id_of(app)
    energy = 0.0
    volume = 0
    for trace in medium_study.dataset:
        mask = (trace.packets.apps == app_id) & _bg_mask(trace.packets)
        if not np.any(mask):
            continue
        result = medium_study.user_result(trace.user_id)
        energy += float(result.per_packet[mask].sum())
        volume += trace.packets.select(mask).total_bytes
    row = case_study_row(medium_study, app)
    # The row folds per-(app, state) totals (the readout-protocol
    # addition order, shared with streaming); the masked np.sum
    # reference is a pairwise reduction, so equality holds to ULPs.
    assert row.total_energy == pytest.approx(energy, rel=1e-12)
    assert row.total_bytes == volume
    # Against the protocol-order reference the match is exact.
    exact = 0.0
    for uid in medium_study.user_ids:
        exact += medium_study.user_totals(uid).background_energy(app_id)
    assert row.total_energy == exact


def test_weekly_series_equals_masked_reference(medium_study):
    longest = max((t.end - t.start) for t in medium_study.dataset)
    n_weeks = int(np.ceil(longest / WEEK))
    totals = np.zeros(n_weeks)
    for trace in medium_study.dataset:
        result = medium_study.user_result(trace.user_id)
        mask = _bg_mask(trace.packets)
        weeks = ((trace.packets.timestamps[mask] - trace.start) // WEEK).astype(
            np.int64
        )
        totals += np.bincount(
            np.clip(weeks, 0, n_weeks - 1),
            weights=result.per_packet[mask],
            minlength=n_weeks,
        )
    if longest % WEEK > 0 and n_weeks > 1:
        totals = totals[:-1]
    expected = tuple(float(v) for v in totals)
    assert weekly_background_energy(medium_study).week_energy == expected


def test_era_energy_equals_masked_reference(medium_study):
    app = medium_study.dataset.registry.name_of(_top_app_id(medium_study))
    app_id = medium_study.dataset.registry.id_of(app)
    comparison = era_comparison(medium_study, app)
    for era in comparison.eras:
        energy = 0.0
        days = 0.0
        for trace in medium_study.dataset:
            duration = trace.end - trace.start
            lo = trace.start + era.start_fraction * duration
            hi = trace.start + era.end_fraction * duration
            packets = trace.packets
            mask = (
                (packets.apps == app_id)
                & _bg_mask(packets)
                & (packets.timestamps >= lo)
                & (packets.timestamps < hi)
            )
            if not np.any(mask):
                continue
            result = medium_study.user_result(trace.user_id)
            energy += float(result.per_packet[mask].sum())
            days += (hi - lo) / DAY
        assert era.joules_per_day == (energy / days if days else 0.0)


def test_lingering_fraction_equals_masked_reference(medium_study):
    app = medium_study.dataset.registry.name_of(_top_app_id(medium_study))
    app_id = medium_study.dataset.registry.id_of(app)
    window = 2 * 3600.0
    lingering = 0.0
    total = 0.0
    for trace in medium_study.dataset:
        result = medium_study.user_result(trace.user_id)
        mask = trace.packets.apps == app_id
        if not np.any(mask):
            continue
        total += float(result.per_packet[mask].sum())
        idx = np.flatnonzero(mask)
        app_ts = trace.packets.timestamps[idx]
        for episode in background_transitions(trace.events, app_id, trace.end):
            lo = np.searchsorted(app_ts, episode.start + 60.0)
            hi = np.searchsorted(app_ts, min(episode.start + window, episode.end))
            if hi > lo:
                lingering += float(result.per_packet[idx[lo:hi]].sum())
    expected = lingering / total if total > 0 else 0.0
    assert _lingering_fraction(medium_study, app) == expected


def test_killed_drop_mask_equals_masked_reference(medium_study):
    app_id = _top_app_id(medium_study)
    checked = 0
    for trace in medium_study.dataset:
        fg, bg = medium_study.app_days_with_traffic(trace.user_id, app_id)
        killed = killed_days(fg, bg, 1)
        if not killed.any():
            continue
        packets = trace.packets
        days = ((packets.timestamps - trace.start) // DAY).astype(np.int64)
        days = np.clip(days, 0, len(killed) - 1)
        expected = (packets.apps == app_id) & _bg_mask(packets) & killed[days]
        got = killed_drop_mask(
            medium_study.index_for(trace.user_id), app_id, killed, trace.start
        )
        assert np.array_equal(got, expected)
        checked += 1
    assert checked > 0, "policy never activated; reference untested"


def test_transition_samples_equal_masked_reference(medium_study):
    app = "com.android.email"
    dataset = medium_study.dataset
    app_id = dataset.registry.id_of(app)
    expected = []
    for trace in dataset:
        packets = trace.packets.select(trace.packets.apps == app_id)
        ts = packets.timestamps
        sizes = packets.sizes.astype(np.int64)
        for episode in background_transitions(trace.events, app_id, trace.end):
            lo = np.searchsorted(ts, episode.start, side="left")
            hi = np.searchsorted(ts, episode.end, side="left")
            ep_ts = ts[lo:hi]
            if len(ep_ts) == 0:
                expected.append((trace.user_id, episode.start, 0.0, 0))
                continue
            gaps = np.diff(np.concatenate([[episode.start], ep_ts]))
            breaks = np.flatnonzero(gaps > 600.0)
            last = (breaks[0] - 1) if len(breaks) else (len(ep_ts) - 1)
            if last < 0:
                expected.append((trace.user_id, episode.start, 0.0, 0))
            else:
                expected.append(
                    (
                        trace.user_id,
                        episode.start,
                        float(ep_ts[last] - episode.start),
                        int(sizes[lo : lo + last + 1].sum()),
                    )
                )
    got = [
        (s.user_id, s.start, s.duration, s.bytes)
        for s in persistence_durations(dataset, app=app)
    ]
    assert got == expected


def test_first_minute_fractions_stable(medium_dataset):
    # the dict is rebuilt from the index path; values must be exact
    first = first_minute_fractions(medium_dataset)
    again = first_minute_fractions(medium_dataset)
    assert first == again and len(first) > 0
