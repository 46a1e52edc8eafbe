"""Metrics, leave-one-out mechanics, and report formatting."""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

import ecgauth.evaluation as evaluation
import ecgauth.qrs as qrs
from ecgauth.ecgio import ManifestEntry, read_manifest
from ecgauth.enroll import PipelineParams, enroll_subject
from ecgauth.errors import ContractError, UndefinedMetricError
from ecgauth.evaluation import (CellResult, ConfusionCounts, SubjectReport,
                                SweepCell, bar, fpr, leave_one_out,
                                parameter_sweep, timeline_metrics, tpr,
                                write_report_csv, write_sweep_csv)
from ecgauth.pipeline import (STATE_AUTHENTICATED, STATE_LOCKED, Timeline,
                              replay_login)
from ecgauth.synth import default_cohort, write_cohort

PARAMS = PipelineParams()


# -- confusion metrics --------------------------------------------------------

@pytest.mark.parametrize("counts, expected_pct", [
    (ConfusionCounts(tp=9601, fn=399, tn=10000, fp=0), 98.01),
    (ConfusionCounts(tp=2885, fn=7115, tn=10000, fp=0), 64.43),
    (ConfusionCounts(tp=7551, fn=2449, tn=9999, fp=1), 87.75),
])
def test_bar_reference_points(counts, expected_pct):
    # reported figures are rounded to two decimals, hence the half-unit slack
    assert abs(100.0 * bar(counts) - expected_pct) <= 0.005 + 1e-9


def test_rates_on_perfect_counts():
    counts = ConfusionCounts(tp=50, fn=0, tn=70, fp=0)
    assert bar(counts) == 1.0 and tpr(counts) == 1.0 and fpr(counts) == 0.0


def test_bar_is_symmetric_in_class_roles():
    a = ConfusionCounts(tp=30, fn=10, tn=50, fp=2)
    b = ConfusionCounts(tp=50, fn=2, tn=30, fp=10)
    assert bar(a) == bar(b)


def test_undefined_rates_raise():
    no_genuine = ConfusionCounts(tp=0, fn=0, tn=5, fp=1)
    no_intruder = ConfusionCounts(tp=5, fn=1, tn=0, fp=0)
    for counts in (no_genuine, no_intruder):
        with pytest.raises(UndefinedMetricError):
            bar(counts)
    with pytest.raises(UndefinedMetricError):
        tpr(no_genuine)
    with pytest.raises(UndefinedMetricError):
        fpr(no_intruder)


# -- leave-one-out mechanics ---------------------------------------------------

def test_leave_one_out_cell_structure(loo3):
    reports, cells = loo3
    assert [r.subject_id for r in reports] == ["subj01", "subj02", "subj03"]
    assert len(cells) == 6
    subjects = {"subj01", "subj02", "subj03"}
    for owner in subjects:
        own = [c for c in cells if c.owner == owner]
        assert [c.intruder for c in own] == sorted(subjects - {owner})
        # same owner, same cached genuine stream: identical genuine totals
        assert len({c.counts.tp + c.counts.fn for c in own}) == 1
        assert len({c.n_train_pos for c in own}) == 1
        for c in own:
            assert c.n_train_pos > 0 and c.n_train_neg > 0
            assert c.genuine_seconds == 600.0
            assert len(c.genuine_timelines) == 1
            assert len(c.intruder_timelines) == 2  # both sessions attack


def test_reports_follow_from_cells(loo3):
    reports, cells = loo3
    for report in reports:
        own = [c.counts for c in cells if c.owner == report.subject_id]
        assert report.avg_bar == pytest.approx(float(np.mean([bar(c) for c in own])))
        assert report.worst_tpr == min(tpr(c) for c in own)
        assert report.worst_fpr == max(fpr(c) for c in own)
        assert report.test_len_s == 600.0


def test_session_separation_enforced(entries3):
    tainted = [e for e in entries3
               if not (e.subject_id == "subj01" and e.role == "test")]
    tainted.append(ManifestEntry(subject_id="subj01", session_id="s1",
                                 path=entries3[0].path, role="test"))
    with pytest.raises(ContractError, match="both"):
        leave_one_out(tainted, PARAMS)


def test_leave_one_out_needs_three_subjects(entries3):
    two = [e for e in entries3 if e.subject_id != "subj03"]
    with pytest.raises(ContractError, match="3 subjects"):
        leave_one_out(two, PARAMS)


def test_leave_one_out_needs_an_owner(entries3):
    all_train = [ManifestEntry(subject_id=e.subject_id, session_id=e.session_id,
                               path=e.path, role="enroll") for e in entries3]
    with pytest.raises(ContractError, match="both enroll and test"):
        leave_one_out(all_train, PARAMS)


def test_parallel_run_matches_serial(loo3, entries3):
    reports, cells = leave_one_out(entries3, PARAMS, jobs=2)
    assert reports == loo3[0]
    assert cells == loo3[1]


# -- one beat source ---------------------------------------------------------------

@pytest.fixture(scope="module")
def short3(tmp_path_factory):
    """3-subject cohort with 120 s sessions: enough beats for every cell."""
    out = tmp_path_factory.mktemp("short3")
    cohort = [dataclasses.replace(subj, sessions=tuple(
        dataclasses.replace(sess, record=dataclasses.replace(
            sess.record, samples=sess.record.samples[: 120 * sess.record.fs]))
        for sess in subj.sessions)) for subj in default_cohort(3, seed=7)]
    write_cohort(cohort, out)
    return read_manifest(out / "manifest.csv")


def _count_reads_and_detections(monkeypatch):
    reads = Counter()
    detections = Counter()
    read_record = evaluation.read_record
    detect_beats = qrs.detect_beats

    def counted_read(path):
        reads[path] += 1
        return read_record(path)

    def counted_detect(record):
        detections[(record.subject_id, record.session_id)] += 1
        return detect_beats(record)

    monkeypatch.setattr(evaluation, "read_record", counted_read)
    monkeypatch.setattr(qrs, "detect_beats", counted_detect)
    return reads, detections


def test_leave_one_out_reads_and_detects_each_record_once(short3, monkeypatch):
    reads, detections = _count_reads_and_detections(monkeypatch)
    leave_one_out(short3, PARAMS, jobs=1)
    assert reads == Counter(e.path for e in short3)
    assert detections == Counter((e.subject_id, e.session_id) for e in short3)


def test_sweep_reads_and_detects_each_record_once(short3, monkeypatch):
    reads, detections = _count_reads_and_detections(monkeypatch)
    cells, _ = parameter_sweep(short3, [12.0, 18.0], [40], PARAMS)
    assert [(c.t_avg, c.m) for c in cells] == [(12.0, 40), (18.0, 40)]
    assert reads == Counter(e.path for e in short3)
    assert detections == Counter((e.subject_id, e.session_id) for e in short3)


def test_segmentation_errors_are_not_swallowed(short3, monkeypatch):
    def broken(record, r):
        raise ValueError("segmentation bug")

    monkeypatch.setattr(qrs, "segment_beat", broken)
    with pytest.raises(ValueError, match="segmentation bug"):
        enroll_subject(short3, "subj01", PARAMS)
    with pytest.raises(ValueError, match="segmentation bug"):
        leave_one_out(short3, PARAMS)


# -- timeline metrics ----------------------------------------------------------

def _timeline(duration_s, transitions):
    return Timeline(duration_s=duration_s, transitions=transitions)


def test_timeline_metrics_on_intruder_lockout():
    attacked = _timeline(60.0, [(10.0, STATE_AUTHENTICATED), (22.0, STATE_LOCKED)])
    m = timeline_metrics([], [attacked])
    assert m["total_intruder_access_s"] == 12.0
    assert m["mean_time_to_intruder_lockout_s"] == 12.0
    assert m["genuine_lockouts_per_hour"] is None


def test_timeline_metrics_on_clean_intruder():
    m = timeline_metrics([], [_timeline(60.0, [])])
    assert m["total_intruder_access_s"] == 0.0
    assert m["mean_time_to_intruder_lockout_s"] is None


def test_timeline_metrics_open_interval_is_access_without_lockout():
    m = timeline_metrics([], [_timeline(60.0, [(50.0, STATE_AUTHENTICATED)])])
    assert m["total_intruder_access_s"] == 10.0
    assert m["mean_time_to_intruder_lockout_s"] is None  # never locked back out


def test_timeline_metrics_genuine_lockout_rate():
    genuine = _timeline(1800.0, [
        (10.0, STATE_AUTHENTICATED), (100.0, STATE_LOCKED),
        (200.0, STATE_AUTHENTICATED), (300.0, STATE_LOCKED)])
    m = timeline_metrics([genuine], [])
    assert m["genuine_lockouts_per_hour"] == 4.0
    assert m["total_intruder_access_s"] == 0.0


def test_timeline_metrics_match_replayed_login():
    times = np.arange(1.0, 16.0)
    positive = times <= 10.0
    timeline = replay_login(times, positive, 120.0, t_v=30.0, n=10)
    m = timeline_metrics([], [timeline])
    # authenticated at t=10, oldest quorum positive (t=1) expires at t=31
    assert m["total_intruder_access_s"] == 21.0
    assert m["mean_time_to_intruder_lockout_s"] == 21.0


# -- parameter sweep ------------------------------------------------------------

def test_single_cell_sweep_reduces_to_leave_one_out(loo3, entries3):
    _, cells = loo3
    sweep_cells, best = parameter_sweep(entries3, [18.0], [40], PARAMS)
    bars = [bar(c.counts) for c in cells]
    expected = SweepCell(t_avg=18.0, m=40, avg_bar=float(np.mean(bars)),
                         worst_bar=min(bars))
    assert sweep_cells == [expected]
    assert best == expected


def test_sweep_rejects_empty_grid(entries3):
    with pytest.raises(ContractError, match="nonempty"):
        parameter_sweep(entries3, [], [40], PARAMS)
    with pytest.raises(ContractError, match="nonempty"):
        parameter_sweep(entries3, [18.0], [], PARAMS)


# -- CSV artifacts ---------------------------------------------------------------

def test_report_csv_golden(tmp_path):
    reports = [
        SubjectReport("subj01", 600.0, 0.9801, 0.9601, 0.0, 0.5, 0.0001),
        SubjectReport("subj02", 3660.0, None, None, None, None, None),
    ]
    path = tmp_path / "report.csv"
    write_report_csv(reports, path)
    assert path.read_text() == (
        "subject,test_len_hhmm,avg_bar,avg_tpr,avg_fpr,worst_tpr,worst_fpr\n"
        "subj01,00:10,98.01,96.01,0.00,50.00,0.01\n"
        "subj02,01:01,N/A,N/A,N/A,N/A,N/A\n")


def test_sweep_csv_golden(tmp_path):
    cells = [SweepCell(t_avg=18.0, m=40, avg_bar=0.9801, worst_bar=0.925),
             SweepCell(t_avg=2.5, m=12, avg_bar=None, worst_bar=None)]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(cells, path)
    assert path.read_text() == ("t_avg,M,avg_bar,worst_bar\n"
                                "18,40,98.01,92.50\n"
                                "2.5,12,N/A,N/A\n")
