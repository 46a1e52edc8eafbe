"""Metrics, leave-one-out mechanics, and report formatting."""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

import ecgauth.ecgio as ecgio
import ecgauth.pipeline as pipeline
import ecgauth.qrs as qrs
from ecgauth.cli import main
from ecgauth.ecgio import (EcgRecord, ManifestEntry, read_manifest, write_manifest,
                           write_record)
from ecgauth.enroll import PipelineParams, build_template_pack, enroll_subject
from ecgauth.errors import ContractError, UndefinedMetricError
from ecgauth.evaluation import (CellResult, ConfusionCounts, SubjectReport,
                                SweepCell, _replay, bar, evaluate, fpr, leave_one_out,
                                timeline_metrics, tpr, write_report_csv, write_sweep_csv)
from ecgauth.pipeline import (STATE_AUTHENTICATED, STATE_LOCKED, TemplatePack,
                              Timeline, replay_login)
from ecgauth.synth import default_cohort, write_cohort
from helpers import constant_margin_svm

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
    read_record = ecgio.read_record
    detect_beats = qrs.detect_beats

    def counted_read(path):
        reads[path] += 1
        return read_record(path)

    def counted_detect(record):
        detections[(record.subject_id, record.session_id)] += 1
        return detect_beats(record)

    monkeypatch.setattr(ecgio, "read_record", counted_read)
    monkeypatch.setattr(qrs, "detect_beats", counted_detect)
    return reads, detections


def test_leave_one_out_reads_and_detects_each_record_once(short3, monkeypatch):
    reads, detections = _count_reads_and_detections(monkeypatch)
    leave_one_out(short3, PARAMS, jobs=1)
    assert reads == Counter(e.path for e in short3)
    assert detections == Counter((e.subject_id, e.session_id) for e in short3)


def test_sweep_reads_and_detects_each_record_once(short3, monkeypatch):
    reads, detections = _count_reads_and_detections(monkeypatch)
    _, _, (cells, _) = evaluate(short3, PARAMS, ([12.0, 18.0], [40]))
    assert [(c.t_avg, c.m) for c in cells] == [(12.0, 40), (18.0, 40)]
    assert reads == Counter(e.path for e in short3)
    assert detections == Counter((e.subject_id, e.session_id) for e in short3)


def test_enroll_command_reads_and_detects_each_training_record_once(
        short3, monkeypatch, tmp_path):
    reads, detections = _count_reads_and_detections(monkeypatch)
    manifest = tmp_path / "manifest.csv"
    write_manifest(short3, manifest)
    assert main(["enroll", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 0
    enrolled = [e for e in short3 if e.role == "enroll"]
    assert len(enrolled) == 3
    assert reads == Counter(e.path for e in enrolled)
    assert detections == Counter((e.subject_id, e.session_id) for e in enrolled)


def test_evaluate_command_with_sweep_reads_and_detects_each_record_once(
        short3, monkeypatch, tmp_path):
    reads, detections = _count_reads_and_detections(monkeypatch)
    manifest = tmp_path / "manifest.csv"
    write_manifest(short3, manifest)
    assert main(["evaluate", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                 "--sweep", "t_avg=12,18", "m=40"]) == 0
    assert (tmp_path / "out" / "sweep.csv").read_text().count("\n") == 3
    assert reads == Counter(e.path for e in short3)
    assert detections == Counter((e.subject_id, e.session_id) for e in short3)


def _count_ranked_sets(monkeypatch):
    """Counter of the accepted window sets the batched kernel ranks."""
    ranked = Counter()
    batched = pipeline.batched_cluster_ranks

    def counted(beats, starts, stops):
        ranked[beats.tobytes()] += 1
        return batched(beats, starts, stops)

    monkeypatch.setattr(pipeline, "batched_cluster_ranks", counted)
    return ranked


def test_leave_one_out_ranks_each_record_once_for_all_owners(short3, monkeypatch):
    # every owner's prescreen accepts every beat here, so one accepted set
    # per record: ranked once, not once per owner
    ranked = _count_ranked_sets(monkeypatch)
    leave_one_out(short3, PARAMS, jobs=1)
    assert len(ranked) == len(short3)
    assert set(ranked.values()) == {1}


def test_sweep_ranks_each_record_once_per_cell(short3, monkeypatch):
    # the (18, 40) cell is the run's own parameters: one leave-one-out serves both
    ranked = _count_ranked_sets(monkeypatch)
    evaluate(short3, PARAMS, ([12.0, 18.0], [40]))
    assert len(ranked) == len(short3)
    assert set(ranked.values()) == {2}


def test_enroll_command_ranks_each_training_record_once(short3, monkeypatch, tmp_path):
    ranked = _count_ranked_sets(monkeypatch)
    manifest = tmp_path / "manifest.csv"
    write_manifest(short3, manifest)
    assert main(["enroll", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 0
    assert len(ranked) == len([e for e in short3 if e.role == "enroll"])
    assert set(ranked.values()) == {1}


def _gated_packs(short3):
    """subj02's test beats, and subj01's pack whole and with an amplitude
    gate that rejects about half of those beats."""
    entry = next(e for e in short3 if e.subject_id == "subj02" and e.role == "test")
    beats = ecgio.manifest_beats([entry], map)[entry]
    own = [e for e in short3 if e.subject_id == "subj01" and e.role == "enroll"]
    whole, _ = build_template_pack(list(ecgio.manifest_beats(own, map).values()), PARAMS)
    gated = TemplatePack.build(whole.template, whole.amp_lo,
                               float(np.median(beats.windows.max(axis=1))))
    return beats, whole, gated


def test_owners_whose_gates_accept_different_beats_get_two_batches(short3, monkeypatch):
    beats, whole, gated = _gated_packs(short3)
    ranked = _count_ranked_sets(monkeypatch)
    batches = pipeline.collect_features(beats, [whole, gated, whole], PARAMS)
    assert batches[0] is batches[2] and batches[0] is not batches[1]
    assert batches[0].n_rejected == 0
    assert 0 < batches[1].n_rejected < len(beats.times)
    assert sorted(ranked.values()) == [1, 1] and len(ranked) == 2


def test_evaluation_timelines_count_prescreen_rejections(short3):
    beats, whole, gated = _gated_packs(short3)
    batches = pipeline.collect_features(beats, [whole, gated], PARAMS)
    timelines = _replay(constant_margin_svm(PARAMS.m, 1.0), batches, PARAMS)
    assert [t.n_rejected for t in timelines] == [b.n_rejected for b in batches]
    assert timelines[1].n_rejected > 0
    for t in timelines:
        assert t.n_positive + t.n_negative + t.n_rejected == len(beats.times)


@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_below_one_refused(short3, jobs):
    with pytest.raises(ContractError, match="jobs"):
        leave_one_out(short3, PARAMS, jobs=jobs)
    with pytest.raises(ContractError, match="jobs"):
        evaluate(short3, PARAMS, ([12.0], [40]), jobs=jobs)
    with pytest.raises(ContractError, match="jobs"):
        evaluate(short3, PARAMS, jobs=jobs)


def test_mixed_sample_rates_refused(short3, tmp_path):
    slow = next(e for e in short3 if e.subject_id == "subj03" and e.role == "enroll")
    rec = ecgio.read_record(slow.path)
    path = tmp_path / "slow.csv"
    write_record(EcgRecord(rec.subject_id, rec.session_id, 256, rec.samples), path)
    entries = [dataclasses.replace(e, path=str(path)) if e == slow else e for e in short3]
    message = "mixed sample rates: subj03/s1 has fs 256, subj01/s1 has fs 512"
    with pytest.raises(ContractError, match=message):
        enroll_subject(entries, "subj01", PARAMS)
    with pytest.raises(ContractError, match=message):
        leave_one_out(entries, PARAMS)


def test_intruder_pool_record_only_attacks(short3, tmp_path):
    base_reports, base_cells = leave_one_out(short3, PARAMS)
    other = default_cohort(4, seed=11)[3].sessions[0].record
    path = tmp_path / "pool.csv"
    write_record(EcgRecord("subj04", "s1", other.fs, other.samples[: 120 * other.fs]), path)
    pool = ManifestEntry("subj04", "s1", str(path), "intruder-pool")
    reports, cells = leave_one_out(list(short3) + [pool], PARAMS)
    assert [c for c in cells if c.intruder != "subj04"] == base_cells
    added = [c for c in cells if c.intruder == "subj04"]
    assert sorted(c.owner for c in added) == ["subj01", "subj02", "subj03"]
    assert all(len(c.intruder_timelines) == 1 for c in added)
    assert [r.subject_id for r in reports] == [r.subject_id for r in base_reports]


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
    reports, loo_cells, (sweep_cells, best) = evaluate(entries3, PARAMS, ([18.0], [40]))
    assert (reports, loo_cells) == loo3
    bars = [bar(c.counts) for c in cells]
    expected = SweepCell(t_avg=18.0, m=40, avg_bar=float(np.mean(bars)),
                         worst_bar=min(bars))
    assert sweep_cells == [expected]
    assert best == expected


def test_sweep_rejects_empty_grid(entries3):
    with pytest.raises(ContractError, match="nonempty"):
        evaluate(entries3, PARAMS, ([], [40]))
    with pytest.raises(ContractError, match="nonempty"):
        evaluate(entries3, PARAMS, ([18.0], []))


def test_sweep_refuses_a_bad_cell_before_reading(entries3, monkeypatch):
    reads, _ = _count_reads_and_detections(monkeypatch)
    with pytest.raises(ContractError, match="m must"):
        evaluate(entries3, PARAMS, ([18.0], [40, 0]))
    with pytest.raises(ContractError, match="t_avg must"):
        evaluate(entries3, PARAMS, ([float("inf")], [40]))
    # grid values are checked as given: no cell runs at M=20, M=1 or
    # t_avg=1.0 in place of 20.5 and True
    with pytest.raises(ContractError, match="m must"):
        evaluate(entries3, PARAMS, ([6.0], [20.5]))
    with pytest.raises(ContractError, match="m must"):
        evaluate(entries3, PARAMS, ([6.0], [40, True]))
    with pytest.raises(ContractError, match="t_avg must"):
        evaluate(entries3, PARAMS, ([6.0, True], [40]))
    assert not reads


def test_cell_without_negative_records_refused_before_reading(short3, monkeypatch):
    # without subj03's enroll record, owner subj01 tested against subj02 has
    # no record left to train its negative class on
    entries = [e for e in short3 if not (e.subject_id == "subj03" and e.role == "enroll")]
    reads, detections = _count_reads_and_detections(monkeypatch)
    with pytest.raises(ContractError, match="subj01: no population subjects besides subj02"):
        leave_one_out(entries, PARAMS)
    assert not reads and not detections


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
