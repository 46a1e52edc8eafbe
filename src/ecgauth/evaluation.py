"""Leave-one-out unseen-intruder evaluation and its report artifacts.

For every multi-session owner S and every other subject I, a classifier is
trained with I withheld from the negative population, then tested on S's
held-out test sessions (genuine) and on all of I's sessions (intruder).
A record's beats depend on nothing but the record, so each manifest record
is read and detected once per evaluation (once per sweep), in parallel
under jobs > 1. Its feature sequence depends only on the owner's template
pack and the parameters, never on the classifier, so the beats are
streamed once per owner and the per-intruder work reduces to SVM training
plus margin evaluation over cached features.

Undefined rates (a zero denominator) propagate as N/A; they are never
silently reported as zero.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from multiprocessing import get_context

import numpy as np

from .ecgio import read_record
from .enroll import PipelineParams, build_template_pack
from .errors import ContractError, UndefinedMetricError
from .pipeline import Timeline, collect_features, replay_login
from .qrs import RecordBeats, record_beats
from .svm import train_svm


@dataclass
class ConfusionCounts:
    """Per-beat verification outcomes; genuine rows feed TP/FN, intruder TN/FP."""

    tp: int = 0
    fn: int = 0
    tn: int = 0
    fp: int = 0


def tpr(counts: ConfusionCounts) -> float:
    if counts.tp + counts.fn == 0:
        raise UndefinedMetricError("TPR undefined: no genuine decisions")
    return counts.tp / (counts.tp + counts.fn)


def fpr(counts: ConfusionCounts) -> float:
    if counts.tn + counts.fp == 0:
        raise UndefinedMetricError("FPR undefined: no intruder decisions")
    return counts.fp / (counts.tn + counts.fp)


def bar(counts: ConfusionCounts) -> float:
    """Balanced accuracy: mean of the genuine and intruder accuracies."""
    if counts.tp + counts.fn == 0 or counts.tn + counts.fp == 0:
        raise UndefinedMetricError("BAR undefined: a class has no decisions")
    return 0.5 * (counts.tp / (counts.tp + counts.fn)
                  + counts.tn / (counts.tn + counts.fp))


@dataclass
class CellResult:
    """One (owner, left-out intruder) classifier's test outcome."""

    owner: str
    intruder: str
    counts: ConfusionCounts
    genuine_timelines: list
    intruder_timelines: list
    genuine_seconds: float
    n_train_pos: int
    n_train_neg: int


@dataclass
class SubjectReport:
    subject_id: str
    test_len_s: float
    avg_bar: float | None
    avg_tpr: float | None
    avg_fpr: float | None
    worst_tpr: float | None
    worst_fpr: float | None


def _check_session_separation(entries) -> None:
    train_roles = ("enroll", "population")
    by_subject: dict[str, dict[str, set]] = {}
    for e in entries:
        slot = by_subject.setdefault(e.subject_id, {"train": set(), "test": set()})
        slot["train" if e.role in train_roles else "test"].add(e.session_id)
    for subject, slot in by_subject.items():
        overlap = slot["train"] & slot["test"]
        if overlap:
            raise ContractError(
                f"{subject}: session(s) {sorted(overlap)} appear in both "
                f"training and test roles")


def _read_beats(path: str) -> RecordBeats:
    return record_beats(read_record(path))


def _manifest_beats(entries, run_map) -> dict:
    """RecordBeats of every distinct manifest entry."""
    unique = list(dict.fromkeys(entries))
    return dict(zip(unique, run_map(_read_beats, [e.path for e in unique])))


def _eval_owner(entries, beats: dict, owner: str, params: PipelineParams,
                c: float) -> list[CellResult]:
    own_enroll = sorted((e for e in entries
                         if e.subject_id == owner and e.role == "enroll"),
                        key=lambda e: e.session_id)
    own_test = sorted((e for e in entries
                       if e.subject_id == owner and e.role == "test"),
                      key=lambda e: e.session_id)
    others = sorted({e.subject_id for e in entries} - {owner})

    enroll_beats = [beats[e] for e in own_enroll]
    pack = build_template_pack(enroll_beats, params)

    pos_feats = [collect_features(b, pack, params).features
                 for b in enroll_beats]
    positives = np.concatenate([f for f in pos_feats if f.shape[0]])

    genuine_batches = [collect_features(beats[e], pack, params)
                       for e in own_test]
    neg_pool: dict[str, list[np.ndarray]] = {}
    attack_batches: dict[str, list] = {}
    for subject in others:
        neg_pool[subject] = []
        attack_batches[subject] = []
        subj_entries = sorted((e for e in entries if e.subject_id == subject),
                              key=lambda e: (e.session_id, e.role))
        for e in subj_entries:
            batch = collect_features(beats[e], pack, params)
            if e.role in ("enroll", "population"):
                neg_pool[subject].append(batch.features)
            attack_batches[subject].append(batch)

    cells = []
    for intruder in others:
        neg_parts = [f for subject in others if subject != intruder
                     for f in neg_pool[subject] if f.shape[0]]
        if not neg_parts:
            raise ContractError(
                f"{owner} vs {intruder}: no negative training rows survive "
                f"the owner's prescreen")
        negatives = np.concatenate(neg_parts)
        x = np.concatenate([positives, negatives])
        y = np.concatenate([np.ones(positives.shape[0]),
                            -np.ones(negatives.shape[0])])
        svm, _ = train_svm(x, y, c=c)

        counts = ConfusionCounts()
        genuine_timelines = []
        for batch in genuine_batches:
            if batch.features.shape[0]:
                pos_mask = svm.margins(batch.features) > 0.0
            else:
                pos_mask = np.zeros(0, dtype=bool)
            counts.tp += int(pos_mask.sum())
            counts.fn += int((~pos_mask).sum())
            genuine_timelines.append(replay_login(
                batch.times, pos_mask, batch.duration_s, params.t_v, params.n))
        intruder_timelines = []
        for batch in attack_batches[intruder]:
            if batch.features.shape[0]:
                pos_mask = svm.margins(batch.features) > 0.0
            else:
                pos_mask = np.zeros(0, dtype=bool)
            counts.fp += int(pos_mask.sum())
            counts.tn += int((~pos_mask).sum())
            intruder_timelines.append(replay_login(
                batch.times, pos_mask, batch.duration_s, params.t_v, params.n))
        cells.append(CellResult(
            owner=owner, intruder=intruder, counts=counts,
            genuine_timelines=genuine_timelines,
            intruder_timelines=intruder_timelines,
            genuine_seconds=sum(b.duration_s for b in genuine_batches),
            n_train_pos=positives.shape[0], n_train_neg=negatives.shape[0]))
    return cells


def _aggregate(owner: str, cells: list[CellResult]) -> SubjectReport:
    bars, tprs, fprs = [], [], []
    for cell in cells:
        try:
            bars.append(bar(cell.counts))
        except UndefinedMetricError:
            pass
        try:
            tprs.append(tpr(cell.counts))
        except UndefinedMetricError:
            pass
        try:
            fprs.append(fpr(cell.counts))
        except UndefinedMetricError:
            pass
    return SubjectReport(
        subject_id=owner,
        test_len_s=cells[0].genuine_seconds if cells else 0.0,
        avg_bar=float(np.mean(bars)) if bars else None,
        avg_tpr=float(np.mean(tprs)) if tprs else None,
        avg_fpr=float(np.mean(fprs)) if fprs else None,
        worst_tpr=min(tprs) if tprs else None,
        worst_fpr=max(fprs) if fprs else None,
    )


def _owners(entries) -> list[str]:
    """Subjects with enroll and test sessions, after the manifest checks."""
    subjects = sorted({e.subject_id for e in entries})
    if len(subjects) < 3:
        raise ContractError(f"leave-one-out needs at least 3 subjects, got {len(subjects)}")
    _check_session_separation(entries)
    owners = sorted(
        s for s in subjects
        if any(e.subject_id == s and e.role == "enroll" for e in entries)
        and any(e.subject_id == s and e.role == "test" for e in entries))
    if not owners:
        raise ContractError("no subject has both enroll and test sessions")
    return owners


@contextmanager
def _mapper(jobs: int):
    """map over a pool of jobs spawned workers, or the builtin map for jobs <= 1."""
    if jobs <= 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=jobs, mp_context=get_context("spawn")) as pool:
        yield pool.map


def _leave_one_out(entries, beats: dict, owners: list[str], params: PipelineParams,
                   c: float, run_map) -> tuple[list[SubjectReport], list[CellResult]]:
    by_owner = list(run_map(partial(_eval_owner, entries, beats, params=params, c=c),
                            owners))
    reports = [_aggregate(owner, cells) for owner, cells in zip(owners, by_owner)]
    cells = [cell for owner_cells in by_owner for cell in owner_cells]
    return reports, cells


def leave_one_out(entries, params: PipelineParams, jobs: int = 1,
                  c: float = 1.0) -> tuple[list[SubjectReport], list[CellResult]]:
    """Evaluate every multi-session owner against every left-out intruder."""
    params.validate()
    entries = tuple(entries)
    owners = _owners(entries)
    with _mapper(jobs) as run_map:
        beats = _manifest_beats(entries, run_map)
        return _leave_one_out(entries, beats, owners, params, c, run_map)


def timeline_metrics(genuine: list[Timeline], intruder: list[Timeline]) -> dict:
    """Session-level security metrics over labeled timelines."""
    genuine_s = sum(t.duration_s for t in genuine)
    lockouts = sum(t.lockout_count() for t in genuine)
    per_hour = lockouts / (genuine_s / 3600.0) if genuine_s > 0 else None
    access_total = 0.0
    completed = []
    for t in intruder:
        for a, b in t.authenticated_intervals():
            access_total += b - a
            if b < t.duration_s:  # interval actually ended in a lockout
                completed.append(b - a)
    mean_lockout = float(np.mean(completed)) if completed else None
    return {
        "genuine_lockouts_per_hour": per_hour,
        "mean_time_to_intruder_lockout_s": mean_lockout,
        "total_intruder_access_s": access_total,
    }


@dataclass(frozen=True)
class SweepCell:
    t_avg: float
    m: int
    avg_bar: float | None
    worst_bar: float | None


def parameter_sweep(entries, t_avg_grid, m_grid, params: PipelineParams,
                    jobs: int = 1) -> tuple[list[SweepCell], SweepCell]:
    """Run leave_one_out per (t_avg, M) cell; returns all cells and the argmax."""
    if not t_avg_grid or not m_grid:
        raise ContractError("sweep grids must be nonempty")
    grid = [replace(params, t_avg=float(t_avg), m=int(m))
            for t_avg in t_avg_grid for m in m_grid]
    for p in grid:
        p.validate()
    entries = tuple(entries)
    owners = _owners(entries)
    cells = []
    with _mapper(jobs) as run_map:
        # beats depend on no sweep parameter: detect once for the whole grid
        beats = _manifest_beats(entries, run_map)
        for p in grid:
            _, loo_cells = _leave_one_out(entries, beats, owners, p, 1.0, run_map)
            bars = []
            for cell in loo_cells:
                try:
                    bars.append(bar(cell.counts))
                except UndefinedMetricError:
                    pass
            cells.append(SweepCell(
                t_avg=p.t_avg, m=p.m,
                avg_bar=float(np.mean(bars)) if bars else None,
                worst_bar=min(bars) if bars else None))
    defined = [c for c in cells if c.avg_bar is not None]
    if not defined:
        raise UndefinedMetricError("every sweep cell is undefined")
    best = max(defined, key=lambda c: c.avg_bar)
    return cells, best


# -- CSV artifacts ----------------------------------------------------------

def _pct(value: float | None) -> str:
    return "N/A" if value is None else f"{100.0 * value:.2f}"


def _hhmm(seconds: float) -> str:
    minutes = int(round(seconds / 60.0))
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def write_report_csv(reports: list[SubjectReport], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("subject,test_len_hhmm,avg_bar,avg_tpr,avg_fpr,worst_tpr,worst_fpr\n")
        for r in reports:
            fh.write(f"{r.subject_id},{_hhmm(r.test_len_s)},{_pct(r.avg_bar)},"
                     f"{_pct(r.avg_tpr)},{_pct(r.avg_fpr)},{_pct(r.worst_tpr)},"
                     f"{_pct(r.worst_fpr)}\n")


def write_sweep_csv(cells: list[SweepCell], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("t_avg,M,avg_bar,worst_bar\n")
        for c in cells:
            fh.write(f"{c.t_avg:g},{c.m},{_pct(c.avg_bar)},{_pct(c.worst_bar)}\n")
