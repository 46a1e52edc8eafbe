"""Leave-one-out unseen-intruder evaluation and its report artifacts.

For every multi-session owner S and every other subject I, a classifier is
trained with I withheld from the negative population, then tested on S's
held-out test sessions (genuine) and on all of I's sessions (intruder).
An intruder-pool record is only ever such an attack. The training is
enrollment's: enroll.negatives with I left out is the negative class and
enroll.fit the one classifier fit, so an enrolled model is the same fit
with nobody left out. Every cell's negative class is checked before any
record is read.
evaluate is the one evaluation body. A (t_avg, M) sweep runs one
leave-one-out per distinct PipelineParams, so a sweep cell equal to the
run's own parameters runs once, and parameters are checked when built, so
a bad cell is refused before any work starts.
A record's beats depend on nothing but the record, so each manifest record
is read and detected once per call, for the run and every sweep cell, in
parallel under jobs > 1. Its feature
sequence depends on an owner's template pack only through which beats pass
the prescreen, and never on the classifier. So enrollment's owner step
(owner_features) computes each record's features once per accepted set and
parameter cell, in one task per record, and owners whose packs accept the
same beats share them. Each owner task then carries only its own feature
batches, and the per-intruder work reduces to fit plus margin evaluation
over them. A cell's confusion counts and genuine seconds are read off its
timelines. Nothing is kept between calls.

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

from .ecgio import TRAIN_ROLES, manifest_beats
from .enroll import fit, negatives, owner_features, owners
from .errors import ContractError, UndefinedMetricError
from .pipeline import PipelineParams, Timeline, replay_login


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
    genuine_timelines: list
    intruder_timelines: list
    n_train_pos: int
    n_train_neg: int

    @property
    def counts(self) -> ConfusionCounts:
        genuine, intruder = self.genuine_timelines, self.intruder_timelines
        return ConfusionCounts(tp=sum(t.n_positive for t in genuine),
                               fn=sum(t.n_negative for t in genuine),
                               tn=sum(t.n_negative for t in intruder),
                               fp=sum(t.n_positive for t in intruder))

    @property
    def genuine_seconds(self) -> float:
        return sum(t.duration_s for t in self.genuine_timelines)


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
    by_subject: dict[str, dict[str, set]] = {}
    for e in entries:
        slot = by_subject.setdefault(e.subject_id, {"train": set(), "test": set()})
        slot["train" if e.role in TRAIN_ROLES else "test"].add(e.session_id)
    for subject, slot in by_subject.items():
        overlap = slot["train"] & slot["test"]
        if overlap:
            raise ContractError(
                f"{subject}: session(s) {sorted(overlap)} appear in both "
                f"training and test roles")


def _replay(svm, batches: list, params: PipelineParams) -> list[Timeline]:
    """Each batch's login timeline under svm's decisions."""
    return [replace(replay_login(b.times, svm.margins(b.features) > 0.0, b.duration_s,
                                 params.t_v, params.n),
                    n_rejected=b.n_rejected) for b in batches]


def _eval_owner(entries, owner: str, step: tuple, params: PipelineParams) -> list[CellResult]:
    _, _, positives, batches = step
    genuine_batches = [batches[e] for e in sorted(
        (e for e in entries if e.subject_id == owner and e.role == "test"),
        key=lambda e: e.session_id)]
    cells = []
    for intruder in sorted({e.subject_id for e in entries} - {owner}):
        svm, n_negative = fit(owner, positives, batches, negatives(entries, owner, intruder))
        attacks = sorted((e for e in entries if e.subject_id == intruder),
                         key=lambda e: (e.session_id, e.role))
        cells.append(CellResult(
            owner=owner, intruder=intruder,
            genuine_timelines=_replay(svm, genuine_batches, params),
            intruder_timelines=_replay(svm, [batches[e] for e in attacks], params),
            n_train_pos=positives.shape[0], n_train_neg=n_negative))
    return cells


def _defined(metric, cells: list[CellResult]) -> list[float]:
    """metric of every cell's counts, skipping the cells where it is undefined."""
    values = []
    for cell in cells:
        try:
            values.append(metric(cell.counts))
        except UndefinedMetricError:
            pass
    return values


def _aggregate(owner: str, cells: list[CellResult]) -> SubjectReport:
    bars, tprs, fprs = (_defined(metric, cells) for metric in (bar, tpr, fpr))
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
    """Subjects with enroll and test sessions, after the manifest checks:
    every (owner, intruder) cell has a negative class."""
    subjects = {e.subject_id for e in entries}
    if len(subjects) < 3:
        raise ContractError(f"leave-one-out needs at least 3 subjects, got {len(subjects)}")
    _check_session_separation(entries)
    found = owners(entries)
    for owner in found:
        for intruder in sorted(subjects - {owner}):
            negatives(entries, owner, intruder)
    return found


@contextmanager
def _mapper(jobs: int):
    """map over a pool of jobs spawned workers, or the builtin map for one job."""
    if jobs == 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=jobs, mp_context=get_context("spawn")) as pool:
        yield pool.map


def _leave_one_out(entries, beats: dict, owners: list[str], run_map,
                   params: PipelineParams) -> tuple[list[SubjectReport], list[CellResult]]:
    steps = owner_features(beats, owners, params, run_map)
    by_owner = list(run_map(partial(_eval_owner, entries, params=params),
                            owners, [steps[owner] for owner in owners]))
    reports = [_aggregate(owner, cells) for owner, cells in zip(owners, by_owner)]
    cells = [cell for owner_cells in by_owner for cell in owner_cells]
    return reports, cells


def leave_one_out(entries, params: PipelineParams,
                  jobs: int = 1) -> tuple[list[SubjectReport], list[CellResult]]:
    """Evaluate every multi-session owner against every left-out intruder."""
    reports, cells, _ = evaluate(entries, params, jobs=jobs)
    return reports, cells


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


def _grid(params: PipelineParams, t_avg_grid, m_grid) -> list[PipelineParams]:
    """params at every (t_avg, M) cell, with the grid values as given;
    building each cell checks it, so a bad cell is refused before any runs."""
    if not t_avg_grid or not m_grid:
        raise ContractError("sweep grids must be nonempty")
    return [replace(params, t_avg=t_avg, m=m)
            for t_avg in t_avg_grid for m in m_grid]


def _sweep(p: PipelineParams, cells: list[CellResult]) -> SweepCell:
    """The sweep cell at p, from the leave-one-out cells run at p."""
    bars = _defined(bar, cells)
    return SweepCell(t_avg=p.t_avg, m=p.m,
                     avg_bar=float(np.mean(bars)) if bars else None,
                     worst_bar=min(bars) if bars else None)


def evaluate(entries, params: PipelineParams, sweep_grids=None, jobs: int = 1):
    """Leave-one-out at params and, given sweep_grids = (t_avg_grid, m_grid),
    at every (t_avg, M) cell of that grid, on one pool of jobs workers and
    one read and detection of every record. Each distinct parameter set
    runs once, so a cell equal to params reuses the run at params.

    Returns (reports, cells, sweep): the leave-one-out at params, and sweep
    as (every sweep cell, the cell with the best avg_bar), or None without
    grids.
    """
    if jobs < 1:
        raise ContractError(f"jobs must be at least 1, got {jobs}")
    grid = [] if sweep_grids is None else _grid(params, *sweep_grids)
    entries = tuple(entries)
    owners = _owners(entries)
    with _mapper(jobs) as run_map:
        beats = manifest_beats(entries, run_map)
        runs = {p: _leave_one_out(entries, beats, owners, run_map, p)
                for p in dict.fromkeys([params, *grid])}
    reports, cells = runs[params]
    if sweep_grids is None:
        return reports, cells, None
    sweep_cells = [_sweep(p, runs[p][1]) for p in grid]
    defined = [c for c in sweep_cells if c.avg_bar is not None]
    if not defined:
        raise UndefinedMetricError("every sweep cell is undefined")
    return reports, cells, (sweep_cells, max(defined, key=lambda c: c.avg_bar))


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
