"""Enrollment: template, amplitude thresholds, training set, subject model.

The template is a two-pass robust mean: an elementwise median beat first,
then the plain mean of the beats that correlate with that median at
r_min or better. Enrollment is refused below 30 beats or when fewer than
half survive the correlation pass, since a poor template poisons every
later verification.

Model files are JSON with every float printed to 17 significant digits, so
a load(save(m)) round-trip reproduces bit-identical predictions.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .beatmath import pearson
from .errors import (ContractError, EnrollmentQualityError, FormatError,
                     ZeroVarianceError)
from .qrs import LEFT, N_WINDOW, RecordBeats, record_beats
from .svm import LinearSvm, train_svm

MODEL_FORMAT_VERSION = 1
MIN_ENROLL_BEATS = 30
MIN_SURVIVOR_FRACTION = 0.5


@dataclass(frozen=True)
class PipelineParams:
    """Verification-pipeline knobs; defaults are the tuned operating point."""

    t_avg: float = 18.0
    m: int = 40
    r_min: float = 0.9
    t_v: float = 30.0
    n: int = 10
    beta: float = 6.0

    def validate(self) -> None:
        if self.t_avg <= 0:
            raise ContractError("t_avg must be positive")
        if not 1 <= self.m <= N_WINDOW:
            raise ContractError(f"m must be in [1, {N_WINDOW}]")
        if not 0.0 < self.r_min < 1.0:
            raise ContractError("r_min must be in (0, 1)")
        if self.t_v <= 0:
            raise ContractError("t_v must be positive")
        if self.n < 1:
            raise ContractError("n must be at least 1")
        if self.beta < 0:
            raise ContractError("beta must be nonnegative")


@dataclass(frozen=True)
class TemplatePack:
    """Template plus the precomputed pieces the prescreen needs."""

    template: np.ndarray
    mean: float
    sdev: float
    amp_lo: float
    amp_hi: float
    r_min: float


@dataclass(frozen=True)
class SubjectModel:
    subject_id: str
    fs: int
    template: np.ndarray
    amp_lo: float
    amp_hi: float
    svm: LinearSvm
    params: PipelineParams
    template_mean: float = field(default=0.0)
    template_sdev: float = field(default=0.0)

    def pack(self) -> TemplatePack:
        return TemplatePack(template=self.template, mean=self.template_mean,
                            sdev=self.template_sdev, amp_lo=self.amp_lo,
                            amp_hi=self.amp_hi, r_min=self.params.r_min)


def _template_stats(template: np.ndarray) -> tuple[float, float]:
    mean = float(template.mean())
    sdev = float(template.std(ddof=1))
    if sdev <= 0.0:
        raise ContractError("template must not be constant")
    return mean, sdev


def make_subject_model(subject_id: str, fs: int, template: np.ndarray,
                       amp_lo: float, amp_hi: float, svm: LinearSvm,
                       params: PipelineParams) -> SubjectModel:
    if not amp_lo < amp_hi:
        raise ContractError("amp_lo must be below amp_hi")
    mean, sdev = _template_stats(template)
    return SubjectModel(subject_id=subject_id, fs=fs, template=template,
                        amp_lo=amp_lo, amp_hi=amp_hi, svm=svm, params=params,
                        template_mean=mean, template_sdev=sdev)


def _windows(beats) -> np.ndarray:
    return np.stack([np.asarray(b.window, dtype=np.float64) for b in beats])


def _template_and_survivors(w: np.ndarray, r_min: float) -> tuple[np.ndarray, np.ndarray]:
    if len(w) < MIN_ENROLL_BEATS:
        raise EnrollmentQualityError(
            f"need at least {MIN_ENROLL_BEATS} beats to enroll, got {len(w)}")
    median = np.median(w, axis=0)
    med_mean = float(median.mean())
    med_sdev = float(median.std(ddof=1))
    kept = []
    for row in w:
        try:
            r = pearson(row, median, y_mean=med_mean, y_sdev=med_sdev)
        except ZeroVarianceError:
            kept.append(False)
            continue
        kept.append(r >= r_min)
    kept = np.asarray(kept)
    n_kept = int(kept.sum())
    if n_kept < MIN_SURVIVOR_FRACTION * len(w):
        raise EnrollmentQualityError(
            f"only {n_kept}/{len(w)} beats survive the template pass")
    template = w[kept].mean(axis=0)
    return template, kept


def build_template(beats, r_min: float = 0.9) -> np.ndarray:
    """Robust template from enrollment beats; see module docstring."""
    template, _ = _template_and_survivors(_windows(beats), r_min)
    return template


def amplitude_thresholds(beats) -> tuple[float, float]:
    """Amplitude gate from the 1st/99th percentiles of per-beat extremes,
    widened by 25% of their spread on each side."""
    return _amplitude_thresholds(_windows(beats))


def _amplitude_thresholds(w: np.ndarray) -> tuple[float, float]:
    mins = w.min(axis=1)
    maxs = w.max(axis=1)
    mn = float(np.percentile(mins, 1.0))
    mx = float(np.percentile(maxs, 99.0))
    spread = mx - mn
    if spread <= 0.0:
        spread = 1.0
    return mn - 0.25 * spread, mx + 0.25 * spread


@dataclass(frozen=True)
class TrainingSet:
    """Labeled feature rows plus row- and record-level provenance."""

    x: np.ndarray
    y: np.ndarray
    row_provenance: list  # (subject_id, session_id, label) per row
    record_stats: list  # (subject_id, session_id, label, detected, rows)


def build_template_pack(beats: list[RecordBeats], params: PipelineParams) -> TemplatePack:
    """Template + thresholds from enroll-role records' beats, ready for streaming."""
    return _template_pack(beats, params)[0]


def _template_pack(beats: list[RecordBeats],
                   params: PipelineParams) -> tuple[TemplatePack, list[int]]:
    """The template pack and, per record, how many beats survive its pass."""
    w = np.concatenate([b.windows for b in beats])
    template, kept = _template_and_survivors(w, params.r_min)
    amp_lo, amp_hi = _amplitude_thresholds(w[kept])
    mean, sdev = _template_stats(template)
    pack = TemplatePack(template=template, mean=mean, sdev=sdev,
                        amp_lo=amp_lo, amp_hi=amp_hi, r_min=params.r_min)
    splits = np.cumsum([len(b.windows) for b in beats])[:-1]
    survivors = [int(k.sum()) for k in np.split(kept, splits)]
    return pack, survivors


def build_training_set(owner_beats: list[RecordBeats],
                       population_beats: list[RecordBeats],
                       params: PipelineParams, pack: TemplatePack) -> TrainingSet:
    """Stream records' beats through the owner's feature path; label owner rows 1."""
    from .pipeline import collect_features

    rows = []
    labels = []
    row_prov = []
    rec_stats = []
    for label, records in ((1, owner_beats), (0, population_beats)):
        for rec in records:
            batch = collect_features(rec, pack, params)
            for k in range(batch.features.shape[0]):
                rows.append(batch.features[k])
                labels.append(label)
                row_prov.append((rec.subject_id, rec.session_id, label))
            rec_stats.append((rec.subject_id, rec.session_id, label,
                              batch.beats_detected, batch.features.shape[0]))
        if label == 1 and not rows:
            raise EnrollmentQualityError("owner records yield zero feature vectors")
    x = np.stack(rows)
    y = np.where(np.asarray(labels) == 1, 1.0, -1.0)
    return TrainingSet(x=x, y=y, row_provenance=row_prov, record_stats=rec_stats)


def enroll_subject(entries, subject_id: str, params: PipelineParams,
                   out_dir: str | None = None):
    """Build (and optionally persist) one subject's model from a manifest.

    Uses the subject's enroll-role records for the template and positive
    class, and every other subject's enroll/population-role records as the
    negative class. Records with role=test are never read here.

    Returns (model, provenance_rows) where provenance_rows are
    (subject_id, session_id, role, beats_detected, beats_surviving) per
    record that was read.
    """
    from .ecgio import read_record

    params.validate()
    own = [e for e in entries if e.subject_id == subject_id and e.role == "enroll"]
    if not own:
        raise ContractError(f"{subject_id}: no enroll-role records in manifest")
    pop = [e for e in entries if e.subject_id != subject_id
           and e.role in ("enroll", "population")]
    if not pop:
        raise ContractError(f"{subject_id}: no population subjects in manifest")
    own = sorted(own, key=lambda e: e.session_id)
    pop = sorted(pop, key=lambda e: (e.subject_id, e.session_id))

    own_records = [read_record(e.path) for e in own]
    fs = own_records[0].fs
    for rec in own_records:
        if rec.fs != fs:
            raise ContractError(f"{subject_id}: mixed sample rates in enroll records")
    own_beats = [record_beats(rec) for rec in own_records]
    pack, survivors = _template_pack(own_beats, params)
    provenance = [(subject_id, b.session_id, "enroll", b.detected, n_kept)
                  for b, n_kept in zip(own_beats, survivors)]

    pop_beats = []
    for e in pop:
        rec = read_record(e.path)
        if rec.fs != fs:
            raise ContractError(
                f"{subject_id}: population record {rec.subject_id}/{rec.session_id} "
                f"has fs {rec.fs}, model is {fs}")
        pop_beats.append(record_beats(rec))
    ts = build_training_set(own_beats, pop_beats, params, pack)
    role_of = {(e.subject_id, e.session_id): e.role for e in pop}
    for subj, sess, label, detected, n_rows in ts.record_stats:
        if label == 0:
            provenance.append((subj, sess, role_of[(subj, sess)], detected, n_rows))
    svm, _ = train_svm(ts.x, ts.y)
    model = make_subject_model(subject_id, fs, pack.template, pack.amp_lo,
                               pack.amp_hi, svm, params)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_model(model, os.path.join(out_dir, f"{subject_id}.json"))
    return model, provenance


# -- model persistence ------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        raise ContractError("boolean fields are not part of the model format")
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ContractError("model contains a non-finite number")
        return format(value, ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        return _fmt(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        parts = (f"{json.dumps(k)}: {_fmt(v)}" for k, v in value.items())
        return "{" + ", ".join(parts) + "}"
    raise ContractError(f"cannot serialize {type(value).__name__}")


def save_model(model: SubjectModel, path: str) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "subject_id": model.subject_id,
        "fs": model.fs,
        "params": {
            "t_avg": float(model.params.t_avg),
            "m": model.params.m,
            "r_min": float(model.params.r_min),
            "t_v": float(model.params.t_v),
            "n": model.params.n,
            "beta": float(model.params.beta),
            "n_window": N_WINDOW,
            "left": LEFT,
        },
        "template": np.asarray(model.template, dtype=np.float64),
        "amp_lo": float(model.amp_lo),
        "amp_hi": float(model.amp_hi),
        "svm": {
            "mu": np.asarray(model.svm.mu, dtype=np.float64),
            "sigma": np.asarray(model.svm.sigma, dtype=np.float64),
            "w": np.asarray(model.svm.w, dtype=np.float64),
            "b": float(model.svm.b),
            "c": float(model.svm.c),
            "class_weights": [float(model.svm.class_weights[0]),
                              float(model.svm.class_weights[1])],
        },
    }
    with open(path, "w", newline="") as fh:
        fh.write(_fmt(doc))
        fh.write("\n")


def load_model(path: str) -> SubjectModel:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported model format "
                          f"{doc.get('format_version')!r}")
    p = doc["params"]
    if (p.get("n_window"), p.get("left")) != (N_WINDOW, LEFT):
        raise FormatError(f"{path}: model window n_window={p.get('n_window')!r}, "
                          f"left={p.get('left')!r}; this version cuts "
                          f"n_window={N_WINDOW}, left={LEFT}")
    params = PipelineParams(t_avg=p["t_avg"], m=p["m"], r_min=p["r_min"],
                            t_v=p["t_v"], n=p["n"], beta=p["beta"])
    params.validate()
    s = doc["svm"]
    svm = LinearSvm(mu=np.asarray(s["mu"], dtype=np.float64),
                    sigma=np.asarray(s["sigma"], dtype=np.float64),
                    w=np.asarray(s["w"], dtype=np.float64),
                    b=float(s["b"]), c=float(s["c"]),
                    class_weights=(float(s["class_weights"][0]),
                                   float(s["class_weights"][1])))
    template = np.asarray(doc["template"], dtype=np.float64)
    return make_subject_model(doc["subject_id"], int(doc["fs"]), template,
                              float(doc["amp_lo"]), float(doc["amp_hi"]),
                              svm, params)
