"""Enrollment: the template pack, the owner step, model training and files.

The template is a two-pass robust mean: an elementwise median beat first,
then the plain mean of the beats that correlate with that median at
r_min or better. Enrollment is refused below 30 beats or when fewer than
half survive the correlation pass, since a poor template poisons every
later verification.

owner_features is the one owner step, shared with leave-one-out: it builds
every owner's template pack from its enroll-role records and computes each
record's features once per set of beats the packs accept, so owners whose
packs accept the same beats share them. negatives is the one negative-class
rule and fit the one classifier fit, also shared with leave-one-out: an
enrolled model is leave-one-out's fit with nobody left out. enroll_owners
reads only the records its owners train on, and reads, detects and streams
each of them once for all owners; enroll_subject is enroll_owners for one
owner.

Model files are JSON of format 2, written by the json module, and hold
only what a decision reads: the template, the amplitude gate, the scaler
(mu, sigma), the weights w, the bias b, the pipeline parameters, and the
beat window (n_window, left) as a guard. Every float is written as its
shortest round-trip repr, so load(save(m)) gives back every float bit for
bit, -0.0 and subnormals included. Format-1 files still load: the SVM cost
and class-weight keys they also carried were never read and are ignored.
"""

from __future__ import annotations

import json
from functools import partial

import numpy as np

from . import pipeline
from .ecgio import TRAIN_ROLES, manifest_beats
from .errors import ContractError, EnrollmentQualityError, FormatError
from .pipeline import PipelineParams, SubjectModel, TemplatePack
from .qrs import LEFT, N_WINDOW, RecordBeats
from .svm import LinearSvm, train_svm

MODEL_FORMAT_VERSION = 2
MIN_ENROLL_BEATS = 30
MIN_SURVIVOR_FRACTION = 0.5


def _template_and_survivors(w: np.ndarray, r_min: float) -> tuple[np.ndarray, np.ndarray]:
    if len(w) < MIN_ENROLL_BEATS:
        raise EnrollmentQualityError(
            f"need at least {MIN_ENROLL_BEATS} beats to enroll, got {len(w)}")
    median = np.median(w, axis=0)
    med_mean = float(median.mean())
    med_sdev = float(median.std(ddof=1))
    kept = pipeline.correlation_at_least(w, [median], [med_mean], [med_sdev], r_min)[0]
    n_kept = int(kept.sum())
    if n_kept < MIN_SURVIVOR_FRACTION * len(w):
        raise EnrollmentQualityError(
            f"only {n_kept}/{len(w)} beats survive the template pass")
    template = w[kept].mean(axis=0)
    return template, kept


def _amplitude_thresholds(w: np.ndarray) -> tuple[float, float]:
    """Amplitude gate from the 1st/99th percentiles of per-beat extremes,
    widened by 25% of their spread on each side."""
    mins = w.min(axis=1)
    maxs = w.max(axis=1)
    mn = float(np.percentile(mins, 1.0))
    mx = float(np.percentile(maxs, 99.0))
    spread = mx - mn
    if spread <= 0.0:
        spread = 1.0
    return mn - 0.25 * spread, mx + 0.25 * spread


def build_template_pack(beats: list[RecordBeats],
                        params: PipelineParams) -> tuple[TemplatePack, list[int]]:
    """Template and amplitude thresholds from enroll-role records' beats (see
    the module docstring), and per record how many beats survive its pass."""
    w = np.concatenate([b.windows for b in beats])
    template, kept = _template_and_survivors(w, params.r_min)
    pack = TemplatePack.build(template, *_amplitude_thresholds(w[kept]))
    splits = np.cumsum([len(b.windows) for b in beats])[:-1]
    survivors = [int(k.sum()) for k in np.split(kept, splits)]
    return pack, survivors


def owners(entries) -> list[str]:
    """Subjects with enroll- and test-role records: those enroll and evaluate model."""
    found = sorted({e.subject_id for e in entries if e.role == "enroll"}
                   & {e.subject_id for e in entries if e.role == "test"})
    if not found:
        raise ContractError("no subject has both enroll and test sessions")
    return found


def _own_enroll(entries, owner: str) -> list:
    own = sorted((e for e in entries if e.subject_id == owner and e.role == "enroll"),
                 key=lambda e: e.session_id)
    if not own:
        raise ContractError(f"{owner}: no enroll-role records in manifest")
    return own


def owner_features(beats: dict, owners: list[str], params: PipelineParams, run_map) -> dict:
    """The owner step for every owner at once: each one's template pack from
    its enroll-role records, then every record's features through every pack.

    beats maps manifest entries to their RecordBeats; run_map maps over
    records (the builtin map, or a pool's), one task per record covering
    every pack, so each record's features are computed once per distinct
    accepted set. Returns {owner: (pack, survivors, positives, batches)}:
    survivors as build_template_pack gives them for the owner's enroll-role
    records in session order, positives those records' feature rows stacked
    in that order, and batches the owner's FeatureBatch of every entry in
    beats.
    """
    own = {owner: _own_enroll(beats, owner) for owner in owners}
    packs = {owner: build_template_pack([beats[e] for e in own[owner]], params)
             for owner in owners}
    entries = list(beats)
    # looked up in pipeline at call time, so a caller that rebinds
    # pipeline.collect_features (a tracer) sees these calls
    collect = partial(pipeline.collect_features,
                      packs=[packs[owner][0] for owner in owners], params=params)
    per_record = list(run_map(collect, [beats[e] for e in entries]))
    steps = {}
    for k, owner in enumerate(owners):
        batches = {e: record[k] for e, record in zip(entries, per_record)}
        positives = np.concatenate([batches[e].features for e in own[owner]])
        if not positives.shape[0]:
            raise EnrollmentQualityError(f"{owner}: enroll records yield zero feature vectors")
        steps[owner] = (*packs[owner], positives, batches)
    return steps


def negatives(entries, owner: str, left_out: str | None = None) -> list:
    """The one negative-class rule: every training-role record of every
    subject but the owner and left_out, by (subject, session, role).

    An enrolled model leaves nobody out; leave-one-out leaves out the
    intruder it tests. ContractError when no such record exists.
    """
    negs = sorted((e for e in entries
                   if e.subject_id not in (owner, left_out) and e.role in TRAIN_ROLES),
                  key=lambda e: (e.subject_id, e.session_id, e.role))
    if not negs:
        besides = "" if left_out is None else f" besides {left_out}"
        raise ContractError(f"{owner}: no population subjects{besides} in manifest")
    return negs


def fit(owner: str, positives: np.ndarray, batches: dict, negs: list) -> tuple[LinearSvm, int]:
    """The owner's SVM: positives against the feature rows of negs' batches,
    stacked in negs' order. Returns (svm, number of negative rows)."""
    negative = np.concatenate([batches[e].features for e in negs])
    if not negative.shape[0]:
        raise ContractError(f"{owner}: no negative training rows survive the owner's prescreen")
    x = np.concatenate([positives, negative])
    y = np.concatenate([np.ones(positives.shape[0]), -np.ones(negative.shape[0])])
    svm, _ = train_svm(x, y)
    return svm, negative.shape[0]


def enroll_owners(entries, owners: list[str], params: PipelineParams) -> list:
    """Each owner's (model, provenance) from a manifest; see enroll_subject.

    Reads only the records the owners train on, each once for all owners.
    """
    training = {owner: (_own_enroll(entries, owner), negatives(entries, owner))
                for owner in owners}
    beats = manifest_beats([e for own, negs in training.values() for e in own + negs], map)
    steps = owner_features(beats, owners, params, map)
    enrolled = []
    for owner in owners:
        own, negs = training[owner]
        pack, survivors, positives, batches = steps[owner]
        svm, _ = fit(owner, positives, batches, negs)
        model = SubjectModel(owner, beats[own[0]].fs, pack, svm, params)
        provenance = ([(owner, e.session_id, "enroll", beats[e].detected, n_kept)
                       for e, n_kept in zip(own, survivors)]
                      + [(e.subject_id, e.session_id, e.role, batches[e].beats_detected,
                          batches[e].features.shape[0]) for e in negs])
        enrolled.append((model, provenance))
    return enrolled


def enroll_subject(entries, subject_id: str, params: PipelineParams):
    """Build one subject's model from a manifest.

    Uses the subject's enroll-role records for the template and positive
    class, and every other subject's enroll/population-role records as the
    negative class. No other record is read.

    Returns (model, provenance_rows) where provenance_rows are
    (subject_id, session_id, role, beats_detected, beats_surviving) per
    record that was read.
    """
    return enroll_owners(entries, [subject_id], params)[0]


# -- model persistence ------------------------------------------------------

def save_model(model: SubjectModel, path: str) -> None:
    """Write a model file of format MODEL_FORMAT_VERSION; ContractError if
    any number in it is not finite."""
    params = model.params
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "subject_id": model.subject_id,
        "fs": int(model.fs),
        "params": {
            "t_avg": float(params.t_avg),
            "m": int(params.m),
            "r_min": float(params.r_min),
            "t_v": float(params.t_v),
            "n": int(params.n),
            "beta": float(params.beta),
            "n_window": N_WINDOW,
            "left": LEFT,
        },
        "template": np.asarray(model.pack.template, dtype=np.float64).tolist(),
        "amp_lo": float(model.pack.amp_lo),
        "amp_hi": float(model.pack.amp_hi),
        "svm": {
            "mu": np.asarray(model.svm.mu, dtype=np.float64).tolist(),
            "sigma": np.asarray(model.svm.sigma, dtype=np.float64).tolist(),
            "w": np.asarray(model.svm.w, dtype=np.float64).tolist(),
            "b": float(model.svm.b),
        },
    }
    try:
        text = json.dumps(doc, allow_nan=False)
    except ValueError:
        raise ContractError("model contains a non-finite number") from None
    with open(path, "w", newline="") as fh:
        fh.write(text)
        fh.write("\n")


def _finite(value, shape: tuple, name: str) -> np.ndarray:
    """value as float64 of this shape; ValueError unless every entry is finite."""
    a = np.asarray(value, dtype=np.float64)
    if a.shape != shape or not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite, of shape {shape}")
    return a


def load_model(path: str) -> SubjectModel:
    """Read a model file of format 1 or 2, written as an integer; FormatError
    unless it holds a model that save_model could have written: a string
    subject_id, an integer fs of at least 1, a template of N_WINDOW samples,
    m entries in each of mu, sigma and w, every number finite, and sigma
    positive. Keys nothing reads, such as format 1's SVM cost and class
    weights, are ignored."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        version = doc.get("format_version")
        # true, 1.0 and 2.0 compare equal to 1 or 2, and a bool is an int
        if type(version) is not int or version not in (1, MODEL_FORMAT_VERSION):
            raise FormatError(f"{path}: unsupported model format {version!r}")
        p = doc["params"]
        if (p.get("n_window"), p.get("left")) != (N_WINDOW, LEFT):
            raise FormatError(f"{path}: model window n_window={p.get('n_window')!r}, "
                              f"left={p.get('left')!r}; this version cuts "
                              f"n_window={N_WINDOW}, left={LEFT}")
        params = PipelineParams(t_avg=p["t_avg"], m=p["m"], r_min=p["r_min"],
                                t_v=p["t_v"], n=p["n"], beta=p["beta"])
        fs = doc["fs"]
        if isinstance(fs, bool) or not isinstance(fs, int) or fs < 1:
            raise ValueError(f"fs must be an integer of at least 1, got {fs!r}")
        s = doc["svm"]
        mu, sigma, w = (_finite(s[k], (params.m,), f"svm.{k}") for k in ("mu", "sigma", "w"))
        if not (sigma > 0.0).all():
            raise ValueError("svm.sigma must be positive")
        svm = LinearSvm(mu=mu, sigma=sigma, w=w, b=float(_finite(s["b"], (), "svm.b")))
        amp_lo, amp_hi = (float(_finite(doc[k], (), k)) for k in ("amp_lo", "amp_hi"))
        pack = TemplatePack.build(_finite(doc["template"], (N_WINDOW,), "template"),
                                  amp_lo, amp_hi)
        if not isinstance(doc["subject_id"], str):
            raise ValueError(f"subject_id must be a string, got {doc['subject_id']!r}")
        return SubjectModel(doc["subject_id"], fs, pack, svm, params)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        # json.JSONDecodeError is a ValueError
        raise FormatError(f"{path}: malformed model file: {exc!r}") from None
