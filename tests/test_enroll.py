"""Template building, quality gates, training-set assembly, persistence."""

from __future__ import annotations

import json

import numpy as np
import pytest

from ecgauth.ecgio import EcgRecord, ManifestEntry, read_record, write_record
from ecgauth.enroll import (PipelineParams, amplitude_thresholds, build_template,
                            build_template_pack, build_training_set, enroll_subject,
                            load_model, make_subject_model, save_model)
from ecgauth.errors import ContractError, EnrollmentQualityError, FormatError
from ecgauth.qrs import record_beats
from ecgauth.svm import LinearSvm
from helpers import beat_shape, make_beat, tiny_model

PARAMS = PipelineParams()


def _beats(windows, spacing_s=1.0):
    return [make_beat(w, 0.5 + k * spacing_s) for k, w in enumerate(windows)]


# -- template ----------------------------------------------------------------

def test_template_of_identical_beats_is_that_beat():
    v = beat_shape()
    template = build_template(_beats([v.copy() for _ in range(30)]))
    assert np.abs(template - v).max() <= 1e-9


def test_template_ignores_decorrelated_outlier():
    v = beat_shape()
    windows = [v.copy() for _ in range(29)] + [-v]
    template = build_template(_beats(windows))
    assert np.abs(template - v).max() <= 1e-9


def test_too_few_beats_refused():
    v = beat_shape()
    with pytest.raises(EnrollmentQualityError, match="at least 30"):
        build_template(_beats([v.copy() for _ in range(20)]))


def test_incoherent_beats_refused():
    rng = np.random.default_rng(8)
    windows = list(100.0 * rng.standard_normal((30, 256)))
    with pytest.raises(EnrollmentQualityError, match="survive"):
        build_template(_beats(windows))


# -- amplitude gate ----------------------------------------------------------

def test_amplitude_thresholds_exact_on_uniform_extremes():
    w = np.linspace(-100.0, 300.0, 256)
    lo, hi = amplitude_thresholds(_beats([w.copy() for _ in range(40)]))
    assert (lo, hi) == (-200.0, 400.0)


def test_amplitude_thresholds_bracket_observed_range():
    rng = np.random.default_rng(9)
    v = beat_shape()
    windows = [v * s for s in rng.normal(1.0, 0.05, 35)]
    lo, hi = amplitude_thresholds(_beats(windows))
    mins = np.array([w.min() for w in windows])
    maxs = np.array([w.max() for w in windows])
    assert lo < mins.min() <= maxs.max() < hi


# -- model construction ------------------------------------------------------

def test_make_subject_model_contract():
    with pytest.raises(ContractError, match="amp_lo"):
        tiny_model(amp_lo=5.0, amp_hi=5.0)
    with pytest.raises(ContractError, match="constant"):
        tiny_model(template=np.full(256, 3.0))
    model = tiny_model()
    assert model.template_sdev > 0.0
    pack = model.pack()
    assert pack.r_min == model.params.r_min
    assert pack.mean == model.template_mean


@pytest.mark.parametrize("bad", [
    dict(t_avg=0.0), dict(m=0), dict(m=257), dict(r_min=0.0), dict(r_min=1.0),
    dict(t_v=-1.0), dict(n=0), dict(beta=-0.5),
])
def test_params_validation(bad):
    with pytest.raises(ContractError):
        PipelineParams(**bad).validate()


# -- training set ------------------------------------------------------------

def test_training_set_labels_and_stats(entries3):
    own = next(e for e in entries3
               if e.subject_id == "subj01" and e.role == "enroll")
    beats = record_beats(read_record(own.path))
    pack = build_template_pack([beats], PARAMS)
    ts = build_training_set([beats], [], PARAMS, pack)
    assert ts.x.ndim == 2 and ts.x.shape[1] == PARAMS.m
    assert ts.x.shape[0] >= 1
    assert np.all(ts.y == 1.0)
    assert all(p == ("subj01", "s1", 1) for p in ts.row_provenance)
    (subj, sess, label, detected, n_rows), = ts.record_stats
    assert (subj, sess, label) == ("subj01", "s1", 1)
    assert detected >= n_rows and n_rows == ts.x.shape[0]


def test_training_set_amplitude_rejects_scaled_population(entries3):
    own = next(e for e in entries3
               if e.subject_id == "subj01" and e.role == "enroll")
    rec = read_record(own.path)
    beats = record_beats(rec)
    pack = build_template_pack([beats], PARAMS)
    loud = record_beats(EcgRecord("subj02", "s1", rec.fs, rec.samples * 10))
    ts = build_training_set([beats], [loud], PARAMS, pack)
    assert np.all(ts.y == 1.0)  # every population window fails the gate
    neg = [s for s in ts.record_stats if s[2] == 0]
    assert len(neg) == 1
    subj, sess, _, detected, n_rows = neg[0]
    assert (subj, sess) == ("subj02", "s1")
    assert detected > 0 and n_rows == 0


# -- enrollment from a manifest ----------------------------------------------

def test_enroll_subject_builds_model(model3):
    model, provenance = model3
    assert model.subject_id == "subj01"
    assert model.fs == 512
    assert model.template.shape == (256,)
    assert model.amp_lo < model.template.min() <= model.template.max() < model.amp_hi
    assert model.svm.w.shape == (PARAMS.m,)
    assert model.params == PARAMS
    assert {p[0] for p in provenance} == {"subj01", "subj02", "subj03"}
    assert all(p[2] == "enroll" for p in provenance)  # test-role rows never read
    own = next(p for p in provenance if p[0] == "subj01")
    assert 0 < own[4] <= own[3]


def test_enroll_unknown_subject_rejected(entries3):
    with pytest.raises(ContractError, match="no enroll-role"):
        enroll_subject(entries3, "ghost", PARAMS)


def test_enroll_needs_population(entries3):
    alone = [e for e in entries3 if e.subject_id == "subj01"]
    with pytest.raises(ContractError, match="population"):
        enroll_subject(alone, "subj01", PARAMS)


def _write_flat_record(path, subject_id, fs):
    rec = EcgRecord(subject_id, "s1", fs, np.zeros(fs, dtype=np.int64))
    write_record(rec, path)
    return ManifestEntry(subject_id=subject_id, session_id="s1",
                         path=str(path), role="enroll")


def test_enroll_rejects_mixed_owner_sample_rates(tmp_path):
    entries = [
        _write_flat_record(tmp_path / "a1.csv", "a", 512),
        ManifestEntry(subject_id="a", session_id="s2",
                      path=str(tmp_path / "a2.csv"), role="enroll"),
        _write_flat_record(tmp_path / "b1.csv", "b", 512),
    ]
    write_record(EcgRecord("a", "s2", 256, np.zeros(256, dtype=np.int64)),
                 tmp_path / "a2.csv")
    with pytest.raises(ContractError, match="mixed sample rates"):
        enroll_subject(entries, "a", PARAMS)


def test_enroll_rejects_population_sample_rate_mismatch(tmp_path, cohort3_dir):
    from ecgauth.ecgio import read_manifest

    entries = [e for e in read_manifest(cohort3_dir / "manifest.csv")
               if e.subject_id == "subj01"]
    entries.append(_write_flat_record(tmp_path / "pop.csv", "zz", 256))
    with pytest.raises(ContractError, match="fs 256"):
        enroll_subject(entries, "subj01", PARAMS)


def test_enroll_is_deterministic(entries3, tmp_path):
    enroll_subject(entries3, "subj02", PARAMS, out_dir=tmp_path / "one")
    enroll_subject(entries3, "subj02", PARAMS, out_dir=tmp_path / "two")
    assert ((tmp_path / "one" / "subj02.json").read_bytes()
            == (tmp_path / "two" / "subj02.json").read_bytes())


# -- persistence -------------------------------------------------------------

def test_model_round_trip_preserves_predictions(model3, tmp_path):
    model, _ = model3
    path = tmp_path / "m.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.subject_id == model.subject_id
    assert np.array_equal(loaded.template, model.template)
    assert (loaded.amp_lo, loaded.amp_hi) == (model.amp_lo, model.amp_hi)
    assert loaded.params == model.params
    probe = np.random.default_rng(1).standard_normal((50, PARAMS.m))
    assert np.array_equal(loaded.svm.margins(probe), model.svm.margins(probe))
    again = tmp_path / "m2.json"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("key, value", [("n_window", 128), ("left", 77)])
def test_load_model_rejects_other_beat_window(model3, tmp_path, key, value):
    path = tmp_path / "m.json"
    save_model(model3[0], path)
    doc = json.loads(path.read_text())
    assert (doc["params"]["n_window"], doc["params"]["left"]) == (256, 78)
    doc["params"][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="n_window"):
        load_model(path)


def test_load_model_rejects_unknown_format(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"format_version": 2}\n')
    with pytest.raises(FormatError, match="format"):
        load_model(path)


def test_save_model_rejects_non_finite(tmp_path):
    svm = LinearSvm(mu=np.zeros(2), sigma=np.ones(2), w=np.zeros(2),
                    b=float("nan"), c=1.0, class_weights=(1.0, 1.0))
    model = tiny_model(svm=svm)
    with pytest.raises(ContractError, match="non-finite"):
        save_model(model, tmp_path / "m.json")
