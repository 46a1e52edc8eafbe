"""Template building, quality gates, the owner step, persistence."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ecgauth.pipeline as pipeline
from ecgauth.ecgio import EcgRecord, ManifestEntry, manifest_beats, read_record, write_record
from ecgauth.enroll import (PipelineParams, build_template_pack, enroll_subject, fit,
                            load_model, negatives, owner_features, save_model)
from ecgauth.errors import ContractError, EnrollmentQualityError, FormatError
from ecgauth.pipeline import SubjectModel, TemplatePack
from ecgauth.qrs import N_WINDOW, RecordBeats, record_beats
from ecgauth.svm import LinearSvm
from helpers import beat_shape, tiny_model

PARAMS = PipelineParams()


def _pack(windows):
    """build_template_pack over one record whose beats are these windows, 1 s apart."""
    w = np.asarray(windows, dtype=np.float64)
    beats = RecordBeats(subject_id="unit", session_id="s1", fs=512,
                        times=0.5 + np.arange(len(w), dtype=np.float64),
                        windows=w, detected=len(w), duration_s=len(w) + 1.0)
    pack, _ = build_template_pack([beats], PARAMS)
    return pack


# -- template ----------------------------------------------------------------

def test_template_of_identical_beats_is_that_beat():
    v = beat_shape()
    template = _pack([v.copy() for _ in range(30)]).template
    assert np.abs(template - v).max() <= 1e-9


def test_template_ignores_decorrelated_outlier():
    v = beat_shape()
    windows = [v.copy() for _ in range(29)] + [-v]
    template = _pack(windows).template
    assert np.abs(template - v).max() <= 1e-9


def test_too_few_beats_refused():
    v = beat_shape()
    with pytest.raises(EnrollmentQualityError, match="at least 30"):
        _pack([v.copy() for _ in range(20)])


def test_incoherent_beats_refused():
    rng = np.random.default_rng(8)
    windows = list(100.0 * rng.standard_normal((30, 256)))
    with pytest.raises(EnrollmentQualityError, match="survive"):
        _pack(windows)


# -- amplitude gate ----------------------------------------------------------

def test_amplitude_thresholds_exact_on_uniform_extremes():
    w = np.linspace(-100.0, 300.0, 256)
    pack = _pack([w.copy() for _ in range(40)])
    assert (pack.amp_lo, pack.amp_hi) == (-200.0, 400.0)


def test_amplitude_thresholds_bracket_observed_range():
    rng = np.random.default_rng(9)
    v = beat_shape()
    windows = [v * s for s in rng.normal(1.0, 0.05, 35)]
    pack = _pack(windows)
    lo, hi = pack.amp_lo, pack.amp_hi
    mins = np.array([w.min() for w in windows])
    maxs = np.array([w.max() for w in windows])
    assert lo < mins.min() <= maxs.max() < hi


# -- model construction ------------------------------------------------------

def test_template_pack_build_contract():
    v = beat_shape()
    with pytest.raises(ContractError, match="amp_lo"):
        TemplatePack.build(v, 5.0, 5.0)
    with pytest.raises(ContractError, match="constant"):
        TemplatePack.build(np.full(256, 3.0), -1e9, 1e9)
    pack = TemplatePack.build(v, -1e9, 1e9)
    assert pack.sdev == float(v.std(ddof=1)) > 0.0
    assert pack.mean == float(v.mean())


@pytest.mark.parametrize("bad", [
    dict(t_avg=0.0), dict(m=0), dict(m=257), dict(r_min=0.0), dict(r_min=1.0),
    dict(t_v=-1.0), dict(n=0), dict(beta=-0.5),
    *({name: value} for name in ("t_avg", "t_v", "beta")
      for value in (float("nan"), float("inf"), float("-inf"))),
    dict(m=20.5), dict(n=10.5), dict(n=True),
    # True == 1 would pass every range check of t_avg, t_v and beta
    *({name: flag} for name in ("t_avg", "r_min", "t_v", "beta") for flag in (True, False)),
])
def test_params_validation(bad):
    with pytest.raises(ContractError):
        PipelineParams(**bad)


# -- owner step ----------------------------------------------------------------

def _own_entry(entries3):
    return next(e for e in entries3
                if e.subject_id == "subj01" and e.role == "enroll")


def test_owner_features_positives_and_stats(entries3):
    own = _own_entry(entries3)
    beats = record_beats(read_record(own.path))
    pack, survivors, positives, batches = owner_features(
        {own: beats}, ["subj01"], PARAMS, map)["subj01"]
    assert positives.ndim == 2 and positives.shape[1] == PARAMS.m
    assert positives.shape[0] >= 1
    assert np.array_equal(batches[own].features, positives)
    assert batches[own].beats_detected == beats.detected
    assert beats.detected >= positives.shape[0]
    alone, alone_survivors = build_template_pack([beats], PARAMS)
    assert survivors == alone_survivors
    assert np.array_equal(pack.template, alone.template)
    assert (pack.amp_lo, pack.amp_hi) == (alone.amp_lo, alone.amp_hi)


def test_owner_features_amplitude_rejects_scaled_population(entries3):
    own = _own_entry(entries3)
    rec = read_record(own.path)
    loud_entry = ManifestEntry("subj02", "s1", "loud.csv", "population")
    beats = {own: record_beats(rec),
             loud_entry: record_beats(EcgRecord("subj02", "s1", rec.fs, rec.samples * 10))}
    _, _, positives, batches = owner_features(beats, ["subj01"], PARAMS, map)["subj01"]
    assert positives.shape[0] > 0
    loud = batches[loud_entry]  # every population window fails the gate
    assert loud.beats_detected > 0 and loud.features.shape[0] == 0


def test_owner_features_streams_through_the_pipeline_binding(entries3, monkeypatch):
    # perfbench/tracing.py counts feature streaming by rebinding
    # pipeline.collect_features; the owner step must go through that name
    streamed = []
    collect_features = pipeline.collect_features

    def counted(beats, packs, params):
        streamed.append(beats.session_id)
        return collect_features(beats, packs, params)

    monkeypatch.setattr(pipeline, "collect_features", counted)
    own = _own_entry(entries3)
    owner_features({own: record_beats(read_record(own.path))}, ["subj01"], PARAMS, map)
    assert streamed == [own.session_id]


# -- training policy -------------------------------------------------------------

def test_negatives_is_every_other_subjects_training_records():
    entries = [ManifestEntry(subject, session, f"{subject}_{session}.csv", role)
               for subject, session, role in [
                   ("b", "s2", "population"), ("a", "s1", "enroll"), ("a", "s3", "population"),
                   ("c", "s1", "enroll"), ("b", "s1", "enroll"), ("b", "s3", "test"),
                   ("c", "s2", "intruder-pool"), ("a", "s2", "test"),
                   ("d", "s1", "population"), ("c", "s0", "population")]]

    def keys(negs):
        return [(e.subject_id, e.session_id) for e in negs]

    assert keys(negatives(entries, "a")) == [
        ("b", "s1"), ("b", "s2"), ("c", "s0"), ("c", "s1"), ("d", "s1")]
    assert keys(negatives(entries, "a", left_out="c")) == [("b", "s1"), ("b", "s2"), ("d", "s1")]
    assert keys(negatives(entries, "b", left_out="a")) == [("c", "s0"), ("c", "s1"), ("d", "s1")]
    with pytest.raises(ContractError, match="a: no population subjects besides d"):
        negatives([e for e in entries if e.subject_id in ("a", "d")], "a", left_out="d")


def test_enroll_subject_is_the_fit_with_nobody_left_out(entries3, model3):
    negs = negatives(entries3, "subj01")
    own = [e for e in entries3 if e.subject_id == "subj01" and e.role == "enroll"]
    _, _, positives, batches = owner_features(
        manifest_beats(own + negs, map), ["subj01"], PARAMS, map)["subj01"]
    svm, n_negative = fit("subj01", positives, batches, negs)
    assert n_negative == sum(batches[e].features.shape[0] for e in negs) > 0
    for f in dataclasses.fields(svm):
        assert np.array_equal(getattr(svm, f.name), getattr(model3[0].svm, f.name)), f.name


# -- enrollment from a manifest ----------------------------------------------

def test_enroll_subject_builds_model(model3):
    model, provenance = model3
    assert model.subject_id == "subj01"
    assert model.fs == 512
    assert model.pack.template.shape == (256,)
    assert (model.pack.amp_lo < model.pack.template.min()
            <= model.pack.template.max() < model.pack.amp_hi)
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
    save_model(enroll_subject(entries3, "subj02", PARAMS)[0], tmp_path / "one.json")
    save_model(enroll_subject(entries3, "subj02", PARAMS)[0], tmp_path / "two.json")
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()


# -- persistence -------------------------------------------------------------

def test_model_round_trip_preserves_predictions(model3, tmp_path):
    model, _ = model3
    path = tmp_path / "m.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.subject_id == model.subject_id
    assert np.array_equal(loaded.pack.template, model.pack.template)
    assert (loaded.pack.amp_lo, loaded.pack.amp_hi) == (model.pack.amp_lo, model.pack.amp_hi)
    assert loaded.params == model.params
    probe = np.random.default_rng(1).standard_normal((50, PARAMS.m))
    assert np.array_equal(loaded.svm.margins(probe), model.svm.margins(probe))
    again = tmp_path / "m2.json"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).reshape(-1).view(np.uint64)


# -0.0, subnormals, and values whose shortest round-trip repr has 17 digits
_SPECIAL = [-0.0, 5e-324, -2.2250738585072009e-308, 0.1 + 0.2, 1.0 / 3.0]


def _finite_floats(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


def _vector(n, elements):
    return arrays(np.float64, n - len(_SPECIAL), elements=elements).map(
        lambda v: np.concatenate([_SPECIAL, v]))


@settings(max_examples=40, deadline=None)
@given(template=_vector(N_WINDOW, _finite_floats(min_value=-1e100, max_value=1e100)),
       mu=_vector(PARAMS.m, _finite_floats()),
       sigma=arrays(np.float64, PARAMS.m, elements=_finite_floats(min_value=0.0,
                                                                   exclude_min=True)),
       w=_vector(PARAMS.m, _finite_floats()),
       b=st.sampled_from(_SPECIAL) | _finite_floats(),
       amps=st.lists(_finite_floats(), min_size=2, max_size=2, unique=True).map(sorted))
def test_model_file_keeps_every_float_bit_for_bit(tmp_path_factory, template, mu,
                                                  sigma, w, b, amps):
    model = SubjectModel("subj", 512, TemplatePack.build(template, *amps),
                         LinearSvm(mu=mu, sigma=sigma, w=w, b=b), PARAMS)
    path = tmp_path_factory.mktemp("model") / "m.json"
    save_model(model, path)
    back = load_model(path)
    for name, saved, loaded in (
            ("template", model.pack.template, back.pack.template),
            ("amp_lo", model.pack.amp_lo, back.pack.amp_lo),
            ("amp_hi", model.pack.amp_hi, back.pack.amp_hi),
            ("mu", model.svm.mu, back.svm.mu), ("sigma", model.svm.sigma, back.svm.sigma),
            ("w", model.svm.w, back.svm.w), ("b", model.svm.b, back.svm.b)):
        assert np.array_equal(_bits(saved), _bits(loaded)), name
    assert (back.subject_id, back.fs, back.params) == ("subj", 512, PARAMS)
    again = path.with_name("again.json")
    save_model(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_saved_keys_are_the_keys_load_model_reads(model3, tmp_path, monkeypatch):
    class Recording(dict):
        def __init__(self, pairs):
            super().__init__(pairs)
            self.read = set()

        def __getitem__(self, key):
            self.read.add(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            self.read.add(key)
            return super().get(key, default)

    loaded = []
    json_load = json.load

    def recording_load(fh):
        loaded.append(json_load(fh, object_pairs_hook=Recording))
        return loaded[-1]

    monkeypatch.setattr(json, "load", recording_load)
    path = tmp_path / "m.json"
    save_model(model3[0], path)
    load_model(path)
    [doc] = loaded
    nested = {key: dict.__getitem__(doc, key) for key in ("params", "svm")}
    read = {"": set(doc.read), **{key: set(d.read) for key, d in nested.items()}}
    assert read == {"": set(doc), **{key: set(d) for key, d in nested.items()}}
    assert set(nested["svm"]) == {f.name for f in dataclasses.fields(LinearSvm)}


def test_format_1_model_loads_to_the_same_margins(model3, tmp_path):
    path = tmp_path / "m.json"
    save_model(model3[0], path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 2
    doc["format_version"] = 1
    doc["svm"].update(c=1.0, class_weights=[1.5, 0.75])
    old = tmp_path / "v1.json"
    old.write_text(json.dumps(doc))
    new, v1 = load_model(path), load_model(old)
    probe = np.random.default_rng(2).standard_normal((50, PARAMS.m))
    assert np.array_equal(_bits(v1.svm.margins(probe)), _bits(new.svm.margins(probe)))
    assert np.array_equal(_bits(v1.pack.template), _bits(new.pack.template))
    assert (v1.pack.amp_lo, v1.pack.amp_hi, v1.params) == (
        new.pack.amp_lo, new.pack.amp_hi, new.params)


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


def test_load_model_rejects_infinite_decision_window(model3, tmp_path):
    # json reads Infinity; a login under t_v = inf would never lock
    path = tmp_path / "m.json"
    save_model(model3[0], path)
    doc = json.loads(path.read_text())
    doc["params"]["t_v"] = float("inf")
    path.write_text(json.dumps(doc))
    assert '"t_v": Infinity' in path.read_text()
    with pytest.raises(ContractError, match="t_v"):
        load_model(path)


def test_load_model_rejects_unknown_format(model3, tmp_path):
    # a whole model, so only the version can be refused; true, 1.0 and 2.0
    # compare equal to 1 or 2 but are not what save_model writes
    path = tmp_path / "m.json"
    save_model(model3[0], path)
    doc = json.loads(path.read_text())
    for version in (3, 0, True, 1.0, 2.0, "2", None):
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="unsupported model format"):
            load_model(path)


def test_save_model_rejects_non_finite(tmp_path):
    svm = LinearSvm(mu=np.zeros(2), sigma=np.ones(2), w=np.zeros(2), b=float("nan"))
    model = tiny_model(svm=svm)
    with pytest.raises(ContractError, match="non-finite"):
        save_model(model, tmp_path / "m.json")
