"""Generator guarantees: exact truth, determinism, cohort geometry."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from ecgauth.beatmath import DctMatrix
from ecgauth.ecgio import read_manifest, read_record
from ecgauth.errors import ContractError
from ecgauth.qrs import LEFT, N_WINDOW, detect_beats
from ecgauth.synth import (SubjectMorphology, _cohort_morphologies, default_cohort,
                           generate_record, read_truth, write_cohort, write_truth)

FS = 512

BASE = SubjectMorphology(
    waves=((55.0, -0.115, 0.020), (-140.0, -0.034, 0.0065), (1150.0, 0.0, 0.0085),
           (-230.0, 0.024, 0.0075), (160.0, 0.215, 0.045)),
    hr_bpm=60.0, hr_var=0.04, rr_jitter=0.012, noise_sigma=12.0,
    wander_amp=25.0, seed=99)


def test_same_seed_same_record():
    rec1, truth1 = generate_record(BASE, 30.0, FS)
    rec2, truth2 = generate_record(BASE, 30.0, FS)
    assert truth1 == truth2
    assert np.array_equal(rec1.samples, rec2.samples)


def test_constant_rate_truth_is_exact_arithmetic():
    steady = dataclasses.replace(BASE, hr_var=0.0, rr_jitter=0.0)
    _, truth = generate_record(steady, 20.0, FS)
    # first beat at 0.5 s, then exactly one RR (1 s at 60 bpm) apart
    assert truth == [256 + 512 * k for k in range(len(truth))]
    assert truth[-1] <= (20.0 - 0.6) * FS


def test_mean_rr_follows_requested_rate():
    morph = dataclasses.replace(BASE, hr_bpm=72.0, seed=5)
    record, _ = generate_record(morph, 120.0, FS)
    idx = np.asarray([p.index for p in detect_beats(record)])
    mean_rr = np.diff(idx).mean() / FS
    assert abs(mean_rr - 60.0 / 72.0) <= 0.02 * (60.0 / 72.0)


def test_truth_respects_record_bounds():
    record, truth = generate_record(BASE, 15.0, FS)
    assert 0 < truth[0] < truth[-1] < len(record.samples)
    assert truth[-1] <= (15.0 - 0.6) * FS + 1


@pytest.mark.parametrize("mutate", [
    lambda m: dataclasses.replace(m, waves=m.waves[:4]),
    lambda m: dataclasses.replace(
        m, waves=m.waves[:2] + ((100.0, 0.0, 0.0085),) + m.waves[3:]),
    lambda m: dataclasses.replace(
        m, waves=((55.0, 0.1, 0.02),) + m.waves[1:]),  # P after R
    lambda m: dataclasses.replace(
        m, waves=m.waves[:2] + ((1150.0, 0.0, -0.01),) + m.waves[3:]),
    lambda m: dataclasses.replace(m, hr_bpm=10.0),
    lambda m: dataclasses.replace(m, hr_bpm=310.0),
    lambda m: dataclasses.replace(m, rr_jitter=-0.01),
    lambda m: dataclasses.replace(m, texture=(1.0,) * (N_WINDOW - 1)),
    lambda m: dataclasses.replace(m, texture=(400.0,) * N_WINDOW),
    lambda m: dataclasses.replace(m, texture=(np.nan,) + (0.0,) * (N_WINDOW - 1)),
])
def test_invalid_morphology_is_rejected(mutate):
    with pytest.raises(ContractError):
        mutate(BASE).validate()


def test_generate_record_argument_contract():
    with pytest.raises(ContractError):
        generate_record(BASE, 0.0, FS)
    with pytest.raises(ContractError):
        generate_record(BASE, 10.0, 127)


def test_texture_lands_on_segmentation_window():
    quiet = dataclasses.replace(BASE, hr_var=0.0, rr_jitter=0.0,
                                noise_sigma=0.0, wander_amp=0.0)
    texture = tuple(40.0 * np.sin(np.linspace(0.0, 3.0 * np.pi, N_WINDOW)))
    textured = dataclasses.replace(quiet, texture=texture)
    rec_plain, truth_plain = generate_record(quiet, 20.0, FS)
    rec_tex, truth_tex = generate_record(textured, 20.0, FS)
    assert truth_plain == truth_tex  # texture must not perturb the rhythm draw
    diff = (rec_tex.samples - rec_plain.samples).astype(np.float64)
    for c in truth_tex[1:-1]:
        window = diff[c - LEFT : c - LEFT + N_WINDOW]
        # windows at 60 bpm never overlap, so the diff is the texture alone,
        # up to the 0.5 ADC quantization of each render
        assert np.abs(window - np.asarray(texture)).max() <= 1.0
    outside = diff.copy()
    for c in truth_tex:
        lo = max(0, c - LEFT)
        outside[lo : c - LEFT + N_WINDOW] = 0.0
    assert np.abs(outside).max() <= 1.0


def test_cohort_textures_are_equidistant_in_feature_space():
    morphs = _cohort_morphologies(8, seed=0)
    g = DctMatrix.build(N_WINDOW, 40).g
    feats = np.array([g @ np.asarray(m.texture) for m in morphs])
    dists = [np.linalg.norm(feats[i] - feats[j])
             for i in range(8) for j in range(i + 1, 8)]
    expected = 150.0 * np.sqrt(8.0)
    assert np.allclose(dists, expected, rtol=1e-6)
    assert all(m.texture is not None for m in morphs)


def test_default_cohort_layout():
    cohort = default_cohort(n_subjects=3, seed=2)
    assert [s.subject_id for s in cohort] == ["subj01", "subj02", "subj03"]
    for subj in cohort:
        assert [sess.session_id for sess in subj.sessions] == ["s1", "s2"]
        assert [sess.role for sess in subj.sessions] == ["enroll", "test"]
        for sess in subj.sessions:
            assert sess.record.fs == 512
            assert len(sess.record.samples) == 600 * 512
            assert sess.truth == sorted(sess.truth)
    # distinct subjects, distinct rhythms
    rates = [s.morph.hr_bpm for s in cohort]
    assert len(set(rates)) == 3


def test_default_cohort_is_reproducible():
    a = default_cohort(n_subjects=2, seed=11)
    b = default_cohort(n_subjects=2, seed=11)
    assert np.array_equal(a[1].sessions[1].record.samples,
                          b[1].sessions[1].record.samples)
    assert a[1].sessions[1].truth == b[1].sessions[1].truth


def test_default_cohort_argument_contract():
    with pytest.raises(ContractError):
        default_cohort(n_subjects=1)


def test_truth_file_round_trip(tmp_path):
    path = tmp_path / "truth.csv"
    write_truth([256, 768, 1280], path)
    assert read_truth(path) == [256, 768, 1280]
    bad = tmp_path / "bad.csv"
    bad.write_text("index\n256\n")
    with pytest.raises(ContractError):
        read_truth(bad)


def test_write_cohort_produces_readable_manifest(tmp_path):
    cohort = default_cohort(n_subjects=2, seed=4)
    manifest_path = write_cohort(cohort, tmp_path)
    entries = read_manifest(manifest_path)
    assert len(entries) == 4
    assert {(e.subject_id, e.session_id, e.role) for e in entries} == {
        ("subj01", "s1", "enroll"), ("subj01", "s2", "test"),
        ("subj02", "s1", "enroll"), ("subj02", "s2", "test")}
    for e in entries:
        record = read_record(e.path)
        assert record.subject_id == e.subject_id
        truth_path = str(e.path).replace(".csv", "_truth.csv")
        assert read_truth(truth_path)
