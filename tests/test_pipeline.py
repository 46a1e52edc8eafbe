"""Streaming behavior: prescreen, FIFO window, exact login transitions."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecgauth
from ecgauth.beatmath import (DctMatrix, cluster_ranks, dct_features,
                              kaiser_weights, weighted_average)
from ecgauth.ecgio import EcgRecord, read_record
from ecgauth.enroll import PipelineParams
from ecgauth.errors import ContractError
from ecgauth.evaluation import _replay
from ecgauth.qrs import N_WINDOW, RecordBeats, record_beats
from ecgauth.pipeline import (KIND_NEGATIVE, KIND_POSITIVE, KIND_REJECTED,
                              KIND_TRANSITION, STATE_AUTHENTICATED, STATE_LOCKED,
                              FeatureStream, TemplatePack, VerificationPipeline,
                              collect_features, replay_login, stream_record,
                              write_timeline_csv)
from helpers import beat_shape, constant_margin_svm, make_beat, tiny_model

PARAMS = PipelineParams()


@pytest.fixture(scope="module")
def streamed3(model3, entries3):
    model, _ = model3
    entry = next(e for e in entries3
                 if e.subject_id == "subj01" and e.role == "test")
    record = read_record(entry.path)
    return model, record, stream_record(model, record)


# -- prescreen ---------------------------------------------------------------

def test_prescreen_reasons():
    v = beat_shape()
    model = tiny_model(template=v, amp_lo=v.min() - 100.0, amp_hi=v.max() + 100.0)
    stream = FeatureStream(model.pack, model.params)
    rng = np.random.default_rng(0)
    assert stream.process(v + rng.normal(0.0, 2.0, v.size), 1.0)[0] is None
    assert stream.process(100.0 * rng.standard_normal(v.size), 2.0) \
        == ("correlation", None, 0)
    # scaling preserves correlation, so the amplitude gate must catch it
    assert stream.process(v * 10.0, 3.0) == ("amplitude", None, 0)
    assert stream.process(np.full(v.size, 5.0), 4.0) == ("zero-variance", None, 0)


# -- feature stream ----------------------------------------------------------

def _accepting_stream():
    model = tiny_model(template=beat_shape())
    return FeatureStream(model.pack, model.params)


def test_stream_keeps_exactly_the_recent_beats():
    v = beat_shape()
    rng = np.random.default_rng(4)
    stream = _accepting_stream()
    dct = DctMatrix.build(N_WINDOW, PARAMS.m)
    kept_times: list[float] = []
    kept_windows: list[np.ndarray] = []
    t = 0.0
    for _ in range(60):
        t += rng.uniform(0.5, 4.0)
        window = v + rng.normal(0.0, 2.0, v.size)
        reason, feats, contributing = stream.process(window, t)
        assert reason is None
        kept_times = [s for s in kept_times if t - s <= PARAMS.t_avg]
        kept_windows = kept_windows[len(kept_windows) - len(kept_times):]
        kept_times.append(t)
        kept_windows.append(window)
        assert contributing == len(kept_times)
        stack = np.stack(kept_windows)
        weights = kaiser_weights(len(kept_times), PARAMS.beta)[cluster_ranks(stack) - 1]
        expected = dct_features(weighted_average(stack, weights), dct)
        assert np.array_equal(feats, expected)


def test_single_beat_features_are_plain_transform():
    v = beat_shape()
    stream = _accepting_stream()
    reason, feats, contributing = stream.process(v, 1.0)
    assert reason is None and contributing == 1
    assert np.array_equal(feats, dct_features(v, DctMatrix.build(256, PARAMS.m)))


def test_buffer_age_boundary_is_inclusive():
    v = beat_shape()
    stream = _accepting_stream()
    assert stream.process(v, 0.0)[2] == 1
    assert stream.process(v, PARAMS.t_avg)[2] == 2  # age == t_avg still counts
    stream = _accepting_stream()
    stream.process(v, 0.0)
    assert stream.process(v, PARAMS.t_avg + 1e-4)[2] == 1


def test_stream_input_contract():
    stream = _accepting_stream()
    v = beat_shape()
    stream.process(v, 5.0)
    with pytest.raises(ContractError, match="after"):
        stream.process(v, 4.9)
    with pytest.raises(ContractError, match="samples"):
        stream.process(np.zeros(100), 6.0)


def test_rejected_beats_never_enter_the_buffer():
    v = beat_shape()
    stream = _accepting_stream()
    stream.process(v, 1.0)
    reason, feats, contributing = stream.process(np.full(v.size, 1.0), 2.0)
    assert reason == "zero-variance" and feats is None and contributing == 0
    assert stream.process(v, 3.0)[2] == 2  # only the two accepted beats


# -- login state -------------------------------------------------------------

def test_replay_login_exact_transitions():
    times = np.arange(1.0, 11.0)
    timeline = replay_login(times, np.ones(10, dtype=bool), 60.0, t_v=30.0, n=10)
    assert timeline.transitions == [(10.0, STATE_AUTHENTICATED), (31.0, STATE_LOCKED)]
    assert timeline.authenticated_intervals() == [(10.0, 31.0)]
    assert timeline.authenticated_seconds() == 21.0
    assert timeline.authenticated_seconds(start=20.0) == 11.0
    assert timeline.lockout_count() == 1
    assert timeline.n_positive == 10 and timeline.n_negative == 0


def test_replay_login_below_quorum_never_authenticates():
    times = np.arange(1.0, 10.0)
    timeline = replay_login(times, np.ones(9, dtype=bool), 60.0, t_v=30.0, n=10)
    assert timeline.transitions == []
    assert timeline.authenticated_seconds() == 0.0


def test_replay_login_requires_positives_within_window():
    # ten positives, but spread so the oldest is always stale
    times = np.arange(0.0, 40.0, 4.0)
    timeline = replay_login(times, np.ones(10, dtype=bool), 60.0, t_v=30.0, n=10)
    assert timeline.transitions == []


def test_lockout_instants_are_exact_positive_expiries():
    rng = np.random.default_rng(10)
    for _ in range(25):
        n_events = rng.integers(5, 80)
        times = np.sort(rng.uniform(0.0, 120.0, n_events))
        positive = rng.random(n_events) < 0.7
        n = int(rng.integers(1, 6))
        t_v = float(rng.uniform(5.0, 25.0))
        timeline = replay_login(times, positive, 130.0, t_v=t_v, n=n)
        pos_times = set(times[positive])
        # expiries are computed as p + t_v, which does not round-trip through
        # subtraction in floats, so compare on the addition side
        expiries = {p + t_v for p in pos_times}
        for a, b in timeline.authenticated_intervals():
            assert a in pos_times
            if b < 130.0:
                assert b in expiries  # backdated to the aging-out instant


def test_dropping_positives_never_gains_access():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n_events = rng.integers(10, 60)
        times = np.sort(rng.uniform(0.0, 90.0, n_events))
        positive = rng.random(n_events) < 0.8
        base = replay_login(times, positive, 100.0, t_v=12.0, n=3)
        flipped = positive & (rng.random(n_events) < 0.7)
        less = replay_login(times, flipped, 100.0, t_v=12.0, n=3)
        assert less.authenticated_seconds() <= base.authenticated_seconds() + 1e-12


def test_tick_backdates_expiry():
    model = tiny_model(svm=constant_margin_svm(PARAMS.m, 5.0))
    pipe = VerificationPipeline(model)
    v = beat_shape()
    for t in range(1, 11):
        assert pipe.process_beat(make_beat(v, float(t))) == KIND_POSITIVE
    pipe.tick(50.0)  # first positive aged out at 1 + t_v = 31, long before
    timeline = pipe.finish(60.0)
    assert timeline.transitions == [(10.0, STATE_AUTHENTICATED), (31.0, STATE_LOCKED)]
    assert (31.0, KIND_TRANSITION, None, None, STATE_LOCKED) in timeline.rows


def test_zero_margin_is_negative_on_both_decision_paths():
    # the live path and the evaluation replay each test the margin's sign
    # themselves, so each must reject a zero margin on its own
    model = tiny_model(svm=constant_margin_svm(PARAMS.m, 0.0))
    pipe = VerificationPipeline(model)
    times = np.arange(1.0, 41.0)
    windows = np.stack([beat_shape(1000.0 + k) for k in range(len(times))])
    kinds = {pipe.process_beat(make_beat(w, t)) for w, t in zip(windows, times.tolist())}
    assert kinds == {KIND_NEGATIVE}
    timeline = pipe.finish(45.0)
    assert timeline.transitions == [] and timeline.authenticated_seconds() == 0.0
    beats = RecordBeats(subject_id="unit", session_id="s1", fs=512, times=times,
                        windows=windows, detected=len(times), duration_s=45.0)
    [batch] = collect_features(beats, [model.pack], PARAMS)
    [replayed] = _replay(model.svm, [batch], PARAMS)
    assert (replayed.n_positive, replayed.n_negative) == (0, len(times))
    assert replayed.transitions == []


# -- whole-record streaming ---------------------------------------------------

def test_stream_record_rejects_sample_rate_mismatch(model3):
    model, _ = model3
    record = EcgRecord("x", "s1", 256, np.zeros(256, dtype=np.int64))
    with pytest.raises(ContractError, match="fs"):
        stream_record(model, record)


def test_stream_record_matches_tick_driven_run(model3, entries3):
    """stream_record runs no clock tick: on an owner -> intruder -> owner
    stream tuned to lock out often, a 1 Hz tick-driven run of the same beats
    gives the same timeline, row for row."""
    model, _ = model3
    model = dataclasses.replace(model, params=dataclasses.replace(
        model.params, t_avg=2.0, r_min=0.98, t_v=3.0, n=3))
    paths = {(e.subject_id, e.role): e.path for e in entries3}
    owner = read_record(paths[("subj01", "test")]).samples
    intruder = read_record(paths[("subj02", "test")]).samples
    minute = 60 * model.fs
    record = EcgRecord("mix", "s1", model.fs, np.concatenate(
        [owner[:minute], intruder[:minute], owner[minute:2 * minute]]))

    pipe = VerificationPipeline(model)
    beats = record_beats(record)
    next_tick = 1.0
    for t, window in zip(beats.times.tolist(), beats.windows):
        while next_tick <= t:
            pipe.tick(next_tick)
            next_tick += 1.0
        pipe.process_window(window, t)
    while next_tick <= beats.duration_s:
        pipe.tick(next_tick)
        next_tick += 1.0
    ticked = pipe.finish(beats.duration_s)

    streamed = stream_record(model, record)
    assert dataclasses.asdict(streamed) == dataclasses.asdict(ticked)
    assert streamed.lockout_count() >= 50
    assert min(streamed.n_positive, streamed.n_negative, streamed.n_rejected) > 0


def test_streamed_timeline_matches_replay(streamed3):
    model, _, timeline = streamed3
    decided = [(t, kind) for t, kind, _, _, _ in timeline.rows
               if kind in (KIND_POSITIVE, KIND_NEGATIVE)]
    times = np.array([t for t, _ in decided])
    positive = np.array([kind == KIND_POSITIVE for _, kind in decided])
    replay = replay_login(times, positive, timeline.duration_s,
                          t_v=model.params.t_v, n=model.params.n)
    assert replay.transitions == timeline.transitions
    assert replay.n_positive == timeline.n_positive
    assert replay.n_negative == timeline.n_negative


def test_collect_features_agrees_with_streaming(streamed3):
    model, record, timeline = streamed3
    [batch] = collect_features(record_beats(record), [model.pack], model.params)
    assert batch.features.shape == (timeline.n_positive + timeline.n_negative,
                                    model.params.m)
    assert batch.n_rejected == timeline.n_rejected
    assert batch.beats_detected == (timeline.n_positive + timeline.n_negative
                                    + timeline.n_rejected)
    assert batch.duration_s == timeline.duration_s == 600.0
    assert np.all(np.diff(batch.times) > 0)
    assert np.all(batch.contributing >= 1)
    # margins recomputed from the batch agree with the streamed decisions
    margins = model.svm.margins(batch.features)
    assert int((margins > 0).sum()) == timeline.n_positive


def _record(times, windows) -> RecordBeats:
    times = np.asarray(times, dtype=np.float64)
    return RecordBeats("unit", "s1", 512, times, np.asarray(windows, dtype=np.float64),
                       detected=times.shape[0] + 2,
                       duration_s=float(times[-1]) + 1.0 if times.shape[0] else 1.0)


@st.composite
def _screened_records(draw):
    """(pack, params, times, windows): windows drawn with repeats from a small
    pool of scaled templates, noise (correlation rejects) and constants
    (zero-variance rejects); the pack's amplitude gate rejects the loudest."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool_size = draw(st.integers(1, 6))
    scale = rng.uniform(0.5, 1.5, (pool_size, 1))
    pool = beat_shape() * scale + rng.normal(0.0, draw(st.sampled_from([0.0, 1.0, 30.0])),
                                             (pool_size, N_WINDOW))
    kinds = draw(st.lists(st.sampled_from(["beat", "beat", "noise", "flat"]),
                          min_size=pool_size, max_size=pool_size))
    for k, kind in enumerate(kinds):
        if kind == "noise":
            pool[k] = rng.normal(0.0, 300.0, N_WINDOW)
        elif kind == "flat":
            pool[k] = 7.0
    if draw(st.booleans()):
        pool = np.round(pool)
    n = draw(st.integers(0, 40))
    windows = pool[draw(st.lists(st.integers(0, pool_size - 1), min_size=n, max_size=n))]
    gaps = draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7]) | st.floats(0.0, 4.0),
                         min_size=n, max_size=n))
    times = np.cumsum(gaps) + draw(st.sampled_from([0.0, 0.1, 1e3 / 3.0]))
    params = PipelineParams(t_avg=draw(st.sampled_from([0.3, 0.6, 1.0, 18.0]) | st.floats(0.05, 20.0)),
                            m=draw(st.sampled_from([1, 5, 40])),
                            beta=draw(st.sampled_from([0.0, 6.0])))
    pack = TemplatePack.build(beat_shape(), -1e9, draw(st.floats(900.0, 1600.0)))
    return pack, params, times, windows


@settings(max_examples=150, deadline=None)
@given(case=_screened_records())
def test_collect_features_equals_feature_stream_bit_for_bit(case):
    pack, params, times, windows = case
    stream = FeatureStream(pack, params)
    kept_times, kept_features, kept_contributing = [], [], []
    n_rejected = 0
    for t, window in zip(times.tolist(), windows):
        reason, feats, contributing = stream.process(window, t)
        if reason is None:
            kept_times.append(t)
            kept_features.append(feats)
            kept_contributing.append(contributing)
        else:
            n_rejected += 1
    [batch] = collect_features(_record(times, windows), [pack], params)
    assert batch.times.tolist() == kept_times
    assert batch.features.shape == (len(kept_times), params.m)
    expected = np.stack(kept_features) if kept_features else np.empty((0, params.m))
    assert batch.features.tobytes() == expected.tobytes()
    assert batch.contributing.tolist() == kept_contributing
    assert batch.n_rejected == n_rejected


def test_collect_features_input_contract():
    v = beat_shape()
    with pytest.raises(ContractError, match="after"):
        collect_features(_record([5.0, 4.9], [v, v]), [tiny_model().pack], PARAMS)
    with pytest.raises(ContractError, match="samples"):
        collect_features(_record([1.0], [np.zeros(100)]), [tiny_model().pack], PARAMS)


def test_timeline_csv_layout(streamed3, tmp_path):
    _, _, timeline = streamed3
    path = tmp_path / "timeline.csv"
    write_timeline_csv(timeline, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_s,kind,margin,contributing,login_state"
    assert len(lines) == 1 + len(timeline.rows)
    transitions = []
    for line in lines[1:]:
        t_s, kind, margin, contributing, state = line.split(",")
        float(t_s)
        assert state in (STATE_LOCKED, STATE_AUTHENTICATED)
        if kind == KIND_TRANSITION:
            assert margin == "" and contributing == ""
            transitions.append((float(t_s), state))
        elif kind == KIND_REJECTED:
            assert margin == "" and contributing == "0"
        else:
            assert kind in (KIND_POSITIVE, KIND_NEGATIVE)
            assert (float(margin) > 0) == (kind == KIND_POSITIVE)
            assert int(contributing) >= 1
    assert transitions == [(round(t, 6), s) for t, s in timeline.transitions]


def test_pipeline_imports_no_enroll():
    # an empty package module stands in for ecgauth/__init__.py, which
    # imports every module, so only pipeline's own imports run
    src = os.path.dirname(os.path.dirname(os.path.abspath(ecgauth.__file__)))
    code = ("import sys, types; pkg = types.ModuleType('ecgauth'); "
            "pkg.__path__ = [sys.argv[1] + '/ecgauth']; sys.modules['ecgauth'] = pkg; "
            "import ecgauth.pipeline; print(sorted(m for m in sys.modules "
            "if m.startswith('ecgauth.')))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=120)
    loaded = out.stdout.strip()
    assert "'ecgauth.pipeline'" in loaded
    assert "'ecgauth.enroll'" not in loaded
