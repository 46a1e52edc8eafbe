"""Acceptance gate: one test per shipped guarantee.

Each test prints a single PASS line with its measured figures; run with
`pytest tests/test_acceptance.py -v -s` to see them. A criterion that does
not hold fails its test outright.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from time import perf_counter

import numpy as np

from ecgauth.beatmath import (DctMatrix, cluster_ranks, dct_features,
                              kaiser_weights, pairwise_euclidean, pearson)
from ecgauth.cli import main
from ecgauth.enroll import PipelineParams
from ecgauth.evaluation import ConfusionCounts, bar, timeline_metrics
from ecgauth.pipeline import (KIND_NEGATIVE, FeatureStream, VerificationPipeline,
                              replay_login, weighted_average)
from ecgauth.qrs import N_WINDOW, detect_beats
from ecgauth.svm import LinearSvm, train_svm
from ecgauth.synth import _cohort_morphologies, generate_record
from helpers import beat_shape, match_peaks, tiny_model
from test_svm import FOUR_X, FOUR_Y, dual_qp_oracle, primal_objective

FS = 512


def test_c1_balanced_accuracy_reference_rows():
    rows = [
        (ConfusionCounts(tp=9601, fn=399, tn=10000, fp=0), 98.01),
        (ConfusionCounts(tp=2885, fn=7115, tn=10000, fp=0), 64.43),
        (ConfusionCounts(tp=7551, fn=2449, tn=9999, fp=1), 87.75),
    ]
    worst = max(abs(100.0 * bar(c) - expected) for c, expected in rows)
    assert worst <= 0.005 + 1e-9
    print(f"PASS criterion 1: balanced accuracy matches all 3 reference rows, "
          f"worst deviation {worst:.4f} (tolerance 0.005)")


def _naive_dct(a: list[float]) -> np.ndarray:
    # literal double-loop evaluation of the transform definition
    n = len(a)
    out = []
    for k in range(1, n + 1):
        s = 0.0
        for m in range(1, n + 1):
            s += a[m - 1] * math.cos(math.pi / (2.0 * n) * (2.0 * m - 1.0) * (k - 1.0))
        out.append(math.sqrt(2.0 / n) / math.sqrt(2.0 if k == 1 else 1.0) * s)
    return np.array(out)


def test_c2_dct_transform_correctness():
    start = perf_counter()
    full = DctMatrix.build(256, 256)
    err_orth = np.abs(full.g @ full.g.T - np.eye(256)).max()
    assert err_orth <= 1e-9
    rng = np.random.default_rng(2)
    err_parseval = 0.0
    err_naive = 0.0
    for _ in range(100):
        a = rng.standard_normal(256)
        d = dct_features(a, full)
        err_parseval = max(err_parseval,
                           abs(float(d @ d) - float(a @ a)) / float(a @ a))
        err_naive = max(err_naive, np.abs(d - _naive_dct(list(a))).max())
    assert err_parseval <= 1e-9
    assert err_naive <= 1e-9
    elapsed = perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 2: orthonormality {err_orth:.2e}, Parseval "
          f"{err_parseval:.2e}, naive-loop agreement {err_naive:.2e} over "
          f"100 vectors in {elapsed:.1f}s")


def test_c3_pearson_property_suite():
    start = perf_counter()
    hand = pearson([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 5.0])
    assert abs(hand - 0.9827076298239908) <= 1e-12
    rng = np.random.default_rng(3)
    worst_affine = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 300))
        x = rng.normal(0.0, float(rng.uniform(0.1, 100.0)), n)
        y = rng.standard_normal(n)
        assert abs(pearson(x, x) - 1.0) <= 1e-12
        assert abs(pearson(x, -x) + 1.0) <= 1e-12
        a = float(rng.uniform(0.05, 20.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        b = float(rng.uniform(-50.0, 50.0))
        r = pearson(x, y)
        worst_affine = max(worst_affine,
                           abs(pearson(a * x + b, y) - math.copysign(1.0, a) * r))
    assert worst_affine <= 1e-9
    elapsed = perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 3: self/negation/affine properties over 1000 pairs "
          f"(worst affine deviation {worst_affine:.2e}) in {elapsed:.1f}s")


def test_c4_clustering_and_weights():
    start = perf_counter()
    rng = np.random.default_rng(4)
    for _ in range(500):
        b = int(rng.integers(3, 41))
        x = rng.standard_normal((b, 12)) * float(rng.uniform(0.5, 50.0))
        others = x[:-1]
        spread = pairwise_euclidean(others).max()
        direction = rng.standard_normal(12)
        direction /= np.linalg.norm(direction)
        x[-1] = others.mean(axis=0) + (11.0 * spread + 1.0) * direction
        ranks = cluster_ranks(x)
        assert ranks[-1] == b  # the far-off beat joins last
        weights = kaiser_weights(b, 6.0)[ranks - 1]
        assert weights[-1] == weights.min()
    for b in range(1, 41):
        w = kaiser_weights(b, 6.0)
        assert np.all(w >= 0.0)
        assert np.all(np.diff(w) <= 0.0)
        assert abs(float(w.sum()) - 1.0) <= 1e-12
    assert kaiser_weights(1, 6.0).tolist() == [1.0]
    elapsed = perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 4: outlier rank/min-weight over 500 buffers and "
          f"weight-shape properties for sizes 1..40 in {elapsed:.1f}s")


def test_c5_qrs_detector_cohort_accuracy():
    morphs = _cohort_morphologies(8, seed=0)
    moderate = [generate_record(m, 1200.0, FS) for m in morphs]
    quiet = [generate_record(dataclasses.replace(m, noise_sigma=0.0), 1200.0, FS)
             for m in morphs]
    start = perf_counter()
    worst_sens = 1.0
    worst_err_ms = 0.0
    for record, truth in moderate:
        detected = [p.index for p in detect_beats(record)]
        matched, worst = match_peaks(truth, detected, FS, tol_s=0.010)
        worst_sens = min(worst_sens, matched / len(truth))
        worst_err_ms = max(worst_err_ms, 1000.0 * worst / FS)
        assert matched >= 0.99 * len(truth)
        assert worst <= 0.010 * FS
    worst_quiet_err = 0
    for record, truth in quiet:
        detected = [p.index for p in detect_beats(record)]
        assert len(detected) == len(truth)  # sensitivity 100%, no extras
        err = int(np.abs(np.asarray(detected) - np.asarray(truth)).max())
        worst_quiet_err = max(worst_quiet_err, err)
        assert err <= 1
    elapsed = perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 5: 8x20min cohort sensitivity >= {worst_sens:.1%}, "
          f"localization <= {worst_err_ms:.1f} ms; noise-free error <= "
          f"{worst_quiet_err} sample(s); detection took {elapsed:.1f}s")


def test_c6_svm_against_qp_oracle():
    start = perf_counter()
    model, _ = train_svm(FOUR_X, FOUR_Y)
    xs = (FOUR_X - model.mu) / model.sigma
    cvec = np.ones(4)
    p_impl = primal_objective(xs, FOUR_Y, cvec, model.w, model.b)
    _, _, p_oracle = dual_qp_oracle(xs, FOUR_Y, cvec)
    gap = abs(p_impl - p_oracle)
    assert gap <= 1e-4

    dup, _ = train_svm(np.concatenate([FOUR_X, FOUR_X]),
                       np.concatenate([FOUR_Y, FOUR_Y]))
    grid = np.array([[x1, x2] for x1 in (-1.0, 0.5, 1.0, 3.0) for x2 in (0.0, 1.0)])
    assert np.abs(model.margins(grid) - dup.margins(grid)).max() <= 1e-9

    rng = np.random.default_rng(6)
    x = np.concatenate([rng.standard_normal((10, 4)) + 2.0,
                        rng.standard_normal((14, 4))])
    y = np.concatenate([np.ones(10), -np.ones(14)])
    base, _ = train_svm(x, y)
    perm = rng.permutation(24)
    shuffled, _ = train_svm(x[perm], y[perm])
    probe = rng.standard_normal((50, 4))
    assert np.abs(base.margins(probe) - shuffled.margins(probe)).max() <= 1e-5
    assert np.array_equal(base.margins(probe) > 0.0, shuffled.margins(probe) > 0.0)

    # a tie: w picks the first feature and b cancels it, so the beat's margin
    # is exactly 0.0, and the live decision must reject it
    params = PipelineParams()
    v = beat_shape()
    _, feats, _ = FeatureStream(tiny_model(template=v).pack, params).process(v, 1.0)
    w = np.zeros(params.m)
    w[0] = 1.0
    tie = VerificationPipeline(tiny_model(template=v, svm=LinearSvm(
        mu=np.zeros(params.m), sigma=np.ones(params.m), w=w, b=-float(feats[0]))))
    assert tie.process_window(v, 1.0) == KIND_NEGATIVE
    assert tie.rows[-1][2] == 0.0
    elapsed = perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 6: primal within {gap:.2e} of QP oracle; "
          f"duplication/permutation invariance and margin-0 rejection hold "
          f"({elapsed:.1f}s)")


def test_c7_leave_one_out_security(loo8):
    reports, cells, elapsed = loo8
    assert len(reports) == 8
    assert len(cells) == 56
    worst_avail = 1.0
    t_v = PipelineParams().t_v
    for cell in cells:
        metrics = timeline_metrics([], cell.intruder_timelines)
        assert metrics["total_intruder_access_s"] == 0.0
        for timeline in cell.genuine_timelines:
            avail = (timeline.authenticated_seconds(start=t_v)
                     / (timeline.duration_s - t_v))
            worst_avail = min(worst_avail, avail)
            assert avail >= 0.90
    for report in reports:
        assert report.avg_fpr == 0.0 and report.worst_fpr == 0.0
    assert elapsed < 600.0
    print(f"PASS criterion 7: 0 s intruder access across {len(cells)} "
          f"owner/intruder pairings; worst genuine availability after first "
          f"{t_v:.0f}s is {worst_avail:.1%}; run took {elapsed:.0f}s "
          f"single-threaded")


def test_c8_evaluate_is_deterministic(cohort3_dir, tmp_path):
    manifest = str(cohort3_dir / "manifest.csv")
    outs = []
    for name, jobs in (("serial_a", "1"), ("serial_b", "1"), ("parallel", "4")):
        out = tmp_path / name
        rc = main(["evaluate", "--manifest", manifest, "--out", str(out),
                   "--jobs", jobs])
        assert rc == 0
        outs.append(out)
    report = (outs[0] / "report.csv").read_bytes()
    metrics = (outs[0] / "metrics.json").read_bytes()
    for out in outs[1:]:
        assert (out / "report.csv").read_bytes() == report
        assert (out / "metrics.json").read_bytes() == metrics
    # the bytes themselves are pinned: this cohort is not saturated (subj01's
    # avg_fpr reads 74.50), so a flipped decision changes them
    assert hashlib.sha256(report).hexdigest() == (
        "daa34b1b794312fdec092b8455b4a9972731aacf9946283d4077d887e541d232")
    assert hashlib.sha256(metrics).hexdigest() == (
        "a2317ba7c7591c67194fbef80f441c8fa08c32c7ac02de2b24c1edfbcc0853e2")
    print("PASS criterion 8: repeated evaluate runs byte-identical, "
          "serial and with --jobs 4, and equal to the pinned SHA-256")


def test_c9_stream_and_lockout_semantics():
    params = PipelineParams()
    v = beat_shape()
    model = tiny_model(template=v)
    dct = DctMatrix.build(N_WINDOW, params.m)
    rng = np.random.default_rng(9)
    checked_beats = 0
    for _ in range(20):
        stream = FeatureStream(model.pack, params)
        kept: list[tuple[float, np.ndarray]] = []
        t = 0.0
        for _ in range(40):
            t += float(rng.uniform(0.3, 6.0))
            window = v + rng.normal(0.0, 2.0, v.size)
            reason, feats, contributing = stream.process(window, t)
            assert reason is None
            kept = [(s, w) for s, w in kept if t - s <= params.t_avg]
            kept.append((t, window))
            # recompute from scratch using only beats within the age horizon
            stack = np.stack([w for _, w in kept])
            ranks = cluster_ranks(stack)
            weights = kaiser_weights(len(kept), params.beta)[ranks - 1]
            expected = dct.g @ weighted_average(stack, weights)
            assert contributing == len(kept)
            assert np.array_equal(feats, expected)
            checked_beats += 1

    checked_lockouts = 0
    for _ in range(200):
        n_events = int(rng.integers(5, 80))
        times = np.sort(rng.uniform(0.0, 200.0, n_events))
        positive = rng.random(n_events) < float(rng.uniform(0.3, 0.9))
        n = int(rng.integers(1, 8))
        t_v = float(rng.uniform(4.0, 40.0))
        timeline = replay_login(times, positive, 240.0, t_v=t_v, n=n)
        if not positive.any():
            assert timeline.transitions == []
            continue
        expiries = times[positive] + t_v
        for a, b in timeline.authenticated_intervals():
            if b < timeline.duration_s:
                # lockout is an exact positive expiry: cessation + t_v, never later
                assert np.any(expiries == b)
                last_pos_before = times[positive & (times <= b)].max()
                assert b <= last_pos_before + t_v + 1.0
                checked_lockouts += 1
    print(f"PASS criterion 9: buffer age horizon exact over {checked_beats} "
          f"streamed beats; {checked_lockouts} lockouts all within t_v of "
          f"positive cessation")
