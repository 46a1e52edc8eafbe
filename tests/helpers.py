"""Shared test utilities: handcrafted beats, models, and peak matching."""

from __future__ import annotations

import numpy as np

from ecgauth.pipeline import PipelineParams, SubjectModel, TemplatePack
from ecgauth.qrs import LEFT, N_WINDOW, Beat
from ecgauth.svm import LinearSvm


def beat_shape(r_amp: float = 1000.0) -> np.ndarray:
    """A plausible non-constant beat window with its maximum at sample LEFT."""
    n = np.arange(N_WINDOW, dtype=np.float64)
    out = r_amp * np.exp(-((n - LEFT) ** 2) / (2.0 * 4.5**2))
    out += 0.15 * r_amp * np.exp(-((n - LEFT - 110) ** 2) / (2.0 * 22.0**2))
    out -= 0.12 * r_amp * np.exp(-((n - LEFT + 12) ** 2) / (2.0 * 4.0**2))
    return out


def make_beat(window, t: float) -> Beat:
    return Beat(window=np.asarray(window, dtype=np.float64), t=t)


def constant_margin_svm(m: int, margin: float) -> LinearSvm:
    # w = 0 makes every input score exactly b, regardless of features
    return LinearSvm(mu=np.zeros(m), sigma=np.ones(m), w=np.zeros(m), b=float(margin))


def tiny_model(template=None, amp_lo: float = -1e9, amp_hi: float = 1e9,
               svm: LinearSvm | None = None, params: PipelineParams | None = None,
               fs: int = 512):
    """SubjectModel around a handcrafted classifier, for pipeline unit tests."""
    if template is None:
        template = beat_shape()
    params = params or PipelineParams()
    svm = svm or constant_margin_svm(params.m, 1.0)
    pack = TemplatePack.build(np.asarray(template, dtype=np.float64), amp_lo, amp_hi)
    return SubjectModel("unit", fs, pack, svm, params)


def match_peaks(truth, detected, fs: int, tol_s: float) -> tuple[int, float]:
    """Greedy nearest matching; returns (matched count, worst matched error in samples)."""
    truth = np.asarray(truth, dtype=np.int64)
    det = np.asarray(detected, dtype=np.int64)
    tol = tol_s * fs
    matched = 0
    worst = 0.0
    used = np.zeros(det.shape[0], dtype=bool)
    for t in truth:
        if det.shape[0] == 0:
            break
        errs = np.abs(det - t).astype(np.float64)
        errs[used] = np.inf
        j = int(np.argmin(errs))
        if errs[j] <= tol:
            used[j] = True
            matched += 1
            worst = max(worst, errs[j])
    return matched, worst
