"""Streaming verification: subject model, prescreen, FIFO buffer, features,
login state.

A subject's model is its template pack (the enrolled template with its
mean and sample deviation, and the amplitude gate), the SVM, and the
pipeline parameters; enroll builds, saves and loads it. A PipelineParams
checks itself when built (dataclasses.replace included), so no caller
re-checks one.

Each accepted beat triggers a full feature computation over the beats seen
in the last t_avg seconds: similarity ranks from average-linkage
agglomeration, Kaiser-window weights by rank, weighted average, then the
leading M DCT coefficients. The classifier margin turns each accepted beat
into a positive or negative verification; the login state is authenticated
exactly while the last t_v seconds contain at least n positives.

State transitions are computed at their exact times: a lockout caused by a
positive verification aging out is backdated to the aging-out instant, no
matter when the next beat or clock tick arrives. The 1 Hz tick therefore
adds no quantization; it only bounds how late a transition is noticed
during beat-free stretches.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .beatmath import (DctMatrix, batched_cluster_ranks, cluster_ranks, dct_features,
                       kaiser_weights, pearson, weighted_average)
from .errors import ContractError, ZeroVarianceError
from .qrs import N_WINDOW, RecordBeats, record_beats
from .svm import LinearSvm

KIND_REJECTED = "beat_rejected_prescreen"
KIND_POSITIVE = "verified_positive"
KIND_NEGATIVE = "verified_negative"
KIND_TRANSITION = "login_transition"

STATE_LOCKED = "locked"
STATE_AUTHENTICATED = "authenticated"


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class PipelineParams:
    """Verification-pipeline knobs, checked when built; defaults are the tuned
    operating point."""

    t_avg: float = 18.0
    m: int = 40
    r_min: float = 0.9
    t_v: float = 30.0
    n: int = 10
    beta: float = 6.0

    def __post_init__(self) -> None:
        # a non-finite t_v or t_avg would keep a login open or a buffer
        # growing forever, so only finite values are parameters; a bool is
        # a flag, not a number, in every field
        if not (_is_real(self.t_avg) and math.isfinite(self.t_avg) and self.t_avg > 0):
            raise ContractError("t_avg must be positive and finite")
        if not (_is_int(self.m) and 1 <= self.m <= N_WINDOW):
            raise ContractError(f"m must be an integer in [1, {N_WINDOW}]")
        if not (_is_real(self.r_min) and 0.0 < self.r_min < 1.0):
            raise ContractError("r_min must be in (0, 1)")
        if not (_is_real(self.t_v) and math.isfinite(self.t_v) and self.t_v > 0):
            raise ContractError("t_v must be positive and finite")
        if not (_is_int(self.n) and self.n >= 1):
            raise ContractError("n must be an integer of at least 1")
        if not (_is_real(self.beta) and math.isfinite(self.beta) and self.beta >= 0):
            raise ContractError("beta must be nonnegative and finite")


@dataclass(frozen=True)
class TemplatePack:
    """Enrolled template, its mean and sample deviation, and the amplitude gate."""

    template: np.ndarray
    mean: float
    sdev: float
    amp_lo: float
    amp_hi: float

    @classmethod
    def build(cls, template: np.ndarray, amp_lo: float, amp_hi: float) -> "TemplatePack":
        if not amp_lo < amp_hi:
            raise ContractError("amp_lo must be below amp_hi")
        sdev = float(template.std(ddof=1))
        if sdev <= 0.0:
            raise ContractError("template must not be constant")
        return cls(template=template, mean=float(template.mean()), sdev=sdev,
                   amp_lo=amp_lo, amp_hi=amp_hi)


@dataclass(frozen=True)
class SubjectModel:
    """One subject's verifier: the template pack, the SVM, and its parameters."""

    subject_id: str
    fs: int
    pack: TemplatePack
    svm: LinearSvm
    params: PipelineParams


def correlation_at_least(rows: np.ndarray, templates: np.ndarray, means, sdevs,
                         r_min: float) -> np.ndarray:
    """[p, k] is whether pearson(rows[k], templates[p], y_mean=means[p],
    y_sdev=sdevs[p]) is at least r_min, False where it raises
    ZeroVarianceError, bit for bit as the per-row calls decide.

    One matrix product gives every r. It sums in another order than
    pearson, so its r can differ from pearson's by a few len(row) * 2**-52,
    times max|row| / |row - row mean| where the row's mean rounds
    differently. pearson decides the rows whose r lies within 1e-9 of r_min
    on that scale, and the rows that are constant or whose spread or r is
    not finite.
    """
    rows = np.asarray(rows, dtype=np.float64)
    templates = np.reshape(np.asarray(templates, dtype=np.float64), (-1, rows.shape[1]))
    means = np.asarray(means, dtype=np.float64)
    sdevs = np.asarray(sdevs, dtype=np.float64)
    mins = rows.min(axis=1)
    maxs = rows.max(axis=1)
    sy = sdevs * math.sqrt(rows.shape[1] - 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dx = rows - rows.mean(axis=1, keepdims=True)
        sx = np.sqrt(np.einsum("ij,ij->i", dx, dx))
        r = ((templates - means[:, None]) @ dx.T) / (sy[:, None] * sx)
        band = 1e-9 * (1.0 + np.maximum(np.abs(mins), np.abs(maxs)) / sx)
        decided = ((np.abs(r - r_min) > band)
                   & ((sx > 0.0) & np.isfinite(sx) & (mins < maxs))
                   & ((sy > 0.0) & np.isfinite(sy))[:, None])
    passes = decided & (r >= r_min)
    for p, k in zip(*np.nonzero(~decided)):
        try:
            passes[p, k] = pearson(rows[k], templates[p], y_mean=float(means[p]),
                                   y_sdev=float(sdevs[p])) >= r_min
        except ZeroVarianceError:
            pass
    return passes


def _prescreen_window(window: np.ndarray, pack: TemplatePack, r_min: float) -> str | None:
    """None when the window passes; otherwise the rejection reason."""
    try:
        r = pearson(window, pack.template, y_mean=pack.mean, y_sdev=pack.sdev)
    except ZeroVarianceError:
        return "zero-variance"
    if r < r_min:
        return "correlation"
    if window.min() < pack.amp_lo or window.max() > pack.amp_hi:
        return "amplitude"
    return None


def prescreen_accepts(windows: np.ndarray, packs: list, r_min: float) -> np.ndarray:
    """[p, k] is whether _prescreen_window(windows[k], packs[p], r_min) is
    None, for every beat and pack at once (see correlation_at_least)."""
    correlated = correlation_at_least(windows, [p.template for p in packs],
                                      [p.mean for p in packs], [p.sdev for p in packs], r_min)
    mins = windows.min(axis=1)
    maxs = windows.max(axis=1)
    lo = np.array([p.amp_lo for p in packs])[:, None]
    hi = np.array([p.amp_hi for p in packs])[:, None]
    return correlated & ~((mins < lo) | (maxs > hi))


class FeatureStream:
    """Prescreen + buffer + feature extraction, with no classifier, beat by beat.

    The live path. collect_features computes the same sequence for a whole
    record at once.
    """

    def __init__(self, pack: TemplatePack, params: PipelineParams):
        self.pack = pack
        self.params = params
        self._dct = DctMatrix.build(n=N_WINDOW, m=params.m)
        self._times: deque[float] = deque()
        self._windows: deque[np.ndarray] = deque()
        self._last_t = -np.inf

    def process(self, window: np.ndarray, t: float):
        """Returns (reason, features, contributing); reason None = accepted."""
        if t < self._last_t:
            raise ContractError(f"beat at t={t} arrived after t={self._last_t}")
        self._last_t = t
        window = np.asarray(window, dtype=np.float64)
        if window.shape != (N_WINDOW,):
            raise ContractError(f"beat window must have {N_WINDOW} samples")
        reason = _prescreen_window(window, self.pack, self.params.r_min)
        if reason is not None:
            return reason, None, 0
        while self._times and t - self._times[0] > self.params.t_avg:
            self._times.popleft()
            self._windows.popleft()
        self._times.append(t)
        self._windows.append(window)
        stack = np.stack(self._windows)
        ranks = cluster_ranks(stack)
        weights = kaiser_weights(stack.shape[0], self.params.beta)[ranks - 1]
        avg = weighted_average(stack, weights)
        feats = dct_features(avg, self._dct)
        return None, feats, stack.shape[0]


class _LoginState:
    """Exact n-positives-in-t_v window machine.

    Only the n newest positive times matter: the state stays authenticated
    while the n-th newest is younger than t_v, so expiry instants are exact
    and independent of when advance() gets called.
    """

    def __init__(self, t_v: float, n: int):
        self.t_v = t_v
        self.n = n
        self.state = STATE_LOCKED
        self.transitions: list[tuple[float, str]] = []
        self._newest = deque(maxlen=n)

    def advance(self, now: float) -> list[tuple[float, str]]:
        emitted = []
        if self.state == STATE_AUTHENTICATED:
            expiry = self._newest[0] + self.t_v
            if expiry <= now:
                self.state = STATE_LOCKED
                self.transitions.append((expiry, STATE_LOCKED))
                emitted.append((expiry, STATE_LOCKED))
        return emitted

    def positive(self, t: float) -> list[tuple[float, str]]:
        emitted = self.advance(t)
        self._newest.append(t)
        if (self.state == STATE_LOCKED and len(self._newest) == self.n
                and self._newest[0] > t - self.t_v):
            self.state = STATE_AUTHENTICATED
            self.transitions.append((t, STATE_AUTHENTICATED))
            emitted.append((t, STATE_AUTHENTICATED))
        return emitted


@dataclass
class Timeline:
    """Login-state history of one streamed record."""

    duration_s: float
    transitions: list  # (t, new_state), alternating, initial state locked
    n_positive: int = 0
    n_negative: int = 0
    n_rejected: int = 0
    rows: list = field(default_factory=list)

    def authenticated_intervals(self) -> list[tuple[float, float]]:
        intervals = []
        state = STATE_LOCKED
        opened = 0.0
        for t, new_state in self.transitions:
            if state == STATE_LOCKED and new_state == STATE_AUTHENTICATED:
                opened = t
            elif state == STATE_AUTHENTICATED and new_state == STATE_LOCKED:
                intervals.append((opened, t))
            state = new_state
        if state == STATE_AUTHENTICATED:
            intervals.append((opened, self.duration_s))
        return intervals

    def authenticated_seconds(self, start: float = 0.0) -> float:
        total = 0.0
        for a, b in self.authenticated_intervals():
            total += max(0.0, min(b, self.duration_s) - max(a, start))
        return total

    def lockout_count(self) -> int:
        return sum(1 for _, s in self.transitions if s == STATE_LOCKED)


class VerificationPipeline:
    """One model, one stream: a decision per beat, export rows, and the Timeline."""

    def __init__(self, model: SubjectModel):
        self.model = model
        self.stream = FeatureStream(model.pack, model.params)
        self.login = _LoginState(model.params.t_v, model.params.n)
        self.rows: list[tuple] = []
        self._counts = {KIND_POSITIVE: 0, KIND_NEGATIVE: 0, KIND_REJECTED: 0}

    def _transition_rows(self, transitions) -> None:
        for t, state in transitions:
            self.rows.append((t, KIND_TRANSITION, None, None, state))

    def tick(self, t: float) -> None:
        self._transition_rows(self.login.advance(t))

    def process_beat(self, beat) -> str:
        return self.process_window(beat.window, beat.t)

    def process_window(self, window: np.ndarray, t: float) -> str:
        """Decide one beat; returns its kind (rejected, positive or negative)."""
        reason, feats, contributing = self.stream.process(window, t)
        if reason is not None:
            kind = KIND_REJECTED
            margin = None
            self._transition_rows(self.login.advance(t))
        else:
            margin = self.model.svm.margin(feats)
            kind = KIND_POSITIVE if margin > 0.0 else KIND_NEGATIVE
            if kind == KIND_POSITIVE:
                self._transition_rows(self.login.positive(t))
            else:
                self._transition_rows(self.login.advance(t))
        self._counts[kind] += 1
        self.rows.append((t, kind, margin, contributing, self.login.state))
        return kind

    def finish(self, duration_s: float) -> Timeline:
        self._transition_rows(self.login.advance(duration_s))
        return Timeline(duration_s=duration_s,
                        transitions=list(self.login.transitions),
                        n_positive=self._counts[KIND_POSITIVE],
                        n_negative=self._counts[KIND_NEGATIVE],
                        n_rejected=self._counts[KIND_REJECTED],
                        rows=list(self.rows))


def stream_record(model: SubjectModel, record) -> Timeline:
    """Run a whole record through the pipeline, beat by beat.

    No clock tick is needed. A lockout is backdated to its expiry instant
    and only a positive beat can authenticate, so at most one transition
    falls due between two beats. The next beat, or finish, writes that
    transition's row at its own instant and ahead of the beat's row, which
    is where a 1 Hz tick would have put it.
    """
    if record.fs != model.fs:
        raise ContractError(f"record fs {record.fs} does not match model fs {model.fs}")
    pipe = VerificationPipeline(model)
    beats = record_beats(record)
    for t, window in zip(beats.times.tolist(), beats.windows):
        pipe.process_window(window, t)
    return pipe.finish(beats.duration_s)


@dataclass(frozen=True)
class FeatureBatch:
    """Feature sequence of the beats of one record that pass a pack's prescreen."""

    times: np.ndarray
    features: np.ndarray
    beats_detected: int
    n_rejected: int
    duration_s: float


def _accepted_features(times: np.ndarray, windows: np.ndarray, params: PipelineParams,
                       dct: DctMatrix) -> np.ndarray:
    """Features of beats that all pass the prescreen, bit for bit as
    FeatureStream computes them beat by beat."""
    # each buffer opens where FeatureStream's FIFO would, by the same float test
    starts = []
    s = 0
    seq = times.tolist()
    for k, t in enumerate(seq):
        while s < k and t - seq[s] > params.t_avg:
            s += 1
        starts.append(s)
    ranks = batched_cluster_ranks(windows, starts, range(1, len(seq) + 1))
    features = np.empty((len(seq), params.m))
    for k, (s, r) in enumerate(zip(starts, ranks)):
        weights = kaiser_weights(r.shape[0], params.beta)[r - 1]
        features[k] = dct_features(weighted_average(windows[s:k + 1], weights), dct)
    return features


def collect_features(beats: RecordBeats, packs, params: PipelineParams) -> list[FeatureBatch]:
    """Each pack's feature sequence of a record, for training and evaluation.

    A record's features depend on a pack only through which beats pass its
    prescreen, since rejected beats never enter the buffer. So they are
    computed once per distinct accepted set, and packs that accept the same
    beats share one FeatureBatch. Every batch equals what streaming the
    record through a FeatureStream of its pack gives.
    """
    times = beats.times
    windows = np.asarray(beats.windows, dtype=np.float64)
    if windows.ndim != 2 or windows.shape[1] != N_WINDOW:
        raise ContractError(f"beat window must have {N_WINDOW} samples")
    back = np.flatnonzero(np.diff(times) < 0)
    if back.shape[0]:
        raise ContractError(f"beat at t={times[back[0] + 1]} arrived after t={times[back[0]]}")
    dct = DctMatrix.build(n=N_WINDOW, m=params.m)
    shared: dict[bytes, FeatureBatch] = {}
    batches = []
    packs = list(packs)
    for pack, accepted in zip(packs, prescreen_accepts(windows, packs, params.r_min)):
        key = accepted.tobytes()
        if key not in shared:
            features = _accepted_features(times[accepted], windows[accepted], params, dct)
            shared[key] = FeatureBatch(
                times=times[accepted], features=features,
                beats_detected=beats.detected,
                n_rejected=int(accepted.shape[0] - accepted.sum()),
                duration_s=beats.duration_s)
        batches.append(shared[key])
    return batches


def replay_login(times: np.ndarray, positive: np.ndarray, duration_s: float,
                 t_v: float, n: int) -> Timeline:
    """Rebuild the exact login timeline from decision times and signs.

    Ticks are not needed here: transition instants are computed exactly,
    so replaying only the positive times gives the same Timeline as the
    full streamed run.
    """
    login = _LoginState(t_v, n)
    n_pos = 0
    for t, is_pos in zip(times, positive):
        if is_pos:
            login.positive(float(t))
            n_pos += 1
        else:
            login.advance(float(t))
    login.advance(duration_s)
    return Timeline(duration_s=duration_s, transitions=list(login.transitions),
                    n_positive=n_pos, n_negative=int(len(times) - n_pos))


def write_timeline_csv(timeline: Timeline, path: str) -> None:
    """Plot-ready export: events and login transitions in stream order."""
    with open(path, "w", newline="") as fh:
        fh.write("t_s,kind,margin,contributing,login_state\n")
        for t, kind, margin, contributing, state in timeline.rows:
            m = "" if margin is None else format(margin, ".9g")
            c = "" if contributing is None else str(contributing)
            fh.write(f"{t:.6f},{kind},{m},{c},{state}\n")
