"""Deterministic synthetic single-lead ECG with exact R-peak ground truth.

Each beat is the sum of five Gaussian bumps (P, Q, R, S, T) rendered around
an R center that is first rounded to the sample grid, so the truth list is
exact by construction. RR intervals follow 60/bpm * (1 + v*sin + jitter)
with a seeded generator; the record gets seeded white noise plus a low
0.3 Hz baseline wander before integer ADC quantization.

Cohort identity design. All subjects share the same base P-Q-R-S-T shape;
what distinguishes a subject is a small smooth "texture" curve added across
every beat window. The textures are built backwards from the verification
feature space: subject codes are rows of a Hadamard matrix (any two codes
disagree in exactly half their entries), embedded through an orthonormal
basis whose rows carry near-equal energy, then lifted exactly into the beat
window through the transform the pipeline itself applies. Two properties
follow and both matter downstream:

- every pair of subjects sits at the same feature-space distance, so a
  classifier trained with any one subject held out still ends up with the
  held-out subject on its negative side (no pair is "the close pair"), and
- the identity variance is spread near-evenly over feature coordinates, so
  per-feature standardization inside training rescales the geometry almost
  isotropically instead of crushing the directions that carry identity.

Texture amplitudes are kept small next to the R wave, so detection and
prescreening behave exactly as they do for the shared base shape.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .beatmath import DctMatrix
from .ecgio import EcgRecord, ManifestEntry, write_manifest, write_record
from .errors import ContractError
from .qrs import LEFT, N_WINDOW

_WAVE_NAMES = ("P", "Q", "R", "S", "T")
_HRV_FREQ_HZ = 0.25
_WANDER_FREQ_HZ = 0.3
_FIRST_BEAT_S = 0.5
_TAIL_GUARD_S = 0.6


@dataclass(frozen=True)
class SubjectMorphology:
    """Gaussian-bump beat shape plus rhythm and noise parameters.

    waves holds (amplitude_adc, center_offset_s, width_s) for P, Q, R, S, T
    in that order; R's offset is 0 by convention. texture, when present, is
    a per-subject curve of N_WINDOW samples added around every beat, aligned
    so its sample LEFT lands on the R center (matching beat segmentation).
    """

    waves: tuple[tuple[float, float, float], ...]
    hr_bpm: float
    hr_var: float
    rr_jitter: float
    noise_sigma: float
    wander_amp: float
    seed: int
    texture: tuple[float, ...] | None = None

    def validate(self) -> None:
        if len(self.waves) != 5:
            raise ContractError("morphology needs exactly 5 waves (P,Q,R,S,T)")
        amps = [w[0] for w in self.waves]
        centers = [w[1] for w in self.waves]
        widths = [w[2] for w in self.waves]
        r_amp = amps[2]
        if r_amp <= 0 or any(abs(a) >= r_amp for i, a in enumerate(amps) if i != 2):
            raise ContractError("R amplitude must be positive and dominant")
        if any(c2 <= c1 for c1, c2 in zip(centers, centers[1:])):
            raise ContractError("wave centers must be strictly ordered P<Q<R<S<T")
        if any(w <= 0 for w in widths):
            raise ContractError("wave widths must be positive")
        if not 20.0 < self.hr_bpm < 300.0:
            raise ContractError(f"heart rate {self.hr_bpm} bpm out of range")
        if self.hr_var < 0 or self.rr_jitter < 0 or self.noise_sigma < 0:
            raise ContractError("variability and noise parameters must be nonnegative")
        if self.texture is not None:
            tex = np.asarray(self.texture, dtype=np.float64)
            if tex.ndim != 1 or tex.size != N_WINDOW:
                raise ContractError(f"texture must hold {N_WINDOW} samples")
            if not np.all(np.isfinite(tex)):
                raise ContractError("texture samples must be finite")
            if np.abs(tex).max() >= r_amp / 3.0:
                raise ContractError("texture must stay small next to the R wave")


def generate_record(morph: SubjectMorphology, duration_s: float, fs: int,
                    subject_id: str = "anon", session_id: str = "s1",
                    ) -> tuple[EcgRecord, list[int]]:
    """Render one record; returns it with the exact R-center sample indices."""
    morph.validate()
    if duration_s <= 0:
        raise ContractError("duration must be positive")
    if fs < 128:
        raise ContractError("fs must be at least 128")
    rng = np.random.default_rng(morph.seed)
    wander_phase = rng.uniform(0.0, 2.0 * np.pi)

    base_rr = 60.0 / morph.hr_bpm
    t = _FIRST_BEAT_S
    r_times = []
    while t < duration_s - _TAIL_GUARD_S:
        r_times.append(t)
        rr = base_rr * (1.0
                        + morph.hr_var * np.sin(2.0 * np.pi * _HRV_FREQ_HZ * t)
                        + morph.rr_jitter * rng.standard_normal())
        t += min(max(rr, 0.33), 2.0)

    n = round(duration_s * fs)
    x = np.zeros(n)
    centers = np.rint(np.asarray(r_times) * fs).astype(np.int64)
    for c in centers:
        tc = c / fs
        for amp, off, wd in morph.waves:
            lo = max(0, int(np.floor((tc + off - 4.0 * wd) * fs)))
            hi = min(n - 1, int(np.ceil((tc + off + 4.0 * wd) * fs)))
            if hi < lo:
                continue
            tt = np.arange(lo, hi + 1) / fs - (tc + off)
            x[lo : hi + 1] += amp * np.exp(-(tt * tt) / (2.0 * wd * wd))
    if morph.texture is not None:
        tex = np.asarray(morph.texture, dtype=np.float64)
        for c in centers:
            lo = int(c) - LEFT
            a, b = max(0, lo), min(n, lo + tex.size)
            if b > a:
                x[a:b] += tex[a - lo : b - lo]
    t_all = np.arange(n) / fs
    x += morph.wander_amp * np.sin(2.0 * np.pi * _WANDER_FREQ_HZ * t_all + wander_phase)
    x += morph.noise_sigma * rng.standard_normal(n)

    adc = np.rint(x).astype(np.int64)
    rec = EcgRecord(subject_id=subject_id, session_id=session_id, fs=fs, samples=adc)
    return rec, [int(c) for c in centers]


@dataclass(frozen=True)
class SynthSession:
    session_id: str
    role: str
    record: EcgRecord
    truth: list[int]


@dataclass(frozen=True)
class CohortSubject:
    subject_id: str
    morph: SubjectMorphology
    sessions: tuple[SynthSession, ...]


_BASE_WAVES = (
    (55.0, -0.115, 0.020),
    (-140.0, -0.034, 0.0065),
    (1150.0, 0.0, 0.0085),
    (-230.0, 0.024, 0.0075),
    (160.0, 0.215, 0.045),
)
_NOISE_SIGMA = 12.0
_WANDER_AMP = 25.0
_HR_VAR = 0.04
_RR_JITTER = 0.012
_HR_LO_BPM = 52.0
_HR_HI_BPM = 76.0

# Identity code geometry: 15-entry Hadamard codes embedded through a
# leverage-balanced orthonormal frame into the leading _IDENT_NCOEF feature
# coordinates, with half-spacing _IDENT_EFFECT. Any two of the first 16
# subjects then sit exactly _IDENT_EFFECT * sqrt(8) apart in feature space.
_IDENT_DIM = 15
_IDENT_NCOEF = 40
_IDENT_EFFECT = 150.0
_TAPER_SAMPLES = 10


def _subject_codes(n_subjects: int, rng: np.random.Generator) -> np.ndarray:
    h = np.array([[1.0]])
    block = np.array([[1.0, 1.0], [1.0, -1.0]])
    while h.shape[0] < 16:
        h = np.kron(block, h)
    codes = list(h[:, 1:][: min(n_subjects, 16)])
    while len(codes) < n_subjects:
        best, best_d = None, -1
        for _ in range(500):
            c = rng.integers(0, 2, _IDENT_DIM) * 2.0 - 1.0
            d = min(int(np.sum(c != prev)) for prev in codes)
            if d >= 4:
                best = c
                break
            if d > best_d:
                best, best_d = c, d
        codes.append(best)
    return np.array(codes)


def _balanced_frame(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Orthonormal-column frame whose row energies are pushed toward cols/rows."""
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    target = cols / rows
    best, best_spread = q, np.inf
    for _ in range(80):
        lev = np.einsum("ij,ij->i", q, q)
        spread = lev.max() / max(lev.min(), 1e-12)
        if spread < best_spread:
            best, best_spread = q, spread
        q, _ = np.linalg.qr(q * np.sqrt(target / np.maximum(lev, 1e-12))[:, None])
    return best


def _texture_lift(seed: int) -> np.ndarray:
    """Map subject codes to beat-window textures, exact in feature space.

    Returns an (N_WINDOW, _IDENT_DIM) matrix L with G @ (L @ code) equal to
    (_IDENT_EFFECT / 2) * Q @ code, where G is the feature transform and Q
    the balanced frame. The lift tapers to zero at the window edges so the
    rendered signal stays continuous between beats.
    """
    g = DctMatrix.build(N_WINDOW, _IDENT_NCOEF).g
    env = np.ones(N_WINDOW)
    ramp = np.sin(np.pi * (np.arange(_TAPER_SAMPLES) + 0.5)
                  / (2.0 * _TAPER_SAMPLES)) ** 2
    env[:_TAPER_SAMPLES] = ramp
    env[-_TAPER_SAMPLES:] = ramp[::-1]
    ge = g * env[None, :]
    right_inv = ge.T @ np.linalg.inv(ge @ ge.T)
    frame = _balanced_frame(np.random.default_rng(seed), _IDENT_NCOEF, _IDENT_DIM)
    return (env[:, None] * right_inv) @ frame * (_IDENT_EFFECT / 2.0)


def _cohort_morphologies(n_subjects: int, seed: int) -> list[SubjectMorphology]:
    lift = _texture_lift(seed * 3 + 77003)
    codes = _subject_codes(n_subjects, np.random.default_rng(seed * 5 + 12911))
    hr = np.linspace(_HR_LO_BPM, _HR_HI_BPM, n_subjects)
    hr = hr[np.random.default_rng(seed * 7 + 5).permutation(n_subjects)]
    morphs = []
    for i in range(n_subjects):
        texture = tuple(float(v) for v in lift @ codes[i])
        morphs.append(SubjectMorphology(
            waves=_BASE_WAVES, hr_bpm=float(hr[i]), hr_var=_HR_VAR,
            rr_jitter=_RR_JITTER, noise_sigma=_NOISE_SIGMA,
            wander_amp=_WANDER_AMP, seed=seed * 100003 + i * 64,
            texture=texture,
        ))
    return morphs


def default_cohort(n_subjects: int = 8, seed: int = 0,
                   session_s: float = 600.0, fs: int = 512) -> list[CohortSubject]:
    """Build n subjects, each with one enroll and one test session.

    Session 2 reuses the subject's morphology at a slightly different heart
    rate and with fresh noise, standing in for a separate recording day.
    """
    if n_subjects < 2:
        raise ContractError("cohort needs at least 2 subjects")
    if seed < 0:
        raise ContractError(f"seed must be nonnegative, got {seed}")
    if session_s < 600.0:
        raise ContractError("sessions must be at least 600 s")
    subjects = []
    for i, morph in enumerate(_cohort_morphologies(n_subjects, seed)):
        subject_id = f"subj{i + 1:02d}"
        sessions = []
        for k, role in enumerate(("enroll", "test")):
            session_id = f"s{k + 1}"
            m = dataclasses.replace(
                morph,
                hr_bpm=morph.hr_bpm + 1.5 * k,
                seed=morph.seed + k,
            )
            rec, truth = generate_record(m, session_s, fs,
                                         subject_id=subject_id,
                                         session_id=session_id)
            sessions.append(SynthSession(session_id=session_id, role=role,
                                         record=rec, truth=truth))
        subjects.append(CohortSubject(subject_id=subject_id, morph=morph,
                                      sessions=tuple(sessions)))
    return subjects


def write_truth(truth: list[int], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("r_index\n")
        for r in truth:
            fh.write(f"{r}\n")


def read_truth(path) -> list[int]:
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if header != "r_index":
            raise ContractError(f"{path}: expected 'r_index' header, got {header!r}")
        return [int(line) for line in fh if line.strip()]


def write_cohort(cohort: list[CohortSubject], out_dir) -> str:
    """Write records, truth sidecars, and the manifest; returns manifest path."""
    import os

    rec_dir = os.path.join(out_dir, "records")
    os.makedirs(rec_dir, exist_ok=True)
    entries = []
    for subj in cohort:
        for sess in subj.sessions:
            stem = f"{subj.subject_id}_{sess.session_id}"
            rel = os.path.join("records", f"{stem}.csv")
            write_record(sess.record, os.path.join(out_dir, rel))
            write_truth(sess.truth, os.path.join(rec_dir, f"{stem}_truth.csv"))
            entries.append(ManifestEntry(subject_id=subj.subject_id,
                                         session_id=sess.session_id,
                                         path=rel, role=sess.role))
    manifest_path = os.path.join(out_dir, "manifest.csv")
    write_manifest(entries, manifest_path)
    return manifest_path
