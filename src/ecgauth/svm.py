"""Linear soft-margin SVM trained by sequential minimal optimization.

The solver works on the dual with the bias handled through the equality
constraint, picking the maximal-violating pair each step (ties resolved to
the lowest index, which makes training fully deterministic). It stops when
the primal-dual gap falls below 1e-6 * (1 + |primal|) or when a fixed step
budget of max(10000, 30 n) steps runs out. The per-class costs
n / (2 * n_class) balance unequal class sizes.

Features are standardized with training-set statistics; a feature with zero
variance gets unit scale and therefore no influence on the margin.

A trained LinearSvm holds only what a decision reads: the scaler (mu,
sigma), the weights w and the bias b. A beat is accepted when its margin
is strictly positive, so a margin of exactly 0 rejects; the callers test
the sign themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

_GAP_RTOL = 1e-6
_GAP_CHECK_EVERY = 256


def _kkt_bounds(y, alpha, cvec, f):
    """f over the KKT up set (-inf elsewhere) and over the low set (inf elsewhere)."""
    up = ((y > 0.0) & (alpha < cvec)) | ((y < 0.0) & (alpha > 0.0))
    low = ((y > 0.0) & (alpha > 0.0)) | ((y < 0.0) & (alpha < cvec))
    return np.where(up, f, -np.inf), np.where(low, f, np.inf)


def _primal_and_gap(x, y, cvec, alpha, w, bias):
    """Primal objective at (w, bias) and its gap to the dual objective at alpha."""
    xw = np.dot(x, w)
    hinge = np.maximum(0.0, 1.0 - y * (xw + bias))
    primal = 0.5 * np.dot(w, w) + np.dot(cvec, hinge)
    dual = alpha.sum() - 0.5 * np.dot(w, w)
    return primal, primal - dual


def _smo(x, y, cvec, max_steps, gap_rtol):
    n = x.shape[0]
    alpha = np.zeros(n)
    w = np.zeros(x.shape[1])
    f = y.copy()  # f[t] = y[t] - x[t].w throughout
    steps = 0
    while steps < max_steps:
        fu, fl = _kkt_bounds(y, alpha, cvec, f)
        i = int(np.argmax(fu))
        j = int(np.argmin(fl))
        m_hi = fu[i]
        m_lo = fl[j]
        if np.isinf(m_hi) or np.isinf(m_lo) or m_hi - m_lo <= 1e-12:
            break
        if steps % _GAP_CHECK_EVERY == 0:
            primal, gap = _primal_and_gap(x, y, cvec, alpha, w, 0.5 * (m_hi + m_lo))
            if gap <= gap_rtol * (1.0 + abs(primal)):
                break
        diff = x[i] - x[j]
        quad = np.dot(diff, diff)
        if quad < 1e-12:
            quad = 1e-12
        step_len = (m_hi - m_lo) / quad
        if y[i] > 0.0:
            lim = cvec[i] - alpha[i]
        else:
            lim = alpha[i]
        if y[j] > 0.0:
            lim2 = alpha[j]
        else:
            lim2 = cvec[j] - alpha[j]
        if lim2 < lim:
            lim = lim2
        if step_len > lim:
            step_len = lim
        if step_len <= 0.0:
            break
        alpha[i] += y[i] * step_len
        alpha[j] -= y[j] * step_len
        w += step_len * diff
        f -= step_len * np.dot(x, diff)
        steps += 1
    # final bias from the KKT interval endpoints
    fu, fl = _kkt_bounds(y, alpha, cvec, f)
    m_hi = fu[int(np.argmax(fu))]
    m_lo = fl[int(np.argmin(fl))]
    if np.isinf(m_hi) and np.isinf(m_lo):
        bias = 0.0
    elif np.isinf(m_hi):
        bias = m_lo
    elif np.isinf(m_lo):
        bias = m_hi
    else:
        bias = 0.5 * (m_hi + m_lo)
    _, gap = _primal_and_gap(x, y, cvec, alpha, w, bias)
    return alpha, w, bias, gap, steps


@dataclass
class LinearSvm:
    """Trained classifier in standardized feature space."""

    mu: np.ndarray
    sigma: np.ndarray
    w: np.ndarray
    b: float

    def margin(self, d) -> float:
        v = (np.asarray(d, dtype=np.float64) - self.mu) / self.sigma
        return float(v @ self.w + self.b)

    def margins(self, x) -> np.ndarray:
        xs = (np.asarray(x, dtype=np.float64) - self.mu) / self.sigma
        return xs @ self.w + self.b


def train_svm(x, y) -> tuple[LinearSvm, dict]:
    """Fit a LinearSvm on rows of x with labels y in {-1, +1}.

    Returns the model and a diagnostics dict (steps, duality gap, class
    sizes). Fully deterministic for fixed inputs.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ContractError("training set must be a 2-D array with at least two rows")
    if not np.all(np.isfinite(x)):
        raise ContractError("training features must be finite")
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.shape[0] != x.shape[0]:
        raise ContractError("label count does not match row count")
    n_pos = int(np.sum(y > 0.0))
    n_neg = int(np.sum(y < 0.0))
    if n_pos + n_neg != y.shape[0] or not np.all(np.abs(y) == 1.0):
        raise ContractError("labels must be -1 or +1")
    if n_pos == 0 or n_neg == 0:
        raise ContractError("training set must contain both classes")
    n = x.shape[0]
    mu = x.mean(axis=0)
    sigma = x.std(axis=0)
    sigma = np.where(sigma < 1e-12, 1.0, sigma)
    xs = np.ascontiguousarray((x - mu) / sigma)
    cvec = np.where(y > 0.0, n / (2.0 * n_pos), n / (2.0 * n_neg))
    alpha, w, b, gap, steps = _smo(xs, y, cvec, max(10000, 30 * n), _GAP_RTOL)
    model = LinearSvm(mu=mu, sigma=sigma, w=w, b=float(b))
    info = {"steps": int(steps), "gap": float(gap), "n_pos": n_pos,
            "n_neg": n_neg, "n_support": int(np.sum(alpha > 0.0))}
    return model, info
