"""Per-beat mathematics.

Pearson correlation for prescreening, average-linkage rank assignment,
Kaiser-window weights keyed by rank, weighted averaging, and the truncated
orthonormal DCT-II used as the feature transform. row_dot is the one
row-wise reduction of the prescreen correlation and the SVM margin, on one
beat and on a whole record alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ZeroVarianceError


def row_dot(a, b) -> np.ndarray:
    """Dot products over the last axis, one per row of the broadcast shape.

    numpy's einsum reduces every row with the same loop over its own
    elements and allocates no (rows, N) temporary, so a row's bits never
    depend on how many rows are reduced together. A matrix product does
    not promise that: BLAS sums one row in another order than many.
    """
    return np.einsum("...j,...j->...", a, b)


def pearson(x, y, y_mean: float | None = None, y_sdev: float | None = None) -> float:
    """Sample Pearson correlation between two equal-length vectors.

    The y-side mean and sample standard deviation (ddof=1) may be supplied
    precomputed, which is how the verification loop avoids recomputing
    template statistics on every beat. Each vector is centred on its own
    mean and every sum is a row_dot, the arithmetic that
    pipeline.correlation_at_least applies to a whole record at once, so the
    two give the same r bit for bit.

    Raises:
        ContractError: mismatched shapes or fewer than 2 points.
        ZeroVarianceError: either vector is constant.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ContractError(f"pearson needs equal-length vectors, got {x.shape} and {y.shape}")
    n = x.shape[0]
    if n < 2:
        raise ContractError("pearson needs at least 2 points")
    dx = x - x.mean()
    sx = math.sqrt(float(row_dot(dx, dx)))
    if not (sx > 0.0) or not math.isfinite(sx):
        raise ZeroVarianceError("x is constant; correlation undefined")
    if y_mean is None or y_sdev is None:
        dy = y - y.mean()
        sy = math.sqrt(float(row_dot(dy, dy)))
    else:
        dy = y - y_mean
        sy = y_sdev * math.sqrt(n - 1)
    if not (sy > 0.0) or not math.isfinite(sy):
        raise ZeroVarianceError("y is constant; correlation undefined")
    r = float(row_dot(dx, dy)) / (sx * sy)
    return min(1.0, max(-1.0, r))


def _linkage_ranks(dist):
    # Greedy average linkage on the full matrix, which pairwise_euclidean
    # makes exactly symmetric (numpy forms x @ x.T as one symmetric product).
    # The matrix is held flat, row i at d[i*b:i*b+b] and column i at d[i::b].
    # The diagonal and every merged-away cluster hold inf, so each merge is
    # one argmin; the first row-major minimum of a symmetric matrix lies in
    # the upper triangle at the lowest (i, j), the buffer-order tie rule. A
    # merged cluster keeps the lower slot, so slot i is also the smallest
    # buffer index inside it and the older beat of a singleton pair. Sizes
    # are floats, the values numpy would convert them to, so each row is the
    # same Lance-Williams arithmetic. Ranks are a permutation of 1..b, so
    # once at most one beat is left unranked the merges stop: that beat
    # takes rank b whenever it would have joined.
    b = dist.shape[0]
    d = dist.ravel().copy()
    d[::b + 1] = np.inf
    argmin = d.argmin
    inf = np.inf
    size = [1.0] * b
    ranks = [0] * b
    next_rank = 1
    for _step in range(b - 1):
        i, j = divmod(int(argmin()), b)
        si = size[i]
        sj = size[j]
        if si == 1.0:
            ranks[i] = next_rank
            next_rank += 1
        if sj == 1.0:
            ranks[j] = next_rank
            next_rank += 1
        if next_rank >= b:
            break
        ri = i * b
        rj = j * b
        row = (si * d[ri:ri + b] + sj * d[rj:rj + b]) / (si + sj)
        d[ri:ri + b] = row
        d[i::b] = row
        d[rj:rj + b] = inf
        d[j::b] = inf
        size[i] = si + sj
    if next_rank == b:
        ranks[ranks.index(0)] = b
    return np.array(ranks, dtype=np.int64)


def pairwise_euclidean(vectors: np.ndarray) -> np.ndarray:
    """Dense Euclidean distance matrix for a (B, N) stack of vectors."""
    x = np.asarray(vectors, dtype=np.float64)
    sq = np.einsum("ij,ij->i", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2)


def _distances(x: np.ndarray) -> np.ndarray:
    """pairwise_euclidean(x), refused unless every distance is finite."""
    dist = pairwise_euclidean(x)
    if not np.isfinite(dist).all():
        raise ContractError("beat distances overflow float64")
    return dist


def cluster_ranks(beats) -> np.ndarray:
    """Assign agglomeration ranks 1..B via average-linkage clustering.

    Clusters start as singletons over pairwise Euclidean distances and merge
    by lowest average linkage until one remains. A beat's rank is the order
    in which it first joins a cluster; earlier means more central. When two
    singletons merge in one step the older buffer entry takes the lower rank,
    and any remaining ties resolve by buffer order.

    Raises:
        ContractError: not a non-empty (B, N) stack, or a non-finite value
            in the stack or its distances.
    """
    x = np.asarray(beats, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ContractError(f"cluster_ranks needs a (B, N) stack, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ContractError("cluster_ranks needs finite beats")
    if x.shape[0] == 1:
        return np.array([1], dtype=np.int64)
    return _linkage_ranks(_distances(x))


# Buffers ranked together by batched_cluster_ranks: its padded distance
# array holds at most LINKAGE_BLOCK * B * B floats however long the record.
LINKAGE_BLOCK = 128


def _batched_linkage_ranks(d: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    # _linkage_ranks on K padded (B, B) matrices at once: one argmin per
    # merge step across the live buffers, then the same Lance-Williams rows.
    # sizes is sorted descending and the pad and diagonal hold inf. A buffer
    # is done once at most one of its beats is unranked; that beat takes
    # rank size at the end, as in _linkage_ranks. The buffers up to the last
    # one not done stay live, and each still holds two clusters or more:
    # the one not done has two singletons left, and the others are no
    # smaller and have had as many merges. So a done buffer merges on
    # harmlessly: its one unranked beat, if it joins, takes rank size.
    k_all, b, _ = d.shape
    size = np.ones((k_all, b), dtype=np.int64)
    ranks = np.zeros((k_all, b), dtype=np.int64)
    next_rank = np.ones(k_all, dtype=np.int64)
    done = next_rank >= sizes
    while not done.all():
        n = int(np.flatnonzero(~done)[-1]) + 1
        live = d[:n]
        rows = np.arange(n)
        i, j = np.divmod(live.reshape(n, b * b).argmin(axis=1), b)
        si = size[rows, i]
        sj = size[rows, j]
        for slot, joined in ((i, si), (j, sj)):
            fresh = joined == 1
            ranks[rows[fresh], slot[fresh]] = next_rank[:n][fresh]
            next_rank[:n] += fresh
        done[:n] = next_rank[:n] >= sizes[:n]
        row = (si[:, None] * live[rows, i] + sj[:, None] * live[rows, j]) / (si + sj)[:, None]
        live[rows, i] = row
        live[rows, :, i] = row
        live[rows, j] = np.inf
        live[rows, :, j] = np.inf
        size[rows, i] = si + sj
    unranked = (ranks == 0) & (np.arange(b) < sizes[:, None])
    return np.where(unranked, sizes[:, None], ranks)


def batched_cluster_ranks(beats, starts, stops) -> list[np.ndarray]:
    """cluster_ranks(beats[start:stop]) for every (start, stop) pair, bit for bit.

    A deliberate fork of cluster_ranks for whole-record feature extraction.
    Each buffer's matrix comes from pairwise_euclidean, as there; the
    buffers are then ranked LINKAGE_BLOCK at a time, largest first, as one
    inf-padded (K, B, B) array, with one argmin across all live buffers per
    merge step and the Lance-Williams arithmetic and first-row-major tie
    rule of _linkage_ranks. On one buffer of the live stream (22 beats on
    average) it is about five and a half times slower than cluster_ranks,
    so the live path keeps cluster_ranks; tests pin the two together.

    Raises:
        ContractError: not a (T, N) stack, a buffer outside it or empty, or
            a non-finite value in the stack or in a buffer's distances.
    """
    x = np.asarray(beats, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    if x.ndim != 2:
        raise ContractError(f"batched_cluster_ranks needs a (T, N) stack, got shape {x.shape}")
    if starts.shape != stops.shape or starts.ndim != 1:
        raise ContractError("starts and stops must be equal-length vectors")
    if np.any(starts < 0) or np.any(stops > x.shape[0]) or np.any(stops <= starts):
        raise ContractError("every buffer must be a nonempty slice of the stack")
    if not np.isfinite(x).all():
        raise ContractError("cluster_ranks needs finite beats")
    sizes = stops - starts
    order = np.argsort(-sizes, kind="stable")
    ranks: list = [None] * sizes.shape[0]
    for lo in range(0, order.shape[0], LINKAGE_BLOCK):
        block = order[lo:lo + LINKAGE_BLOCK]
        block_sizes = sizes[block]
        b = int(block_sizes[0])
        d = np.full((block.shape[0], b, b), np.inf)
        for k, (idx, n) in enumerate(zip(block.tolist(), block_sizes.tolist())):
            if n > 1:
                d[k, :n, :n] = _distances(x[starts[idx]:stops[idx]])
        diagonal = np.arange(b)
        d[:, diagonal, diagonal] = np.inf
        for idx, r, n in zip(block.tolist(), _batched_linkage_ranks(d, block_sizes),
                             block_sizes.tolist()):
            ranks[idx] = r[:n]
    return ranks


def _i0(x: float) -> float:
    # power series for the order-zero modified Bessel function,
    # truncated when a term drops below 1e-12 relative
    q = x * x / 4.0
    term = 1.0
    total = 1.0
    k = 0
    while True:
        k += 1
        term *= q / (k * k)
        total += term
        if term <= 1e-12 * total:
            return total


_kaiser_cache: dict[tuple[int, float], np.ndarray] = {}


def kaiser_weights(b: int, beta: float = 6.0) -> np.ndarray:
    """Rank-indexed averaging weights from the descending half of a Kaiser window.

    Builds a length 2B-1 Kaiser window, takes its descending half (center to
    end), maps it onto ranks 1..B, and normalizes to sum 1. Rank 1 therefore
    always carries the largest weight.
    """
    if b < 1:
        raise ContractError(f"need at least 1 beat, got {b}")
    if beta < 0:
        raise ContractError(f"beta must be nonnegative, got {beta}")
    key = (b, float(beta))
    cached = _kaiser_cache.get(key)
    if cached is None:
        if b == 1:
            cached = np.array([1.0])
        else:
            length = 2 * b - 1
            denom = _i0(float(beta))
            half = np.empty(b, dtype=np.float64)
            for r in range(b):
                m = (b - 1) + r
                xi = 2.0 * m / (length - 1) - 1.0
                half[r] = _i0(float(beta) * math.sqrt(max(0.0, 1.0 - xi * xi))) / denom
            cached = half / half.sum()
        _kaiser_cache[key] = cached
    return cached.copy()


def weighted_average(beats, weights) -> np.ndarray:
    """Convex combination of beat vectors; weights must be aligned with beats."""
    x = np.asarray(beats, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if x.ndim != 2 or w.ndim != 1 or x.shape[0] != w.shape[0]:
        raise ContractError(f"shape mismatch: beats {x.shape}, weights {w.shape}")
    if np.any(w < 0):
        raise ContractError("weights must be nonnegative")
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise ContractError(f"weights must sum to 1, got {w.sum()!r}")
    return w @ x


@dataclass(frozen=True)
class DctMatrix:
    """Precomputed M x N slice of the orthonormal DCT-II basis.

    Row k (1-based) holds sqrt(2/N) / sqrt(1 + [k == 1]) *
    cos(pi/(2N) * (2n - 1) * (k - 1)) for n = 1..N. With M = N the matrix
    satisfies G @ G.T = I to machine precision.
    """

    n: int
    m: int
    g: np.ndarray

    @classmethod
    def build(cls, n: int = 256, m: int = 40) -> "DctMatrix":
        if not (1 <= m <= n):
            raise ContractError(f"need 1 <= M <= N, got M={m}, N={n}")
        k = np.arange(1, m + 1, dtype=np.float64)[:, None]
        nn = np.arange(1, n + 1, dtype=np.float64)[None, :]
        g = math.sqrt(2.0 / n) * np.cos(math.pi / (2.0 * n) * (2.0 * nn - 1.0) * (k - 1.0))
        g[0, :] /= math.sqrt(2.0)
        return cls(n=n, m=m, g=g)


def dct_features(a, matrix: DctMatrix) -> np.ndarray:
    """First M DCT-II coefficients of an averaged beat: D = G @ A."""
    vec = np.asarray(a, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] != matrix.n:
        raise ContractError(f"input length {vec.shape} does not match N={matrix.n}")
    return matrix.g @ vec
