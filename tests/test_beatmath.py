"""Per-beat math against independent oracles.

Oracles come first and do not share code with the implementation: a literal
double-loop cosine transform, scipy's Kaiser window, a set-based
average-linkage agglomeration that recomputes every cluster distance from
the original pairwise matrix, and a per-pair scan that updates cluster
distances with the same arithmetic as the implementation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.signal.windows import kaiser as scipy_kaiser

from ecgauth.beatmath import (LINKAGE_BLOCK, DctMatrix, _batched_linkage_ranks,
                              batched_cluster_ranks, cluster_ranks, dct_features,
                              kaiser_weights, pairwise_euclidean, pearson,
                              weighted_average)
from ecgauth.errors import ContractError, ZeroVarianceError


# -- oracles ------------------------------------------------------------------

def scalar_dct_oracle(a):
    """Literal double loop over the cosine-sum definition; O(N^2) scalars."""
    n = len(a)
    out = []
    for k in range(1, n + 1):
        s = 0.0
        for m in range(1, n + 1):
            s += a[m - 1] * math.cos(math.pi / (2.0 * n) * (2.0 * m - 1.0) * (k - 1.0))
        out.append(math.sqrt(2.0 / n) / math.sqrt(2.0 if k == 1 else 1.0) * s)
    return np.array(out)


def row_dct_oracle(a, m):
    """Per-coefficient evaluation; still definition-driven, fast enough for N=256."""
    n = a.shape[0]
    nn = np.arange(1, n + 1, dtype=np.float64)
    rows = []
    for k in range(1, m + 1):
        scale = math.sqrt(2.0 / n) / math.sqrt(2.0 if k == 1 else 1.0)
        rows.append(scale * float(np.cos(math.pi / (2.0 * n) * (2.0 * nn - 1.0) * (k - 1.0)) @ a))
    return np.array(rows)


def kaiser_oracle(b, beta):
    half = scipy_kaiser(2 * b - 1, beta)[b - 1:]
    return half / half.sum()


def linkage_ranks_oracle(x):
    """Average-linkage ranks over explicit index sets.

    Cluster distance is the mean of the original pairwise distances across
    the two sets. Merge ties resolve by the smaller (min index, min other
    index); rank assignment: a singleton gets the next rank when it first
    merges, and when two singletons merge the older one ranks first.
    """
    d0 = pairwise_euclidean(x)
    clusters = [frozenset([i]) for i in range(x.shape[0])]
    ranks = [0] * x.shape[0]
    next_rank = 1
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                dist = float(np.mean([d0[p, q] for p in clusters[i] for q in clusters[j]]))
                lo, hi = sorted((min(clusters[i]), min(clusters[j])))
                key = (dist, lo, hi)
                if best is None or key < best[0]:
                    best = (key, i, j)
        _, i, j = best
        a, b = clusters[i], clusters[j]
        if len(a) == 1 and len(b) == 1:
            older, newer = sorted((min(a), min(b)))
            ranks[older] = next_rank
            ranks[newer] = next_rank + 1
            next_rank += 2
        elif len(a) == 1:
            ranks[min(a)] = next_rank
            next_rank += 1
        elif len(b) == 1:
            ranks[min(b)] = next_rank
            next_rank += 1
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)] + [a | b]
    return np.array(ranks)


def linkage_ranks_scan(x):
    """Average-linkage ranks by scanning every active pair at each merge.

    Cluster distances follow the Lance-Williams update the implementation
    uses, so the floating-point values agree exactly; the scan keeps the
    first strict minimum in (i, j) order, which is the buffer-order tie rule.
    The set-based oracle above takes a fresh mean instead, which can round
    an exact tie on an integer grid the other way.
    """
    d = pairwise_euclidean(x)
    size = [1] * x.shape[0]
    ranks = [0] * x.shape[0]
    active = list(range(x.shape[0]))
    next_rank = 1
    while len(active) > 1:
        best = None
        for p, i in enumerate(active):
            for j in active[p + 1:]:
                if best is None or d[i, j] < best[0]:
                    best = (d[i, j], i, j)
        _, i, j = best
        for k in (i, j):
            if size[k] == 1:
                ranks[k] = next_rank
                next_rank += 1
        for k in active:
            if k not in (i, j):
                d[i, k] = d[k, i] = (size[i] * d[i, k] + size[j] * d[j, k]) / (size[i] + size[j])
        size[i] += size[j]
        active.remove(j)
    return np.array(ranks)


def test_oracles_agree_with_each_other():
    # the fast per-row oracle must match the literal double loop before
    # either is used against the implementation
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal(12)
        assert np.abs(scalar_dct_oracle(a) - row_dct_oracle(a, 12)).max() < 1e-12
    # away from exact ties the two linkage oracles rank alike
    for _ in range(30):
        x = rng.standard_normal((int(rng.integers(2, 13)), 6))
        assert np.array_equal(linkage_ranks_scan(x), linkage_ranks_oracle(x))


# -- pearson ------------------------------------------------------------------

def test_pearson_hand_value():
    r = pearson([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 5.0])
    assert abs(r - 0.9827076298239908) < 1e-12
    assert abs(r - 0.9827) < 1e-4


def test_pearson_self_and_negation():
    # exact up to the final division; the clamp only trims over-unity values
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(64)
        assert abs(pearson(x, x) - 1.0) <= 1e-12
        assert abs(pearson(x, -x) + 1.0) <= 1e-12
        assert pearson(x, x) <= 1.0 and pearson(x, -x) >= -1.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), a=st.floats(-100.0, 100.0),
       b=st.floats(-100.0, 100.0))
def test_pearson_affine_invariance(seed, a, b):
    if abs(a) < 1e-3:
        a = 1e-3
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(32)
    y = rng.standard_normal(32)
    r = pearson(x, y)
    assert abs(pearson(a * x + b, y) - math.copysign(1.0, a) * r) < 1e-9


def test_pearson_precomputed_stats_match():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(256)
    y = rng.standard_normal(256)
    direct = pearson(x, y)
    cached = pearson(x, y, y_mean=float(y.mean()), y_sdev=float(y.std(ddof=1)))
    assert abs(direct - cached) < 1e-12


def test_pearson_contract_errors():
    with pytest.raises(ZeroVarianceError):
        pearson(np.ones(8), np.arange(8.0))
    with pytest.raises(ZeroVarianceError):
        pearson(np.arange(8.0), np.ones(8))
    with pytest.raises(ContractError):
        pearson(np.arange(8.0), np.arange(9.0))
    with pytest.raises(ContractError):
        pearson([1.0], [2.0])


# -- cluster ranks ------------------------------------------------------------

def test_cluster_ranks_match_oracle_on_random_buffers():
    rng = np.random.default_rng(21)
    for _ in range(60):
        b = int(rng.integers(2, 13))
        x = rng.standard_normal((b, 6))
        assert np.array_equal(cluster_ranks(x), linkage_ranks_oracle(x))


def test_cluster_ranks_pair_and_singleton():
    assert cluster_ranks(np.array([[1.0, 2.0]])).tolist() == [1]
    assert cluster_ranks(np.array([[0.0, 0.0], [5.0, 5.0]])).tolist() == [1, 2]


def test_cluster_ranks_duplicate_pair_then_outlier():
    x = np.array([[1.0, 1.0], [1.0, 1.0], [40.0, -3.0]])
    assert cluster_ranks(x).tolist() == [1, 2, 3]


def test_cluster_ranks_all_equal_fall_back_to_buffer_order():
    x = np.ones((5, 4))
    assert cluster_ranks(x).tolist() == [1, 2, 3, 4, 5]


def test_cluster_ranks_on_permuted_buffers_match_oracle():
    # ranks break simultaneous-merge ties by buffer order on purpose, so a
    # permuted buffer may swap ranks within a pair merge; the contract under
    # permutation is exactly what the oracle computes
    rng = np.random.default_rng(9)
    x = rng.standard_normal((9, 5))
    for _ in range(10):
        perm = rng.permutation(9)
        got = cluster_ranks(x[perm])
        assert sorted(got.tolist()) == list(range(1, 10))
        assert np.array_equal(got, linkage_ranks_oracle(x[perm]))


def test_cluster_ranks_outlier_gets_last_rank_and_min_weight():
    rng = np.random.default_rng(33)
    for _ in range(50):
        b = int(rng.integers(3, 20))
        x = rng.standard_normal((b, 8))
        spread = pairwise_euclidean(x[:-1]).max()
        direction = rng.standard_normal(8)
        direction /= np.linalg.norm(direction)
        # others sit within spread of their mean, so an offset of 11x spread
        # puts the outlier at >= 10x spread from every one of them
        x[-1] = x[:-1].mean(axis=0) + (11.0 * spread + 1.0) * direction
        assert pairwise_euclidean(x)[-1, :-1].min() >= 10.0 * spread
        ranks = cluster_ranks(x)
        assert ranks[-1] == b
        weights = kaiser_weights(b, 6.0)[ranks - 1]
        assert weights[-1] == weights.min()


def _outlier_last(b):
    # a tight cluster and one far beat, which joins only at the final merge
    x = np.random.default_rng(b).standard_normal((b, 4))
    x[-1] += 100.0
    return x


@pytest.mark.parametrize("x", [
    np.array([[0.0, 0.0], [3.0, 4.0]]),
    np.array([[0.0], [1.0], [10.0]]),  # the last beat is the one left unranked
    np.array([[0.0], [10.0], [11.0]]),  # the first beat is
    np.ones((5, 3)),
    _outlier_last(3),
    _outlier_last(9),
], ids=["b2", "b3-last-left", "b3-first-left", "all-equal", "outlier-b3", "outlier-b9"])
def test_ranks_stop_at_the_last_unranked_beat(x):
    # the merges stop once one beat is left unranked, which takes rank b
    b = x.shape[0]
    want = linkage_ranks_scan(x)
    assert np.array_equal(want, linkage_ranks_oracle(x))
    assert np.array_equal(cluster_ranks(x), want)
    [batched] = batched_cluster_ranks(x, [0], [b])
    assert np.array_equal(batched, want)


def test_batched_early_stop_fills_only_real_slots():
    # buffers of different sizes share one padded block: every pad slot
    # keeps rank 0, and every buffer's ranks are its own permutation
    x = np.concatenate([_outlier_last(9), np.ones((4, 4)), _outlier_last(3)])
    starts, stops = [0, 9, 13, 9], [9, 13, 16, 10]
    for s, e, ranks in zip(starts, stops, batched_cluster_ranks(x, starts, stops)):
        assert np.array_equal(ranks, cluster_ranks(x[s:e]))
    sizes = np.array([9, 4, 3, 1])
    d = np.full((4, 9, 9), np.inf)
    for k, (s, e) in enumerate(zip(starts, stops)):
        d[k, :e - s, :e - s] = pairwise_euclidean(x[s:e])
    d[:, np.arange(9), np.arange(9)] = np.inf
    ranks = _batched_linkage_ranks(d, sizes)
    for r, n in zip(ranks, sizes):
        assert sorted(r[:n].tolist()) == list(range(1, n + 1))
        assert not r[n:].any()


@st.composite
def _tied_buffers(draw):
    # a small integer grid plus repeated rows makes exact distance ties common
    b = draw(st.integers(2, 16))
    dim = draw(st.integers(1, 3))
    x = draw(arrays(np.float64, (b, dim), elements=st.integers(0, 3).map(float)))
    repeats = draw(st.lists(st.integers(0, b - 1), max_size=16 - b))
    return np.concatenate([x, x[repeats]])


@settings(max_examples=300, deadline=None)
@given(x=_tied_buffers())
@example(x=np.array([[1.0, 2.0], [2.0, 3.0], [2.0, 2.0], [1.0, 0.0], [1.0, 2.0],
                     [2.0, 1.0], [1.0, 2.0], [2.0, 3.0], [1.0, 2.0]]))
def test_cluster_ranks_match_scan_under_ties(x):
    # in the example, two cluster distances that are equal in exact
    # arithmetic round differently as a fresh set mean than as a running
    # average, so the set-based oracle swaps ranks 8 and 9
    ranks = cluster_ranks(x)
    assert sorted(ranks.tolist()) == list(range(1, x.shape[0] + 1))
    assert np.array_equal(ranks, linkage_ranks_scan(x))


@settings(max_examples=150, deadline=None)
@given(x=_tied_buffers())
def test_batched_cluster_ranks_equal_cluster_ranks_under_ties(x):
    # every contiguous buffer of the tie-heavy stack; with 16 rows that is
    # more than one block of buffers
    b = x.shape[0]
    starts, stops = zip(*[(s, e) for s in range(b) for e in range(s + 1, b + 1)])
    got = batched_cluster_ranks(x, starts, stops)
    assert len(got) == len(starts)
    for s, e, ranks in zip(starts, stops, got):
        assert np.array_equal(ranks, cluster_ranks(x[s:e]))


def test_batched_cluster_ranks_span_several_blocks():
    x = np.random.default_rng(9).standard_normal((3 * LINKAGE_BLOCK, 6))
    starts = np.maximum(np.arange(x.shape[0]) - 20, 0)
    stops = np.arange(1, x.shape[0] + 1)
    for s, e, ranks in zip(starts, stops, batched_cluster_ranks(x, starts, stops)):
        assert np.array_equal(ranks, cluster_ranks(x[s:e]))
    assert batched_cluster_ranks(x, [], []) == []


def test_batched_cluster_ranks_refuse_what_cluster_ranks_refuses():
    x = np.random.default_rng(4).standard_normal((5, 8))
    y = x.copy()
    y[2, 3] = np.nan
    with pytest.raises(ContractError):
        batched_cluster_ranks(y, [0], [5])
    with pytest.raises(ContractError), np.errstate(over="ignore", invalid="ignore"):
        batched_cluster_ranks(np.array([[1e200, 0.0], [-1e200, 0.0]]), [0], [2])
    for starts, stops in (([0], [6]), ([2], [2]), ([-1], [3]), ([0, 1], [2])):
        with pytest.raises(ContractError):
            batched_cluster_ranks(x, starts, stops)
    with pytest.raises(ContractError):
        batched_cluster_ranks(np.zeros(4), [0], [1])


def test_cluster_ranks_rejects_non_finite_beats():
    x = np.random.default_rng(4).standard_normal((5, 8))
    for bad in (np.nan, np.inf, -np.inf):
        y = x.copy()
        y[2, 3] = bad
        with pytest.raises(ContractError):
            cluster_ranks(y)
    with pytest.raises(ContractError):
        cluster_ranks(np.array([[np.nan, 1.0]]))
    with pytest.raises(ContractError), np.errstate(over="ignore", invalid="ignore"):
        cluster_ranks(np.array([[1e200, 0.0], [-1e200, 0.0]]))


def test_cluster_ranks_rejects_bad_shape():
    with pytest.raises(ContractError):
        cluster_ranks(np.zeros(4))
    with pytest.raises(ContractError):
        cluster_ranks(np.zeros((0, 4)))


# -- kaiser weights -----------------------------------------------------------

def test_kaiser_weights_match_scipy_oracle():
    for b in (2, 3, 5, 10, 19, 40):
        for beta in (0.0, 2.0, 6.0, 9.5):
            got = kaiser_weights(b, beta)
            assert np.abs(got - kaiser_oracle(b, beta)).max() < 1e-10


def test_kaiser_weights_frozen_triple():
    got = kaiser_weights(3, 6.0)
    want = [0.6676329792726596, 0.3224370903643608, 0.009929930362979653]
    assert np.abs(got - np.array(want)).max() < 1e-12
    assert got[0] > got[1] > got[2]


def test_kaiser_weights_degenerate_cases():
    assert kaiser_weights(1, 6.0).tolist() == [1.0]
    assert np.abs(kaiser_weights(7, 0.0) - 1.0 / 7).max() < 1e-12


def test_kaiser_weights_shape_properties():
    for b in range(1, 41):
        w = kaiser_weights(b, 6.0)
        assert w.shape == (b,)
        assert np.all(w >= 0.0)
        assert np.all(np.diff(w) <= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12


def test_kaiser_weights_cache_returns_copies():
    first = kaiser_weights(5, 6.0)
    first[0] = -1.0
    assert kaiser_weights(5, 6.0)[0] > 0.0


def test_kaiser_weights_contract_errors():
    with pytest.raises(ContractError):
        kaiser_weights(0, 6.0)
    with pytest.raises(ContractError):
        kaiser_weights(3, -0.1)


# -- weighted average ---------------------------------------------------------

def test_weighted_average_of_identical_beats():
    v = np.linspace(-3.0, 5.0, 16)
    beats = np.stack([v] * 4)
    for w in ([0.25] * 4, [0.7, 0.1, 0.1, 0.1]):
        assert np.allclose(weighted_average(beats, w), v, atol=1e-12)


def test_weighted_average_degenerate_weight_selects_one_beat():
    beats = np.array([[1.0, 2.0], [9.0, 9.0]])
    assert np.array_equal(weighted_average(beats, [1.0, 0.0]), beats[0])


def test_weighted_average_matches_direct_sum():
    rng = np.random.default_rng(4)
    beats = rng.standard_normal((5, 32))
    ranks = cluster_ranks(beats)
    weights = kaiser_weights(5, 6.0)[ranks - 1]
    got = weighted_average(beats, weights)
    want = sum(weights[j] * beats[j] for j in range(5))
    assert np.abs(got - want).max() < 1e-12


def test_weighted_average_contract_errors():
    beats = np.ones((2, 4))
    with pytest.raises(ContractError):
        weighted_average(beats, [0.5, 0.4])  # sum != 1
    with pytest.raises(ContractError):
        weighted_average(beats, [1.5, -0.5])  # negative
    with pytest.raises(ContractError):
        weighted_average(beats, [0.5, 0.25, 0.25])  # length mismatch


# -- DCT ----------------------------------------------------------------------

def test_dct_matrix_orthonormal_at_full_size():
    g = DctMatrix.build(256, 256).g
    assert np.abs(g @ g.T - np.eye(256)).max() <= 1e-9


def test_dct_features_match_naive_oracle():
    mat = DctMatrix.build(256, 40)
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = rng.standard_normal(256) * 300.0
        assert np.abs(dct_features(a, mat) - row_dct_oracle(a, 40)).max() < 1e-9


def test_dct_small_case_matches_scalar_double_loop():
    mat = DctMatrix.build(12, 12)
    rng = np.random.default_rng(2)
    a = rng.standard_normal(12)
    assert np.abs(dct_features(a, mat) - scalar_dct_oracle(a)).max() < 1e-12


def test_dct_parseval_and_reconstruction():
    mat = DctMatrix.build(256, 256)
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = rng.standard_normal(256) * 100.0
        d = dct_features(a, mat)
        assert abs(np.linalg.norm(d) - np.linalg.norm(a)) < 1e-9
        assert np.abs(mat.g.T @ d - a).max() < 1e-9


def test_dct_constant_input_concentrates_in_first_coefficient():
    mat = DctMatrix.build(256, 8)
    d = dct_features(np.full(256, 3.0), mat)
    assert abs(d[0] - 3.0 * 16.0) < 1e-9
    assert np.abs(d[1:]).max() < 1e-9


def test_dct_zero_vector_input():
    mat = DctMatrix.build(256, 8)
    assert np.abs(dct_features(np.zeros(256), mat)).max() == 0.0


def test_dct_contract_errors():
    with pytest.raises(ContractError):
        DctMatrix.build(256, 0)
    with pytest.raises(ContractError):
        DctMatrix.build(256, 257)
    with pytest.raises(ContractError):
        dct_features(np.zeros(255), DctMatrix.build(256, 8))
