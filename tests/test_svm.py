"""Solver correctness against a constrained-QP oracle, plus invariances."""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from ecgauth.errors import ContractError
from ecgauth.svm import LinearSvm, _smo, train_svm


# -- oracle -------------------------------------------------------------------

def dual_qp_oracle(xs, y, cvec):
    """Box-constrained dual solved by SLSQP; returns (w, b, primal objective).

    Independent of the trained solver: different algorithm, different
    stopping rule, bias recovered from the free support vectors.
    """
    n = xs.shape[0]
    q = (y[:, None] * xs) @ (y[:, None] * xs).T
    alpha = None
    # SLSQP stalls on some instances at the tightest tolerance; retry from a
    # second feasible start and accept any solve that meets the dual
    # feasibility checks below
    for start, ftol in ((np.zeros(n), 1e-14), (np.zeros(n), 1e-12),
                        (np.minimum(cvec, 0.1), 1e-12)):
        res = minimize(
            lambda a: -(a.sum() - 0.5 * a @ q @ a),
            start,
            jac=lambda a: -(np.ones(n) - q @ a),
            bounds=[(0.0, float(c)) for c in cvec],
            constraints=({"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y},),
            method="SLSQP", options={"maxiter": 2000, "ftol": ftol})
        if res.success:
            alpha = res.x
            break
    assert alpha is not None, "dual QP failed from every start"
    assert np.all(alpha >= -1e-8) and np.all(alpha <= cvec + 1e-8)
    assert abs(alpha @ y) <= 1e-8
    w = (alpha * y) @ xs
    free = (alpha > 1e-8) & (alpha < cvec - 1e-8)
    if free.any():
        b = float(np.mean(y[free] - xs[free] @ w))
    else:
        b = float(np.mean(y - xs @ w))
    return w, b, primal_objective(xs, y, cvec, w, b)


def primal_objective(xs, y, cvec, w, b):
    hinge = np.maximum(0.0, 1.0 - y * (xs @ w + b))
    return float(0.5 * w @ w + cvec @ hinge)


FOUR_X = np.array([[0.0, 0.0], [0.0, 1.0], [2.0, 0.0], [2.0, 1.0]])
FOUR_Y = np.array([-1.0, -1.0, 1.0, 1.0])


def test_primal_objective_matches_qp_oracle():
    model, info = train_svm(FOUR_X, FOUR_Y)
    xs = (FOUR_X - model.mu) / model.sigma
    cvec = np.full(4, 1.0)  # both classes have 2 of 4 rows: weight n/(2*n_c) = 1
    p_impl = primal_objective(xs, FOUR_Y, cvec, model.w, model.b)
    _, _, p_oracle = dual_qp_oracle(xs, FOUR_Y, cvec)
    assert abs(p_impl - p_oracle) <= 1e-4
    assert info["gap"] <= 1e-6 * (1.0 + abs(p_impl))


def test_qp_oracle_agreement_on_random_instances():
    # the solver itself at a cost below train_svm's balanced 1.0 per row
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = rng.standard_normal((12, 3))
        y = np.where(np.arange(12) < 6, 1.0, -1.0)
        x[:6] += 2.5  # separated but with some slack activity at small c
        xs = (x - x.mean(axis=0)) / x.std(axis=0)
        cvec = np.full(12, 0.5)
        _, w, b, _, _ = _smo(xs, y, cvec, 10000, 1e-6)
        p_impl = primal_objective(xs, y, cvec, w, b)
        _, _, p_oracle = dual_qp_oracle(xs, y, cvec)
        assert p_impl <= p_oracle + 1e-4  # never worse than the oracle's optimum
        assert abs(p_impl - p_oracle) <= 1e-3


def test_two_point_symmetric_instance():
    model, _ = train_svm(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]))
    assert model.margin([0.5]) == pytest.approx(0.5)
    assert model.margin([-0.5]) <= 0.0


def test_training_is_deterministic():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((30, 5))
    y = np.where(rng.random(30) < 0.4, 1.0, -1.0)
    y[:2] = [1.0, -1.0]
    m1, i1 = train_svm(x, y)
    m2, i2 = train_svm(x, y)
    assert np.array_equal(m1.w, m2.w) and m1.b == m2.b
    assert i1 == i2


def test_full_duplication_keeps_boundary():
    # duplicating all rows preserves training statistics and, on a
    # separable instance solved at zero hinge, the optimum itself
    m1, _ = train_svm(FOUR_X, FOUR_Y)
    m2, _ = train_svm(np.concatenate([FOUR_X, FOUR_X]),
                      np.concatenate([FOUR_Y, FOUR_Y]))
    assert np.abs(m1.mu - m2.mu).max() == 0.0
    assert np.abs(m1.sigma - m2.sigma).max() == 0.0
    grid = np.array([[x1, x2] for x1 in (-1.0, 0.5, 1.0, 3.0) for x2 in (0.0, 2.0)])
    assert np.abs(m1.margins(grid) - m2.margins(grid)).max() < 1e-9


def test_minority_duplication_keeps_decisions():
    rng = np.random.default_rng(7)
    x_pos = rng.standard_normal((4, 3)) + 4.0
    x_neg = rng.standard_normal((16, 3))
    x = np.concatenate([x_pos, x_neg])
    y = np.concatenate([np.ones(4), -np.ones(16)])
    m1, _ = train_svm(x, y)
    x_dup = np.concatenate([x_pos, x_pos, x_pos, x_pos, x_neg])
    y_dup = np.concatenate([np.ones(16), -np.ones(16)])
    m2, _ = train_svm(x_dup, y_dup)
    # class weights rebalance, so safely-off-boundary points keep their label
    assert np.array_equal(m1.margins(x) > 0.0, m2.margins(x) > 0.0)


def test_row_permutation_keeps_decision_function():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.standard_normal((10, 4)) + 2.0,
                        rng.standard_normal((14, 4))])
    y = np.concatenate([np.ones(10), -np.ones(14)])
    m1, _ = train_svm(x, y)
    perm = rng.permutation(24)
    m2, _ = train_svm(x[perm], y[perm])
    probe = rng.standard_normal((40, 4))
    assert np.abs(m1.margins(probe) - m2.margins(probe)).max() < 1e-5
    assert np.array_equal(m1.margins(probe) > 0.0, m2.margins(probe) > 0.0)


def test_feature_permutation_commutes_with_training():
    rng = np.random.default_rng(6)
    x = np.concatenate([rng.standard_normal((8, 5)) + 2.0,
                        rng.standard_normal((12, 5))])
    y = np.concatenate([np.ones(8), -np.ones(12)])
    m1, _ = train_svm(x, y)
    perm = np.array([3, 0, 4, 1, 2])
    m2, _ = train_svm(x[:, perm], y)
    probe = rng.standard_normal((30, 5))
    assert np.abs(m1.margins(probe) - m2.margins(probe[:, perm])).max() < 1e-9


def test_margin_zero_rejects():
    # a tie scores exactly 0.0 on both margin paths, so the callers' strict
    # margin > 0.0 test rejects it
    model = LinearSvm(mu=np.zeros(2), sigma=np.ones(2), w=np.array([1.0, 0.0]), b=-1.0)
    assert model.margin([1.0, 5.0]) == 0.0
    assert model.margins([[1.0, 5.0]])[0] == 0.0


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 64), m=st.integers(1, 80),
       data=st.data())
def test_a_rows_margin_has_the_same_bits_however_many_rows_are_scored(seed, rows, m, data):
    # the live path scores one beat with margin, a whole record is scored
    # with margins, and a slice starts at any row offset
    rng = np.random.default_rng(seed)
    model = LinearSvm(mu=rng.normal(0.0, 5.0, m), sigma=rng.uniform(0.1, 10.0, m),
                      w=rng.normal(0.0, 1.0, m), b=float(rng.normal()))
    x = rng.normal(0.0, 10.0 ** rng.uniform(-2, 4), (rows, m))
    k = data.draw(st.integers(0, rows - 1))
    s = data.draw(st.integers(1, rows - k))
    whole = model.margins(x)
    assert whole[k].tobytes() == np.float64(model.margin(x[k])).tobytes()
    assert whole[k:k + s].tobytes() == model.margins(x[k:k + s]).tobytes()


def test_identity_scaler_margin_is_raw_affine():
    model = LinearSvm(mu=np.zeros(3), sigma=np.ones(3),
                      w=np.array([1.0, -2.0, 0.5]), b=0.25)
    d = np.array([2.0, 1.0, -4.0])
    assert model.margin(d) == pytest.approx(float(d @ model.w) + 0.25, abs=1e-12)


def test_zero_variance_feature_gets_no_influence():
    x = np.array([[0.0, 7.0], [1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    model, _ = train_svm(x, y)
    assert model.sigma[1] == 1.0  # constant column must not divide by zero
    assert model.w[1] == 0.0
    assert model.margin([0.5, 7.0]) == model.margin([0.5, 1000.0])


def test_training_contract_errors():
    x = np.zeros((4, 2))
    with pytest.raises(ContractError):
        train_svm(x, np.ones(4))  # single class
    with pytest.raises(ContractError):
        train_svm(x, np.array([0.0, 1.0, 1.0, -1.0]))  # label not in {-1, +1}
    with pytest.raises(ContractError):
        train_svm(x, np.ones(3))  # label count mismatch
    with pytest.raises(ContractError):
        train_svm(np.array([[1.0, np.nan]] * 4), np.array([1.0, 1.0, -1.0, -1.0]))
    with pytest.raises(ContractError):
        train_svm(np.zeros((1, 2)), np.array([1.0]))
    with pytest.raises(ContractError):
        train_svm(np.zeros(4), np.ones(4))  # 1-D features


# -- pins -----------------------------------------------------------------------

def _pin_problem(name):
    """(x, y) of a named pinned problem."""
    if name.startswith("random"):
        seed, n, m = {"random-a": (0, 60, 4), "random-b": (1, 150, 12),
                      "random-c": (2, 300, 40)}[name]
        rng = np.random.default_rng(seed)
        y = np.where(rng.random(n) < 0.4, 1.0, -1.0)
        x = rng.normal(size=(n, m)) + 0.8 * y[:, None] * rng.normal(size=m)
        return x, y
    if name == "budget":
        # random labels on 5 features: 10,000 steps, the budget at 200 rows
        rng = np.random.default_rng(205)
        x = rng.normal(size=(200, 5))
        return x, np.where(rng.random(200) < 0.5, 1.0, -1.0)
    # every row twice, once per label: the first pair is (0, 40), two equal
    # rows, so its squared distance 0 is clamped to 1e-12
    base = np.random.default_rng(7).normal(size=(40, 3))
    return np.vstack([base, base]), np.repeat([1.0, -1.0], 40)


def _fit_digest(x, y) -> str:
    svm, info = train_svm(x, y)
    h = hashlib.sha256()
    for a in (svm.mu, svm.sigma, svm.w):
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    h.update(float(svm.b).hex().encode())
    h.update(json.dumps(info, sort_keys=True).encode())
    return h.hexdigest()[:24]


_PINS = {
    "random-a": "41dfe6a7a099dae0402bc8c9",
    "random-b": "66188d706a8f3b1c3451c106",
    "random-c": "2f46a7c6744fb67b59996751",
    "budget": "7342300134e45b411394f5a4",
    "duplicates": "0939cc6c157b93e51326a97f",
}


@pytest.mark.parametrize("name", sorted(_PINS))
def test_fits_equal_their_pins_bit_for_bit(name):
    # the digests cover mu, sigma, w, the bias and the diagnostics dict, as
    # the solver without its pair cache computed them
    assert _fit_digest(*_pin_problem(name)) == _PINS[name]


def test_pair_cache_is_freed_when_the_fit_returns():
    rng = np.random.default_rng(11)
    n = 4000
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    x = rng.normal(size=(n, 6)) + 0.7 * y[:, None]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        svm, info = train_svm(x, y)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the fit cached more pairs than fit in what it leaves behind, which is
    # the model and its diagnostics: less than one cached n-vector
    assert info["steps"] > 64
    assert peak - before > 64 * 8 * n
    assert after - before < 8 * n
