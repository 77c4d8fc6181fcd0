import math

import numpy as np
import pytest

from oracles import brute_force_optimal_n
from stimsim.rates import (
    RateParams,
    improvement_curve,
    k_bounds,
    ofdm_rate,
    optimal_n,
    rate_curve,
    rate_improvement,
    stim_rate,
)


def test_caption_rates():
    assert stim_rate(RateParams(6, 2, 2, 4), 5) == pytest.approx(17 / 7)
    assert stim_rate(RateParams(8, 2, 2, 4), 7) == pytest.approx(24 / 9)
    assert stim_rate(RateParams(12, 2, 2, 4), 11) == pytest.approx(36 / 13)
    assert stim_rate(RateParams(4, 1, 1, 2), 4) == pytest.approx(1.0)
    assert ofdm_rate(6, 2, 8) == pytest.approx(18 / 7)
    assert ofdm_rate(6, 2, 4) == pytest.approx(12 / 7)
    assert ofdm_rate(8, 2, 8) == pytest.approx(24 / 9)


def test_rate_improvement_values():
    assert rate_improvement(RateParams(8, 2, 2, 4), 7) == pytest.approx(50.0)
    # degenerate STIM is plain single-carrier at the same symbol count
    assert rate_improvement(RateParams(9, 2, 1, 4), 9) == 0.0


def test_k_out_of_range():
    with pytest.raises(ValueError):
        stim_rate(RateParams(8, 2, 2, 4), 9)


def test_bound_width_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        params = RateParams(
            int(rng.integers(4, 400)),
            int(rng.integers(1, 6)),
            int(2 ** rng.integers(0, 4)),
            int(2 ** rng.integers(1, 5)),
        )
        kb = k_bounds(params)
        assert kb.k_u - kb.k_l == pytest.approx(1.0, abs=1e-12)
        assert kb.k_l <= kb.k_m <= kb.k_u


@pytest.mark.parametrize("m,k_star", [(1, 103), (2, 114), (3, 121), (4, 125)])
def test_k_star_reference_values(m, k_star):
    params = RateParams(128, 4, 2, 2**m)
    assert k_bounds(params).k_star == k_star


@pytest.mark.parametrize(
    "params",
    [
        RateParams(128, 4, 2, 2),
        RateParams(128, 4, 2, 16),
        RateParams(64, 2, 4, 4),
        RateParams(200, 3, 1, 8),
        RateParams(256, 2, 2, 4),
    ],
)
def test_k_star_is_global_argmax(params):
    rates = [stim_rate(params, k, analytic=True) for k in range(1, params.n_slots + 1)]
    assert k_bounds(params).k_star == int(np.argmax(rates)) + 1


def test_rate_curve_concave_shape():
    params = RateParams(128, 4, 2, 2)
    analytic = [stim_rate(params, k, analytic=True) for k in range(1, 129)]
    diffs = np.sign(np.diff(analytic))
    # nondecreasing then nonincreasing
    first_drop = np.argmax(diffs < 0)
    assert np.all(diffs[:first_drop] >= 0)
    assert np.all(diffs[first_drop:] <= 0)


def test_rate_curve_endpoints():
    # the floored curve plateaus around the optimum; k=103 attains the max
    params = RateParams(128, 4, 2, 2)
    curve = dict(rate_curve(params))
    assert curve[103] == max(curve.values())
    assert curve[128] == pytest.approx(128 * 2 / 131)


@pytest.mark.parametrize(
    "n_t,alpha,n_star", [(2, 2, 11), (2, 4, 22), (2, 16, 87), (4, 4, 44)]
)
def test_optimal_n_reference_values(n_t, alpha, n_star):
    assert optimal_n(RateParams(2, 2, n_t, alpha)) == n_star


@pytest.mark.parametrize("n_t,alpha", [(2, 2), (2, 4), (2, 16), (4, 4)])
def test_brute_force_n_within_one_of_formula(n_t, alpha):
    params = RateParams(2, 2, n_t, alpha)
    assert abs(brute_force_optimal_n(params) - optimal_n(params)) <= 1


def test_stim_degenerates_to_ofdm():
    for n, l, alpha in [(8, 2, 4), (16, 3, 16), (5, 1, 2)]:
        params = RateParams(n, l, 1, alpha)
        assert stim_rate(params, n) == pytest.approx(ofdm_rate(n, l, alpha))


def test_improvement_curve_columns():
    params = RateParams(2, 2, 2, 2)
    curve = improvement_curve(params, range(2, 40))
    best_n = max(curve, key=lambda t: t[1])[0]
    assert best_n == 11
