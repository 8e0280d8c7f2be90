"""Shrinkage rule, its derivative, and SURE-driven threshold selection."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gsdenoise.chebyshev import sgwt_forward_fast
from gsdenoise.frame import FrameCoefficients, PartitionOfUnity
from gsdenoise.graph import grid_graph, laplacian
from gsdenoise.privacy import PrivacyParams, calibrate_sigma, sanitize
from gsdenoise.signals import SignalSpec, synth_signal
from gsdenoise.sure import estimate_diagonal_weights, sure_value
from gsdenoise.threshold import (
    ThresholdPolicy,
    _by_magnitude,
    _grid,
    _scale_objectives,
    apply_policy,
    js_derivative,
    js_threshold,
    select_thresholds_sure,
)
from oracles import shrink_with_derivatives


def test_hand_values():
    assert js_threshold(3.0, 1.0, 2.0) == pytest.approx(8.0 / 3.0)
    assert js_derivative(3.0, 1.0, 2.0) == pytest.approx(10.0 / 9.0)


def test_beta_one_is_soft_thresholding():
    x = np.random.default_rng(0).standard_normal(200) * 3
    t = 0.8
    soft = np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
    assert np.allclose(js_threshold(x, t, 1.0), soft, atol=1e-12)


def test_derivative_conventions_at_special_points():
    # dead zone keeps zero, the kink takes the right-limit slope beta,
    # an exact zero input stays flat regardless
    assert js_derivative(0.3, 1.0, 3.0) == 0.0
    assert js_derivative(1.0, 1.0, 3.0) == 3.0
    assert js_derivative(-1.0, 1.0, 3.0) == 3.0
    assert js_derivative(0.0, 1.0, 3.0) == 0.0
    assert js_derivative(0.0, 0.0, 3.0) == 0.0
    assert js_derivative(2.0, 0.0, 3.0) == 1.0


def test_derivative_matches_finite_differences_away_from_kinks():
    rng = np.random.default_rng(5)
    t, beta = 0.9, 2.5
    x = rng.uniform(-4, 4, 500)
    x = x[np.abs(np.abs(x) - t) > 1e-3]  # stay away from the kinks
    x = x[np.abs(x) > 1e-3]
    h = 1e-6
    fd = (js_threshold(x + h, t, beta) - js_threshold(x - h, t, beta)) / (2 * h)
    assert np.max(np.abs(fd - js_derivative(x, t, beta))) <= 1e-5


def test_large_beta_does_not_overflow():
    x = np.array([1e-12, 0.5, 2.0])
    out = js_threshold(x, 1.0, 100.0)
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[1] == 0.0
    assert np.isfinite(js_derivative(x, 1.0, 100.0)).all()


def test_beta_range_enforced():
    with pytest.raises(ValueError):
        js_threshold(1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        js_threshold(1.0, 1.0, 101.0)
    with pytest.raises(ValueError):
        js_threshold(1.0, -0.1, 2.0)


@settings(max_examples=80, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 30),
                  elements=st.floats(-1e6, 1e6)),
       st.floats(0.0, 1e6), st.floats(1.0, 100.0))
def test_shrinkage_and_sign_preservation(x, t, beta):
    out = js_threshold(x, t, beta)
    assert np.all(np.abs(out) <= np.abs(x) + 1e-12)
    assert np.all((np.sign(out) == np.sign(x)) | (out == 0.0))


def test_threshold_monotone_in_t():
    x = np.random.default_rng(2).standard_normal(50)
    small = np.abs(js_threshold(x, 0.3, 2.0))
    large = np.abs(js_threshold(x, 0.9, 2.0))
    assert np.all(large <= small + 1e-15)


def test_candidate_grid_contents():
    grid = _grid(np.sort(np.abs(np.array([2.0, -2.0]))))
    assert np.array_equal(grid, [0.0, 2.0, np.inf])
    pair = _grid(np.sort(np.abs(np.array([0.5, -3.0]))))
    assert np.array_equal(pair, [0.0, 0.5, 3.0, np.inf])
    # 0, then the 101 percentiles of 1000 distinct positive magnitudes,
    # then inf
    assert _grid(np.sort(np.abs(np.arange(1.0, 1001.0)))).size == 103
    assert np.all(np.diff(_grid(np.sort(np.abs(
        np.random.default_rng(0).standard_normal(40))))) > 0)


def test_selection_matches_bruteforce_over_all_magnitudes():
    rng = np.random.default_rng(7)
    n, J = 15, 3
    coeffs = FrameCoefficients(rng.standard_normal(n * (J + 1)) * 2, n, J)
    wdiag = rng.uniform(0.2, 1.5, n * (J + 1))
    sigma, beta = 0.8, 2.0
    policy, _ = select_thresholds_sure(coeffs, wdiag, sigma, beta=beta)

    def objective(x, w, t):
        h = js_threshold(x, t, beta)
        d = js_derivative(x, t, beta)
        r = h - x
        return r @ r + 2 * sigma ** 2 * (w @ d)

    for j in range(J + 1):
        x = coeffs.block(j)
        w = wdiag[j * n:(j + 1) * n]
        cands = np.concatenate([[0.0], np.abs(x), [np.inf]])
        best = min(cands, key=lambda t: objective(x, w, t))
        assert objective(x, w, policy.thresholds[j]) == pytest.approx(
            objective(x, w, best), rel=1e-12)


def _objective_reference(x, w, sigma, t, beta):
    """One scale's SURE contribution at threshold t, up to the -n sigma^2,
    from a pass over the whole block per candidate."""
    r = js_threshold(x, t, beta) - x
    return float(r @ r) + 2 * sigma ** 2 * float(w @ js_derivative(x, t, beta))


def _suffix_logsumexp(v):
    """log sum_{i >= k} exp(v_i) for k = 0..len(v), the empty sum as -inf."""
    return np.append(np.logaddexp.accumulate(v[::-1])[::-1], -np.inf)


def _scale_objectives_reference(a, w, sigma, t, beta):
    """_scale_objectives from running sums over every magnitude, read back
    at each threshold's rank: the two power sums are log-domain suffix
    scans over the whole block."""
    dead_sq = np.append(0.0, np.cumsum(a * a))       # sum over entries [0, k)
    live_w = np.append(np.cumsum(w[::-1])[::-1], 0.0)  # sum over entries [k, n)
    lo = np.searchsorted(a, t, side="left")
    hi = np.searchsorted(a, t, side="right")
    s2 = 2.0 * sigma ** 2
    obj = dead_sq[hi] + s2 * live_w[hi]
    obj += np.where(t > 0, s2 * beta * (live_w[lo] - live_w[hi]), 0.0)
    zeros = int(np.searchsorted(a, 0.0, side="right"))
    loga = np.log(a[zeros:])
    with np.errstate(divide="ignore"):
        logw = np.log(w[zeros:])
        logt = np.log(t)
    sum_sq = _suffix_logsumexp((2.0 - 2.0 * beta) * loga)
    sum_w = _suffix_logsumexp(logw - beta * loga)
    k = hi - zeros
    live = k < loga.size
    k, logt = k[live], logt[live]
    obj[live] += (np.exp(2.0 * beta * logt + sum_sq[k])
                  + s2 * (beta - 1.0) * np.exp(beta * logt + sum_w[k]))
    return obj


@st.composite
def _blocks_with_ties(draw, magnitudes=st.floats(0.125, 8.0)):
    """A coefficient block drawn from a few magnitudes, so that ties and
    exact zeros are common, and its weights, zeros included.

    Magnitudes stay within [1/8, 8] by default: over a much wider range
    the h - x of _objective_reference cancels for beta near 1, and that
    reference would be the less accurate side of the comparison.
    """
    pool = np.array([0.0] + draw(st.lists(magnitudes, min_size=1,
                                          max_size=6)))
    n = draw(st.integers(1, 40))
    which = draw(hnp.arrays(np.int64, n,
                            elements=st.integers(0, pool.size - 1)))
    signs = draw(hnp.arrays(np.float64, n,
                            elements=st.sampled_from([-1.0, 1.0])))
    w = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.just(0.0), st.floats(0.0, 2.0))))
    return pool[which] * signs, w


@settings(max_examples=300, deadline=None)
@given(_blocks_with_ties(), st.sampled_from([1.0, 1.5, 2.0, 5.0, 100.0]),
       st.floats(0.1, 3.0), st.data())
def test_one_pass_objectives_match_per_candidate_reference(block, beta,
                                                           sigma, data):
    # any sorted candidate set: every magnitude, or a random subset of
    # them, with 0 and inf
    x, w = block
    mags = np.unique(np.abs(x))
    keep = data.draw(hnp.arrays(bool, mags.size)) | data.draw(st.booleans())
    cands = np.unique(np.concatenate([[0.0], mags[keep], [np.inf]]))
    want = [_objective_reference(x, w, sigma, t, beta) for t in cands]
    a, ws = _by_magnitude(x, w)
    np.testing.assert_allclose(_scale_objectives(a, ws, sigma, cands, beta),
                               want, rtol=1e-12, atol=0.0)


@settings(max_examples=300, deadline=None)
@given(_blocks_with_ties(st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e)),
       st.sampled_from([1.0, 1.5, 2.0, 5.0, 100.0]), st.floats(0.1, 3.0),
       st.data())
def test_segment_objectives_match_the_per_magnitude_scans(block, beta, sigma,
                                                           data):
    # candidates as in the test above
    x, w = block
    mags = np.unique(np.abs(x))
    keep = data.draw(hnp.arrays(bool, mags.size)) | data.draw(st.booleans())
    cands = np.unique(np.concatenate([[0.0], mags[keep], [np.inf]]))
    a, ws = _by_magnitude(x, w)
    got = _scale_objectives(a, ws, sigma, cands, beta)
    want = _scale_objectives_reference(a, ws, sigma, cands, beta)
    # The reference exponentiates log-domain sums, and each of its up to
    # n + 2 roundings errs by up to eps times the largest term, M. So its
    # power terms, at most
    # U = sum over the live entries of a^2 + 2 sigma^2 (beta - 1) w, may
    # be off by (n + 2) eps M U: at beta = 100, near-tied magnitudes
    # around 1e150 and M about 7e4, it is 1e-11 off an mpmath objective.
    # The one-pass side takes powers of ratios no greater than 1 and
    # stays within 1e-14 of mpmath there. Elsewhere the slack is well
    # below rel 1e-12.
    nz, pos = a > 0, ws > 0
    M = (2.0 * beta * np.max(np.abs(np.log(a[nz])), initial=0.0)
         + np.max(np.abs(np.log(ws[pos])), initial=0.0) + 1.0)
    live = a[None, :] > cands[:, None]
    U = live @ (a * a + 2.0 * sigma ** 2 * (beta - 1.0) * ws)
    slack = (a.size + 2) * np.finfo(float).eps * M * U
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + slack)


@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0, 5.0, 100.0])
def test_objectives_stay_finite_from_1e_300_to_3e150(beta):
    # every power is taken of a ratio no greater than 1, so neither the
    # ratios nor the power sums overflow or underflow to a wrong minimum
    x = np.array([0.0, 1e-300, -1e-160, 1.0, -3e150, 1e-160, 0.0, 3e150,
                  -1.0, 1e-300])
    w = np.array([0.5, 1.0, 0.0, 2.0, 0.7, 1.3, 0.0, 0.2, 1.1, 0.9])
    a, ws = _by_magnitude(x, w)
    cands = _grid(a)
    for sigma in (1e-3, 1.0, 1e3):
        got = _scale_objectives(a, ws, sigma, cands, beta)
        want = _scale_objectives_reference(a, ws, sigma, cands, beta)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert np.argmin(got) == np.argmin(want)


def test_grid_thresholds_equal_the_reference_path_bitwise():
    g = grid_graph(300, 300)
    L = laplacian(g)
    pou = PartitionOfUnity.for_operator(L)
    weights = estimate_diagonal_weights(L, pou)
    for i, epsilon in enumerate((0.5, 1.0, 2.0)):
        f = synth_signal(g, SignalSpec(0.01, 4, seed=i))
        sigma = calibrate_sigma(PrivacyParams(epsilon, 1e-6))
        noisy, sigma = sanitize(f, sigma, seed=100 + i)
        coeffs = sgwt_forward_fast(L, noisy, pou)
        policy, _ = select_thresholds_sure(coeffs, weights.diag, sigma)
        want = np.empty(coeffs.J + 1)
        for j in range(coeffs.J + 1):
            x = coeffs.block(j)
            a, w = _by_magnitude(x, weights.diag[j * g.n:(j + 1) * g.n])
            grid = _grid(np.sort(np.abs(x)))
            want[j] = grid[int(np.argmin(_scale_objectives_reference(
                a, w, sigma, grid, policy.beta)))]
        assert policy.thresholds.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 50), st.integers(0, 2 ** 32 - 1))
def test_candidates_are_numpys_lower_percentiles(n, distinct, seed):
    # the ranks are read off the sorted block, where numpy selects its own;
    # a block drawn from few distinct values, zero among them, has ties
    rng = np.random.default_rng(seed)
    x = rng.choice(np.append(0.0, rng.standard_normal(distinct)), n)
    qs = np.percentile(np.abs(x), np.linspace(0.0, 100.0, 101),
                       method="lower")
    assert np.array_equal(_grid(np.sort(np.abs(x))),
                          np.unique(np.concatenate([[0.0], qs, [np.inf]])))


@pytest.mark.parametrize("beta", [1.0, 2.0, 5.0, 100.0])
@pytest.mark.parametrize("n", [7, 100, 500])
def test_selected_thresholds_are_the_bruteforce_argmin_over_the_grid(beta, n):
    # blocks shorter than, as long as and longer than the 101 percentiles
    rng = np.random.default_rng(11)
    J = 3
    vals = rng.standard_normal(n * (J + 1)) * rng.choice([0.3, 3.0],
                                                         n * (J + 1))
    vals[::17] = 0.0
    coeffs = FrameCoefficients(vals, n, J)
    wdiag = rng.uniform(0.0, 1.5, n * (J + 1))
    sigma = 0.9
    policy, _ = select_thresholds_sure(coeffs, wdiag, sigma, beta=beta)
    for j in range(J + 1):
        x, w = coeffs.block(j), wdiag[j * n:(j + 1) * n]
        grid = _grid(np.sort(np.abs(x)))
        objs = [_objective_reference(x, w, sigma, t, beta) for t in grid]
        assert policy.thresholds[j] == grid[int(np.argmin(objs))]


@pytest.mark.parametrize("beta", [1.0, 2.0, 5.0, 100.0])
@pytest.mark.parametrize("n", [7, 100, 500])
def test_selection_reports_the_sure_of_its_thresholds(beta, n):
    # the minimum objectives the selection sums are the SURE sure_value
    # gives at the chosen thresholds, exact zeros and an all-zero scale
    # included
    rng = np.random.default_rng(12)
    J = 3
    vals = rng.standard_normal(n * (J + 1)) * rng.choice([0.3, 3.0],
                                                         n * (J + 1))
    vals[::13] = 0.0
    vals[:n] = 0.0
    coeffs = FrameCoefficients(vals, n, J)
    wdiag = rng.uniform(0.0, 1.5, n * (J + 1))
    sigma = 0.9
    policy, sure = select_thresholds_sure(coeffs, wdiag, sigma, beta=beta)
    want = sure_value(coeffs, *shrink_with_derivatives(coeffs, policy),
                      sigma, wdiag)
    assert sure == pytest.approx(want, rel=1e-12, abs=0)


def test_selection_peak_memory_stays_below_apply():
    rng = np.random.default_rng(4)
    n, J = 10 ** 5, 5
    coeffs = FrameCoefficients(rng.standard_normal(n * (J + 1)), n, J)
    wdiag = rng.uniform(0.5, 1.5, n * (J + 1))

    def peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    select_peak, (policy, _) = peak(
        lambda: select_thresholds_sure(coeffs, wdiag, 1.0))
    apply_peak, _ = peak(lambda: apply_policy(coeffs, policy))
    assert select_peak <= apply_peak


def test_selection_rejects_infinite_sigma_and_bad_weights():
    coeffs = FrameCoefficients(np.arange(6.0), 3, 1)
    with pytest.raises(ValueError, match="finite"):
        select_thresholds_sure(coeffs, np.ones(6), np.inf)
    for bad in (-1.0, np.nan, np.inf):
        w = np.ones(6)
        w[4] = bad
        with pytest.raises(ValueError, match="nonnegative; entry 4 is"):
            select_thresholds_sure(coeffs, w, 1.0)


def test_selected_threshold_beats_sentinels():
    rng = np.random.default_rng(9)
    n, J = 40, 2
    coeffs = FrameCoefficients(rng.standard_normal(n * (J + 1)), n, J)
    wdiag = np.ones(n * (J + 1))
    sigma = 0.5
    policy, _ = select_thresholds_sure(coeffs, wdiag, sigma)

    def objective(x, w, t):
        h = js_threshold(x, t, policy.beta)
        d = js_derivative(x, t, policy.beta)
        r = h - x
        return r @ r + 2 * sigma ** 2 * (w @ d)

    for j in range(J + 1):
        x, w = coeffs.block(j), wdiag[j * n:(j + 1) * n]
        chosen = objective(x, w, policy.thresholds[j])
        assert chosen <= objective(x, w, 0.0) + 1e-12
        assert chosen <= objective(x, w, np.inf) + 1e-12


def test_all_zero_scale_selects_zero_threshold():
    coeffs = FrameCoefficients(np.zeros(12), 4, 2)
    policy, _ = select_thresholds_sure(coeffs, np.ones(12), 1.0)
    assert np.array_equal(policy.thresholds, np.zeros(3))


def test_apply_policy_returns_the_thresholded_coefficients():
    rng = np.random.default_rng(3)
    coeffs = FrameCoefficients(rng.standard_normal(20), 5, 3)
    policy = ThresholdPolicy(2.0, np.array([0.0, 0.5, 1.0, np.inf]))
    out, derivs = shrink_with_derivatives(coeffs, policy)
    assert np.array_equal(out.block(0), coeffs.block(0))  # t=0 passes through
    assert np.array_equal(out.block(3), np.zeros(5))      # t=inf kills all
    assert np.array_equal(derivs[:5], np.ones(5))
    assert np.array_equal(derivs[15:], np.zeros(5))
    assert out.values.shape == coeffs.values.shape
    for j, t in enumerate(policy.thresholds):
        assert np.array_equal(out.block(j), js_threshold(coeffs.block(j), t))


def test_apply_policy_checks_scale_count():
    coeffs = FrameCoefficients(np.zeros(10), 5, 1)
    with pytest.raises(ValueError, match="scales"):
        apply_policy(coeffs, ThresholdPolicy(2.0, np.zeros(3)))
