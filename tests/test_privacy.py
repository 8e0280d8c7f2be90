"""Gaussian mechanism calibration against independent references."""

import math

import mpmath as mp
import numpy as np
import pytest

from gsdenoise.privacy import (
    PrivacyParams,
    _analytic_condition,
    analytic_sigma,
    calibrate_sigma,
    classical_sigma,
    gaussian_cdf,
    sanitize,
)

mp.mp.dps = 40


def test_cdf_matches_high_precision_reference():
    for x in (-10.0, -4.5, -1.0, -0.1, 0.0, 0.3, 2.0, 7.0, 10.0):
        ref = float(mp.ncdf(x))
        assert abs(gaussian_cdf(x) - ref) <= 1e-12


def test_cdf_symmetry():
    assert gaussian_cdf(0.0) == 0.5
    for x in (0.5, 1.7, 3.0):
        assert gaussian_cdf(x) + gaussian_cdf(-x) == pytest.approx(1.0,
                                                                   abs=1e-15)


def test_params_validation():
    with pytest.raises(ValueError, match="mechanism"):
        PrivacyParams(0.5, 1e-6, 1.0, "laplace")
    with pytest.raises(ValueError, match="sensitivity"):
        PrivacyParams(0.5, 1e-6, 0.0)
    with pytest.raises(ValueError, match="epsilon"):
        PrivacyParams(1.5, 1e-6, 1.0, "classical")
    with pytest.raises(ValueError, match="delta"):
        PrivacyParams(0.5, 0.0, 1.0, "classical")
    PrivacyParams(3.0, 1e-6, 1.0, "analytic")  # analytic allows epsilon > 1


@pytest.mark.parametrize("mechanism", ["analytic", "classical"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_params_reject_nonfinite_epsilon_and_sensitivity(mechanism, bad):
    with pytest.raises(ValueError, match="epsilon"):
        PrivacyParams(bad, 1e-6, 1.0, mechanism)
    with pytest.raises(ValueError, match="sensitivity must be positive and "
                                         "finite"):
        PrivacyParams(0.5, 1e-6, bad, mechanism)


def test_classical_formula():
    p = PrivacyParams(0.5, 1e-5, 2.0, "classical")
    want = 2.0 * math.sqrt(2.0 * math.log(1.25e5)) / 0.5
    assert classical_sigma(p) == pytest.approx(want, rel=1e-15)


def test_analytic_condition_is_monotone_decreasing():
    s = np.linspace(0.5, 30, 200)
    vals = [_analytic_condition(v, 0.7) for v in s]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_analytic_beats_classical_on_common_domain():
    for eps in (0.1, 0.3, 0.5, 0.9, 1.0):
        for delta in (1e-8, 1e-6, 1e-3):
            pa = PrivacyParams(eps, delta, 1.0, "analytic")
            pc = PrivacyParams(eps, delta, 1.0, "classical")
            assert analytic_sigma(pa) <= classical_sigma(pc)


def test_analytic_scale_proportional_to_sensitivity():
    base = analytic_sigma(PrivacyParams(0.4, 1e-5, 1.0))
    assert analytic_sigma(PrivacyParams(0.4, 1e-5, 3.5)) == pytest.approx(
        3.5 * base, rel=1e-9)


def test_condition_holds_with_near_equality_at_the_returned_scale():
    for eps in (0.2, 1.0, 4.0):
        for delta in (1e-8, 1e-4, 1e-2):
            s = analytic_sigma(PrivacyParams(eps, delta, 1.0))
            c = _analytic_condition(s, eps)
            assert delta - 1e-12 <= c <= delta


def test_returned_scale_is_the_least_float_meeting_the_condition():
    for eps in (0.2, 1.0, 4.0):
        for delta in (1e-8, 1e-4, 1e-2):
            s = analytic_sigma(PrivacyParams(eps, delta, 1.0))
            assert _analytic_condition(s, eps) <= delta
            assert _analytic_condition(math.nextafter(s, 0), eps) > delta


def test_calibrate_dispatches_on_mechanism():
    pa = PrivacyParams(0.5, 1e-6, 1.0, "analytic")
    pc = PrivacyParams(0.5, 1e-6, 1.0, "classical")
    assert calibrate_sigma(pa) == analytic_sigma(pa)
    assert calibrate_sigma(pc) == classical_sigma(pc)


def test_sanitize_moments_and_determinism():
    f = np.zeros(200000)
    noisy, sigma = sanitize(f, 2.5, seed=42)
    assert sigma == 2.5
    assert abs(noisy.mean()) < 0.02
    assert abs(noisy.std() - 2.5) < 0.02
    again, _ = sanitize(f, 2.5, seed=42)
    assert np.array_equal(noisy, again)
    assert not np.array_equal(noisy, sanitize(f, 2.5, seed=43)[0])


def test_sanitize_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        sanitize(np.ones(3), 0.0)


def test_sanitize_rejects_infinite_scale():
    with pytest.raises(ValueError, match="finite"):
        sanitize(np.ones(3), math.inf)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sanitize_rejects_nonfinite_samples_with_their_index(bad):
    # the noise would leave a non-finite sample as it is, and so show which
    # samples were not finite
    f = np.ones(5)
    f[[2, 4]] = bad
    with pytest.raises(ValueError, match="signal sample 2 is .*; every "
                                         "sample must be finite"):
        sanitize(f, 1.0)
