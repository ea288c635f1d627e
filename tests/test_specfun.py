"""Digamma / log-gamma accuracy against a high-precision oracle."""

import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from simplexnmf import digamma, log_gamma

mp.mp.dps = 40

# published 16-digit values: -EulerGamma and psi(2) = 1 - EulerGamma
PSI_1 = -0.5772156649015329
PSI_2 = 0.4227843350984671
# log Gamma(1/2) = log(sqrt(pi))
LOG_GAMMA_HALF = 0.5723649429247001


def test_digamma_known_points():
    assert digamma(1.0) == pytest.approx(PSI_1, abs=1e-12)
    assert digamma(2.0) == pytest.approx(PSI_2, abs=1e-12)


def test_digamma_recurrence_identity():
    # psi(x+1) - psi(x) = 1/x, so psi(3.5) - psi(2.5) = 1/2.5 = 0.4
    assert digamma(3.5) - digamma(2.5) == pytest.approx(0.4, abs=1e-13)
    rng = np.random.default_rng(0)
    for x in rng.uniform(0.2, 50.0, size=25):
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, rel=1e-12)


def test_log_gamma_known_points():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-13)
    assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-13)
    assert log_gamma(0.5) == pytest.approx(LOG_GAMMA_HALF, abs=1e-12)


def test_log_gamma_recurrence_identity():
    rng = np.random.default_rng(1)
    for x in rng.uniform(0.1, 200.0, size=25):
        assert log_gamma(x + 1.0) - log_gamma(x) == pytest.approx(np.log(x), rel=1e-12)


@pytest.mark.parametrize("fn,oracle", [(digamma, mp.digamma), (log_gamma, mp.loggamma)])
def test_accuracy_against_mpmath(fn, oracle):
    # 1e-12 absolute wherever that is representable; a few ulp of the value
    # once |value| makes 1e-12 finer than float64 spacing
    for x in np.logspace(-6, 6, 181):
        reference = float(oracle(mp.mpf(float(x))))
        tolerance = max(1e-12, 8.0 * np.spacing(abs(reference)))
        assert abs(fn(float(x)) - reference) <= tolerance, f"x={x}"


@pytest.mark.parametrize("fn,oracle", [(digamma, mp.digamma), (log_gamma, mp.loggamma)])
@pytest.mark.parametrize("x", [1e60, 1e62, 1e100, 1e155, 1e300])
def test_large_arguments_against_mpmath(fn, oracle, x):
    # log_gamma(x + 1) of a raw count can be huge; no shift product may overflow
    reference = float(oracle(mp.mpf(x)))
    tolerance = max(1e-12, 8.0 * np.spacing(abs(reference)))
    assert abs(fn(x) - reference) <= tolerance
    assert abs(fn(np.array([x]))[0] - reference) <= tolerance


@pytest.mark.parametrize("fn", [digamma, log_gamma])
def test_infinity_gives_infinity(fn):
    # warnings are errors in this suite, so an inf - inf inside the series would fail here
    assert fn(np.inf) == np.inf
    assert np.array_equal(fn(np.array([np.inf, 1.0])), [np.inf, fn(1.0)])


def test_derivative_consistency():
    # central difference of log_gamma approximates digamma
    h = 1e-5
    for x in np.linspace(0.1, 100.0, 57):
        fd = (log_gamma(x + h) - log_gamma(x - h)) / (2 * h)
        assert abs(fd - digamma(x)) < 1e-6


def test_digamma_monotone_increasing():
    xs = np.linspace(0.05, 80.0, 200)
    values = digamma(xs)
    assert np.all(np.diff(values) > 0)


def test_array_and_scalar_forms_agree():
    xs = np.array([[0.3, 1.0], [4.5, 123.0]])
    assert np.array_equal(digamma(xs), np.vectorize(digamma)(xs))
    assert np.array_equal(log_gamma(xs), np.vectorize(log_gamma)(xs))
    assert isinstance(digamma(1.5), float)


@pytest.mark.parametrize("fn", [digamma, log_gamma])
def test_working_memory_is_bounded(fn):
    # the result is the only array the argument's size
    xs = np.random.default_rng(2).uniform(0.05, 12.0, size=(200, 1000))
    tracemalloc.start()
    try:
        fn(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * xs.nbytes


@pytest.mark.parametrize("fn", [digamma, log_gamma])
@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_rejects_non_positive(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)
    with pytest.raises(ValueError):
        fn(np.array([1.0, bad]))
