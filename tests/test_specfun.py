"""Digamma / log-gamma accuracy against a high-precision oracle, and their split.

A large C-contiguous argument is evaluated in contiguous ranges, one per
CPU, by the reconstruction's splitter; the result must equal SciPy's bit
for bit whatever the CPU count and the layout.  The CPU count and the work
per range are lowered here so that tiny inputs split too, and a stand-in
ufunc (``np.sqrt``, ``np.exp``) replaces SciPy's where a test records or
fails ranges.
"""

import threading
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from simplexnmf import digamma, log_gamma, specfun, types

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


# ---------------------------------------------------------------------------
# evaluation in ranges on several CPUs


def _split(monkeypatch, cpus):
    """Let the evaluation use ``cpus`` CPUs and split work of any size."""
    monkeypatch.setattr(types, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(types, "_RANGE_WORK", 1)


@st.composite
def positive_arguments(draw):
    """A positive float array (+inf included): 0-d, of one entry, empty or K x D, C-ordered, Fortran-ordered or strided."""
    shape = draw(st.sampled_from([(), (1,), (1, 1), (0, 4), (7,), (3, 5), (6, 4), (2, 3, 4)]))
    size = int(np.prod(shape, dtype=int))
    values = draw(st.lists(st.floats(min_value=5e-324), min_size=2 * size, max_size=2 * size))
    arr = np.array(values).reshape((2, *shape) if shape else (2,))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "strided":
        return arr[0] if shape else arr[::2].reshape(())  # every other entry, or a 0-d view
    arr = arr[0]
    return np.asfortranarray(arr) if layout == "F" else np.ascontiguousarray(arr)


SCIPY = {digamma: special.digamma, log_gamma: special.gammaln}


@pytest.mark.parametrize("cpus", [1, 2, 3, 7])
@pytest.mark.parametrize("fn", [digamma, log_gamma])
@settings(max_examples=60, deadline=None)
@given(positive_arguments())
def test_split_evaluation_equals_scipy_bit_for_bit(cpus, fn, x):
    want = SCIPY[fn](x)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _split(monkeypatch, cpus)
        got = fn(x)
    if x.ndim == 0:
        assert isinstance(got, float) and np.float64(got).tobytes() == want.tobytes()
    else:
        assert got.shape == want.shape and got.tobytes(order="A") == want.tobytes(order="A")
        assert (got.flags.c_contiguous, got.flags.f_contiguous) == (want.flags.c_contiguous, want.flags.f_contiguous)


def _stand_in(ufunc):
    """A namespace for ``specfun.special`` whose two functions are ``ufunc``."""
    return SimpleNamespace(digamma=ufunc, gammaln=ufunc)


def _recording(calls):
    """``np.sqrt`` that also records each call's argument size and whether the caller made it."""
    def record(x, out=None):
        calls.append((np.size(x), threading.current_thread() is threading.main_thread()))
        return np.sqrt(x, out=out)
    return record


@pytest.mark.parametrize("fn", [digamma, log_gamma])
def test_ranges_are_contiguous_one_per_cpu_the_first_in_the_caller(monkeypatch, fn):
    calls = []
    _split(monkeypatch, 3)
    monkeypatch.setattr(specfun, "special", _stand_in(_recording(calls)))
    x = np.arange(1.0, 11.0).reshape(2, 5)
    assert np.array_equal(fn(x), np.sqrt(x))
    assert sorted(calls) == [(3, False), (3, True), (4, False)]


@pytest.mark.parametrize("fn", [digamma, log_gamma])
def test_other_layouts_and_small_work_are_one_call_in_the_caller(monkeypatch, fn):
    calls = []
    monkeypatch.setattr(types, "_usable_cpus", lambda: 7)
    monkeypatch.setattr(specfun, "special", _stand_in(_recording(calls)))
    fn(np.ones((4, 6)))  # 24 evaluations, far below the threshold
    _split(monkeypatch, 7)
    fn(np.ones((4, 6), order="F"))
    fn(np.ones((4, 12))[:, ::2])
    fn(np.ones(()))
    fn(2.0)
    assert calls == [(24, True), (24, True), (24, True), (1, True), (1, True)]


def test_the_threshold_splits_a_bound_sized_beta_but_not_its_document_sums():
    # the text-short-docs beta, 50 topics x 10000 documents, on two CPUs
    cells, docs = 50 * 10000, 10000
    assert cells * specfun._EVAL_WORK // types._RANGE_WORK >= 2
    assert docs * specfun._EVAL_WORK // types._RANGE_WORK < 2


@pytest.mark.parametrize("fn", [digamma, log_gamma])
def test_a_worker_exception_is_raised_after_every_worker_joined(monkeypatch, fn):
    finished = []

    def failing(x, out=None):
        if threading.current_thread() is threading.main_thread():
            return np.sqrt(x, out=out)
        if x[0] == 4.0:  # the second range fails at once
            raise RuntimeError("range failed")
        time.sleep(0.05)  # the third is still running when the second fails
        np.sqrt(x, out=out)
        finished.append(x.tolist())

    _split(monkeypatch, 3)
    monkeypatch.setattr(specfun, "special", _stand_in(failing))
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="^range failed$"):
        fn(np.arange(1.0, 10.0))
    assert finished == [[7.0, 8.0, 9.0]]  # the third range ran to the end before the error left
    assert threading.active_count() == threads  # and every thread was joined


@pytest.mark.parametrize("fn", [digamma, log_gamma])
def test_the_callers_errstate_holds_in_the_workers(monkeypatch, fn):
    # exp overflows in every range, the caller's and the workers'
    _split(monkeypatch, 3)
    monkeypatch.setattr(specfun, "special", _stand_in(np.exp))
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        out = fn(np.full((3, 3), 1000.0))
    assert np.all(out == np.inf)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        fn(np.full((3, 3), 1000.0))


@pytest.mark.parametrize("fn", [digamma, log_gamma])
@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, -np.inf])
def test_a_non_positive_argument_is_refused_before_any_thread_starts(monkeypatch, fn, bad):
    calls, pools = [], []

    class NoPool:
        def __init__(self, *args, **kwargs):
            pools.append(args)
            raise AssertionError("a pool was opened")

    _split(monkeypatch, 3)
    monkeypatch.setattr(types, "ThreadPoolExecutor", NoPool)
    monkeypatch.setattr(specfun, "special", _stand_in(_recording(calls)))
    x = np.arange(1.0, 10.0)
    x[5] = bad
    with pytest.raises(ValueError, match="strictly positive"):
        fn(x)
    assert calls == [] and pools == []
