"""Digamma and log-gamma for strictly positive arguments.

Both functions shift every small argument by one fixed count into the
range where a truncated Stirling-type asymptotic series is accurate, and
undo the shift with the recurrences (Abramowitz & Stegun 6.3.5, 6.1.15)
taken that many times at once:

    psi(x)       = psi(x + 6) - sum_{i<6} 1/(x + i)
    log_gamma(x) = log_gamma(x + 10) - log(x) - log(prod_{1<=i<10} (x + i))

The six reciprocals are summed as three pairs ``(x, x+5)``, ``(x+1, x+4)``,
``(x+2, x+3)``: every pair sums to ``2x + 5``, and with ``m = x(x + 5)``
their products are ``m``, ``m + 4`` and ``m + 6``, so the sum is one
rational function of ``m`` and takes one division.  The nine-factor product
lies between 9! and 19!/10!, so neither it nor its log can overflow.

Arguments at or above the thresholds (x >= 6 for digamma, x >= 10 for
log-gamma) are not shifted: ``np.where`` picks the argument itself for the
series and the correction is subtracted only below the threshold, while
the corrections are formed from the argument clamped at the threshold.  So
every entry takes the same passes, with no data-dependent branch; no
product overflows however large the argument; and above the thresholds
the result is the series at the argument itself.

The series are truncated so that the remaining term is below ~2e-13 at the
thresholds and far below that for larger arguments.  Absolute accuracy is
1e-12 or better wherever the result itself is representable to that
accuracy in float64; for |result| above ~1e4 the unit of last place exceeds
1e-12 and accuracy is a few ulp instead.

Both are +inf at +inf.  Scalar inputs return a ``float``; array inputs
return an ``ndarray`` of the same shape.  The work is done in place on a
flat view of the argument, so an evaluation holds at most five float
arrays the size of its argument, plus one boolean mask.
"""

from __future__ import annotations

import numpy as np

_HALF_LOG_TWO_PI_LESS_HALF = 0.4189385332046727  # log(2 pi)/2 - 1/2
_DIGAMMA_SHIFT = 6.0
_LOG_GAMMA_SHIFT = 10.0
# the series coefficients c0..c5 and the last divisor d, as in
# c0 - t (c1 - t (c2 - t (c3 - t (c4 - t (c5 - t / d))))) with t = 1/z^2
_DIGAMMA_SERIES = (1.0 / 12.0, 1.0 / 120.0, 1.0 / 252.0, 1.0 / 240.0, 1.0 / 132.0, 691.0 / 32760.0, 12.0)
_LOG_GAMMA_SERIES = (1.0 / 12.0, 1.0 / 360.0, 1.0 / 1260.0, 1.0 / 1680.0, 1.0 / 1188.0, 691.0 / 360360.0, 156.0)


def _validated(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(arr > 0.0):
        raise ValueError(f"{name} is defined for strictly positive arguments only")
    return arr


def _series(inv2: np.ndarray, coefficients) -> np.ndarray:
    """The nested series of ``coefficients`` at ``t = inv2``, in one new array."""
    *outer, divisor = coefficients
    out = inv2 / divisor
    for c in reversed(outer[1:]):
        np.subtract(c, out, out=out)
        out *= inv2
    np.subtract(outer[0], out, out=out)
    return out


def _digamma(x: np.ndarray) -> np.ndarray:
    small = x < _DIGAMMA_SHIFT
    c = np.minimum(x, _DIGAMMA_SHIFT)
    m = c * (c + 5.0)
    # sum_{i<6} 1/(c + i) = (2c + 5) (3m^2 + 20m + 24) / (m (m + 4) (m + 6))
    den = m + 4.0
    den *= m
    reciprocals = m + 6.0
    den *= reciprocals
    np.multiply(m, 3.0, out=reciprocals)
    reciprocals += 20.0
    reciprocals *= m
    reciprocals += 24.0
    reciprocals /= den
    del m, den
    c *= 2.0
    c += 5.0
    reciprocals *= c
    del c

    z = np.where(small, x + _DIGAMMA_SHIFT, x)
    inv = 1.0 / z
    inv2 = inv * inv
    tail = _series(inv2, _DIGAMMA_SERIES)
    tail *= inv2
    del inv2
    out = np.log(z)
    inv *= 0.5
    out -= inv
    out -= tail
    np.subtract(out, reciprocals, out=out, where=small)
    return out


def _log_gamma(x: np.ndarray) -> np.ndarray:
    small = x < _LOG_GAMMA_SHIFT
    c = np.minimum(x, _LOG_GAMMA_SHIFT)
    product = c + 1.0
    factor = np.empty_like(c)
    for i in range(2, 10):
        np.add(c, float(i), out=factor)
        product *= factor
    del factor
    # log of the rising product c (c + 1) ... (c + 9)
    np.log(product, out=product)
    np.log(c, out=c)
    c += product
    del product

    z = np.where(small, x + _LOG_GAMMA_SHIFT, x)
    inv = 1.0 / z
    series = _series(inv * inv, _LOG_GAMMA_SERIES)
    series *= inv
    del inv
    # (z - 1/2) log z - z + log(2 pi)/2, written as (z - 1/2)(log z - 1) + (log(2 pi) - 1)/2
    # so that z = inf gives inf, not inf - inf
    out = np.log(z)
    out -= 1.0
    out *= z - 0.5
    out += _HALF_LOG_TWO_PI_LESS_HALF
    out += series
    np.subtract(out, c, out=out, where=small)
    return out


def _scalar_or_array(x, fn, arr: np.ndarray):
    """``fn`` on ``arr`` flattened (so that 0-d input works in place too), in ``arr``'s shape."""
    out = fn(arr.reshape(-1)).reshape(arr.shape)
    if np.ndim(x) == 0:
        return float(out)
    return out


def digamma(x):
    """psi(x) = d/dx log Gamma(x) for x > 0."""
    return _scalar_or_array(x, _digamma, _validated(x, "digamma"))


def log_gamma(x):
    """log Gamma(x) for x > 0, without forming Gamma(x) itself."""
    return _scalar_or_array(x, _log_gamma, _validated(x, "log_gamma"))
