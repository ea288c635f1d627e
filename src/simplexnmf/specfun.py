"""Digamma and log-gamma for strictly positive arguments.

Both are SciPy's ``scipy.special.digamma`` and ``gammaln`` behind one
check: a zero, negative or NaN argument raises ``ValueError`` rather than
returning NaN or a value at a pole.  Absolute accuracy is 1e-12 or better
wherever the result itself is representable to that accuracy in float64;
for |result| above ~1e4 the unit of last place exceeds 1e-12 and accuracy
is a few ulp instead (``tests/test_specfun.py`` checks both against
mpmath).

Both are +inf at +inf.  Scalar inputs return a ``float``; array inputs
return an ``ndarray`` of the same shape, the only array an evaluation of a
float array allocates.
"""

from __future__ import annotations

import numpy as np
from scipy import special


def _validated(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(arr > 0.0):
        raise ValueError(f"{name} is defined for strictly positive arguments only")
    return arr


def _scalar_or_array(x, out):
    """``out`` as a ``float`` when ``x`` is a scalar, else as it is."""
    if np.ndim(x) == 0:
        return float(out)
    return out


def digamma(x):
    """psi(x) = d/dx log Gamma(x) for x > 0."""
    return _scalar_or_array(x, special.digamma(_validated(x, "digamma")))


def log_gamma(x):
    """log Gamma(x) for x > 0, without forming Gamma(x) itself."""
    return _scalar_or_array(x, special.gammaln(_validated(x, "log_gamma")))
