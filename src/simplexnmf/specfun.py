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

A large C-contiguous array (the K x D ``beta`` of a variational bound) is
evaluated in contiguous ranges of its flat view, on the CPUs of the
process's affinity mask, by the splitter of the reconstruction
(``types._in_ranges``), each range writing its slice of the one result
array.  The functions are elementwise, so the result is bit-identical on
any number of CPUs; any other layout, a 0-d array and a scalar are
evaluated by one call of the SciPy function.  There is no option for it:
``taskset`` limits the CPUs.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from . import types

# one evaluation in entries x topics of the reconstruction, the unit of
# types._RANGE_WORK.  On a 2-vCPU VM digamma and gammaln took 13 to 24 ns per
# evaluation (a product 1.2 to 2 ns), and two ranges against one took 0.63 to
# 0.80 of the time from 100000 cells up, 0.75 to 1.17 at 50000; at 5 a pass
# splits from 2 x 2**18 / 5 = 104858 cells, so a 50 x 10000 beta splits in two
# and 10000 per-document sums stay in one range
_EVAL_WORK = 5


def _validated(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    # min() propagates NaN, which then fails the test, with no boolean temporary
    if arr.size and not arr.min() > 0.0:
        raise ValueError(f"{name} is defined for strictly positive arguments only")
    return arr


def _evaluated(ufunc, x, name: str):
    """``ufunc`` over the validated ``x``: a ``float`` for a scalar, else an array of its shape."""
    arr = _validated(x, name)
    if arr.ndim == 0:
        return float(ufunc(arr))
    if not arr.flags.c_contiguous:
        return ufunc(arr)
    out = np.empty(arr.shape)
    flat, flat_out = arr.reshape(-1), out.reshape(-1)

    def run_range(a: int, b: int) -> None:
        ufunc(flat[a:b], out=flat_out[a:b])

    types._in_ranges(arr.size, arr.size * _EVAL_WORK, run_range)
    return out


def digamma(x):
    """psi(x) = d/dx log Gamma(x) for x > 0."""
    return _evaluated(special.digamma, x, "digamma")


def log_gamma(x):
    """log Gamma(x) for x > 0, without forming Gamma(x) itself."""
    return _evaluated(special.gammaln, x, "log_gamma")
