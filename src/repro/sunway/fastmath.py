"""Software exponentials: IEEE-conforming vs fast (non-conforming).

SW26010 has no hardware exponential instruction; ``exp`` is emulated in
software by one of two libraries (paper Sec. VI-C): an IEEE-754-conforming
one that "proved to be slow" and a fast one that "introduces some
inaccuracy [but] does not greatly impact this benchmark".  The reproduction
implements both as real functions with genuinely different accuracy, so the
accuracy claim is testable, and assigns each a flop cost used by the
performance counters and the cost model.

``fast_exp`` uses range reduction (``exp(x) = 2**k * exp(r)`` with
``|r| <= ln(2)/2``) and a degree-4 Taylor polynomial, giving a relative
error below 1e-4 (measured ~6e-5) — visibly worse than IEEE ``exp``
(<= 0.5 ulp) but far below the discretization error of the model problem.
"""

from __future__ import annotations

import numpy as np

#: Flop cost charged per exponential by the performance counters.  The
#: paper measures ~215 flops/cell from 6 exponentials => ~36 flops each
#: for the fast library it benchmarked with.
FAST_EXP_FLOPS = 36
#: The IEEE-conforming library is substantially more expensive (full
#: range reduction, higher-degree polynomial, exactness fix-ups).
IEEE_EXP_FLOPS = 88

#: Relative slowdown of the IEEE library vs the fast one, used by the cost
#: model when a variant opts into conforming math.
IEEE_EXP_SLOWDOWN = IEEE_EXP_FLOPS / FAST_EXP_FLOPS

_LN2 = float(np.log(2.0))
_INV_LN2 = 1.0 / _LN2
# libm's float64 saturation bounds: exp(x) is inf above log(DBL_MAX) and
# rounds to 0 at and below log(2**-1075) (half the smallest subnormal).
_EXP_OVERFLOW = float(np.log(np.finfo(np.float64).max))  # 709.782712893384
_EXP_UNDERFLOW = -1075 * _LN2  # -745.1332191019412


def ieee_exp(x):
    """IEEE-754-conforming exponential (the slow Sunway library).

    Delegates to the platform libm via NumPy, which is correctly rounded
    to well under 1 ulp — the behavioural stand-in for the conforming
    library.
    """
    return np.exp(x)


def fast_exp(x):
    """Fast, non-IEEE-conforming exponential (the fast Sunway library).

    Accepts scalars or arrays; returns the same shape.  Relative error is
    bounded by 1e-4 on the normal range (tested; ~6e-5 worst case),
    matching the paper's "some inaccuracy" trade-off.  Out-of-range
    arguments saturate to 0 / inf at libm's bounds (overflow above
    ``log(DBL_MAX)``, zero at and below ``-1075 ln 2``); arguments just
    inside them give large finite values or subnormals as libm does (within
    the approximation error of the top bound the result may round to inf),
    and NaN propagates without a warning.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    clipped = np.clip(x_arr, _EXP_UNDERFLOW, _EXP_OVERFLOW)
    k = np.rint(clipped * _INV_LN2)
    r = clipped - k * _LN2
    # Degree-4 Taylor on |r| <= ln(2)/2: max relative error ~ r^5/5! ~ 4e-5.
    p = 1.0 + r * (1.0 + r * (0.5 + r * (1.0 / 6.0 + r * (1.0 / 24.0))))
    # A NaN argument carries through p; its k only has to be a valid int.
    k_int = np.where(np.isnan(k), 0.0, k).astype(np.int64)
    with np.errstate(over="ignore", under="ignore"):
        out = np.ldexp(p, k_int)
    # Saturate exactly where libm would.
    out = np.where(x_arr > _EXP_OVERFLOW, np.inf, out)
    out = np.where(x_arr <= _EXP_UNDERFLOW, 0.0, out)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def exp_function(fast: bool):
    """Select the exponential implementation for a kernel variant."""
    return fast_exp if fast else ieee_exp


def exp_flops(fast: bool) -> int:
    """Flop cost per exponential for the chosen library."""
    return FAST_EXP_FLOPS if fast else IEEE_EXP_FLOPS
