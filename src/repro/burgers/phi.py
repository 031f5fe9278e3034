"""The 1D Burgers solution phi(x, t) and its stable evaluation.

Paper Sec. III:

.. math::

    \\phi(x,t) = \\frac{0.1 e^a + 0.5 e^b + e^c}{e^a + e^b + e^c}

with ``a = -0.05 (x - 0.5 + 4.95 t) / nu``,
``b = -0.25 (x - 0.5 + 0.75 t) / nu``,
``c = -0.5 (x - 0.375) / nu`` and viscosity ``nu = 0.01``.

The exponents reach magnitudes of thousands for x away from the travelling
fronts, so the textbook form overflows float64.  "Dividing the numerator
and denominator ... by the largest value of e^a, e^b, e^c reduces the
number of exponentials needed by one" — and, crucially, makes every
remaining exponent non-positive, so nothing overflows.  :func:`phi` is
that stable form; :func:`phi_naive` is the textbook form kept for tests.

phi depends only on one axis coordinate and ``t``, so every caller on a
grid (kernel coefficients, initial and boundary conditions) reads it from
one table per (grid, axis, t) through :func:`phi_cells`.
"""

from __future__ import annotations

import functools
import typing as _t

import numpy as np

from repro.sunway.fastmath import ieee_exp

if _t.TYPE_CHECKING:
    from repro.core.grid import Grid

#: Default viscosity of the model problem.
NU = 0.01


def _exponents(x, t: float, nu: float):
    x = np.asarray(x, dtype=np.float64)
    a = -0.05 * (x - 0.5 + 4.95 * t) / nu
    b = -0.25 * (x - 0.5 + 0.75 * t) / nu
    c = -0.5 * (x - 0.375) / nu
    return a, b, c


def phi_naive(x, t: float = 0.0, nu: float = NU, exp=ieee_exp):
    """Textbook phi — three exponentials, overflows away from the fronts.

    Only safe close to x ~ 0.4-0.6 at small t; exists so tests can verify
    the stable form agrees wherever this one is finite.
    """
    a, b, c = _exponents(x, t, nu)
    ea, eb, ec = exp(a), exp(b), exp(c)
    return (0.1 * ea + 0.5 * eb + ec) / (ea + eb + ec)


def phi(x, t: float = 0.0, nu: float = NU, exp=ieee_exp):
    """Numerically stable phi — two exponentials per point.

    Subtracts the largest exponent before exponentiating: the largest
    term becomes exactly 1 (no ``exp`` call needed for it on hardware;
    here the counting model charges 2 exponentials per call) and the
    others are ``exp`` of non-positive values.

    ``exp`` selects the exponential library (IEEE or fast), mirroring the
    paper's Sec. VI-C choice.
    """
    a, b, c = _exponents(x, t, nu)
    m = np.maximum(np.maximum(a, b), c)
    ea, eb, ec = exp(a - m), exp(b - m), exp(c - m)
    return (0.1 * ea + 0.5 * eb + ec) / (ea + eb + ec)


@functools.lru_cache(maxsize=16)
def _phi_table(grid: Grid, axis: int, lo: int, hi: int, t: float, nu: float, exp) -> np.ndarray:
    """phi at the cell centres ``[lo, hi)`` of one axis, read-only.

    The bound covers a few steps of every axis at once: ranks of the
    asynchronous scheduler work on different timesteps concurrently.
    """
    d = grid.spacing[axis]
    x = grid.domain_low[axis] + (np.arange(lo, hi, dtype=np.float64) + 0.5) * d
    table = np.asarray(phi(x, t, nu, exp))
    table.flags.writeable = False
    return table


def phi_cells(
    grid: Grid, axis: int, lo: int, hi: int, t: float, nu: float = NU, exp=ieee_exp
) -> np.ndarray:
    """phi at the cell centres ``[lo, hi)`` along ``axis``, as a read-only view.

    The view slices one memoized table per (grid, axis, t, nu, exp) that
    covers the axis's cells plus one ghost layer; a range reaching
    further widens the table's key.  Every element is computed
    independently, so a slice is bitwise equal to evaluating :func:`phi`
    on just those centres.
    """
    base_lo = min(lo, -1)
    base_hi = max(hi, grid.extent[axis] + 1)
    table = _phi_table(grid, axis, base_lo, base_hi, t, nu, exp)
    return table[lo - base_lo : hi - base_lo]
