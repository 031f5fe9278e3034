"""The 3D model Burgers problem (paper Sec. III and VI).

A linear advection-diffusion equation whose coefficients are built from a
1D Burgers solution ``phi(x, t)``, giving the manufactured exact solution
``u(x,y,z,t) = phi(x,t) phi(y,t) phi(z,t)``:

.. math::

    u_t = -\\phi(x,t) u_x - \\phi(y,t) u_y - \\phi(z,t) u_z + \\nu \\Delta u

Discretized with backward differences for advection, second-order central
differences for diffusion, forward Euler in time, on cell centres, with
one ghost layer (Algorithm 1 of the paper).

Modules:

* :mod:`~repro.burgers.phi` — phi and its numerically stable evaluation
  (the divide-by-largest-exponential trick of Sec. III);
* :mod:`~repro.burgers.exact` — the 3-D exact solution, initial and
  boundary conditions, error norms;
* :mod:`~repro.burgers.kernel` — the kernel: a literal per-cell
  transliteration of Algorithm 1 and the production NumPy version;
* :mod:`~repro.burgers.kernel_simd` — the tile-based vectorized kernel
  written against the SIMD intrinsics emulation (Algorithm 2);
* :mod:`~repro.burgers.flops` — the analytic flop model behind Table I;
* :mod:`~repro.burgers.component` — the Uintah-style simulation
  component wiring tasks, labels and the controller together.
"""

from repro.burgers.phi import phi, phi_naive
from repro.burgers.exact import exact_solution, exact_on_region, solution_errors
from repro.burgers.component import BurgersProblem
from repro.burgers.flops import BURGERS_KERNEL_COST

__all__ = [
    "phi",
    "phi_naive",
    "exact_solution",
    "exact_on_region",
    "solution_errors",
    "BurgersProblem",
    "BURGERS_KERNEL_COST",
]
