"""Patch-to-rank assignment.

"Distribute tasks among different computing nodes (or processes) with the
help from the load balancer" (paper Sec. V-C step 2).  Uintah's production
load balancer orders patches along a space-filling curve and cuts the
curve into contiguous chunks of equal cost; the paper's patches are
uniform, so the chunks here hold equal counts.  The assignment is
deterministic.
"""

from __future__ import annotations

from repro.core.grid import Grid


def _morton_key(index: tuple[int, int, int]) -> int:
    """Interleave the bits of a 3-D patch index (Morton / Z-order)."""
    key = 0
    ix, iy, iz = index
    for bit in range(21):  # 2^21 patches per axis is beyond any layout here
        key |= ((ix >> bit) & 1) << (3 * bit)
        key |= ((iy >> bit) & 1) << (3 * bit + 1)
        key |= ((iz >> bit) & 1) << (3 * bit + 2)
    return key


class LoadBalancer:
    """Assigns every patch of a grid to a rank.

    Contiguous chunks along a Morton space-filling curve — the closest
    analogue of Uintah's production assignment, keeping each rank's
    patches spatially compact (fewer remote faces).
    """

    def assign(self, grid: Grid, num_ranks: int) -> dict[int, int]:
        """Return ``{patch_id: rank}`` covering every patch of ``grid``,
        cutting the curve into contiguous chunks of equal count."""
        if num_ranks < 1:
            raise ValueError(f"need >= 1 rank, got {num_ranks}")
        grid.check_ranks(num_ranks)
        order = sorted(grid.patches(), key=lambda p: _morton_key(p.index))
        n = len(order)
        return {
            patch.patch_id: pos * num_ranks // n
            for pos, patch in enumerate(order)
        }
