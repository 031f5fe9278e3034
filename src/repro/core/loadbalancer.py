"""Patch-to-rank assignment.

"Distribute tasks among different computing nodes (or processes) with the
help from the load balancer" (paper Sec. V-C step 2).  Uintah's production
load balancer orders patches along a space-filling curve and cuts the
curve into contiguous chunks of equal cost; the paper's patches are
uniform, so every strategy here cuts equal-count chunks.  Three
strategies are provided; all are deterministic.
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

    Strategies
    ----------
    ``"block"``
        Contiguous chunks of the patch-id ordering (x-major).
    ``"roundrobin"``
        Patch ``i`` goes to rank ``i % num_ranks``.
    ``"sfc"``
        Contiguous chunks along a Morton space-filling curve — the
        closest analogue of Uintah's production assignment, keeping each
        rank's patches spatially compact (fewer remote faces).
    """

    STRATEGIES = ("block", "roundrobin", "sfc")

    def __init__(self, strategy: str = "sfc"):
        if strategy not in self.STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; pick from {self.STRATEGIES}")
        self.strategy = strategy

    def assign(self, grid: Grid, num_ranks: int) -> dict[int, int]:
        """Return ``{patch_id: rank}`` covering every patch of ``grid``.

        The block and SFC strategies cut their patch ordering into
        contiguous chunks of equal count.
        """
        if num_ranks < 1:
            raise ValueError(f"need >= 1 rank, got {num_ranks}")
        grid.check_ranks(num_ranks)
        patches = grid.patches()
        if self.strategy == "roundrobin":
            return {p.patch_id: i % num_ranks for i, p in enumerate(patches)}
        if self.strategy == "sfc":
            order = sorted(patches, key=lambda p: _morton_key(p.index))
        else:  # block
            order = patches

        assignment: dict[int, int] = {}
        n = len(order)
        for pos, patch in enumerate(order):
            # equal-count contiguous chunks along the curve
            assignment[patch.patch_id] = min(pos * num_ranks // n, num_ranks - 1)
        return assignment

    @staticmethod
    def load_counts(assignment: dict[int, int], num_ranks: int) -> list[int]:
        """Patches per rank (for balance assertions)."""
        counts = [0] * num_ranks
        for r in assignment.values():
            counts[r] += 1
        return counts
