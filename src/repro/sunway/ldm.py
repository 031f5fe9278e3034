"""The per-CPE Local Data Memory (LDM) as a capacity-checked allocator.

SW26010 CPEs have no data cache; they own a 64 KB scratchpad the kernel
must manage explicitly.  The paper's tile-size choice (Sec. VI-A: 16x16x8
tiles, 41.3 KB working set for the two Burgers fields) exists precisely
because of this capacity limit, so the reproduction enforces it: any tile
whose working set does not fit raises :class:`LDMAllocationError`, and the
tiling module (``repro.core.tiling``) sizes tiles against this allocator.

The allocator is a simple bump/free-list model — real LDM allocation on
Sunway is also a linear carve-up done by the kernel author — with exact
byte accounting and high-water-mark tracking for reporting.
"""

from __future__ import annotations

import dataclasses

from repro.sunway.config import SW26010

#: SW26010 scratchpad size (:attr:`CoreGroupConfig.ldm_bytes`): the
#: budget every tile plan is checked against (also the default
#: :class:`LDM` capacity, and the ceiling the schedule validator
#: enforces on offloaded kernels).
DEFAULT_LDM_BYTES = SW26010.ldm_bytes


class LDMAllocationError(MemoryError):
    """Raised when a requested allocation exceeds the remaining LDM."""


@dataclasses.dataclass
class LDMBlock:
    """A live allocation inside an :class:`LDM`."""

    name: str
    nbytes: int
    offset: int


class LDM:
    """A single CPE's scratchpad memory.

    Parameters
    ----------
    capacity:
        Usable bytes (64 KB on SW26010; a few hundred bytes are consumed
        by the athread runtime on real hardware — callers can model that
        by passing a reduced capacity).
    """

    def __init__(self, capacity: int = DEFAULT_LDM_BYTES):
        if capacity <= 0:
            raise ValueError(f"LDM capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._blocks: dict[str, LDMBlock] = {}
        self._used = 0

    # -- accounting ----------------------------------------------------------
    @property
    def used(self) -> int:
        """Bytes currently allocated."""
        return self._used

    @property
    def free(self) -> int:
        """Bytes currently available."""
        return self.capacity - self._used

    def blocks(self) -> list[LDMBlock]:
        """Live allocations, in allocation order."""
        return sorted(self._blocks.values(), key=lambda b: b.offset)

    # -- allocation ------------------------------------------------------------
    def alloc(self, name: str, nbytes: int) -> LDMBlock:
        """Allocate ``nbytes`` under ``name``.

        Raises
        ------
        LDMAllocationError
            If the allocation would exceed capacity.
        ValueError
            If ``name`` is already allocated or ``nbytes`` is not positive.
        """
        nbytes = int(nbytes)
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        if name in self._blocks:
            raise ValueError(f"LDM block {name!r} already allocated")
        if self._used + nbytes > self.capacity:
            raise LDMAllocationError(
                f"LDM overflow allocating {name!r}: need {nbytes} B, "
                f"free {self.free} B of {self.capacity} B"
            )
        block = LDMBlock(name=name, nbytes=nbytes, offset=self._used)
        self._blocks[name] = block
        self._used += nbytes
        return block

    def alloc_array(self, name: str, shape: tuple[int, ...], itemsize: int = 8) -> LDMBlock:
        """Allocate space for a dense array of ``shape`` (default f64)."""
        n = itemsize
        for dim in shape:
            if dim <= 0:
                raise ValueError(f"array shape must be positive, got {shape}")
            n *= dim
        return self.alloc(name, n)

    def fits(self, nbytes: int) -> bool:
        """Whether ``nbytes`` more would fit right now."""
        return self._used + int(nbytes) <= self.capacity

    def release(self, name: str) -> None:
        """Free the block called ``name``."""
        try:
            block = self._blocks.pop(name)
        except KeyError:
            raise KeyError(f"no LDM block named {name!r}") from None
        self._used -= block.nbytes

    def reset(self) -> None:
        """Free everything (kernel epilogue); keeps the high-water mark."""
        self._blocks.clear()
        self._used = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LDM {self._used}/{self.capacity} B in {len(self._blocks)} blocks>"
