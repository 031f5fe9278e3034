"""The experimental variants (paper Table IV).

=================  =====================  ======  =============
Variant            Scheduler Mode         Tiling  Vectorization
=================  =====================  ======  =============
host.sync          MPE-only               No      No
acc.sync           synchronous MPE+CPE    Yes     No
acc_simd.sync      synchronous MPE+CPE    Yes     Yes
acc.async          asynchronous MPE+CPE   Yes     No
acc_simd.async     asynchronous MPE+CPE   Yes     Yes
=================  =====================  ======  =============
"""

from __future__ import annotations

import dataclasses

from repro.core.costs import SunwayCostModel


@dataclasses.dataclass(frozen=True)
class Variant:
    """One experimental configuration."""

    name: str
    mode: str  # scheduler mode: "mpe_only" | "sync" | "async"
    tiling: bool
    simd: bool
    #: Ready-queue ordering (see :mod:`repro.core.schedulers.selection`);
    #: the paper's runs use plain queue order.
    select_policy: str = "fifo"

    @property
    def scheduler_label(self) -> str:
        """Table IV's "Scheduler Mode" column text."""
        return {
            "mpe_only": "MPE-only",
            "sync": "synchronous MPE+CPE",
            "async": "asynchronous MPE+CPE",
        }[self.mode]

    def cost_model(self) -> SunwayCostModel:
        """The calibrated cost model for this variant."""
        return SunwayCostModel(simd=self.simd)


#: Table IV, by name.
VARIANTS: dict[str, Variant] = {
    v.name: v
    for v in (
        Variant("host.sync", mode="mpe_only", tiling=False, simd=False),
        Variant("acc.sync", mode="sync", tiling=True, simd=False),
        Variant("acc_simd.sync", mode="sync", tiling=True, simd=True),
        Variant("acc.async", mode="async", tiling=True, simd=False),
        Variant("acc_simd.async", mode="async", tiling=True, simd=True),
    )
}

#: The four accelerated variants of the strong-scaling study (Fig. 5).
ACCELERATED = ("acc.sync", "acc.async", "acc_simd.sync", "acc_simd.async")


def variant_by_name(name: str) -> Variant:
    """Look up a Table IV variant."""
    try:
        return VARIANTS[name]
    except KeyError:
        raise KeyError(f"unknown variant {name!r}; have {sorted(VARIANTS)}") from None
