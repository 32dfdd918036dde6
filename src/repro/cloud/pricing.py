"""Pricing model (paper Eq. 5 and Eq. 6).

The total deployment cost of a workload is

.. math::

    \\$_{total} = \\$_{vm} + \\$_{store}

* ``$vm = nvm * price_vm * T`` with ``T`` the workload makespan in
  **minutes** and ``price_vm`` in $/minute (Eq. 5).
* ``$store = sum_f capacity[f] * price_store[f] * ceil(T_hours)`` — each
  service bills its aggregate provisioned capacity per GB-hour, rounded
  up to whole hours (Eq. 6).

Prices are taken from the Jan-2015 Google Cloud price list that Table 1
cites; the VM rate is the n1-standard-16 on-demand rate of the period.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from ..units import (
    SECONDS_PER_MINUTE,
    monthly_to_hourly_price,
    seconds_to_hours_ceil,
)
from .storage import GOOGLE_CLOUD_2015_SERVICES, Tier

__all__ = ["PriceBook", "google_cloud_2015_pricebook"]


@dataclass(frozen=True)
class PriceBook:
    """Monetary rates for a provider.

    Attributes
    ----------
    vm_price_per_min:
        On-demand $/minute for the slave VM type (``pricevm`` in Table 3).
    storage_price_gb_hr:
        $/GB/hour for each storage service (``pricestore``), read-only.
    """

    vm_price_per_min: float
    storage_price_gb_hr: Mapping[Tier, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        rates = MappingProxyType(dict(self.storage_price_gb_hr))
        object.__setattr__(self, "storage_price_gb_hr", rates)

    def __reduce__(self):
        # A mappingproxy does not pickle; rebuild from a plain dict.
        return (type(self), (self.vm_price_per_min, dict(self.storage_price_gb_hr)))

    def vm_cost(self, n_vms: int, makespan_s: float) -> float:
        """Eq. 5: VM-hours bill for ``n_vms`` over ``makespan_s`` seconds."""
        if n_vms < 0:
            raise ValueError(f"negative VM count: {n_vms}")
        if makespan_s < 0:
            raise ValueError(f"negative makespan: {makespan_s}")
        minutes = makespan_s / SECONDS_PER_MINUTE
        return n_vms * self.vm_price_per_min * minutes

    def storage_cost(
        self, capacities_gb: Mapping[Tier, float], makespan_s: float
    ) -> float:
        """Eq. 6: per-service GB-hour bill, hours rounded up."""
        hours = seconds_to_hours_ceil(makespan_s)
        total = 0.0
        for tier, cap_gb in capacities_gb.items():
            if cap_gb < 0:
                raise ValueError(f"negative capacity for {tier}: {cap_gb}")
            total += cap_gb * self.storage_price_gb_hr[tier] * hours
        return total

    def storage_holding_cost(
        self, tier: Tier, capacity_gb: float, duration_s: float
    ) -> float:
        """GB-hour bill for holding data on ``tier`` for ``duration_s``.

        Used by the reuse-pattern analysis (§3.1.3, Fig. 3): data kept
        alive between re-accesses is billed for the whole lifetime.
        """
        hours = seconds_to_hours_ceil(duration_s)
        return capacity_gb * self.storage_price_gb_hr[tier] * hours


def google_cloud_2015_pricebook() -> PriceBook:
    """Jan-2015 Google Cloud rates used throughout the paper.

    n1-standard-16 on-demand was $0.8320/hour in us-central1 at the
    time, i.e. ~$0.013867/minute.  Storage rates derive from Table 1's
    $/GB/month at 730 h/month.
    """
    storage = {
        tier: monthly_to_hourly_price(svc.price_gb_month)
        for tier, svc in GOOGLE_CLOUD_2015_SERVICES.items()
    }
    return PriceBook(
        vm_price_per_min=0.8320 / 60.0,
        storage_price_gb_hr=storage,
    )
