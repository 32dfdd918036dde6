"""A cloud provider = storage catalog + price book.

:class:`CloudProvider` is the single object the planner, simulator and
experiments consume; :func:`google_cloud_2015` builds the provider the
paper evaluates on.  Alternate catalogs (AWS-style striped volumes,
hypothetical price points for sensitivity studies) can be expressed by
constructing a :class:`CloudProvider` with different services/prices —
nothing downstream hard-codes Google numbers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

from ..errors import CatalogError
from .pricing import PriceBook, google_cloud_2015_pricebook
from .storage import GOOGLE_CLOUD_2015_SERVICES, StorageService, Tier
from .vm import ClusterSpec, VMType, N1_STANDARD_16

__all__ = ["CloudProvider", "google_cloud_2015"]


@dataclass(frozen=True)
class CloudProvider:
    """Everything the planner needs to know about one cloud.

    Immutable: the mappings are read-only, so one instance per catalog
    is shared process-wide (:func:`repro.cloud.resolve_provider`).

    Attributes
    ----------
    name:
        Human-readable provider id.
    services:
        Storage catalog keyed by :class:`Tier` (read-only).
    prices:
        :class:`PriceBook` with VM and storage rates.
    default_vm:
        Slave VM type for analytics clusters.
    """

    name: str
    services: Mapping[Tier, StorageService]
    prices: PriceBook
    default_vm: VMType = N1_STANDARD_16

    def __post_init__(self) -> None:
        object.__setattr__(self, "services", MappingProxyType(dict(self.services)))

    def __reduce__(self):
        # A mappingproxy does not pickle; rebuild from a plain dict.
        return (type(self), (self.name, dict(self.services), self.prices, self.default_vm))

    def __hash__(self) -> int:
        # Equal providers share a name; the mappings are unhashable.
        return hash(self.name)

    @cached_property
    def digest(self) -> str:
        """SHA-256 of the catalog fields the simulator can observe,
        computed once per object.

        Prices, IOPS curves and the provider's name are deliberately
        excluded — neither the simulator nor the profiler reads them,
        so e.g. a re-priced catalog keeps its cached simulations and
        its profiled model matrix.
        """
        payload = {
            tier.value: {
                **{k: v for k, v in vars(svc).items() if k not in ("iops", "price_gb_month")},
                "throughput": (svc.throughput.points, svc.throughput.cap),
            }
            for tier, svc in self.services.items()
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
        return hashlib.sha256(text.encode()).hexdigest()

    def cluster(self, n_vms: int) -> ClusterSpec:
        """An ``n_vms``-VM analytics cluster of this cloud's default VM."""
        return ClusterSpec(n_vms=n_vms, vm=self.default_vm)

    def service(self, tier: Tier) -> StorageService:
        """Look up a service; raise :class:`CatalogError` if absent."""
        try:
            return self.services[tier]
        except KeyError:
            raise CatalogError(
                f"provider {self.name!r} has no service {tier!r}; "
                f"available: {sorted(t.value for t in self.services)}"
            ) from None

    @property
    def tiers(self) -> Iterable[Tier]:
        """All tiers this provider offers (``F`` in Table 3)."""
        return tuple(self.services.keys())

    def persistent_tiers(self) -> Iterable[Tier]:
        """Tiers that survive VM termination."""
        return tuple(t for t, s in self.services.items() if s.persistent)

    def storage_price_gb_hr(self, tier: Tier) -> float:
        """$/GB/hour for a tier (validates the tier exists)."""
        self.service(tier)
        return self.prices.storage_price_gb_hr[tier]


def google_cloud_2015() -> CloudProvider:
    """The provider instance used throughout the paper (Table 1 verbatim)."""
    return CloudProvider(
        name="google-cloud-2015",
        services=GOOGLE_CLOUD_2015_SERVICES,
        prices=google_cloud_2015_pricebook(),
        default_vm=N1_STANDARD_16,
    )
