"""Cloud substrate: storage services, pricing, VM shapes, providers.

This subpackage encodes the paper's Table 1 (Google Cloud storage
catalog, Jan 2015), the Eq. 5/6 pricing model, and the capacity→
performance scaling behaviour of network-attached block volumes.
"""

from typing import Callable, Dict

from ..errors import CatalogError
from .aws import C3_4XLARGE, aws_2015
from .azure import STANDARD_D14, azure_2015
from .pricing import PriceBook, google_cloud_2015_pricebook
from .provider import CloudProvider, google_cloud_2015
from .scaling import ScalingCurve, flat_curve
from .storage import GOOGLE_CLOUD_2015_SERVICES, StorageService, Tier
from .vm import (
    CHARACTERIZATION_CLUSTER,
    EVALUATION_CLUSTER,
    N1_STANDARD_4,
    N1_STANDARD_16,
    ClusterSpec,
    VMType,
)

#: Provider catalogs addressable by name (CLI ``--provider``, service
#: requests).
PROVIDER_FACTORIES: Dict[str, Callable[[], CloudProvider]] = {
    "google": google_cloud_2015,
    "aws": aws_2015,
    "azure": azure_2015,
}

_RESOLVED: Dict[str, CloudProvider] = {}


def resolve_provider(name: str) -> CloudProvider:
    """The named catalog, raising :class:`CatalogError` (not
    ``KeyError``) for unknown names.  Each name is built once per
    process and every call returns that one immutable instance."""
    if name not in _RESOLVED:
        if name not in PROVIDER_FACTORIES:
            raise CatalogError(
                f"unknown provider {name!r}; known: {sorted(PROVIDER_FACTORIES)}"
            )
        _RESOLVED.setdefault(name, PROVIDER_FACTORIES[name]())
    return _RESOLVED[name]


__all__ = [
    "CloudProvider",
    "google_cloud_2015",
    "PROVIDER_FACTORIES",
    "resolve_provider",
    "aws_2015",
    "C3_4XLARGE",
    "azure_2015",
    "STANDARD_D14",
    "PriceBook",
    "google_cloud_2015_pricebook",
    "ScalingCurve",
    "flat_curve",
    "StorageService",
    "Tier",
    "GOOGLE_CLOUD_2015_SERVICES",
    "VMType",
    "ClusterSpec",
    "N1_STANDARD_4",
    "N1_STANDARD_16",
    "CHARACTERIZATION_CLUSTER",
    "EVALUATION_CLUSTER",
]
