"""Profiled performance model data (``M-hat`` in Table 3).

The paper's estimator consumes, for every (application, storage
service) pair, the effective per-task bandwidth in each execution phase
(map / shuffle / reduce).  Because network-attached volumes scale with
capacity, the profile for those services is a *curve*: bandwidths
measured at several per-VM capacities, interpolated by the same cubic
Hermite spline the REG model uses (§4.2.1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Sequence, Tuple

from ..cloud.storage import Tier
from ..core.regression import CapacitySpline
from ..errors import CatalogError

__all__ = [
    "PhaseBandwidths",
    "CapacityProfile",
    "ModelMatrix",
    "quantize_capacity",
]


def quantize_capacity(capacity_gb_per_vm: float) -> float:
    """Snap a per-VM capacity to the 1 GB profile-lookup grid.

    The single quantization used by both :meth:`ModelMatrix.bandwidths`
    and the incremental evaluator's estimate-memoization key.  Sharing
    one function is what makes the memoization *exact*: a job estimate
    depends on capacity only through the bandwidth lookup, and that
    lookup sees only the quantized value — so two capacities that
    quantize alike yield bit-identical estimates.
    """
    return round(capacity_gb_per_vm, 0)


@dataclass(frozen=True)
class PhaseBandwidths:
    """Effective per-task MB/s in each phase (``bw^f_map`` etc.).

    These are *effective* rates: storage share and compute serialized,
    as observed — exactly what profiling a real job yields.
    """

    map_mb_s: float
    shuffle_mb_s: float
    reduce_mb_s: float

    def __post_init__(self) -> None:
        for v in (self.map_mb_s, self.shuffle_mb_s, self.reduce_mb_s):
            if v <= 0:
                raise ValueError(f"non-positive phase bandwidth in {self}")


@dataclass(frozen=True)
class CapacityProfile:
    """Phase bandwidths as a function of per-VM provisioned capacity.

    For capacity-insensitive services (ephSSD, objStore) this holds a
    single anchor and evaluates constantly.  The three per-phase PCHIP
    splines are built once at construction — profile lookups sit in the
    solver's innermost loop.
    """

    anchors: Tuple[Tuple[float, PhaseBandwidths], ...]

    def __post_init__(self) -> None:
        if not self.anchors:
            raise ValueError("CapacityProfile needs at least one anchor")
        caps = [c for c, _ in self.anchors]
        if sorted(caps) != caps or len(set(caps)) != len(caps):
            raise ValueError("anchors must be sorted by strictly increasing capacity")
        if len(self.anchors) > 1:
            splines = tuple(
                CapacitySpline(
                    points=tuple((c, getattr(bw, attr)) for c, bw in self.anchors)
                )
                for attr in ("map_mb_s", "shuffle_mb_s", "reduce_mb_s")
            )
        else:
            splines = None
        object.__setattr__(self, "_splines", splines)

    def at(self, capacity_gb_per_vm: float) -> PhaseBandwidths:
        """Interpolated phase bandwidths at a per-VM capacity."""
        if len(self.anchors) == 1:
            return self.anchors[0][1]
        s_map, s_shuf, s_red = self._splines  # type: ignore[attr-defined]
        return PhaseBandwidths(
            map_mb_s=max(1e-9, s_map(capacity_gb_per_vm)),
            shuffle_mb_s=max(1e-9, s_shuf(capacity_gb_per_vm)),
            reduce_mb_s=max(1e-9, s_red(capacity_gb_per_vm)),
        )

    def at_array(self, caps) -> Tuple:
        """Raw per-phase bandwidths at many capacities (one spline pass).

        Returns ``(map, shuffle, reduce)`` float arrays, element-wise
        bit-identical to the scalar spline lookups inside :meth:`at`
        (before its ``max(1e-9, ...)`` clamp) — the incremental
        evaluator precomputes whole quantized-capacity tables from
        this instead of paying a scalar spline call per lookup.
        """
        import numpy as np

        caps = np.asarray(caps, dtype=float)
        if len(self.anchors) == 1:
            bw = self.anchors[0][1]
            return (
                np.full(caps.shape, bw.map_mb_s),
                np.full(caps.shape, bw.shuffle_mb_s),
                np.full(caps.shape, bw.reduce_mb_s),
            )
        s_map, s_shuf, s_red = self._splines  # type: ignore[attr-defined]
        return (s_map.evaluate(caps), s_shuf.evaluate(caps), s_red.evaluate(caps))

    @property
    def capacities(self) -> Tuple[float, ...]:
        """Anchor capacities (GB per VM)."""
        return tuple(c for c, _ in self.anchors)


class ModelMatrix:
    """All profiled (app, tier) capacity profiles.

    The offline profiler fills one of these; the estimator, solvers and
    experiments read it.  Lookups are by application *name* so the
    matrix can outlive app-profile object identity.  Tables built from
    the profiles (:func:`derived`) live on the matrix until the next
    :meth:`put`; pickling ships only the profiles.
    """

    def __init__(self) -> None:
        self._profiles: Dict[Tuple[str, Tier], CapacityProfile] = {}
        self._bw_cache: Dict[Tuple[str, Tier, float], PhaseBandwidths] = {}
        self._derived: Dict[Any, Any] = {}

    def __getstate__(self) -> Dict[str, Any]:
        # Worker payloads carry the profiles; a worker rebuilds tables.
        return {**self.__dict__, "_bw_cache": {}, "_derived": {}}

    def put(self, app_name: str, tier: Tier, profile: CapacityProfile) -> None:
        """Record the profile for one (app, tier)."""
        self._profiles[(app_name, tier)] = profile
        # New dicts: a lookup racing this put fills the dropped ones.
        self._bw_cache, self._derived = {}, {}

    def get(self, app_name: str, tier: Tier) -> CapacityProfile:
        """Fetch a profile; raise :class:`CatalogError` when unprofiled."""
        try:
            return self._profiles[(app_name, tier)]
        except KeyError:
            known = sorted({a for a, _ in self._profiles})
            raise CatalogError(
                f"no profile for app={app_name!r} on tier={tier}; "
                f"profiled apps: {known}"
            ) from None

    def has(self, app_name: str, tier: Tier) -> bool:
        """Whether a profile exists for the pair."""
        return (app_name, tier) in self._profiles

    def bandwidths(
        self, app_name: str, tier: Tier, capacity_gb_per_vm: float
    ) -> PhaseBandwidths:
        """Phase bandwidths for the pair at a per-VM capacity.

        Memoized on capacity rounded to 1 GB — solver neighbor moves
        re-query the same handful of capacities thousands of times.
        """
        key = (app_name, tier, quantize_capacity(capacity_gb_per_vm))
        cache = self._bw_cache
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = self.get(app_name, tier).at(key[2])
        return hit

    @property
    def pairs(self) -> Sequence[Tuple[str, Tier]]:
        """All profiled (app, tier) pairs."""
        return sorted(self._profiles.keys(), key=lambda p: (p[0], p[1].value))


def derived(build: Callable[..., Any]) -> Callable[..., Any]:
    """Memoize ``build(matrix, *args)`` on the matrix, per ``args``,
    until the matrix's next :meth:`~ModelMatrix.put`.

    A table is published only once built, so threads read it without a
    lock; two racing first builds publish equal tables.
    """

    @functools.wraps(build)
    def lookup(matrix: ModelMatrix, *args: Any) -> Any:
        tables = matrix._derived
        key = (build, args)
        hit = tables.get(key)
        if hit is None:
            hit = tables.setdefault(key, build(matrix, *args))
        return hit

    return lookup
