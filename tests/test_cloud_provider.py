"""Provider assembly and lookups."""

import pickle

import pytest

from repro.cloud import resolve_provider
from repro.cloud.provider import google_cloud_2015
from repro.cloud.storage import Tier
from repro.errors import CatalogError


class TestProvider:
    def test_all_four_tiers_offered(self, provider):
        assert set(provider.tiers) == set(Tier)

    def test_persistent_tiers_exclude_ephssd(self, provider):
        pers = set(provider.persistent_tiers())
        assert Tier.EPH_SSD not in pers
        assert pers == {Tier.PERS_SSD, Tier.PERS_HDD, Tier.OBJ_STORE}

    def test_service_lookup(self, provider):
        assert provider.service(Tier.PERS_SSD).tier is Tier.PERS_SSD

    def test_unknown_service_raises_catalog_error(self):
        prov = google_cloud_2015()
        trimmed = type(prov)(
            name="no-hdd",
            services={t: s for t, s in prov.services.items() if t is not Tier.PERS_HDD},
            prices=prov.prices,
        )
        with pytest.raises(CatalogError, match="no-hdd"):
            trimmed.service(Tier.PERS_HDD)

    def test_storage_price_lookup_validates_tier(self, provider):
        assert provider.storage_price_gb_hr(Tier.OBJ_STORE) == pytest.approx(
            0.026 / 730.0
        )

    def test_default_vm_is_n1_standard_16(self, provider):
        assert provider.default_vm.name == "n1-standard-16"

    def test_providers_are_value_objects(self):
        assert google_cloud_2015().name == google_cloud_2015().name

    def test_resolved_providers_are_shared_and_read_only(self):
        google = resolve_provider("google")
        assert resolve_provider("google") is google
        back = pickle.loads(pickle.dumps(google))
        assert back == google
        assert back.digest == google.digest
        for prov in (google, back):
            with pytest.raises(TypeError):
                prov.services[Tier.PERS_SSD] = prov.services[Tier.PERS_HDD]
            with pytest.raises(TypeError):
                prov.prices.storage_price_gb_hr[Tier.PERS_SSD] = 0.0
