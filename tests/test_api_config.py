"""GCConfig: validation, coercion, dict round-trips, overrides."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro.api import GCConfig
from repro.cache.entry import QueryType
from repro.cache.models import CacheModel


class TestDefaults:
    def test_match_paper_settings(self):
        config = GCConfig()
        assert config.model is CacheModel.CON
        assert config.query_type is QueryType.SUBGRAPH
        assert config.cache_capacity == 100
        assert config.window_capacity == 20
        assert config.policy == "hd"
        assert config.matcher == "vf2+"
        assert config.caching_enabled
        assert config.retro_budget == 0

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            GCConfig().cache_capacity = 5


class TestCoercion:
    @pytest.mark.parametrize("raw", ["CON", "con", CacheModel.CON])
    def test_model(self, raw):
        assert GCConfig(model=raw).model is CacheModel.CON

    @pytest.mark.parametrize("raw",
                             ["SUPERGRAPH", "supergraph",
                              QueryType.SUPERGRAPH])
    def test_query_type(self, raw):
        assert GCConfig(query_type=raw).query_type is QueryType.SUPERGRAPH

    def test_matcher_and_policy_lowercased(self):
        config = GCConfig(matcher="VF2+", policy="PIN")
        assert config.matcher == "vf2+"
        assert config.policy == "pin"


class TestValidation:
    def test_unknown_model(self):
        with pytest.raises(ValueError, match="CON"):
            GCConfig(model="sometimes")

    def test_unknown_query_type(self):
        with pytest.raises(ValueError, match="supergraph"):
            GCConfig(query_type="triangle")

    def test_unknown_policy_lists_valid_ones(self):
        with pytest.raises(ValueError) as exc:
            GCConfig(policy="mru")
        message = str(exc.value)
        for name in ("hd", "pin", "pinc", "lru", "lfu"):
            assert name in message

    def test_unknown_matcher_lists_valid_ones(self):
        with pytest.raises(ValueError, match="vf2"):
            GCConfig(matcher="boost")

    def test_unknown_internal_verifier(self):
        with pytest.raises(ValueError, match="internal verifier"):
            GCConfig(internal_verifier="boost")

    @pytest.mark.parametrize("budget", [-1, -100])
    def test_negative_retro_budget(self, budget):
        with pytest.raises(ValueError, match="retro_budget"):
            GCConfig(retro_budget=budget)

    @pytest.mark.parametrize("field", ["cache_capacity", "window_capacity"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_non_positive_capacities(self, field, value):
        with pytest.raises(ValueError, match=field):
            GCConfig(**{field: value})

    @pytest.mark.parametrize("field", ["cache_capacity", "window_capacity",
                                       "retro_budget"])
    @pytest.mark.parametrize("value", ["100", 2.5, True, None])
    def test_non_int_numerics_rejected_with_value_error(self, field, value):
        """JSON configs with stringified numbers must get the helpful
        ValueError, not a TypeError escaping the CLI's handler."""
        with pytest.raises(ValueError, match=field):
            GCConfig.from_dict({field: value})


class TestDerivation:
    def test_replace_revalidates(self):
        config = GCConfig()
        assert config.replace(cache_capacity=7).cache_capacity == 7
        with pytest.raises(ValueError, match="retro_budget"):
            config.replace(retro_budget=-1)

    def test_replace_rejects_unknown_fields(self):
        for unknown in ("cache_cap", "workers", "worker_backend"):
            with pytest.raises(ValueError, match="cache_capacity"):
                GCConfig().replace(**{unknown: 7})

    def test_round_trip(self):
        config = GCConfig(model="EVI", query_type="supergraph",
                          matcher="graphql", policy="pinc",
                          cache_capacity=3, window_capacity=2,
                          retro_budget=4, internal_verifier="ullmann")
        assert GCConfig.from_dict(config.to_dict()) == config

    def test_to_dict_is_plain(self):
        import json

        json.dumps(GCConfig().to_dict())  # must not raise

    def test_from_dict_rejects_unknown_keys(self):
        for unknown in ("capacity", "workers", "worker_backend"):
            with pytest.raises(ValueError, match="valid fields"):
                GCConfig.from_dict({unknown: 10})


def test_fidelity_doc_classifies_every_field():
    """``docs/config-fidelity.md`` has a table row for every field (or
    names it in the ``matcher`` paragraph), and no row for a field that
    does not exist."""
    text = (Path(__file__).resolve().parents[1] / "docs"
            / "config-fidelity.md").read_text(encoding="utf-8")
    rows = set(re.findall(r"^\| `(\w+)` \|", text, flags=re.MULTILINE))
    (paragraph,) = re.findall(r"^`matcher` sits in between.*?\n\n", text,
                              flags=re.MULTILINE | re.DOTALL)
    fields = {f.name for f in dataclasses.fields(GCConfig)}
    assert rows <= fields
    assert fields - rows == {"matcher", "internal_verifier"}
    assert "`internal_verifier`" in paragraph
