"""GCConfig: validation, coercion, dict round-trips, overrides."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro.api import GCConfig
from repro.cache.entry import QueryType
from repro.cache.models import CacheModel
from repro.persist import FINGERPRINT_FIELDS
from repro.persist.snapshot import RETIRED_FINGERPRINT_FIELDS


class TestDefaults:
    def test_match_paper_settings(self):
        config = GCConfig()
        assert config.model is CacheModel.CON
        assert config.query_type is QueryType.SUBGRAPH
        assert config.cache_capacity == 100
        assert config.window_capacity == 20
        assert config.policy == "hd"
        assert config.matcher == "vf2+"
        assert len(dataclasses.fields(config)) == 8

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
        # ``ullmann`` is a test-suite oracle, not one of the paper's
        # three Method Ms: no config name selects it.
        for unknown in ("boost", "ullmann"):
            with pytest.raises(ValueError,
                               match=r"\['graphql', 'vf2', 'vf2\+'\]"):
                GCConfig(matcher=unknown)

    def test_unknown_lock_mode_lists_the_two_choices(self):
        with pytest.raises(ValueError, match=r"\['auto', 'rw'\]"):
            GCConfig(lock_mode="none")

    @pytest.mark.parametrize("field", ["cache_capacity", "window_capacity"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_non_positive_capacities(self, field, value):
        with pytest.raises(ValueError, match=field):
            GCConfig(**{field: value})

    @pytest.mark.parametrize("field", ["cache_capacity", "window_capacity"])
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
        with pytest.raises(ValueError, match="window_capacity"):
            config.replace(window_capacity=0)

    def test_replace_rejects_unknown_fields(self):
        for unknown in ("cache_cap", "workers", "worker_backend",
                        "snapshot_path", "autosave_every"):
            with pytest.raises(ValueError, match="cache_capacity"):
                GCConfig().replace(**{unknown: 7})

    def test_round_trip(self):
        config = GCConfig(model="EVI", query_type="supergraph",
                          matcher="graphql", policy="pinc",
                          cache_capacity=3, window_capacity=2,
                          lock_mode="rw", max_sessions=3)
        assert GCConfig.from_dict(config.to_dict()) == config

    def test_to_dict_is_plain(self):
        import json

        json.dumps(GCConfig().to_dict())  # must not raise

    def test_from_dict_rejects_unknown_keys(self):
        for unknown in ("capacity", "workers", "worker_backend",
                        "snapshot_path", "autosave_every",
                        *RETIRED_FINGERPRINT_FIELDS):
            with pytest.raises(ValueError, match="valid fields"):
                GCConfig.from_dict({unknown: 10})


def fidelity_doc() -> tuple[str, dict[str, str], list[str], list[str]]:
    """``docs/config-fidelity.md``: its text, its sections by heading,
    and the field names of its two tables' rows."""
    text = (Path(__file__).resolve().parents[1] / "docs"
            / "config-fidelity.md").read_text(encoding="utf-8")
    sections = dict(re.findall(r"^## (.*?)\n(.*?)(?=^## |\Z)", text,
                               flags=re.MULTILINE | re.DOTALL))
    fidelity, performance = (
        re.findall(r"^\| `(\w+)` \|", sections[heading], flags=re.MULTILINE)
        for heading in ("Fields that affect reproduction fidelity",
                        "Pure performance and deployment fields "
                        "(never change any result)"))
    return text, sections, fidelity, performance


def test_config_fields_are_the_fidelity_doc_rows():
    """Every ``GCConfig`` field has exactly one row in the two field
    tables of ``docs/config-fidelity.md`` and every row is a field, so
    a knob cannot come (back) undocumented."""
    _, _, fidelity, performance = fidelity_doc()
    rows = fidelity + performance
    assert len(rows) == len(set(rows)), rows
    assert sorted(rows) == sorted(f.name for f in dataclasses.fields(GCConfig))


def test_fidelity_doc_classifies_every_field():
    """What a snapshot fingerprints is classified as fidelity, and a
    retired field is mentioned under the "Retired" heading only."""
    text, sections, fidelity, _ = fidelity_doc()
    assert set(FINGERPRINT_FIELDS) <= set(fidelity)
    retired = sections["Retired: retrospective revalidation"]
    for name in RETIRED_FINGERPRINT_FIELDS:
        assert 0 < retired.count(name) == text.count(name), name
