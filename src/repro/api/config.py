"""Typed, validated configuration for the GC+ service layer.

:class:`GCConfig` gathers what ``CacheManager.__init__``, the service
and the bench harness need into one frozen dataclass that

* validates every field eagerly (capacities positive, policy/matcher
  names checked against the registries with the valid choices spelled
  out in the error message);
* coerces strings for enum-valued fields (``model="con"``,
  ``query_type="subgraph"``) so CLI flags and JSON configs wire straight
  through;
* round-trips through plain dicts (:meth:`GCConfig.from_dict` /
  :meth:`GCConfig.to_dict`) for CLI, bench and file-based wiring;
* supports functional overrides via :meth:`GCConfig.replace`.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from typing import Any, TypeVar

from repro.cache.entry import QueryType
from repro.cache.manager import (
    DEFAULT_CACHE_CAPACITY,
    DEFAULT_WINDOW_CAPACITY,
)
from repro.cache.models import CacheModel
from repro.cache.replacement import POLICIES
from repro.matching import MATCHERS

__all__ = ["GCConfig", "DEFAULT_CACHE_CAPACITY", "DEFAULT_WINDOW_CAPACITY",
           "LOCK_MODES"]

#: Valid ``GCConfig.lock_mode`` values (see the field's doc).
LOCK_MODES = frozenset({"auto", "rw"})

_E = TypeVar("_E", bound=Enum)


def _coerce(kind: type[_E], value: _E | str, what: str,
            choices: list[str]) -> _E:
    """``value`` as a member of ``kind``; a string may name one in any
    case."""
    if isinstance(value, kind):
        return value
    if isinstance(value, str):
        try:
            return kind[value.upper()]
        except KeyError:
            pass
    raise ValueError(f"unknown {what} {value!r}; choose from {choices}")


def _require_int(name: str, value: object) -> int:
    # bool is an int subclass but True/False capacities are always a bug.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(
            f"{name} must be an integer, got {value!r} "
            f"({type(value).__name__})"
        )
    return value


@dataclass(frozen=True)
class GCConfig:
    """Everything needed to stand up a :class:`~repro.api.GraphCacheService`.

    >>> GCConfig(model="con", policy="pin").model
    <CacheModel.CON: 'CON'>
    >>> GCConfig().replace(cache_capacity=10).cache_capacity
    10
    >>> GCConfig.from_dict({"policy": "hd"}).to_dict()["policy"]
    'hd'
    """

    model: CacheModel = CacheModel.CON
    query_type: QueryType = QueryType.SUBGRAPH
    matcher: str = "vf2+"
    cache_capacity: int = DEFAULT_CACHE_CAPACITY
    window_capacity: int = DEFAULT_WINDOW_CAPACITY
    policy: str = "hd"
    #: Service locking: ``"rw"`` (the service's one lock, held per
    #: request, from construction) or ``"auto"`` (the default: no lock
    #: until the first ``GraphCacheService.session()`` call installs it
    #: at that quiescent point).  A pure performance/serving knob:
    #: answers are identical in every mode.
    lock_mode: str = "auto"
    #: Maximum concurrently *open* sessions sharing one service's cache
    #: (the root service does not count).  Bounds the worker fan-out a
    #: serving deployment can put behind one cache.
    max_sessions: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", _coerce(
            CacheModel, self.model, "cache model",
            sorted(m.name for m in CacheModel)))
        object.__setattr__(self, "query_type", _coerce(
            QueryType, self.query_type, "query type",
            sorted(t.name.lower() for t in QueryType)))
        if not isinstance(self.matcher, str) or self.matcher.lower() not in MATCHERS:
            raise ValueError(
                f"unknown matcher {self.matcher!r}; choose from "
                f"{sorted(MATCHERS)}"
            )
        object.__setattr__(self, "matcher", self.matcher.lower())
        if not isinstance(self.policy, str) or self.policy.lower() not in POLICIES:
            raise ValueError(
                f"unknown replacement policy {self.policy!r}; choose from "
                f"{sorted(POLICIES)}"
            )
        object.__setattr__(self, "policy", self.policy.lower())
        if (not isinstance(self.lock_mode, str)
                or self.lock_mode.lower() not in LOCK_MODES):
            raise ValueError(
                f"unknown lock_mode {self.lock_mode!r}; choose from "
                f"{sorted(LOCK_MODES)}"
            )
        object.__setattr__(self, "lock_mode", self.lock_mode.lower())
        for name in ("cache_capacity", "window_capacity", "max_sessions"):
            _require_int(name, getattr(self, name))
        if self.cache_capacity <= 0:
            raise ValueError(
                f"cache_capacity must be positive, got {self.cache_capacity}"
            )
        if self.window_capacity <= 0:
            raise ValueError(
                f"window_capacity must be positive, got {self.window_capacity}"
            )
        if self.max_sessions < 1:
            raise ValueError(
                f"max_sessions must be >= 1, got {self.max_sessions}"
            )

    # ------------------------------------------------------------------
    # Derivation and (de)serialisation
    # ------------------------------------------------------------------
    def replace(self, **overrides: Any) -> "GCConfig":
        """A copy with ``overrides`` applied (re-validated)."""
        unknown = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ValueError(
                f"unknown config fields {sorted(unknown)}; valid fields are "
                f"{sorted(f.name for f in dataclasses.fields(self))}"
            )
        return dataclasses.replace(self, **overrides)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "GCConfig":
        """Build a config from a plain dict (CLI args, JSON, bench scales).

        Unknown keys are rejected with the valid key set in the message —
        a typoed setting must never be silently ignored.  The return
        type is always a fully validated :class:`GCConfig` — no ``Any``
        leaks out, so strict-mypy callers get real field types.
        """
        return cls().replace(**dict(data))

    def to_dict(self) -> dict[str, Any]:
        """A plain, JSON-serialisable dict that round-trips via
        :meth:`from_dict`."""
        return {
            "model": self.model.name,
            "query_type": self.query_type.value,
            "matcher": self.matcher,
            "cache_capacity": self.cache_capacity,
            "window_capacity": self.window_capacity,
            "policy": self.policy,
            "lock_mode": self.lock_mode,
            "max_sessions": self.max_sessions,
        }
