"""Snapshot & warm-start persistence for the GC+ cache.

The cache earns its keep over time — PIN/PINC/HD rank entries by accrued
benefit counters (paper §7.1) — so a restarted process used to serve at
cold-cache rates until those statistics re-accumulated.  This package
persists the full cache state (entries, indicators, statistics, stream
position) to a versioned JSON-lines file and restores it into a fresh
service, reconciling any dataset changes that happened while the state
was on disk through the normal consistency protocol.

Layers:

* :mod:`repro.persist.state` — the neutral in-memory capture
  (:class:`CacheState`), produced/consumed by
  :class:`~repro.cache.manager.CacheManager`;
* :mod:`repro.persist.snapshot` — the on-disk codec
  (:class:`Snapshot`, ``encode``/``decode``/``save``/``load``) plus the
  config fingerprint that gates restores.

Entry points for users are
:meth:`repro.api.service.GraphCacheService.save` / ``load`` /
``autosave``, ``CacheServer(..., snapshot_path=...)``, and the CLI's
``snapshot load`` and ``run --warm-start`` / ``--save-snapshot``.  See
``docs/persistence.md``.
"""

from repro.persist.snapshot import (
    FINGERPRINT_FIELDS,
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    Snapshot,
    SnapshotError,
    SnapshotFormatError,
    SnapshotMismatchError,
    config_fingerprint,
    dataset_fingerprint,
    decode_snapshot,
    encode_snapshot,
    load_snapshot,
    save_snapshot,
)
from repro.persist.state import CacheState, EntryRecord

__all__ = [
    "CacheState",
    "EntryRecord",
    "Snapshot",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotMismatchError",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "FINGERPRINT_FIELDS",
    "config_fingerprint",
    "dataset_fingerprint",
    "encode_snapshot",
    "decode_snapshot",
    "save_snapshot",
    "load_snapshot",
]
