"""Content-addressed on-disk store of completed experiment cells.

Layout under one store root::

    objects/<key[:2]>/<key>.json    one envelope per cell key
    quarantine/<key>.<n>.json       corrupt envelopes, moved aside

Each envelope wraps one successful
:class:`~repro.harness.ledger.TaskRecord` together with an integrity
hash over the record's canonical JSON.  Writes are atomic and durable
(tmp file in the final directory, fsync, ``os.replace``), so a reader
never observes a half-written envelope and a SIGKILL immediately after
:meth:`ResultStore.put` returns cannot lose the entry.

Corruption policy: an envelope that fails to decode, fails its
integrity check, or records a different key than its filename is moved
to ``quarantine/`` under the first free ``<n>`` (never deleted or
overwritten — it is evidence) and the lookup reports a miss, so a
damaged store degrades to recomputation instead of serving wrong
science.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Iterator, Optional

#: Envelope schema version; old-version envelopes quarantine-miss
#: rather than mis-parse.
STORE_VERSION = 1

_OBJECTS = "objects"
_QUARANTINE = "quarantine"


class StoreError(Exception):
    """A store invariant was violated by the caller."""


@dataclasses.dataclass
class StoreStats:
    """Point-in-time census of one store root."""

    root: str
    entries: int = 0
    bytes: int = 0
    quarantined: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def _record_integrity(record_json: str) -> str:
    return hashlib.sha256(record_json.encode("utf-8")).hexdigest()


class ResultStore:
    """Durable cache of TaskRecords keyed by canonical cell key.

    The store is record-format agnostic: it persists and returns the
    record's JSON dict, leaving ``TaskRecord.from_dict`` to the caller
    (keeps this module importable without :mod:`repro.harness`).  Only
    ``ok`` records may be stored — a cache must never serve a crash.
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(os.path.join(root, _OBJECTS), exist_ok=True)

    # -- paths ---------------------------------------------------------

    def _object_path(self, key: str) -> str:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise StoreError(f"malformed cell key {key!r}")
        return os.path.join(self.root, _OBJECTS, key[:2], key + ".json")

    def _quarantine_path(self, key: str, n: int = 0) -> str:
        return os.path.join(self.root, _QUARANTINE, f"{key}.{n}.json")

    # -- write side ----------------------------------------------------

    def put(self, key: str, record_data: Dict[str, Any]) -> str:
        """Store one successful record dict under ``key``; idempotent
        (last writer wins — same-key records are byte-identical science
        by construction).  Returns the envelope path."""
        if record_data.get("outcome") != "ok":
            raise StoreError(
                f"refusing to cache outcome={record_data.get('outcome')!r} "
                f"for key {key}"
            )
        record_json = json.dumps(
            record_data, sort_keys=True, separators=(",", ":")
        )
        envelope = {
            "store_v": STORE_VERSION,
            "key": key,
            "integrity": _record_integrity(record_json),
            "record": record_data,
        }
        path = self._object_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            prefix=".put-", suffix=".tmp", dir=os.path.dirname(path)
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(
                    envelope, handle, sort_keys=True, separators=(",", ":")
                )
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
        return path

    # -- read side -----------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The record dict stored under ``key``, or None.

        A corrupt envelope (undecodable, wrong integrity hash, wrong
        embedded key, wrong schema version) is quarantined and reported
        as a miss.
        """
        path = self._object_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            self._quarantine(key, path)
            return None
        if not self._envelope_ok(key, envelope):
            self._quarantine(key, path)
            return None
        return envelope["record"]

    def contains(self, key: str) -> bool:
        return self.get(key) is not None

    @staticmethod
    def _envelope_ok(key: str, envelope: Any) -> bool:
        if not isinstance(envelope, dict):
            return False
        if envelope.get("store_v") != STORE_VERSION:
            return False
        if envelope.get("key") != key:
            return False
        record = envelope.get("record")
        if not isinstance(record, dict):
            return False
        record_json = json.dumps(
            record, sort_keys=True, separators=(",", ":")
        )
        return envelope.get("integrity") == _record_integrity(record_json)

    def _quarantine(self, key: str, path: str) -> None:
        os.makedirs(os.path.join(self.root, _QUARANTINE), exist_ok=True)
        n = 0
        while os.path.exists(self._quarantine_path(key, n)):
            n += 1
        try:
            os.replace(path, self._quarantine_path(key, n))
        except FileNotFoundError:
            pass

    # -- census --------------------------------------------------------

    def keys(self) -> Iterator[str]:
        """Every stored key, sorted (no integrity check — use get)."""
        objects = os.path.join(self.root, _OBJECTS)
        found = []
        for shard in sorted(os.listdir(objects)):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    found.append(name[: -len(".json")])
        return iter(found)

    def stats(self) -> StoreStats:
        stats = StoreStats(root=self.root)
        for key in self.keys():
            stats.entries += 1
            stats.bytes += os.path.getsize(self._object_path(key))
        quarantine = os.path.join(self.root, _QUARANTINE)
        if os.path.isdir(quarantine):
            stats.quarantined = sum(
                1 for n in os.listdir(quarantine) if n.endswith(".json")
            )
        return stats
