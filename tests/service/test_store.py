"""Content-addressed store: durability, integrity, corruption policy."""

import json
import os

import pytest

from repro.service.store import ResultStore, StoreError

KEY = "ab" * 32
OTHER = "cd" * 32


def ok_record(**overrides):
    record = {
        "v": 4,
        "key": "hitec:dk16.ji.sd",
        "kind": "hitec_pair",
        "outcome": "ok",
        "fingerprint": "f" * 16,
        "counters": {"original": {"atpg.backtracks": 7}},
        "payload": {"rows": [1, 2, 3]},
    }
    record.update(overrides)
    return record


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        store = ResultStore(str(tmp_path))
        path = store.put(KEY, ok_record())
        assert os.path.exists(path)
        assert store.get(KEY) == ok_record()
        assert store.contains(KEY)
        assert list(store.keys()) == [KEY]

    def test_miss_is_none(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert store.get(KEY) is None
        assert not store.contains(KEY)

    def test_overwrite_is_idempotent(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(KEY, ok_record())
        store.put(KEY, ok_record())
        assert store.stats().entries == 1

    def test_stats_census(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(KEY, ok_record())
        store.put(OTHER, ok_record(key="sest:dk16.ji.sd"))
        stats = store.stats()
        assert stats.entries == 2
        assert stats.bytes > 0
        assert stats.quarantined == 0
        assert stats.root == str(tmp_path)

    def test_no_tmp_litter_after_put(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(KEY, ok_record())
        shard = os.path.dirname(store._object_path(KEY))
        assert [n for n in os.listdir(shard) if n.endswith(".tmp")] == []


class TestInvariants:
    def test_only_ok_records_storable(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for outcome in ("crashed", "timeout", "quarantined", None):
            with pytest.raises(StoreError, match="refusing to cache"):
                store.put(KEY, ok_record(outcome=outcome))
        assert store.stats().entries == 0

    @pytest.mark.parametrize("key", ["", "xyz", "AB" * 32, "ab/../cd"])
    def test_malformed_keys_rejected(self, tmp_path, key):
        store = ResultStore(str(tmp_path))
        with pytest.raises(StoreError, match="malformed"):
            store.get(key)


class TestCorruption:
    def _corrupt(self, store, text):
        with open(store._object_path(KEY), "w") as handle:
            handle.write(text)

    def _assert_quarantined_miss(self, store):
        assert store.get(KEY) is None
        stats = store.stats()
        assert stats.entries == 0
        assert stats.quarantined == 1
        # The evidence survives under quarantine/, never deleted.
        assert os.path.exists(store._quarantine_path(KEY))
        # And the lookup stays a plain miss afterwards.
        assert store.get(KEY) is None

    def test_garbage_bytes_quarantine(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(KEY, ok_record())
        self._corrupt(store, "\x00\xff this is not json")
        self._assert_quarantined_miss(store)

    def test_truncated_envelope_quarantines(self, tmp_path):
        store = ResultStore(str(tmp_path))
        path = store.put(KEY, ok_record())
        with open(path) as handle:
            text = handle.read()
        self._corrupt(store, text[: len(text) // 2])
        self._assert_quarantined_miss(store)

    def test_tampered_record_fails_integrity(self, tmp_path):
        store = ResultStore(str(tmp_path))
        path = store.put(KEY, ok_record())
        with open(path) as handle:
            envelope = json.load(handle)
        envelope["record"]["payload"]["rows"] = [9, 9, 9]
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        self._assert_quarantined_miss(store)

    def test_wrong_embedded_key_quarantines(self, tmp_path):
        """An envelope copied to another key's path must not serve that
        key's science."""
        store = ResultStore(str(tmp_path))
        source = store.put(KEY, ok_record())
        dest = store._object_path(OTHER)
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        with open(source) as src, open(dest, "w") as out:
            out.write(src.read())
        assert store.get(OTHER) is None
        assert store.stats().quarantined == 1
        # The original entry is untouched.
        assert store.get(KEY) == ok_record()

    def test_repeated_corruption_keeps_all_evidence(self, tmp_path):
        """A second corruption of one key must not overwrite the
        first one's quarantined bytes."""
        store = ResultStore(str(tmp_path))
        for garbage in ("first garbage", "second garbage"):
            store.put(KEY, ok_record())
            self._corrupt(store, garbage)
            assert store.get(KEY) is None
        assert store.stats().quarantined == 2
        evidence = []
        for n in (0, 1):
            with open(store._quarantine_path(KEY, n)) as handle:
                evidence.append(handle.read())
        assert evidence == ["first garbage", "second garbage"]

    def test_wrong_store_version_quarantines(self, tmp_path):
        store = ResultStore(str(tmp_path))
        path = store.put(KEY, ok_record())
        with open(path) as handle:
            envelope = json.load(handle)
        envelope["store_v"] = 999
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        self._assert_quarantined_miss(store)
