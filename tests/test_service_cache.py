"""Result cache: content addressing, atomic storage, and submit-time reuse."""

from __future__ import annotations

import hashlib
import json
import os

from repro.service import JobState, ResultCache, Service, Sweep, payload_key

FACT_PAYLOAD = {"nb": 32, "thread_counts": [1, 2], "m_multiples": [1, 2]}


class TestPayloadKey:
    def test_insensitive_to_dict_ordering(self):
        a = payload_key("sim", {"n": 64, "nb": 8})
        b = payload_key("sim", {"nb": 8, "n": 64})
        assert a == b

    def test_kind_is_part_of_the_key(self):
        assert payload_key("sim", {"n": 64}) != payload_key("run", {"n": 64})

    def test_payload_content_is_part_of_the_key(self):
        assert payload_key("sim", {"n": 64}) != payload_key("sim", {"n": 65})


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = payload_key("fact", FACT_PAYLOAD)
        cache.put(key, "fact", FACT_PAYLOAD, {"score": 1.5})
        record = cache.get(key)
        assert record["result"] == {"score": 1.5}
        assert record["kind"] == "fact"
        assert key in cache
        assert len(cache) == 1

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert "0" * 64 not in cache

    def test_overwrite_is_atomic_replace(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = payload_key("fact", FACT_PAYLOAD)
        cache.put(key, "fact", FACT_PAYLOAD, {"v": 1})
        cache.put(key, "fact", FACT_PAYLOAD, {"v": 2})
        assert cache.get(key)["result"] == {"v": 2}
        assert len(cache) == 1

    def test_large_result_spills_to_a_blob_and_round_trips(self, tmp_path):
        """put() past inline_max writes a sidecar blob; get() is
        indistinguishable from the inline path, and the record carries
        a size/sha descriptor instead of the result body.
        """
        cache = ResultCache(tmp_path, inline_max=64)
        key = payload_key("sim", {"n": 1})
        big = {"blob": "y" * 500}
        cache.put(key, "sim", {"n": 1}, big)
        assert cache.get(key)["result"] == big
        info = cache.result_info(key)
        assert info["inline"] is False and info["size"] > 64
        fh, size = cache.open_result(key)
        try:
            raw = fh.read()
        finally:
            fh.close()
        assert len(raw) == size == info["size"]
        assert hashlib.sha256(raw).hexdigest() == info["sha256"]
        assert json.loads(raw) == big
        # Blob sidecars are storage detail, not cache entries.
        assert len(cache) == 1


class TestCorruptionRecovery:
    """Regression: a half-written or corrupted cache file is a MISS.

    A crash between creat() and the final rename used to be able to
    leave bytes get() would crash on (json.JSONDecodeError escaping to
    every submit-time cache probe); any unreadable record must instead
    read as absent so the job simply re-runs.
    """

    def _put_one(self, cache) -> str:
        key = payload_key("fact", FACT_PAYLOAD)
        cache.put(key, "fact", FACT_PAYLOAD, {"score": 1.5})
        return key

    def test_truncated_record_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = self._put_one(cache)
        path = cache._path(key)
        with open(path, "rb") as fh:
            whole = fh.read()
        with open(path, "wb") as fh:
            fh.write(whole[:len(whole) // 2])  # torn write
        assert cache.get(key) is None
        assert cache.meta(key) is None
        assert cache.result_info(key) is None
        assert cache.open_result(key) is None

    def test_garbage_record_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = self._put_one(cache)
        for garbage in (b"", b"\x00\xff\x00garbage", b'["not an object"]'):
            with open(cache._path(key), "wb") as fh:
                fh.write(garbage)
            assert cache.get(key) is None

    def test_corrupt_miss_recovers_on_next_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = self._put_one(cache)
        with open(cache._path(key), "wb") as fh:
            fh.write(b"{torn")
        assert cache.get(key) is None
        cache.put(key, "fact", FACT_PAYLOAD, {"score": 2.5})
        assert cache.get(key)["result"] == {"score": 2.5}

    def test_missing_or_corrupt_blob_sidecar_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, inline_max=16)
        key = payload_key("sim", {"n": 2})
        cache.put(key, "sim", {"n": 2}, {"blob": "y" * 200})
        os.unlink(cache._blob_path(key))
        assert cache.get(key) is None
        assert cache.open_result(key) is None


class TestSubmitTimeReuse:
    def test_identical_resubmission_is_served_from_cache(self, tmp_path):
        """Acceptance: resubmitting a completed config runs zero jobs."""
        service = Service(tmp_path / "svc")
        first = service.submit("fact", FACT_PAYLOAD)
        assert len(first.new) == 1
        summary = service.run_workers(n=1, max_seconds=60)
        assert summary.completed == 1

        claims_before = sum(
            1 for e in service.store.events() if e["event"] == "claimed"
        )
        again = service.submit("fact", FACT_PAYLOAD)
        assert again.cached and not again.new and not again.deduped
        # the cached job is DONE immediately, with the same result
        job = service.job(again.cached[0])
        assert job.state is JobState.DONE
        assert job.cached is True
        assert service.result(again.cached[0]) == service.result(first.new[0])
        # and nothing new ever entered RUNNING
        claims_after = sum(
            1 for e in service.store.events() if e["event"] == "claimed"
        )
        assert claims_after == claims_before

    def test_sweep_resubmission_is_all_cache_hits(self, tmp_path):
        service = Service(tmp_path / "svc")
        sweep = Sweep(
            kind="fact",
            axes={"nb": [16, 32, 64]},
            base={"thread_counts": [1, 2], "m_multiples": [1, 2]},
        )
        first = service.submit_sweep(sweep)
        assert len(first.new) == 3
        service.run_workers(n=2, max_seconds=60)

        again = service.submit_sweep(sweep)
        assert len(again.cached) == 3
        assert not again.new and not again.deduped
        counts = service.store.counts()
        assert counts["RUNNING"] == 0 and counts["PENDING"] == 0

    def test_different_payload_misses_the_cache(self, tmp_path):
        service = Service(tmp_path / "svc")
        service.submit("fact", FACT_PAYLOAD)
        service.run_workers(n=1, max_seconds=60)
        other = service.submit("fact", {**FACT_PAYLOAD, "nb": 48})
        assert other.new and not other.cached

    def test_result_landing_after_the_cache_check_is_not_queued(
            self, tmp_path, monkeypatch):
        """A twin that finishes between submit's cache check and its
        insert (fast workers make this common) serves the resubmission
        from the cache instead of queueing a duplicate -- for single
        and batch submits alike."""
        service = Service(tmp_path / "svc")
        key = payload_key("fact", FACT_PAYLOAD)
        service.cache.put(key, "fact", FACT_PAYLOAD, {"score": 1.5})
        lookup = ResultCache.__contains__
        calls = []

        def late_result(cache, k):
            # Each submit's own check misses; the result lands just after.
            calls.append(k)
            return len(calls) % 2 == 0 and lookup(cache, k)

        monkeypatch.setattr(ResultCache, "__contains__", late_result)
        single = service.submit("fact", FACT_PAYLOAD)
        [batch] = service.submit_many(
            [{"kind": "fact", "payload": FACT_PAYLOAD}])
        for receipt in (single, batch):
            assert receipt.cached and not receipt.new, receipt
            job = service.job(receipt.cached[0])
            assert job.state is JobState.DONE and job.cached is True
        assert service.store.counts()["PENDING"] == 0
