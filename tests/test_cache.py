"""Property-based and failure-injection tests for :class:`ResultCache`.

The cache sits under every figure of the reproduction, so its contract is
load-bearing: arbitrary JSON payloads must round-trip exactly, any corrupted
or foreign on-disk state must read as a *miss* (never an exception, never a
wrong payload), schema bumps must invalidate, ``stats``/``clear`` must agree,
and crashed writers must not leak temp files that shadow real entries.
"""

from __future__ import annotations

import json
import os
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.cache import CACHE_SCHEMA_VERSION, ResultCache, _tmp_path

# Cache keys are SHA-256 hex digests; any hex string >= 2 chars is layout-valid.
keys = st.text(alphabet="0123456789abcdef", min_size=2, max_size=64)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=15,
)

#: Payloads are dicts at the top level (the executed-cell payload shape).
payloads = st.dictionaries(st.text(max_size=8), json_values, max_size=5)

relaxed = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestRoundTrip:
    @relaxed
    @given(key=keys, payload=payloads)
    def test_put_get_round_trip(self, tmp_path, key, payload):
        cache = ResultCache(tmp_path / "c")
        cache.put(key, payload)
        assert cache.get(key) == payload
        assert cache.has(key)

    @relaxed
    @given(key=keys, first=payloads, second=payloads)
    def test_put_overwrites(self, tmp_path, key, first, second):
        cache = ResultCache(tmp_path / "c")
        cache.put(key, first)
        cache.put(key, second)
        assert cache.get(key) == second

    @relaxed
    @given(key=keys)
    def test_missing_key_is_a_miss(self, tmp_path, key):
        cache = ResultCache(tmp_path / "c")
        assert cache.get(key) is None
        assert not cache.has(key)


class TestCorruptionTolerance:
    @relaxed
    @given(key=keys, payload=payloads, data=st.data())
    def test_truncated_entry_is_a_miss(self, tmp_path, key, payload, data):
        """Any strict prefix of a valid entry must read as a miss, never crash
        (a writer killed mid-write on a non-atomic filesystem, a torn copy)."""
        cache = ResultCache(tmp_path / "c")
        path = cache.put(key, payload)
        raw = path.read_bytes()
        cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        path.write_bytes(raw[:cut])
        assert cache.get(key) is None

    @relaxed
    @given(key=keys, garbage=st.binary(max_size=64))
    def test_garbage_bytes_never_crash(self, tmp_path, key, garbage):
        cache = ResultCache(tmp_path / "c")
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(garbage)
        got = cache.get(key)
        assert got is None or isinstance(got, dict)

    @relaxed
    @given(key=keys, entry=json_values)
    def test_non_entry_json_is_a_miss(self, tmp_path, key, entry):
        """Valid JSON that is not a schema-tagged entry dict must be a miss."""
        cache = ResultCache(tmp_path / "c")
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(entry), encoding="utf-8")
        if not (isinstance(entry, dict) and entry.get("schema") == CACHE_SCHEMA_VERSION):
            assert cache.get(key) is None

    @relaxed
    @given(key=keys, payload=payloads, bump=st.integers(min_value=1, max_value=5))
    def test_schema_version_mismatch_is_a_miss(self, tmp_path, key, payload, bump):
        cache = ResultCache(tmp_path / "c")
        path = cache.put(key, payload)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["schema"] = CACHE_SCHEMA_VERSION + bump
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(key) is None
        assert not cache.has(key)


class TestWriteFormat:
    @relaxed
    @given(key=keys, payload=payloads, cell=st.none() | payloads)
    def test_put_writes_one_compact_json_document(self, tmp_path, key, payload, cell):
        """The file is exactly ``json.dumps(entry, separators=(",", ":"))``,
        whose header ``has`` sniffs without decoding the payload."""
        cache = ResultCache(tmp_path / "c")
        path = cache.put(key, payload, cell=cell)
        entry = {"schema": CACHE_SCHEMA_VERSION, "key": key, "cell": cell, "payload": payload}
        assert path.read_bytes() == json.dumps(entry, separators=(",", ":")).encode("utf-8")
        assert cache.has(key)

    def test_schema_1_entry_is_a_miss_and_cleared(self, tmp_path):
        """An entry in the row layout of schema 1 is never served, and
        ``clear`` removes it."""
        cache = ResultCache(tmp_path / "c")
        key = "ab" + "1" * 62
        rows = [{"index": 0, "ideal_duration": 0.5, "stall": 0.0, "start_time": 0.0}]
        entry = {
            "schema": 1, "key": key, "cell": None,
            "payload": {"kind": "simulation", "result": {"kernel_timings": rows}},
        }
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(entry, separators=(",", ":")), encoding="utf-8")
        assert cache.get(key) is None
        assert not cache.has(key)
        assert cache.stats()["entries"] == 1
        assert cache.clear() == 1
        assert not path.exists()

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "c")

        def refuse(self, target):
            raise OSError("rename refused")

        monkeypatch.setattr(type(tmp_path), "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            cache.put("ab12cd", {"v": 1})
        monkeypatch.undo()
        assert list(cache.root.rglob("*.tmp*")) == []
        assert cache.get("ab12cd") is None


def _entry(key: str, **overrides) -> dict:
    entry = {"schema": CACHE_SCHEMA_VERSION, "key": key, "cell": None, "payload": {"v": [1, 2]}}
    entry.update(overrides)
    return entry


#: On-disk states of one entry path, and whether each is a hit. Writers
#: other than ``put`` (a hand-edited or pretty-printed entry, reordered
#: keys) miss the fast header sniff and must fall back to a full read.
ENTRY_STATES = {
    "compact-as-put": (lambda key: json.dumps(_entry(key), separators=(",", ":")), True),
    "pretty-printed": (lambda key: json.dumps(_entry(key), indent=2), True),
    "schema-not-first": (
        lambda key: json.dumps({"payload": {"v": 1}, "schema": CACHE_SCHEMA_VERSION}), True,
    ),
    "spaced-header": (lambda key: json.dumps(_entry(key)), True),
    "older-schema": (
        lambda key: json.dumps(_entry(key, schema=CACHE_SCHEMA_VERSION - 1), separators=(",", ":")),
        False,
    ),
    "schema-as-string": (
        lambda key: json.dumps(_entry(key, schema=str(CACHE_SCHEMA_VERSION))), False,
    ),
    "cut-after-header": (
        lambda key: json.dumps(_entry(key), separators=(",", ":")).split('"payload"')[0], False,
    ),
    "empty-file": (lambda key: "", False),
    "top-level-list": (lambda key: json.dumps([_entry(key)]), False),
    "invalid-utf8": (lambda key: b"\xff\xfe{}", False),
}


class TestHasAgreesWithGet:
    """``has`` answers ``SweepPlan``'s warm/cold question without decoding
    the payload; it must agree with ``get`` on every entry state."""

    @pytest.mark.parametrize("state", sorted(ENTRY_STATES))
    def test_has_matches_get(self, tmp_path, state):
        write, hit = ENTRY_STATES[state]
        cache = ResultCache(tmp_path / "c")
        key = "ab" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        content = write(key)
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        assert (cache.get(key) is not None) is hit
        assert cache.has(key) is hit

    def test_directory_in_place_of_an_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = "cd" + "0" * 62
        cache.path_for(key).mkdir(parents=True)
        assert cache.get(key) is None
        assert not cache.has(key)


class TestUnusableRoot:
    """A root that can never hold entries fails at construction."""

    @pytest.mark.parametrize("kind", ["regular-file", "under-a-file", "dev-null"])
    def test_non_directory_root_rejected(self, tmp_path, kind):
        plain = tmp_path / "plain"
        plain.write_text("not a cache")
        root = {
            "regular-file": plain,
            "under-a-file": plain / "cache",
            "dev-null": os.devnull,
        }[kind]
        with pytest.raises(ConfigurationError, match="cache directory"):
            ResultCache(root)
        assert plain.read_text() == "not a cache"


class TestStatsClearAgreement:
    @relaxed
    @given(keyset=st.sets(keys, max_size=8))
    def test_stats_and_clear_agree(self, tmp_path, keyset):
        root = tmp_path / "c"
        cache = ResultCache(root)
        for key in keyset:
            cache.put(key, {"v": key})
        stats = cache.stats()
        assert stats["entries"] == len(keyset)
        assert stats["stale_tmp"] == 0
        assert (stats["bytes"] > 0) == (len(keyset) > 0)
        assert cache.clear() == len(keyset)
        after = cache.stats()
        assert after["entries"] == 0 and after["bytes"] == 0
        assert not root.exists()

    def test_stats_tolerates_files_vanishing_mid_scan(self, tmp_path, monkeypatch):
        """Regression: a concurrent worker (or ``clear``) deleting a file
        between the directory glob and its ``stat`` made ``stats()`` raise
        ``FileNotFoundError``; a read-only accounting pass must instead count
        the vanished file as zero bytes."""
        from pathlib import Path

        cache = ResultCache(tmp_path / "c")
        cache.put("ab12cd", {"v": 1})
        cache.put("ef34ab", {"v": 2})
        stale = cache.root / "fe" / "fe99.tmp.4242.0"
        stale.parent.mkdir(parents=True, exist_ok=True)
        stale.write_text("{torn", encoding="utf-8")

        victims = {cache.path_for("ab12cd"), stale}
        original_stat = Path.stat

        def racing_stat(self, **kwargs):
            if self in victims:
                # Simulate the racer: the file is gone by the time stats()
                # stats it, even though the glob still listed it.
                raise FileNotFoundError(str(self))
            return original_stat(self, **kwargs)

        monkeypatch.setattr(Path, "stat", racing_stat)
        stats = cache.stats()
        # The glob still saw every path; only the sizes degrade to zero.
        assert stats["entries"] == 2
        assert stats["stale_tmp"] == 1
        assert stats["bytes"] == cache.path_for("ef34ab").stat().st_size
        assert stats["stale_tmp_bytes"] == 0


class TestTempFileHygiene:
    def test_failed_put_leaves_no_temp_file(self, tmp_path):
        """An in-process writer crash (unserializable payload) must clean up
        its temp file instead of leaking ``*.tmp.<pid>`` forever."""
        cache = ResultCache(tmp_path / "c")
        with pytest.raises(TypeError):
            cache.put("ab12cd", {"bad": object()})
        assert list((tmp_path / "c").rglob("*.tmp.*")) == []
        assert cache.get("ab12cd") is None

    def test_stale_temp_files_are_reported_and_swept(self, tmp_path):
        """A *killed* writer leaves a temp file; stats must surface it and
        clear must reclaim it alongside the real entries."""
        cache = ResultCache(tmp_path / "c")
        cache.put("ab12cd", {"v": 1})
        stale = cache.root / "fe" / "fe99.tmp.4242"
        stale.parent.mkdir(parents=True, exist_ok=True)
        stale.write_text("{torn write", encoding="utf-8")

        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["stale_tmp"] == 1
        assert stats["stale_tmp_bytes"] > 0

        # clear() counts real entries but sweeps the stale temp file too.
        assert cache.clear() == 1
        assert not cache.root.exists()
        assert cache.stats()["stale_tmp"] == 0

    def test_current_naming_leak_from_killed_put_is_reported_and_swept(self, tmp_path):
        """Regression: ``stats``/``clear`` stale-tmp detection must track the
        *current* ``<key>.tmp.<pid>.<n>`` temp naming. After the concurrency
        fix widened temp names, a detector still globbing the old ``*.tmp``
        spelling would silently stop reporting leaks from killed writers."""
        cache = ResultCache(tmp_path / "c")
        cache.put("ab12cd", {"v": 1})
        # A put() SIGKILLed between write and rename leaves exactly the file
        # _tmp_path names — build it with the real helper so this test follows
        # any future renaming of the scheme.
        target = cache.path_for("fe99aa")
        leaked = _tmp_path(target)
        leaked.parent.mkdir(parents=True, exist_ok=True)
        leaked.write_text('{"schema": 1, "payload": {"half": ', encoding="utf-8")
        assert leaked.name.startswith("fe99aa.tmp.")

        stats = cache.stats()
        assert stats["entries"] == 1  # the leak is never counted as an entry
        assert stats["stale_tmp"] == 1
        assert stats["stale_tmp_bytes"] == leaked.stat().st_size
        assert cache.get("fe99aa") is None and not cache.has("fe99aa")

        assert cache.clear() == 1
        assert not leaked.exists()
        assert cache.stats() == {
            "root": str(cache.root), "entries": 0, "bytes": 0,
            "stale_tmp": 0, "stale_tmp_bytes": 0,
        }

    def test_stale_temp_file_never_shadows_an_entry(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        path = cache.path_for("ab12cd")
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps({"schema": CACHE_SCHEMA_VERSION, "payload": {"v": 1}}))
        assert cache.get("ab12cd") is None


class TestConcurrentPutRace:
    """Regression suite for the concurrent ``put()`` race: two writers of
    the same key used to share one ``<key>.tmp.<pid>`` temporary when they
    shared a pid, so one could truncate or rename the other's half-written
    file. Temp names are now unique per call; the only shared step left is
    the atomic rename (last writer wins, bit-identically)."""

    def test_tmp_names_are_unique_per_call(self, tmp_path):
        target = tmp_path / "ab" / "ab12.json"
        first, second = _tmp_path(target), _tmp_path(target)
        assert first != second
        assert first.parent == second.parent == target.parent

    def test_concurrent_same_key_puts_never_corrupt_the_entry(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        payload = {"rows": list(range(64)), "text": "x" * 512}
        barrier = threading.Barrier(8)
        errors: list[BaseException] = []

        def writer():
            try:
                barrier.wait()
                for _ in range(25):
                    cache.put("ab12cd", payload)
                    # Readers racing the writers must always see a full,
                    # valid entry (atomic rename), never a partial one.
                    assert cache.get("ab12cd") == payload
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        assert cache.get("ab12cd") == payload
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["stale_tmp"] == 0  # every writer cleaned up its temp

    def test_distinct_payload_race_is_last_writer_wins(self, tmp_path):
        """Divergent payloads for one key (can't happen for content-addressed
        sweep results, but the cache must still never tear): the final entry
        is exactly one of the competing payloads, intact."""
        cache = ResultCache(tmp_path / "c")
        payloads = [{"writer": index, "blob": f"{index}" * 256} for index in range(4)]
        barrier = threading.Barrier(4)

        def writer(payload):
            barrier.wait()
            for _ in range(25):
                cache.put("fe99", payload)

        threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert cache.get("fe99") in payloads
        assert cache.stats()["stale_tmp"] == 0
