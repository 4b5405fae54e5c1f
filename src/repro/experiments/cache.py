"""Persistent on-disk cache for sweep-cell results.

Layout: one JSON file per cell under ``<root>/<key[:2]>/<key>.json`` where
``key`` is the cell's content hash (package version, model, batch, scale,
policy, every ``SystemConfig`` field, profiling error and seed — see
:meth:`repro.experiments.sweep.SweepCell.cache_key`). Changing any of those
inputs changes the key, so such entries are never served stale; they are
merely orphaned and reclaimed by ``repro cache clear``. The key does NOT hash
the simulator source itself: after editing simulation code within one package
version, run ``repro cache clear`` (or pass ``--no-cache``) to avoid serving
results computed by the old code.

Writes are atomic (temp file + rename) and every writer — process *or*
thread — uses a unique temp name (``*.tmp.<pid>.<n>``), so concurrent
``put`` calls for the same key can never scribble over each other's
temporary: the last rename wins and a reader never observes a partial entry.
A writer that is killed mid-write leaves its ``*.tmp.*`` file behind; those
stale temporaries never shadow a real entry, are counted by
:meth:`ResultCache.stats` and swept by :meth:`ResultCache.clear`.

The default cache root is ``.repro_cache/`` in the current working directory,
overridable with the ``REPRO_CACHE_DIR`` environment variable or an explicit
path.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
import stat
from pathlib import Path

from ..errors import ConfigurationError

# Per-process counter making temp names unique across concurrent writers in
# one process (threads); writers in other processes are distinct by pid.
# count().__next__ is atomic under the GIL.
_TMP_COUNTER = itertools.count()


def _tmp_path(target: Path) -> Path:
    """A collision-free temporary sibling of ``target``.

    Two writers ``put()``-ing the same key concurrently used to race on the
    shared ``<key>.tmp.<pid>`` name when they shared a pid (threads) — one
    writer could truncate or rename the other's half-written file. A
    per-call counter makes every temporary unique, so the only shared state
    left is the final atomic rename: last writer wins, bit-identically.
    """
    return target.with_suffix(f".tmp.{os.getpid()}.{next(_TMP_COUNTER)}")

def _size_or_zero(path: Path) -> int:
    """``path``'s size, or 0 when it vanished since being globbed.

    Concurrent workers delete their temp files (and ``clear`` removes whole
    entries) at any moment; a read-only accounting pass must tolerate that
    instead of surfacing ``FileNotFoundError``.
    """
    try:
        return path.stat().st_size
    except OSError:
        return 0


#: Bump when the stored payload layout changes; mismatched entries are misses.
#: Version 2 stores kernel timings as columns (``SimulationResult.to_dict``).
CACHE_SCHEMA_VERSION = 2

#: Default cache directory name (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

#: The shard directories :meth:`ResultCache.put` creates: a key's first two
#: hex characters.
_SHARDS = "[0-9a-f][0-9a-f]"


def default_cache_root() -> Path:
    """The cache root honouring the ``REPRO_CACHE_DIR`` environment variable."""
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


class ResultCache:
    """Content-addressed JSON store mapping sweep-cell keys to result payloads."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_cache_root()
        # One stat: a missing root is created by the first put; anything else
        # that is not a directory (a regular file, /dev/null, a path through
        # a file) can never hold entries.
        try:
            is_dir = stat.S_ISDIR(self.root.stat().st_mode)
        except FileNotFoundError:
            return
        except OSError as exc:
            raise ConfigurationError(f"unusable cache directory {self.root}: {exc}") from exc
        if not is_dir:
            raise ConfigurationError(f"cache directory {self.root} is not a directory")

    def path_for(self, key: str) -> Path:
        """Where a cell with this content hash is (or would be) stored."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The stored payload for ``key``, or ``None`` on miss/corruption."""
        path = self.path_for(key)
        try:
            with path.open("r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        payload = entry.get("payload")
        return payload if isinstance(payload, dict) else None

    def has(self, key: str) -> bool:
        """Whether ``key`` would be a hit, without parsing the whole payload.

        Sniffs the entry's schema header (and that the file ends like a JSON
        object) instead of decoding the whole payload, tens of kilobytes of
        kernel-timing columns for a simulation cell; anything inconclusive
        falls back to a full :meth:`get`. Used by
        :class:`~repro.experiments.sweep.SweepPlan` to classify every cell of
        a paper-scale grid cheaply. :meth:`get` stays authoritative: in the
        rare case of an entry corrupted *after* a valid header, ``has`` may
        say warm while the subsequent read misses and recomputes.
        """
        path = self.path_for(key)
        try:
            with path.open("rb") as fh:
                head = fh.read(64)
                fh.seek(0, os.SEEK_END)
                if fh.tell() <= 64:
                    tail = head[-1:]
                else:
                    fh.seek(-1, os.SEEK_END)
                    tail = fh.read(1)
        except OSError:
            return False
        match = re.match(rb'\{"schema":\s*(-?\d+)\s*[,}]', head)
        if match is None:
            return self.get(key) is not None
        return int(match.group(1)) == CACHE_SCHEMA_VERSION and tail == b"}"

    def put(self, key: str, payload: dict, cell: dict | None = None) -> Path:
        """Persist a payload atomically (write to a temp file, then rename).

        The file holds ``json.dumps(entry, separators=(",", ":"))``, written
        with one ``write``; its ``{"schema":N,`` header is what :meth:`has`
        sniffs. On any write failure the temp file is removed before
        re-raising, so a crashed *in-process* writer cannot leak ``*.tmp.*``
        files; only a killed process can, and those are reclaimed by
        :meth:`clear`.
        Concurrent writers of the same key each get a unique temp file (see
        :func:`_tmp_path`), so the write is last-writer-wins at the rename.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"schema": CACHE_SCHEMA_VERSION, "key": key, "cell": cell, "payload": payload}
        # json.dumps runs the C encoder; json.dump on a file runs the
        # pure-Python one, which writes the same bytes over twice as slowly.
        text = json.dumps(entry, separators=(",", ":"))
        tmp = _tmp_path(path)
        try:
            with tmp.open("w", encoding="utf-8") as fh:
                fh.write(text)
            tmp.replace(path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path

    def _shards(self) -> list[Path]:
        """The shard directories :meth:`put` creates; a symbolic link is none."""
        return [d for d in self.root.glob(_SHARDS) if d.is_dir() and not d.is_symlink()]

    def _files(self, pattern: str) -> list[Path]:
        """Non-directories matching ``pattern`` inside the shard directories.

        Nothing else under the root is the cache's: ``stats`` counts and
        ``clear`` deletes only these, so a root that also holds other files
        (``REPRO_CACHE_DIR=.``) keeps them.
        """
        # os.path.isdir never raises, so a file deleted mid-scan still counts.
        return sorted(
            p for shard in self._shards() for p in shard.glob(pattern) if not os.path.isdir(p)
        )

    def _stale_tmp_files(self) -> list[Path]:
        """Temp files abandoned by killed writers.

        The current naming is ``<key>.tmp.<pid>.<n>`` (see :func:`_tmp_path`);
        the glob also matches the pre-collision-fix ``<key>.tmp.<pid>`` and
        original ``<key>.tmp`` spellings, so temporaries leaked by older
        releases are still reported and swept.
        """
        return self._files("*.tmp*")

    def clear(self) -> int:
        """Delete every cache entry *and* sweep stale temp files.

        Then the shard directories left empty go, and the root too if it is
        a real directory left empty; a symlinked root keeps its link and its
        target. Returns the number of real entries removed (stale temp files
        are reclaimed too, but not counted as entries).
        """
        entries = self._files("*.json")
        try:
            for path in entries + self._stale_tmp_files():
                path.unlink(missing_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"cannot clear cache directory {self.root}: {exc}") from exc
        for directory in [*self._shards(), self.root]:
            if not directory.is_symlink():
                with contextlib.suppress(OSError):  # one that is not empty stays
                    directory.rmdir()
        return len(entries)

    def stats(self) -> dict[str, object]:
        """Entry count, total size, stale temp files, and the cache root.

        Read-only and safe against concurrent writers: a file deleted between
        the directory glob and its ``stat`` (e.g. a worker reclaiming its own
        temp file, or ``clear`` racing ``info``) counts as zero bytes instead
        of raising.
        """
        entries = self._files("*.json")
        stale = self._stale_tmp_files()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(_size_or_zero(p) for p in entries),
            "stale_tmp": len(stale),
            "stale_tmp_bytes": sum(_size_or_zero(p) for p in stale),
        }
