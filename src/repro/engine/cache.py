"""Content-addressed on-disk result cache.

Keys are ``sha256(schema version, trace digest, job digest)``: any change to
the trace content, any analysis switch, the analysis method, or the cache
schema itself lands at a different key, so entries never need invalidation —
a repeated experiment run simply hits, and a changed one simply misses.

Entries are JSON files written atomically (temp file + rename), so parallel
workers and concurrent experiment runs can share one cache directory
without locks: at worst two processes compute the same result and the last
rename wins with identical bytes. A corrupt, truncated, or
schema-mismatched entry is treated as a miss (and removed), never returned.

Size budget: with ``max_bytes`` set, the cache evicts least-recently-used
entries (hits refresh an entry's mtime) after each store until the
directory fits the budget. Eviction — the one operation that *decides*
based on global directory state — is serialized across processes by an
``O_CREAT | O_EXCL`` lock file with stale-lock breaking, so two server
processes sharing a cache never tear each other's eviction scans; entry
reads and writes themselves stay lock-free (atomic rename is enough).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import time
from typing import List, Optional, Tuple

from repro.engine.jobs import AnalysisJob
from repro.engine.serialize import JobResult, result_from_dict, result_to_dict
from repro.obs import metrics as obs

logger = logging.getLogger(__name__)

#: Bump when the serialized result layout changes; old entries become misses.
SCHEMA_VERSION = 1


def cache_key(trace_digest: str, job: AnalysisJob) -> str:
    """The cache key for ``job`` run against a trace with ``trace_digest``."""
    payload = f"{SCHEMA_VERSION}:{trace_digest}:{job.digest()}".encode("ascii")
    return hashlib.sha256(payload).hexdigest()


def parse_size(text: str) -> int:
    """Parse a human byte size (``"268435456"``, ``"64M"``, ``"2G"``,
    ``"512K"``) into bytes; raises ``ValueError`` on anything else."""
    text = text.strip()
    multiplier = 1
    suffixes = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text and text[-1].upper() in suffixes:
        multiplier = suffixes[text[-1].upper()]
        text = text[:-1]
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"bad size {text!r}; use bytes or a K/M/G suffix") from None
    if value < 0:
        raise ValueError(f"size must be >= 0, got {value}")
    return value * multiplier


#: Seconds after which another process's eviction lock is presumed dead
#: (evicting a few thousand files takes milliseconds; anything older is a
#: crashed process's leftover).
EVICT_LOCK_STALE = 30.0


class ResultCache:
    """Directory of cached job results: :class:`AnalysisResult` values
    and the ``__kind__``-tagged payloads of the other job methods —
    shard :class:`~repro.core.stream.SegmentSummary` values and the
    prior-work baselines' :class:`~repro.baselines.AverageOnlyResult` and
    :class:`~repro.baselines.StatementLevelResult` (see
    :mod:`repro.engine.serialize`).

    Attributes:
        max_bytes: optional size budget; stores past the budget evict
            least-recently-used entries (``None`` = unbounded).
    """

    def __init__(self, directory: str, max_bytes: Optional[int] = None):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.evicted = 0
        self._warned_quarantine = False

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def _quarantine(self, path: str, error: Exception) -> None:
        """Move an unreadable/mismatched entry aside as ``<name>.corrupt``
        instead of deleting it (the bytes are evidence — a recurring
        corruption pattern is worth diagnosing) or leaving it in place
        (where it would be re-parsed and re-missed on every lookup
        forever). Logged loudly once per run, quietly after."""
        target = f"{path}.corrupt"
        try:
            os.replace(path, target)
        except OSError:
            return  # raced with a concurrent store/quarantine; entry is gone
        self.quarantined += 1
        obs.inc("result_cache.quarantined")
        if not self._warned_quarantine:
            self._warned_quarantine = True
            logger.warning(
                "quarantined corrupt result-cache entry %s -> %s (%s); "
                "further quarantines this run will log at DEBUG",
                path, target, error,
            )
        else:
            logger.debug(
                "quarantined corrupt result-cache entry %s (%s)", path, error
            )

    def load(self, key: str) -> Optional[JobResult]:
        """The cached result for ``key``, or ``None`` on any kind of miss."""
        path = self._path(key)
        try:
            with open(path, "r") as handle:
                entry = json.load(handle)
            if entry.get("schema") != SCHEMA_VERSION:
                raise ValueError(f"schema {entry.get('schema')!r}")
            result = result_from_dict(entry["result"])
        except FileNotFoundError:
            self.misses += 1
            obs.inc("result_cache.miss")
            return None
        except (ValueError, KeyError, TypeError, OSError) as error:
            self._quarantine(path, error)
            self.misses += 1
            obs.inc("result_cache.miss")
            return None
        self.hits += 1
        obs.inc("result_cache.hit")
        if self.max_bytes is not None:
            try:
                os.utime(path)  # refresh LRU recency
            except OSError:
                pass  # evicted under us; the result in hand is still good
        return result

    def store(self, key: str, trace_digest: str, job: AnalysisJob, result: JobResult) -> None:
        """Persist one result atomically. The job spec and trace digest are
        stored alongside the payload for debuggability (``jq`` a cache entry
        to see exactly what produced it)."""
        entry = {
            "schema": SCHEMA_VERSION,
            "trace_digest": trace_digest,
            "job": job.canonical(),
            "result": result_to_dict(result),
        }
        path = self._path(key)
        obs.inc("result_cache.store")
        handle = tempfile.NamedTemporaryFile(
            "w", dir=self.directory, prefix=".tmp-", suffix=".json", delete=False
        )
        try:
            with handle:
                json.dump(entry, handle, sort_keys=True, separators=(",", ":"))
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.remove(handle.name)
            except OSError:
                pass
            raise
        self.enforce_budget()

    # -- size budget -------------------------------------------------------

    def _lock_path(self) -> str:
        return os.path.join(self.directory, ".evict.lock")

    def _acquire_evict_lock(self) -> bool:
        """One cross-process eviction ticket via ``O_CREAT | O_EXCL``.
        ``False`` means another live process is already evicting — skipping
        is correct, the budget converges on its next store. A lock older
        than :data:`EVICT_LOCK_STALE` is broken (crashed evictor)."""
        path = self._lock_path()
        for _ in range(2):
            try:
                handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = time.time() - os.stat(path).st_mtime
                except OSError:
                    continue  # lock vanished between attempts; retry
                if age < EVICT_LOCK_STALE:
                    return False
                logger.warning(
                    "breaking stale result-cache eviction lock %s (%.0fs old)", path, age
                )
                try:
                    os.remove(path)
                except OSError:
                    return False
                continue
            os.write(handle, f"pid={os.getpid()}\n".encode("ascii"))
            os.close(handle)
            return True
        return False

    def _release_evict_lock(self) -> None:
        try:
            os.remove(self._lock_path())
        except OSError:
            pass

    def _scan_entries(self) -> List[Tuple[float, int, str]]:
        """Every live entry as ``(mtime, size, path)``, oldest first."""
        entries = []
        for name in os.listdir(self.directory):
            if not name.endswith(".json") or name.startswith(".tmp-"):
                continue
            path = os.path.join(self.directory, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue  # evicted/quarantined by a concurrent process
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()
        return entries

    def enforce_budget(self) -> int:
        """Evict least-recently-used entries until the directory fits
        ``max_bytes``; returns the number evicted. The newest entry is
        never evicted (a budget smaller than one result would otherwise
        turn the cache into a delete-after-write no-op)."""
        if self.max_bytes is None:
            return 0
        if not self._acquire_evict_lock():
            return 0
        evicted = 0
        try:
            entries = self._scan_entries()
            total = sum(size for _, size, _ in entries)
            while total > self.max_bytes and len(entries) > 1:
                _, size, path = entries.pop(0)
                try:
                    os.remove(path)
                except OSError:
                    continue  # lost a race; its bytes are gone either way
                total -= size
                evicted += 1
        finally:
            self._release_evict_lock()
        if evicted:
            self.evicted += evicted
            obs.inc("result_cache.evicted", evicted)
            logger.debug(
                "evicted %d result-cache entr%s to fit %d-byte budget",
                evicted, "y" if evicted == 1 else "ies", self.max_bytes,
            )
        return evicted

    def __len__(self) -> int:
        return sum(
            1
            for name in os.listdir(self.directory)
            if name.endswith(".json") and not name.startswith(".tmp-")
        )
