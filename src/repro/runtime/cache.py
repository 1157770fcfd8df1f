"""Content-addressed result cache for scenario runs.

The cache key is the *scenario spec hash alone*
(:meth:`Scenario.content_hash`): every flow knob plus the circuit
reference, but **not** the realized circuit.  Earlier versions keyed on
``sha256(spec ‖ circuit fingerprint)``, which forced the sweep parent to
build every circuit serially before it could even probe the cache — the
"cache-key prologue" flagged in ROADMAP.md.  Now ``get`` is pure hashing;
the realized-circuit fingerprint still travels with every entry and is

* recorded at ``put`` time (workers fingerprint the circuit they already
  built, so the parent never constructs one), and
* optionally re-verified at read-back (``verify_fingerprints=True``)
  for workflows where a ``.bench`` file may change on disk behind an
  unchanged path.  A mismatch counts as a miss and the entry is
  recomputed.

Like the old fingerprint-keyed scheme, neither key covers *code*
changes: entries persist across library versions, and results produced
by older solver numerics are served until the cache is cleared (or
``CACHE_SCHEMA_VERSION`` is bumped).  Clear sweep caches after upgrading
when exact reproducibility across versions matters.

Entries are one file per key under two-level fan-out directories, two
lines each (schema 3)::

    {"fingerprint":…,"kind":"cache_entry",…,"schema":3,"sha256":…}
    <RunRecord.canonical_json() of the record, byte for byte>

Line 1 is the compact envelope: ``kind``, ``schema``, the
realized-circuit ``fingerprint``, the record's telemetry (``runtime_s``
and ``memory_bytes``, kept out of its canonical form), the record's own
``record_schema``, and ``sha256``, a SHA-256 over the other envelope
fields and line 2.  Line 2 is the record's canonical JSON — the bytes a
serial run prints, ``gather`` compares and the HTTP records endpoint
serves — encoded once, by :meth:`ResultCache.put`, and never re-encoded
on the read path: the endpoint splices it into its response unparsed.
A file that does not validate (wrong kind or schema, or a changed byte
anywhere, which the checksum catches) is a miss.

Bumping ``CACHE_SCHEMA_VERSION`` clears every older entry: it reads as a
miss, and the runner recomputes and overwrites it on demand.  Schema 2
was one indented JSON document holding the whole record; schema 3 stores
the canonical line instead, so ``put`` encodes with the C encoder and no
read re-formats a float.

Writes are atomic (temp file + rename) so concurrent sweeps sharing a
cache directory never observe torn entries.  Reads touch the entry's
mtime, giving :meth:`ResultCache.prune` an LRU eviction order.

Hit/miss/put counters accumulate in memory and persist on
``prune``/``stats()``/:meth:`flush` (which the runner and the queue
worker call once per sweep or shard) as **per-process shard
files** under ``stats.d/`` — each :class:`ResultCache` instance owns one
shard (named by pid plus a random token) and only ever rewrites its own,
so concurrent sweeps sharing a cache directory cannot lose each other's
counts (the old single ``stats.json`` was atomic but last-writer-wins).
``repro cache stats`` merges every shard plus any legacy ``stats.json``
left by older versions.  Shards are a few dozen bytes each and accrue
one per runner process; they are deliberately never compacted
automatically (a live process's shard cannot be distinguished from a
dead one, and folding a live shard into the base would double-count its
next flush).
"""

import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import secrets
import tempfile

from repro.runtime.config import _canonical_json
from repro.runtime.records import RECORD_SCHEMA_VERSION, RunRecord
from repro.utils.errors import ReproError

#: Version of the on-disk entry layout (bumped when the layout changes;
#: every older entry then reads as a miss).  3: an envelope line, then
#: the record's canonical JSON line.
CACHE_SCHEMA_VERSION = 3

_COUNTER_FIELDS = ("hits", "misses", "puts", "evictions")

#: What a read treats as an unusable entry (a miss), never as a crash.
_UNREADABLE = (OSError, TypeError, ValueError, KeyError, ReproError)


def _checksum(envelope, line):
    """SHA-256 over an entry's envelope (minus ``sha256``) and record line."""
    digest = hashlib.sha256(_canonical_json(envelope).encode())
    digest.update(b"\n")
    digest.update(line)
    return digest.hexdigest()


@functools.lru_cache(maxsize=256)
def _fingerprint(circuit_ref):
    """Per-process memo of :meth:`CircuitRef.fingerprint` (builds the circuit)."""
    return circuit_ref.fingerprint()


def scenario_key(scenario):
    """Stable cache key: the scenario's content hash (no circuit build)."""
    return scenario.content_hash()


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """A point-in-time view of a cache directory."""

    entries: int
    total_bytes: int
    hits: int
    misses: int
    puts: int
    evictions: int

    def summary(self):
        return (f"{self.entries} entries, {self.total_bytes} bytes; "
                f"{self.hits} hits, {self.misses} misses, "
                f"{self.puts} puts, {self.evictions} evicted")


class ResultCache:
    """Directory-backed store mapping scenario specs to run records.

    Parameters
    ----------
    root:
        Cache directory (created if missing).
    verify_fingerprints:
        When true, ``get`` rebuilds the scenario's circuit and compares
        its fingerprint against the entry's before serving it (stale
        entries count as misses).  Off by default — it reintroduces the
        serial circuit-build cost that spec-hash keys exist to avoid,
        and is only needed when netlist files may mutate in place.
    """

    def __init__(self, root, verify_fingerprints=False):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.verify_fingerprints = bool(verify_fingerprints)
        self._pending = {name: 0 for name in _COUNTER_FIELDS}
        # This instance's lifetime totals, mirrored into its own shard
        # file on flush.  The pid + random token name keeps shards
        # collision-free across processes and across instances within
        # one process (and across pid reuse).
        self._lifetime = {name: 0 for name in _COUNTER_FIELDS}
        self.shard_path = (self._shard_dir
                           / f"{os.getpid()}-{secrets.token_hex(4)}.json")

    def path_for(self, scenario):
        key = scenario_key(scenario)
        return self.root / key[:2] / f"{key}.json"

    @property
    def _stats_path(self):
        """Legacy single-file counter base (read + compaction target)."""
        return self.root / "stats.json"

    @property
    def _shard_dir(self):
        return self.root / "stats.d"

    def _bump(self, **deltas):
        """Accumulate counter deltas in memory (see :meth:`flush`).

        Hits, misses and puts buffer without touching the filesystem —
        a sweep does zero counter I/O per scenario; evictions,
        :meth:`stats` and the runner's and worker's end-of-work hooks flush.
        """
        for name, delta in deltas.items():
            self._pending[name] += delta

    @staticmethod
    def _write_atomic(path, payload):
        """Write ``payload`` (bytes) to ``path``: temp file + rename."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def flush(self):
        """Persist buffered counters to this instance's shard (atomic).

        Counters persist only here, once per sweep or shard, not per
        record.  Only the instance's own shard is ever rewritten, so
        concurrent processes flushing into one cache directory never
        clobber each other's counts.  Best-effort on I/O error: counters
        are observability, so a transient failure writing the shard must
        never kill a worker mid-sweep — the folded totals stay in
        memory and the next successful flush rewrites the shard with
        the full lifetime counts, healing the gap.
        """
        if not any(self._pending.values()):
            return
        for name, delta in self._pending.items():
            self._lifetime[name] += delta
        self._pending = {name: 0 for name in _COUNTER_FIELDS}
        try:
            self._write_atomic(self.shard_path,
                               json.dumps(self._lifetime).encode())
        except OSError:
            pass

    @staticmethod
    def _read_counters(path):
        try:
            data = json.loads(path.read_text())
            return {name: int(data.get(name, 0)) for name in _COUNTER_FIELDS}
        except (OSError, TypeError, ValueError):
            return None

    def _load_counters(self):
        """Merged view: the legacy base file plus every counter shard."""
        counters = self._read_counters(self._stats_path) or \
            {name: 0 for name in _COUNTER_FIELDS}
        for shard in sorted(self._shard_dir.glob("*.json")):
            read = self._read_counters(shard)
            if read is not None:
                for name in _COUNTER_FIELDS:
                    counters[name] += read[name]
        return counters

    # -- read / write -----------------------------------------------------------

    @staticmethod
    def _read_entry(path):
        """Validate one entry: ``(envelope, canonical line)``; raises on junk.

        The single validation path behind :meth:`get`, :meth:`peek` and
        :meth:`read`, so no two reads can diverge on what counts as a
        valid entry: exactly two lines, the envelope's kind and schemas,
        and its checksum over the other envelope fields and line 2.  A
        line whose checksum matches was written by :meth:`put` from a
        validated :class:`RunRecord` (whose constructor refuses
        non-finite values), so callers may serve its bytes unparsed.
        """
        head, line, rest = path.read_bytes().split(b"\n")
        envelope = json.loads(head)
        if rest or not isinstance(envelope, dict) or \
                envelope.get("kind") != "cache_entry":
            raise ReproError("not a cache entry")
        if envelope.get("schema") != CACHE_SCHEMA_VERSION or \
                envelope.get("record_schema") != RECORD_SCHEMA_VERSION:
            raise ReproError("cache entry schema mismatch")
        if envelope.pop("sha256", None) != _checksum(envelope, line):
            raise ReproError("cache entry checksum mismatch")
        return envelope, line

    @staticmethod
    def entry_record(envelope, line):
        """The :class:`RunRecord` of a :meth:`read` entry, with the
        telemetry (runtime, memory, fingerprint) restored from its
        envelope — the record exactly as the worker produced it."""
        data = json.loads(line)
        for name in ("runtime_s", "memory_bytes", "fingerprint"):
            data[name] = envelope[name]
        return RunRecord.from_dict(data)

    def read(self, scenario):
        """The stored ``(envelope, canonical line)``, or ``None``.

        No side effects (no counters, no LRU touch).  The line is the
        record's :meth:`RunRecord.canonical_json` as ``bytes``, exactly
        as :meth:`put` wrote it: the read the queue's gather and the
        HTTP records endpoint splice from.
        """
        try:
            return self._read_entry(self.path_for(scenario))
        except _UNREADABLE:
            return None

    def get(self, scenario):
        """The cached :class:`RunRecord` (marked ``cached=True``), or ``None``.

        Unreadable, schema-incompatible, or (under
        ``verify_fingerprints``) stale entries count as misses — the
        runner recomputes and overwrites them — rather than aborting a
        sweep over one corrupt file.
        """
        path = self.path_for(scenario)
        try:
            envelope, line = self._read_entry(path)
            record = self.entry_record(envelope, line)
        except _UNREADABLE:
            self._bump(misses=1)
            return None
        if self.verify_fingerprints:
            stored = envelope["fingerprint"]
            # Deliberately unmemoized: verification exists to catch files
            # edited on disk *during this process's lifetime*, so the
            # circuit is rebuilt and re-hashed on every verified read.
            if stored and stored != scenario.circuit.fingerprint():
                self._bump(misses=1)
                return None
        try:
            os.utime(path)  # LRU recency for prune()
        except OSError:
            pass
        self._bump(hits=1)
        return dataclasses.replace(record, cached=True)

    def peek(self, scenario):
        """The stored record verbatim, or ``None`` — no side effects.

        :meth:`read`, parsed.  Unlike :meth:`get` this neither bumps
        counters, touches the entry's LRU recency, nor flips the
        record's ``cached`` flag: the record round-trips exactly as the
        worker produced it.
        """
        try:
            return self.entry_record(
                *self._read_entry(self.path_for(scenario)))
        except _UNREADABLE:
            return None

    def put(self, scenario, record):
        """Persist ``record`` atomically; returns the entry path.

        The record's canonical JSON is encoded here, once, and stored as
        line 2 verbatim.  The envelope stores the realized-circuit
        fingerprint beside it: taken from the record itself when the
        worker computed it (the normal path — no circuit build here),
        else computed now.  The put is counted at the next :meth:`flush`.
        """
        line = record.canonical_json().encode()
        fingerprint = record.fingerprint or _fingerprint(scenario.circuit)
        envelope = {
            "kind": "cache_entry",
            "schema": CACHE_SCHEMA_VERSION,
            "record_schema": RECORD_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "runtime_s": float(record.runtime_s),
            "memory_bytes": int(record.memory_bytes),
        }
        envelope["sha256"] = _checksum(envelope, line)
        path = self.path_for(scenario)
        self._write_atomic(
            path, _canonical_json(envelope).encode() + b"\n" + line + b"\n")
        self._bump(puts=1)
        return path

    # -- maintenance ------------------------------------------------------------

    def _entry_paths(self):
        """Every cache entry file (excluding the ``stats.d`` shards)."""
        for path in self.root.glob("*/*.json"):
            if path.parent.name != "stats.d":
                yield path

    def _entries(self):
        """(path, stat) per entry, oldest access first."""
        entries = []
        for path in self._entry_paths():
            try:
                entries.append((path, path.stat()))
            except OSError:
                continue
        entries.sort(key=lambda item: (item[1].st_mtime, str(item[0])))
        return entries

    def stats(self):
        """Current :class:`CacheStats` (scans entries, loads counters)."""
        self.flush()
        entries = self._entries()
        counters = self._load_counters()
        return CacheStats(
            entries=len(entries),
            total_bytes=sum(st.st_size for _, st in entries),
            **counters,
        )

    def prune(self, max_bytes):
        """Evict least-recently-used entries until ≤ ``max_bytes`` remain.

        Returns ``(evicted_count, freed_bytes)``.
        """
        if max_bytes < 0:
            raise ReproError("max_bytes must be non-negative")
        entries = self._entries()
        total = sum(st.st_size for _, st in entries)
        evicted = 0
        freed = 0
        for path, st in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= st.st_size
            freed += st.st_size
            evicted += 1
        if evicted:
            self._bump(evictions=evicted)
            self.flush()
        return evicted, freed

    def merge(self, other):
        """Union another cache's entries into this one; ``(copied, skipped)``.

        The cross-host story: entries are keyed by scenario content
        hash and records are deterministic, so two caches produced by
        different machines draining (parts of) the same sweep merge by
        filename — an entry already present locally is necessarily
        byte-equivalent in canonical content and is skipped.  Copies are
        atomic (temp file + rename), so sweeps reading this cache
        concurrently never observe torn entries.  Counters are not
        merged; they describe each cache's own traffic.
        """
        if not isinstance(other, ResultCache):
            path = pathlib.Path(other)
            if not path.is_dir():
                raise ReproError(f"no such cache directory: {path}")
            other = ResultCache(path)
        copied = skipped = 0
        for source in other._entry_paths():
            target = self.root / source.parent.name / source.name
            if target.exists():
                skipped += 1
                continue
            try:
                payload = source.read_bytes()
            except OSError:
                continue    # pruned from under us mid-merge
            self._write_atomic(target, payload)
            copied += 1
        return copied, skipped

    def __len__(self):
        return sum(1 for _ in self._entry_paths())

    def __contains__(self, scenario):
        return self.path_for(scenario).exists()

    def clear(self):
        """Drop every entry (keeps the directory and the counters)."""
        for entry in self._entry_paths():
            entry.unlink()
