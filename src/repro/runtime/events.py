"""Append-only JSONL event stream for sweep progress.

The queue subsystem's observability channel: every worker appends one
JSON object per line to a shared ``events.jsonl`` — shard lifecycle
(``shard_claimed`` / ``shard_done`` / ``shard_released`` /
``shard_failed`` / ``shard_retry`` / ``lease_reclaimed``), per-record
completions (``record_done``, carrying a trimmed
:class:`~repro.runtime.records.RunRecord` payload so a watcher can
render live tables without touching the results store), per-shard solve
timings (``shard_timing``, carrying the circuit label, scenario counts,
the submitter's ``est_cost`` and the measured ``elapsed_s`` — what
``repro queue status`` renders as estimated-vs-actual), worker
lifecycle (``worker_started`` / ``worker_done``), and liveness
(``heartbeat``).  :func:`tail_events` is the consumer side: an
incremental reader that survives torn trailing lines and can *follow*
the file as writers append, which is what ``repro queue watch`` and
:func:`repro.analysis.live.watch_queue` sit on.

Concurrency model: each event is a single ``write`` on a descriptor
opened with ``O_APPEND``, which POSIX keeps atomic for writes up to
``PIPE_BUF`` and which in practice never interleaves for the line sizes
produced here (``record_done`` payloads omit the per-component size
vector precisely to stay small).  The reader is defensive anyway: a
line that does not parse as a JSON object is skipped, never fatal —
monitoring must not take down a sweep.

Crashed writers leave two distinct stains the readers absorb:

* a **torn trailing line** (the writer died mid-``write``, or is about
  to finish it) — held back until its newline arrives, then parsed
  normally;
* a **torn interior fragment** — a half-written line the *next*
  writer's ``O_APPEND`` landed right after, merging fragment and a
  complete event onto one physical line.  The parser salvages the
  complete event from the merged line (scanning for an embedded JSON
  object with a ``kind``) instead of silently losing it, and counts
  one ``corrupt_lines`` for the fragment — pass a ``stats`` dict to
  :func:`read_events` / :func:`tail_events` to observe the count.
"""

import json
import os
import time

__all__ = ["EventLog", "EventTail", "read_events", "tail_events"]


class EventLog:
    """Writer handle for one append-only event file.

    Stateless between calls — every :meth:`append` opens, writes one
    line, and closes, so any number of processes can share one log with
    no coordination beyond ``O_APPEND``.  ``worker`` (when given) is
    stamped into every event, so one log interleaves the streams of all
    workers draining a queue.
    """

    def __init__(self, path, worker=""):
        self.path = path
        self.worker = str(worker)

    def _render(self, kind, **fields):
        """Build one event and its encoded line: ``(event, line_bytes)``."""
        event = {"kind": str(kind), "ts": round(time.time(), 6)}
        if self.worker:
            event["worker"] = self.worker
        event.update(fields)
        line = json.dumps(event, sort_keys=True, separators=(",", ":"))
        return event, (line + "\n").encode()

    def _write(self, data):
        """One ``O_APPEND`` write of ``data`` (bytes) to the log file."""
        fd = os.open(str(self.path),
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)

    def append(self, kind, **fields):
        """Write one event; returns the event dict as written."""
        event, line = self._render(kind, **fields)
        self._write(line)
        return event


def _salvage(line):
    """Recover the complete event from a torn-fragment + event merge.

    A writer that died mid-write leaves a partial line with no newline;
    the next ``O_APPEND`` lands directly after it, so one physical line
    reads ``<fragment>{"kind":...}``.  Scan for embedded JSON-object
    starts and return the first suffix that parses to an event dict —
    or ``None`` when the line is junk through and through.
    """
    pos = line.find(b'{"', 1)
    while pos > 0:
        try:
            event = json.loads(line[pos:])
        except ValueError:
            pass
        else:
            if isinstance(event, dict) and "kind" in event:
                return event
        pos = line.find(b'{"', pos + 1)
    return None


def _parse_lines(chunk, buffer):
    """Split ``buffer + chunk`` into complete lines.

    Returns ``(events, rest, corrupt)``: the parsed events, the trailing
    partial line (a writer mid-append) held back until its newline
    arrives, and the number of corrupt line fragments encountered —
    torn interior fragments whose trailing event was salvaged (see
    :func:`_salvage`) and outright junk lines alike.
    """
    buffer += chunk
    events = []
    corrupt = 0
    while True:
        newline = buffer.find(b"\n")
        if newline < 0:
            return events, buffer, corrupt
        line, buffer = buffer[:newline], buffer[newline + 1:]
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except ValueError:
            corrupt += 1
            event = _salvage(line)
            if event is None:
                continue
        if isinstance(event, dict) and "kind" in event:
            events.append(event)


class EventTail:
    """Incremental, resumable reader over one event file.

    The stateful core both consumers of the stream share: the blocking
    generator :func:`tail_events` (terminal watchers) and the asyncio
    service tier (:mod:`repro.runtime.api`), which cannot block in
    ``time.sleep`` and instead awaits between :meth:`poll` calls.  An
    instance remembers its byte offset and the torn trailing line held
    back from the previous poll, so each :meth:`poll` returns exactly
    the events appended since the last one — including an event
    salvaged from a torn interior fragment, which bumps
    ``stats["corrupt_lines"]`` just like the module-level readers do.
    """

    def __init__(self, path, stats=None):
        self.path = path
        self.stats = stats if stats is not None else {}
        self.stats.setdefault("corrupt_lines", 0)
        self._offset = 0
        self._buffer = b""

    @property
    def corrupt_lines(self):
        """Torn/junk fragments seen so far (mirrors ``stats``)."""
        return self.stats["corrupt_lines"]

    def poll(self):
        """Every complete event appended since the previous poll.

        Never blocks and never raises on I/O problems: a missing file —
        the log may not have seen its first event yet — reads as no new
        events.
        """
        try:
            with open(str(self.path), "rb") as handle:
                handle.seek(self._offset)
                chunk = handle.read()
        except OSError:
            return []
        self._offset += len(chunk)
        events, self._buffer, corrupt = _parse_lines(chunk, self._buffer)
        if corrupt:
            self.stats["corrupt_lines"] += corrupt
        return events


def read_events(path, stats=None):
    """Every complete, well-formed event currently in ``path`` (a list).

    A missing file reads as an empty log (the queue may not have seen
    its first event yet); a torn trailing line is excluded until its
    writer (or a successor's append) completes it.  Pass a mutable
    ``stats`` dict to receive a ``corrupt_lines`` count of torn/junk
    fragments encountered (salvaged events still appear in the result).
    """
    try:
        with open(str(path), "rb") as handle:
            chunk = handle.read()
    except OSError:
        if stats is not None:
            stats["corrupt_lines"] = stats.get("corrupt_lines", 0)
        return []
    events, _, corrupt = _parse_lines(chunk, b"")
    if stats is not None:
        stats["corrupt_lines"] = stats.get("corrupt_lines", 0) + corrupt
    return events


def tail_events(path, follow=False, poll_s=0.1, timeout_s=None, stop=None,
                stats=None):
    """Yield events from ``path`` incrementally, oldest first.

    With ``follow=False`` (the default) yields what is currently on disk
    and returns.  With ``follow=True`` the generator keeps polling for
    appended lines until

    * ``stop`` (a callable, checked between polls) returns true — the
      normal exit, e.g. "the sweep is complete", or
    * ``timeout_s`` elapses with no *new* event arriving (``None`` waits
      forever).

    Reading is offset-based, not inotify-based: portable, and a reader
    that starts late replays the whole history first — exactly what a
    progress dashboard wants.  A torn trailing line (a writer killed
    mid-append) never wedges the tail: it is held in the line buffer
    and resolves either when a successor's append completes the
    physical line (the merged line's event is salvaged, the fragment
    counted) or never — in which case it simply stays unparsed.  Pass a
    mutable ``stats`` dict to accumulate ``corrupt_lines`` across the
    tail's lifetime.
    """
    tail = EventTail(path, stats=stats)
    waited = 0.0
    while True:
        events = tail.poll()
        if events:
            waited = 0.0
            for event in events:
                yield event
        if not follow:
            return
        if stop is not None and stop():
            return
        if timeout_s is not None and waited >= timeout_s:
            return
        time.sleep(poll_s)
        waited += poll_s
