"""Cursor-based tail-following of append-only JSONL streams.

The run artifacts (``events.jsonl``, ``worker.jsonl``, the service
journal) are all append-only JSONL files written by *other* processes,
flushed line by line.  Everything that wants to observe them live --
the service's long-poll and SSE routes, the orchestrator's fleet
scraper, ``repro watch`` -- shares the same three problems:

* **torn tails** -- a reader can catch the writer mid-``write``, so
  the final line may be half a record.  A complete record always ends
  in a newline; :class:`JsonlFollower` consumes only newline-terminated
  lines and leaves a torn tail unconsumed until its newline lands (the
  writer is still alive) or forever (the writer crashed -- a snapshot
  reader then drops it, exactly the service journal's torn-tail rule);
* **rotation** -- a file can be truncated or atomically replaced under
  the reader (journal repair rewrites ``service.jsonl`` in place); a
  shrink below the cursor resets the follower to the start;
* **resumable cursors** -- a cursor is a plain byte offset, valid
  across processes and HTTP round-trips, so a disconnected client
  resumes exactly where it stopped without replaying or losing
  records.

:class:`JobEventTail` composes two followers into the merged live view
of one job directory (``worker.jsonl`` + ``events.jsonl``) behind a
single opaque string cursor -- the payload of ``GET
/jobs/<id>/events`` and the ``id:`` field of ``GET /jobs/<id>/stream``.
"""

from __future__ import annotations

import json
import pathlib
from typing import List, Optional, Tuple, Union

from repro.errors import ServiceJournalError

PathLike = Union[str, pathlib.Path]


def snapshot_records(path: PathLike, strict: bool = True) -> List[dict]:
    """One-shot tolerant read of a JSONL file being appended to.

    A torn *final* line (no trailing newline, or unparseable -- the
    writer was mid-``write`` or crashed there) is silently dropped:
    the snapshot loses at most the record being written.  Garbage
    anywhere earlier is real corruption; with ``strict`` (default) it
    raises :class:`~repro.errors.ServiceJournalError` instead of
    silently skipping history, mirroring the service journal's rule.
    Returns ``[]`` for a missing file.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return []
    blob = path.read_bytes()
    complete, torn = _split_complete(blob)
    records: List[dict] = []
    lines = complete.decode("utf-8", errors="replace").splitlines()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if i == len(lines) - 1 and not torn:
                # The final *complete* line can still be the torn one
                # when the crash happened after the newline of the
                # previous record but mid-line here is impossible --
                # a flushed line is complete.  Treat a bad last line
                # as torn either way.
                break
            if strict:
                raise ServiceJournalError(
                    "stream is corrupt before the final record",
                    path=str(path),
                    line=i + 1,
                ) from exc
    return records


def _split_complete(blob: bytes) -> Tuple[bytes, bytes]:
    """Split a byte blob into (newline-terminated prefix, torn tail)."""
    cut = blob.rfind(b"\n") + 1
    return blob[:cut], blob[cut:]


class JsonlFollower:
    """Incremental cursor-based reader of one append-only JSONL file.

    ``poll()`` returns every complete record appended since the
    cursor and advances it; the cursor is a byte offset that can be
    persisted, shipped over HTTP, and handed to a fresh follower in
    another process.  Unparseable *complete* lines are skipped and
    counted in :attr:`dropped` rather than raised -- a live tail must
    keep following past one bad record (the strict snapshot readers
    are the place to fail loudly).
    """

    def __init__(self, path: PathLike, cursor: int = 0) -> None:
        self.path = pathlib.Path(path)
        self.cursor = max(0, int(cursor))
        #: Complete-but-unparseable lines skipped so far.
        self.dropped = 0
        #: Times the file shrank under the cursor (rotation/truncate).
        self.rotations = 0

    def poll(self) -> List[dict]:
        """New complete records since the cursor (advances it)."""
        return [rec for rec, _ in self.poll_records()]

    def poll_records(self) -> List[Tuple[dict, int]]:
        """Like :meth:`poll`, but each record pairs with the cursor
        *after* it -- the exact offset a fresh follower resumes from to
        see everything following that record.  This is what makes
        per-message SSE ids gapless: a client that received only part
        of a batch resumes at its last record, not the batch end.
        """
        try:
            size = self.path.stat().st_size
        except OSError:
            return []
        if size < self.cursor:
            # Truncated or rotated under us: start over from the top.
            self.cursor = 0
            self.rotations += 1
        if size == self.cursor:
            return []
        base = self.cursor
        with open(self.path, "rb") as fh:
            fh.seek(base)
            blob = fh.read(size - base)
        complete, _torn = _split_complete(blob)
        self.cursor += len(complete)
        records: List[Tuple[dict, int]] = []
        start = 0
        while start < len(complete):
            nl = complete.index(b"\n", start)
            line = complete[start:nl]
            end_offset = base + nl + 1
            start = nl + 1
            if not line.strip():
                continue
            try:
                records.append((json.loads(line), end_offset))
            except json.JSONDecodeError:
                self.dropped += 1
        return records


class JobEventTail:
    """The merged live event view of one job directory.

    Follows ``worker.jsonl`` (heartbeats, attempt lifecycle) and
    ``events.jsonl`` (telemetry metric samples, checkpoints,
    recoveries) behind one opaque cursor string ``"<w>:<e>"``.  Span
    records are filtered out -- they are bulk trace data for
    :mod:`repro.telemetry.stitch`, not live status -- and every record
    is annotated with its source file (``src``).
    """

    #: Record kinds excluded from the live view.
    SKIP_KINDS = ("span",)

    def __init__(
        self, job_dir: PathLike, cursor: Optional[str] = None
    ) -> None:
        self.job_dir = pathlib.Path(job_dir)
        w_off, e_off = self.decode_cursor(cursor)
        self._worker = JsonlFollower(
            self.job_dir / "worker.jsonl", cursor=w_off
        )
        self._events = JsonlFollower(
            self.job_dir / "events.jsonl", cursor=e_off
        )

    @staticmethod
    def decode_cursor(cursor: Optional[str]) -> Tuple[int, int]:
        """Parse an opaque ``"<w>:<e>"`` cursor (``None``/"" = start)."""
        if not cursor:
            return 0, 0
        try:
            w, e = str(cursor).split(":")
            return max(0, int(w)), max(0, int(e))
        except ValueError:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"malformed stream cursor {cursor!r}; expected "
                "'<int>:<int>' as returned by a previous poll"
            ) from None

    @property
    def cursor(self) -> str:
        """The current opaque cursor (ship it back to resume)."""
        return f"{self._worker.cursor}:{self._events.cursor}"

    def poll(self) -> List[dict]:
        """New records from both files, time-ordered and annotated.

        Each record carries its source file (``src``) and the
        composite ``cursor`` valid *after* it -- within a file records
        append in time order, so walking the merged sequence while
        advancing one file offset at a time yields a resumable cursor
        per record (the ``id:`` of the SSE route).
        """
        w_cur, e_cur = self._worker.cursor, self._events.cursor
        merged: List[Tuple[float, int, int, dict]] = []
        for src_id, src, follower in (
            (0, "worker", self._worker),
            (1, "telemetry", self._events),
        ):
            for rec, offset in follower.poll_records():
                if rec.get("kind") in self.SKIP_KINDS:
                    continue
                rec["src"] = src
                merged.append(
                    (rec.get("time") or 0.0, src_id, offset, rec)
                )
        merged.sort(key=lambda t: t[0])
        out: List[dict] = []
        for _, src_id, offset, rec in merged:
            if src_id == 0:
                w_cur = offset
            else:
                e_cur = offset
            rec["cursor"] = f"{w_cur}:{e_cur}"
            out.append(rec)
        return out
