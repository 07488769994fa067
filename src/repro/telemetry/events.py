"""The append-only JSONL event stream of a run directory.

One file, one JSON object per line, every record carrying a ``kind``
and a wall-clock ``time`` -- the format the resilience ``RunJournal``
introduced, promoted here to the run's *single* event stream: metric
samples, spans, physics observables, audit results, checkpoint and
recovery events all land in the same file
(``events.jsonl`` by default), so one ``python -m
repro.telemetry.report`` pass reconstructs what a run did, whether it
was serial, sharded, or supervised through three crash recoveries.

:class:`repro.resilience.supervisor.RunJournal` is now a thin subclass
writing ``journal.jsonl`` -- same API, same format, kept as its own
file so existing run directories and tooling keep working.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import List, Union

from repro.telemetry.stream import snapshot_records

PathLike = Union[str, pathlib.Path]


class EventStream:
    """Append-only JSONL writer/reader for one run directory.

    Every record is one JSON object per line with at least a ``kind``
    field and a wall-clock ``time``.  The in-memory ``events`` list
    mirrors what this process appended; :meth:`load` reads the whole
    file back (including records from previous processes).
    """

    #: File name inside the run directory; subclasses override.
    filename = "events.jsonl"

    def __init__(self, run_dir: PathLike) -> None:
        self.run_dir = pathlib.Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.run_dir / self.filename
        self.events: List[dict] = []
        self._fh = None

    def _handle(self):
        # Lazily opened and then kept open: an open()/close() pair per
        # record is the dominant telemetry cost on the hot path.  Each
        # write is flushed, so the file stays valid line-by-line even
        # when a crash truncates the run.
        if self._fh is None or self._fh.closed:
            _cut_torn_tail(self.path)
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def append(self, record: dict) -> None:
        """Record one event (in memory and to the stream file)."""
        record = dict(record)
        record.setdefault("time", time.time())
        self.events.append(record)
        fh = self._handle()
        fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        fh.flush()

    def append_many(self, records) -> None:
        """Record a batch of events with a single write/flush."""
        lines = []
        for record in records:
            record = dict(record)
            record.setdefault("time", time.time())
            self.events.append(record)
            lines.append(json.dumps(record, separators=(",", ":")) + "\n")
        if not lines:
            return
        fh = self._handle()
        fh.writelines(lines)
        fh.flush()

    def emit(self, kind: str, **fields) -> None:
        """``append`` with the ``kind`` spelled as an argument."""
        self.append({"kind": kind, **fields})

    def close(self) -> None:
        """Close the underlying file handle (reopened on next append)."""
        if self._fh is not None and not self._fh.closed:
            self._fh.close()
        self._fh = None

    @classmethod
    def load(cls, run_dir: PathLike) -> List[dict]:
        """Parse every record of a run directory's stream file."""
        path = pathlib.Path(run_dir) / cls.filename
        return cls.load_path(path)

    @staticmethod
    def load_path(path: PathLike) -> List[dict]:
        """Every complete record of a stream file (a torn final line,
        left by a writer killed mid-append, is dropped; garbage before
        it is a :class:`~repro.errors.ServiceJournalError`)."""
        return snapshot_records(path)


def _cut_torn_tail(path: pathlib.Path) -> None:
    """Cut a stream file back to its last newline: a writer killed
    mid-append leaves a partial final line, onto which the next record
    would weld and then be read as torn itself."""
    with open(path, "ab+") as fh:
        fh.seek(max(fh.seek(0, 2) - 1, 0))
        if fh.read(1) not in (b"", b"\n"):
            fh.seek(0)
            fh.truncate(fh.read().rfind(b"\n") + 1)
