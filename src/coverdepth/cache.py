"""Append-only JSON-lines cache for analysis reports.

Keys are canonical JSON objects (graph, field, operation, parameters) named
by their sha256, which ``key_hash`` computes and ``get`` and ``put`` take.
A key leaves out the instance's name and seed, so one entry serves every
instance of its graph.  The cache is one log, <cache-dir>/reports.jsonl:
each report is one ``[digest, value]`` line.  ``load`` reads the log once
into a ``Log``, which opens one ``O_APPEND`` descriptor at its first
``put`` and holds it until ``close``; each line is one write(2) to it, which
keeps concurrent writers' lines whole on a local filesystem but not on NFS.
A torn, glued or corrupt line, or one whose value is not a JSON object,
reads as a miss.  A batch encodes each report it meets once, as a
``ReportText``: a hit's output line is spliced from that text and the
instance's own name and seed, and a new report's text is both its log
line's value and its output line.  Blob trees of earlier versions
(<2 hex>/<digest>.json) are left unread; deleting the cache directory
reclaims them.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path
from typing import Any, NamedTuple, Optional

CACHE_ENV = "COVERDEPTH_CACHE"


def log_path() -> Path:
    return Path(os.environ.get(CACHE_ENV, ".coverdepth-cache")) / "reports.jsonl"


# the bytes of json.dumps(obj, sort_keys=True), without an encoder per line
_encode = json.JSONEncoder(sort_keys=True).encode
# the bytes of json.dumps(obj, sort_keys=True, separators=(",", ":")), which
# every key_hash has hashed, so logs written earlier still hit
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def key_hash(key_obj: Any) -> str:
    return hashlib.sha256(_canonical(key_obj).encode("utf-8")).hexdigest()


class ReportText(NamedTuple):
    """A report's canonical encoding, cut around its top-level "name" and
    "seed" values: ``line(n, s)`` is ``json.dumps({**report, "name": n,
    "seed": s}, sort_keys=True)``, byte for byte."""

    head: str
    middle: str
    tail: str

    @classmethod
    def of(cls, report: dict[str, Any]) -> ReportText:
        # The keys sort around "name" and "seed" into three groups, each
        # encoded as one object whose braces are dropped.
        groups: tuple[dict[str, Any], ...] = ({}, {}, {})
        for key, value in report.items():
            if key != "name" and key != "seed":
                groups[(key > "name") + (key > "seed")][key] = value
        before, between, after = (_encode(group)[1:-1] for group in groups)
        return cls("{" + (before + ", " if before else "") + '"name": ',
                   ", " + (between + ", " if between else "") + '"seed": ',
                   (", " + after if after else "") + "}")

    def line(self, name: Any, seed: Any) -> str:
        return f"{self.head}{_encode(name)}{self.middle}{_encode(seed)}{self.tail}"


class Log(dict):
    """Digest -> value for every well-formed line of the log, plus the
    log's append descriptor, opened at the first ``append`` and held until
    ``close`` (or until the ``with`` block that holds the log ends)."""

    def __init__(self, path: Path):
        super().__init__()
        self.path = path
        self._file: Optional[io.FileIO] = None

    def append(self, line: bytes) -> None:
        """Append ``line`` by one write(2); a short write raises OSError."""
        if self._file is None:
            self._file = io.FileIO(self.path, "a")  # O_WRONLY | O_CREAT | O_APPEND
        written = self._file.write(line)
        if written != len(line):  # the torn line, and the next one glued to it, read as misses
            raise OSError(f"short write to {self.path}: {written} of {len(line)} bytes")

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> Log:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def load() -> Log:
    """The log's well-formed lines (empty if there is no log).  Also makes
    the cache directory, so ``put`` can append to the log."""
    path = log_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    entries = Log(path)
    try:
        lines = path.read_bytes().splitlines()
    except FileNotFoundError:
        return entries
    for line in lines:
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], str) and isinstance(entry[1], dict)):
            entries[entry[0]] = entry[1]
    return entries


def get(digest: str, entries: Log) -> Optional[Any]:
    """The value stored under ``digest`` (a ``key_hash``), or None."""
    return entries.get(digest)


def put(digest: str, value: Any, entries: Log, text: Optional[str] = None) -> str:
    """Append one line for ``value`` under ``digest`` (a ``key_hash``) to the
    log, record it in ``entries`` and return ``value``'s encoding, which the
    line holds: the same bytes as ``json.dumps([digest, value], sort_keys=True)``.
    A caller that already holds that encoding passes it as ``text``."""
    if text is None:
        text = _encode(value)
    entries.append(f"[{_encode(digest)}, {text}]\n".encode("utf-8"))
    entries[digest] = value
    return text
