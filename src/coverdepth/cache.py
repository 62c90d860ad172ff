"""Append-only JSON-lines cache for analysis results.

Keys are canonical JSON objects (graph, field, operation, parameters) named
by their sha256, which ``key_hash`` computes and ``get`` and ``put`` take.
The cache is one log, <cache-dir>/reports.jsonl: each report is one
``[digest, value]`` line, appended by a single write to an ``O_APPEND``
descriptor, which keeps concurrent writers' lines whole on a local
filesystem but not on NFS.  ``put`` encodes the value once and returns
the text, which a batch writes as that report's output line.  A batch holds
the parsed log in memory; a torn, glued or corrupt line reads as a miss.
Blob trees of earlier versions (<2 hex>/<digest>.json) are left unread;
deleting the cache directory reclaims them.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Optional

CACHE_ENV = "COVERDEPTH_CACHE"


def log_path() -> Path:
    return Path(os.environ.get(CACHE_ENV, ".coverdepth-cache")) / "reports.jsonl"


# the bytes of json.dumps(obj, sort_keys=True), without an encoder per line
_encode = json.JSONEncoder(sort_keys=True).encode


def key_hash(key_obj: Any) -> str:
    canon = json.dumps(key_obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def load() -> dict[str, Any]:
    """Digest -> value for every well-formed line of the log ({} if none).
    Also makes the cache directory, so ``put`` can append to the log."""
    path = log_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        lines = path.read_bytes().splitlines()
    except FileNotFoundError:
        return {}
    entries: dict[str, Any] = {}
    for line in lines:
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str):
            entries[entry[0]] = entry[1]
    return entries


def get(digest: str, entries: dict[str, Any]) -> Optional[Any]:
    """The value stored under ``digest`` (a ``key_hash``), or None."""
    return entries.get(digest)


def put(digest: str, value: Any, entries: dict[str, Any]) -> str:
    """Append one line for ``value`` under ``digest`` (a ``key_hash``) to the
    log, record it in ``entries`` and return ``value``'s encoding, which the
    line holds: the same bytes as ``json.dumps([digest, value], sort_keys=True)``."""
    text = _encode(value)
    line = f"[{_encode(digest)}, {text}]\n".encode("utf-8")
    path = log_path()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666)
    try:
        written = os.write(fd, line)
    finally:
        os.close(fd)
    if written != len(line):  # the torn line, and the next one glued to it, read as misses
        raise OSError(f"short write to {path}: {written} of {len(line)} bytes")
    entries[digest] = value
    return text
