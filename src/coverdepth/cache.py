"""Content-addressed JSON cache for analysis results.

Keys are canonical JSON objects (graph, field, operation, parameters); the
blob lives under <cache-dir>/<first two hex>/<hash>.json.  Writes go through
a temp file and rename, so concurrent identical writes are idempotent.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Optional

CACHE_ENV = "COVERDEPTH_CACHE"
DEFAULT_CACHE_DIR = ".coverdepth-cache"


def cache_dir() -> Path:
    return Path(os.environ.get(CACHE_ENV, DEFAULT_CACHE_DIR))


def key_hash(key_obj: Any) -> str:
    canon = json.dumps(key_obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _blob_path(digest: str) -> Path:
    return cache_dir() / digest[:2] / f"{digest}.json"


def get(key_obj: Any) -> Optional[Any]:
    try:
        return json.loads(_blob_path(key_hash(key_obj)).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def put(key_obj: Any, value: Any) -> None:
    path = _blob_path(key_hash(key_obj))
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(value, sort_keys=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
