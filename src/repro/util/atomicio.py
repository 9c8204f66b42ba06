"""Crash-safe file writes (write-to-temp, then atomic rename).

A process killed mid-``write_text`` leaves a truncated file behind; any
later reader then dies on half a JSON document.  Every persistent
artefact in this repo (``BENCH_sweep.json``, saved reorderings, sweep
checkpoint cells) instead goes through :func:`atomic_write_text` /
:func:`atomic_write_json`: the payload is written to a ``*.tmp`` sibling
in the same directory and moved into place with ``os.replace``, which is
atomic on POSIX and Windows.  Readers therefore see either the old
complete file or the new complete file — never a torn one.  The temp
name carries the writer's pid and thread id, so concurrent writers of
one path (two fabric workers writing the same manifest) never rename
each other's temp file away.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Union

__all__ = ["atomic_write_text", "atomic_write_json", "exclusive_create_text"]

PathLike = Union[str, Path]


def atomic_write_text(path: PathLike, text: str) -> Path:
    """Write ``text`` to ``path`` atomically; returns the path written."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def atomic_write_json(path: PathLike, payload, indent: int = 1) -> Path:
    """Serialise ``payload`` as JSON and write it atomically.

    The document is fully serialised *before* any file is touched, so a
    non-serialisable payload cannot leave a partial temp file either.
    """
    return atomic_write_text(path, json.dumps(payload, indent=indent) + "\n")


def exclusive_create_text(path: PathLike, text: str) -> bool:
    """Create ``path`` with ``text`` iff it does not exist yet.

    ``O_CREAT | O_EXCL`` makes existence the atomic test-and-set: of any
    number of processes racing to create the same file, exactly one
    succeeds (returns ``True``) and every other caller gets ``False``.
    This is the mutual-exclusion primitive behind the sweep fabric's
    shard leases (:mod:`repro.bench.fabric`).

    Unlike :func:`atomic_write_text` the *content* is not torn-proof —
    the file exists (empty) for the instant between create and write —
    so readers must treat existence + mtime as authoritative and the
    body as advisory.  Lease readers do exactly that.
    """
    path = Path(path)
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    except FileExistsError:
        return False
    try:
        os.write(fd, text.encode())
    finally:
        os.close(fd)
    return True
