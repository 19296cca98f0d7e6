"""Crash-safe files: atomic rewrites and append-only record logs.

A campaign killed mid-write must never leave a half-serialized artifact
where the next run (or a resumed one) will trust it.  Whole artifacts
are written to a temporary sibling, then ``os.replace``d — atomic on
POSIX within one filesystem.  Append-only logs (the service journal,
campaign checkpoints) instead share one reading rule, :func:`read_log`:
a torn final line is the append a killed writer never finished.
"""

from __future__ import annotations

import os
import pathlib
import re

_NONBLANK = re.compile(rb"\S")


def atomic_write_text(path: "str | pathlib.Path", text: str) -> pathlib.Path:
    """Write *text* to *path* via write-temp-then-rename; returns the path.

    The temp file is fsynced before the rename so a crash (or power
    loss) immediately after the replace cannot surface a truncated
    file; the parent directory is fsynced best-effort so the rename
    itself is durable.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:
        return path
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)
    return path


def read_log(data: bytes, parse, what: str = "line"):
    """Yield ``(end, record)`` for each record of an append-only log.

    Records are one per line.  *parse* gets each non-blank line, with
    its ``\n`` when it has one, and raises ``ValueError`` for a line
    that is not a whole record; ``end`` is the byte length of the valid
    prefix through that line.  A failing final line is the torn append
    of a killed writer: dropped, and left out of the prefix so the next
    writer can truncate it.  A failing line before it is corruption:
    ``ValueError`` naming it.
    """
    start = number = 0
    while start < len(data):
        end = data.find(b"\n", start) + 1 or len(data)
        number += 1
        if _NONBLANK.search(data, start, end):
            try:
                record = parse(data[start:end])
            except ValueError as exc:
                if _NONBLANK.search(data, end):
                    raise ValueError(f"{what} {number}: {exc}") from exc
                return
            yield end, record
        start = end
