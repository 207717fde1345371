"""Atomic file writes: a reader, or a later run, finds the previous file or
the complete new one, never a truncated mix."""
from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, data: bytes | str) -> None:
    """Write ``data`` to a temporary file beside ``path``, then ``os.replace`` it.

    Safe against a process that is killed or fails mid-write; the temporary
    file is removed when the write fails.  Not ``fsync``-ed, so a power loss
    may still lose the new contents.
    """
    path = Path(path)
    payload = data.encode() if isinstance(data, str) else data
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
