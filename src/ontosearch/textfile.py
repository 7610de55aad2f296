"""Text files as the program reads and writes them: UTF-8, with a byte sequence that is not
UTF-8 named by file and line on read, and a whole file committed durably by one rename on write."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def decode_utf8(data: bytes, path: str | Path) -> str:
    """`data`, the whole file read from `path`, decoded as UTF-8.

    A byte sequence that is not UTF-8 fails as `path:line: not valid UTF-8`.
    Decoding is strict, so the text encodes back to exactly `data`: a digest
    of the text is a digest of the bytes that were read.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = 1 + data.count(b"\n", 0, exc.start)
        raise ValueError(f"{path}:{line}: not valid UTF-8") from None


def read_text(path: str | Path) -> str:
    """The whole file at `path` as UTF-8 text (see `decode_utf8`)."""
    return decode_utf8(Path(path).read_bytes(), path)


def _current_umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


# what open() would give a new file; mkstemp alone creates it owner-only
_NEW_FILE_MODE = 0o666 & ~_current_umask()


def write_text(path: Path, content: str) -> None:
    """Replace ``path`` with ``content``, as UTF-8, in one rename.

    The text goes to a uniquely named temp file in the target's directory
    first, so readers see the old file or the new one, never a partial
    write, and concurrent writers never share a temp file. The temp file is
    flushed and fsynced before the rename, and the directory after it, so
    once this returns a crash leaves the new file whole. A failed write
    removes its temp file and leaves any old file as it was.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, _NEW_FILE_MODE)
            fh.write(content)
            fh.flush()
            os.fsync(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
