"""Text files as the program reads them: UTF-8, with a byte sequence that is not UTF-8 named by file and line."""

from __future__ import annotations

from pathlib import Path


def decode_utf8(data: bytes, path: str | Path, first_line: int = 1) -> str:
    """`data`, read from `path` starting at line `first_line`, decoded as UTF-8.

    A byte sequence that is not UTF-8 fails as `path:line: not valid UTF-8`.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = first_line + data.count(b"\n", 0, exc.start)
        raise ValueError(f"{path}:{line}: not valid UTF-8") from None


def read_text(path: str | Path) -> str:
    """The whole file at `path` as UTF-8 text (see `decode_utf8`)."""
    return decode_utf8(Path(path).read_bytes(), path)
