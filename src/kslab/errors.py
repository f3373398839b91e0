"""Shared exception types, and where a text file stops being UTF-8."""

import re


class VerificationError(Exception):
    """An internal consistency check failed (two routes disagreed)."""


def undecodable_line(path: str) -> str:
    """``line N: byte 0xXX is not UTF-8`` for the first byte of the file
    at ``path`` that does not decode, lines counted as the readers count
    them.

    A text reader decodes a buffer ahead of the line it returns, so its
    decode error cannot name the line; this reads the file again, a
    bounded piece at a time, on that error path only.
    """
    lineno = 1
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        while piece := fh.readline(1 << 16):
            if bad := re.search("[\udc80-\udcff]", piece):
                return f"line {lineno}: byte {ord(bad.group()) - 0xDC00:#04x} is not UTF-8"
            lineno += piece.endswith("\n")
    return "not UTF-8 text"
