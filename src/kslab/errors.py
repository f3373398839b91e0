"""Shared exception types, and the check every line of an input file passes."""

import re


class VerificationError(Exception):
    """An internal consistency check failed (two routes disagreed)."""


def line_fault(line: str, length: int, limit: int) -> str | None:
    """What is wrong with one line of input, or None when it is fine.

    The readers open files with ``errors="surrogateescape"``, so a byte
    that is not UTF-8 arrives as a lone surrogate on the line that holds
    it and is reported as ``byte 0xXX is not UTF-8``.  Otherwise a
    ``length`` (the characters read so far of the line or record) over
    ``limit`` is ``longer than L characters``.
    """
    if not line.isascii() and (bad := re.search("[\udc80-\udcff]", line)):
        return f"byte {ord(bad.group()) - 0xDC00:#04x} is not UTF-8"
    if length > limit:
        return f"longer than {limit} characters"
    return None
