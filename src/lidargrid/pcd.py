"""PCD reader/writer.

The reader supports the subset this project handles: FIELDS x y z
[intensity], COUNT 1, and DATA ascii or DATA binary with each field F of
SIZE 4 or 8.  Anything else is rejected with a clear error rather than
guessed at.  The writer emits DATA binary with x y z intensity as
little-endian float64, so a frame reads back bit for bit.

The reader reads a file once, in binary mode.  Header lines end at LF,
CRLF or CR, but after a CR line an LF that follows DATA binary's CR is
the binary body's first byte.  An ASCII body keeps the lines of Python's
text mode, and any other whitespace separates values, as for
``np.loadtxt`` and ``split()``; it is taken in one ``np.loadtxt`` call.
Only when that call fails or returns the wrong shape does the reader
walk the body line by line, to name a bad line in a ``ParseError``.  A
binary body must hold exactly POINTS records: it is sized against the
file before anything is allocated, then read straight into its records,
which are the frame's rows when every field is float64.  The reader only
parses: the frame it returns is validated by ``pipeline.front_half``.
"""

from __future__ import annotations

import io
import os
import re
import warnings

import numpy as np

# validate_frame is not called here, but perfbench/tracing.py wraps it
# under this module's name
from .core import LidarGridError, PointCloudFrame, validate_frame  # noqa: F401


class ParseError(LidarGridError):
    """Malformed PCD header or body; the message names the line."""

    category = "pcd-parse"


class UnsupportedLayout(LidarGridError):
    """Structurally valid PCD that this reader does not handle."""

    category = "pcd-layout"


_HEADER_KEYS = ("VERSION", "FIELDS", "SIZE", "TYPE", "COUNT", "WIDTH",
                "HEIGHT", "VIEWPOINT", "POINTS", "DATA")
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")
_FLOAT_SIZES = {"4": "<f4", "8": "<f8"}


def read_frame_pcd(path, frame_id: int = 0, timestamp: float = 0.0) -> PointCloudFrame:
    """Parse an ASCII or binary PCD file into a frame, as the file holds it.

    A missing intensity field defaults to 0.  Non-finite rows and 8-bit
    intensities are left to ``validate_frame``, whose rule holds for every
    source.  An unreadable file, a malformed header or ASCII row and a
    binary body of the wrong length raise ``ParseError``; a byte that is
    not UTF-8 fails the ASCII line it sits in.
    """
    try:
        with open(path, "rb") as fh:
            n_points, n_fields, record, data_start = _read_header(path, fh)
            body = fh.tell()
            if record is not None:
                rows = _read_records(path, fh, n_points, record)
            else:
                # surrogateescape keeps a stray byte in its line, to fail there
                with io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape") as text:
                    rows = _parse_bulk(text, n_points, n_fields)
                    if rows is None:
                        text.seek(body)
                        rows = _walk_rows(path, text.readlines(), data_start, n_points, n_fields)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from None

    return PointCloudFrame(points=rows, timestamp=timestamp, frame_id=frame_id)


def _header_lines(fh):
    """Each line of ``fh`` from its start, with the offset where it ends.

    Lines end at LF, CRLF or CR; each chunk that ``readline`` returns runs
    to an LF, so no CRLF is split between two.
    """
    start = 0
    for chunk in iter(fh.readline, b""):
        for line in _LINE.finditer(chunk):
            yield line[0], start + line.end()
        start += len(chunk)


def _read_header(path, fh):
    """Consume header lines through DATA, leaving ``fh`` at the body.

    Returns POINTS, the number of fields, the binary record dtype (None for
    an ASCII body) and the line number of DATA.
    """
    header: dict[str, list[str]] = {}
    cr = False  # the line before ended at CR alone
    for lineno, (line, end) in enumerate(_header_lines(fh), start=1):
        after_cr, cr = cr, line.endswith(b"\r")
        stripped = line.decode("utf-8", "surrogateescape").strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        key = parts[0].upper()
        if key not in _HEADER_KEYS:
            raise ParseError(f"{path}: line {lineno}: unexpected header field {parts[0]!r}")
        header[key] = parts[1:]
        if key == "DATA":
            # in a CR header an LF after DATA binary's CR is the body's first byte
            fh.seek(end - (after_cr and line.endswith(b"\r\n")
                           and stripped.lower().endswith("binary")))
            break
    else:
        raise ParseError(f"{path}: missing DATA declaration")
    for key in ("FIELDS", "POINTS"):
        if key not in header:
            raise ParseError(f"{path}: missing {key} declaration")

    body = [f.lower() for f in header["DATA"]]
    if body not in (["ascii"], ["binary"]):
        raise UnsupportedLayout(f"{path}: only DATA ascii and binary are supported")
    fields = [f.lower() for f in header["FIELDS"]]
    if fields not in (["x", "y", "z"], ["x", "y", "z", "intensity"]):
        raise UnsupportedLayout(f"{path}: unsupported FIELDS {fields}")
    if "COUNT" in header and any(c != "1" for c in header["COUNT"]):
        raise UnsupportedLayout(f"{path}: multi-count fields are not supported")
    record = None
    if body == ["binary"]:
        sizes, types = header.get("SIZE", []), header.get("TYPE", [])
        if (len(sizes) != len(fields) or len(types) != len(fields)
                or any(s not in _FLOAT_SIZES for s in sizes)
                or any(t.upper() != "F" for t in types)):
            raise UnsupportedLayout(f"{path}: binary fields must each be TYPE F of SIZE 4 or 8")
        record = np.dtype([(f, _FLOAT_SIZES[s]) for f, s in zip(fields, sizes)])

    try:
        n_points = int(header["POINTS"][0])
    except (IndexError, ValueError):
        n_points = -1
    if n_points < 0:
        raise ParseError(f"{path}: invalid POINTS declaration")
    return n_points, len(fields), record, lineno


def _read_records(path, fh, n_points: int, record: np.dtype) -> np.ndarray:
    """The rest of ``fh``, a binary body, as (n, fields) float64 rows.

    The body is sized from the file before the records are allocated, so
    a POINTS far beyond it is a ``ParseError``, never a ``MemoryError``.
    Float64 records become the rows with no copy; others are converted once.
    """
    size = n_points * record.itemsize
    body = os.fstat(fh.fileno()).st_size - fh.tell()
    if body == size:
        records = np.empty(n_points, record)
        body = fh.readinto(records)  # fewer bytes if the file shrank meanwhile
    if body != size:
        raise ParseError(f"{path}: binary body is {body} bytes, POINTS {n_points} needs {size}")
    rows = records.astype([(name, "<f8") for name in record.names], copy=False)
    return rows.view("<f8").reshape(n_points, len(record.names))


def _parse_bulk(fh, n_points: int, n_fields: int) -> np.ndarray | None:
    """The rest of ``fh`` parsed in one step, or None if that fails.

    ``np.loadtxt`` accepts a subset of what ``float()`` does (no
    underscores, ASCII only) and converts it the same way, so a result of
    the declared shape equals the line walk's.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body
            rows = np.loadtxt(fh, ndmin=2, comments=None)
    except ValueError:
        return None
    return rows if rows.shape == (n_points, n_fields) else None


def _walk_rows(path, lines: list[str], data_start: int, n_points: int,
               n_fields: int) -> np.ndarray:
    """Parse the body line by line; ``lines`` follow line ``data_start``."""
    # there cannot be more rows than lines, whatever POINTS claims
    rows = np.zeros((min(n_points, len(lines)), n_fields))
    row = 0
    for lineno, line in enumerate(lines, start=data_start + 1):
        stripped = line.strip()
        if not stripped:
            continue
        if row >= n_points:
            raise ParseError(f"{path}: line {lineno}: more rows than POINTS {n_points}")
        values = stripped.split()
        if len(values) != n_fields:
            raise ParseError(
                f"{path}: line {lineno}: expected {n_fields} values, got {len(values)}"
            )
        try:
            parsed = [float(v) for v in values]
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric value") from None
        rows[row] = parsed
        row += 1
    if row != n_points:
        raise ParseError(
            f"{path}: line {data_start + len(lines)}: data truncated, {row} of {n_points} rows"
        )
    return rows


def write_frame_pcd(frame: PointCloudFrame, path) -> None:
    """Write a frame as binary PCD: x y z intensity, each a little-endian float64."""
    n = len(frame)
    with open(path, "wb") as fh:
        fh.write(b"VERSION 0.7\nFIELDS x y z intensity\nSIZE 8 8 8 8\nTYPE F F F F\n"
                 b"COUNT 1 1 1 1\nWIDTH %d\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\n"
                 b"POINTS %d\nDATA binary\n" % (n, n))
        fh.write(np.ascontiguousarray(frame.points, "<f8"))
