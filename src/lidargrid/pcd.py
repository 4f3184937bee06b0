"""ASCII PCD reader/writer.

Supports the subset this project emits: FIELDS x y z [intensity] with
DATA ascii.  Anything else is rejected with a clear error rather than
guessed at.

Lines are those of Python's text mode, ending at LF, CRLF or CR; any
other whitespace separates values, as for ``np.loadtxt`` and ``split()``.
Both directions work in bulk.  The reader opens a file once, takes the
header line by line and the rest in one ``np.loadtxt`` call.  Only when
that call fails or returns the wrong shape does it seek back and walk the
body line by line, to name a bad line in a ``ParseError``.  The writer
formats ``_BLOCK_ROWS`` rows per write with one %-format.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import LidarGridError, PointCloudFrame, validate_frame


class ParseError(LidarGridError):
    """Malformed PCD header or data row; the message names the line."""

    category = "pcd-parse"


class UnsupportedLayout(LidarGridError):
    """Structurally valid PCD that this reader does not handle."""

    category = "pcd-layout"


_HEADER_KEYS = ("VERSION", "FIELDS", "SIZE", "TYPE", "COUNT", "WIDTH",
                "HEIGHT", "VIEWPOINT", "POINTS", "DATA")

# Rows formatted per write.  A block's format string and value tuple stay
# under glibc's 128 KiB mmap threshold; blocks past it are mmapped, the
# threshold then moves up and the process keeps a larger heap.
_BLOCK_ROWS = 256


def read_frame_pcd(path, frame_id: int = 0, timestamp: float = 0.0,
                   validate: bool = True) -> PointCloudFrame:
    """Parse an ASCII PCD file into a frame; one that parses is read once.

    Lines end at LF, CRLF or CR; other whitespace separates values.  A
    missing intensity field defaults to 0.  With ``validate`` the frame is
    cleaned via validate_frame, whose intensity rule holds for every
    source.  An unreadable file and a malformed header or row raise
    ``ParseError``; a byte that is not UTF-8 fails the line it sits in.
    """
    try:
        # surrogateescape keeps a stray byte in its line, to fail there
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            n_points, n_fields, data_start = _read_header(path, iter(fh.readline, ""))
            body = fh.tell()
            rows = _parse_bulk(fh, n_points, n_fields)
            if rows is None:
                fh.seek(body)
                rows = _walk_rows(path, fh.readlines(), data_start, n_points, n_fields)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from None

    frame = PointCloudFrame(points=rows, timestamp=timestamp, frame_id=frame_id)
    if validate:
        return validate_frame(frame)
    return frame


def _read_header(path, lines) -> tuple[int, int, int]:
    """Consume header lines through DATA.

    Returns POINTS, the number of fields and the line number of DATA.
    """
    header: dict[str, list[str]] = {}
    data_start = None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        key = parts[0].upper()
        if key not in _HEADER_KEYS:
            raise ParseError(f"{path}: line {lineno}: unexpected header field {parts[0]!r}")
        header[key] = parts[1:]
        if key == "DATA":
            data_start = lineno
            break
    if data_start is None:
        raise ParseError(f"{path}: missing DATA declaration")
    for key in ("FIELDS", "POINTS"):
        if key not in header:
            raise ParseError(f"{path}: missing {key} declaration")

    if [f.lower() for f in header["DATA"]] != ["ascii"]:
        raise UnsupportedLayout(f"{path}: only DATA ascii is supported")
    fields = [f.lower() for f in header["FIELDS"]]
    if fields not in (["x", "y", "z"], ["x", "y", "z", "intensity"]):
        raise UnsupportedLayout(f"{path}: unsupported FIELDS {fields}")
    if "COUNT" in header and any(c != "1" for c in header["COUNT"]):
        raise UnsupportedLayout(f"{path}: multi-count fields are not supported")

    try:
        n_points = int(header["POINTS"][0])
    except (IndexError, ValueError):
        n_points = -1
    if n_points < 0:
        raise ParseError(f"{path}: invalid POINTS declaration")
    return n_points, len(fields), data_start


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
    rows = np.zeros((min(n_points, len(lines)), 4))
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
        rows[row, :len(parsed)] = parsed
        row += 1
    if row != n_points:
        raise ParseError(
            f"{path}: line {data_start + len(lines)}: data truncated, {row} of {n_points} rows"
        )
    return rows


def write_frame_pcd(frame: PointCloudFrame, path) -> None:
    """Write a frame as ASCII PCD with x y z intensity fields (%.9g)."""
    n = len(frame)
    with open(path, "w") as fh:
        fh.write("VERSION 0.7\nFIELDS x y z intensity\nSIZE 4 4 4 4\nTYPE F F F F\n"
                 f"COUNT 1 1 1 1\nWIDTH {n}\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\n"
                 f"POINTS {n}\nDATA ascii\n")
        for start in range(0, n, _BLOCK_ROWS):
            block = frame.points[start:start + _BLOCK_ROWS]
            fh.write(("%.9g %.9g %.9g %.9g\n" * len(block)) % tuple(block.ravel().tolist()))
