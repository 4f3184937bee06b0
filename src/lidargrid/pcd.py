"""ASCII PCD reader/writer.

Supports the subset this project emits: FIELDS x y z [intensity] with
DATA ascii.  Anything else is rejected with a clear error rather than
guessed at.

Lines are those of Python's text mode, ending at LF, CRLF or CR; any
other whitespace separates values, as for ``np.loadtxt`` and ``split()``.
Both directions work in bulk.  The reader opens a file once, takes the
header line by line and the rest in one ``np.loadtxt`` call.  Only when
that call fails or returns the wrong shape does it seek back and walk the
body line by line, to name a bad line in a ``ParseError``.

The writer prints every value exactly as ``%.9g`` does, ``_BLOCK_ROWS``
rows at a time in numpy.  For ``1e-4 <= |v| < 1e4`` it takes the decimal
exponent from ``log10``, the nine significant digits from one rounded
product with an exact power of ten, and lays the fixed-notation text out
in a 24-byte record per value from tables of 4-digit text padded with NUL;
one ``bytes.translate`` drops every NUL.  Zero, non-finite values, values
outside that range and near-ties, where that one rounding could decide the
last digit, are left to Python's own ``%.9g``.
"""

from __future__ import annotations

import functools
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

# Rows formatted per step.  The step's records (96 bytes a row) and its
# float and index temporaries (32 bytes a row each) stay under glibc's
# 128 KiB mmap threshold; blocks past it are mmapped, the threshold then
# moves up and the process keeps a larger heap.
_BLOCK_ROWS = 1024


@functools.cache
def _format_tables():
    """Read-only tables of 4-digit text, each entry padded with NUL.

    Built on the first write.  Each holds one form of ``k`` at ``k`` and the
    other at ``k + 10000``: the separator and a positive or negative integer
    part; the point and a last or non-last first fraction group (no point
    for 0); a last or non-last later fraction group.
    """
    full = [b"%04d" % k for k in range(10000)]
    lead = [s.lstrip(b"0") or b"0" for s in full]
    trail = [s.rstrip(b"0") for s in full]
    tables = (np.array([b" " + s for s in lead] + [b" -" + s for s in lead], "S8").view("<u8"),
              np.array([s and b"." + s for s in trail] + [b"." + s for s in full], "S8").view("<u8"),
              np.array(trail + full, "S4").view("<u4"))
    for table in tables:
        table.flags.writeable = False
    return tables


_POW10 = np.array([float(10 ** k) for k in range(13)])
_POW10.flags.writeable = False
# the record of a value left to Python: separator, then a %-format for it
_FALLBACK = np.frombuffer(b" %.9g".ljust(24, b"\0"), "<u8")


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
    """Write a frame as ASCII PCD with x y z intensity fields, each as %.9g prints it."""
    n = len(frame)
    with open(path, "wb") as fh:
        # every row opens with the line end before it
        fh.write(b"VERSION 0.7\nFIELDS x y z intensity\nSIZE 4 4 4 4\nTYPE F F F F\n"
                 b"COUNT 1 1 1 1\nWIDTH %d\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\n"
                 b"POINTS %d\nDATA ascii" % (n, n))
        for start in range(0, n, _BLOCK_ROWS):
            fh.write(_format_rows(frame.points[start:start + _BLOCK_ROWS]))
        fh.write(b"\n")


def _format_rows(rows: np.ndarray) -> bytes:
    """``rows`` as text, each row led by a line end, with ``%.9g`` values.

    A value in ``[1e-4, 1e4)`` is printed here in fixed notation, which
    is what %g uses for it: its 24-byte record holds the separator, sign
    and integer part, then the point and four fraction digits, then eight
    more, at fixed places.  The others get a record that %-formats them.
    """
    v = rows.ravel()
    a = np.abs(v)
    fallback = ~((a >= 1e-4) & (a < 1e4))
    a[fallback] = 1.0
    # j = x + 4 for the decimal exponent x, and the nine digits m
    j = np.log10(a)
    j += 4.0
    np.floor(j, out=j)
    j = j.clip(0, 7, out=j).astype(np.int64)  # log10 may round up to 4 below 1e4
    s = a * _POW10.take(12 - j)
    m = np.rint(s)
    # s carries at most 6e-8 of rounding error: rint may differ from the
    # rounding of the exact product only this close to a half
    s -= m
    fallback |= np.abs(s, out=s) >= 0.5 - 1e-6
    # log10 rounded across a power of ten, or the digits carried to 1e9
    fallback |= (m < 1e8) | (m >= 1e9)
    # the digits in units of 1e-12, in four groups; the product is exact
    # outside the fallback, since m * 5**j < 2**53 there
    n = (m * _POW10.take(j, mode="clip")).astype(np.int64)
    q = n // 10000
    g3 = n - q * 10000
    n = q // 10000
    g2 = q - n * 10000
    g0 = n // 10000
    g1 = n - g0 * 10000
    g0 += (v < 0) * 10000
    # a group that more digits follow keeps its trailing zeros; g2 is
    # nonzero from here on when g2 or g3 was
    g2 += (g3 != 0) * 10000
    g1 += (g2 != 0) * 10000

    signed_int, point_group, group = _format_tables()
    rec = np.empty((v.size, 3), "<u8")
    signed_int.take(g0, out=rec[:, 0], mode="clip")
    point_group.take(g1, out=rec[:, 1], mode="clip")
    words = rec.view("<u4")
    group.take(g2, out=words[:, 4], mode="clip")
    group.take(g3, out=words[:, 5], mode="clip")
    at = np.flatnonzero(fallback)
    rec[at] = _FALLBACK
    rec.view(np.uint8)[::4, 0] = ord("\n")  # the separator before x
    text = rec.tobytes().translate(None, b"\0")
    return text % tuple(v[at].tolist()) if at.size else text
