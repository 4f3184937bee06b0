import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import read_pcd_by_lines, write_pcd_by_rows
from lidargrid.core import EmptyFrame, PointCloudFrame
from lidargrid.pcd import ParseError, UnsupportedLayout, read_frame_pcd, write_frame_pcd


def pcd_text(fields, rows, points=None, data="ascii"):
    n = points if points is not None else len(rows)
    body = "\n".join(" ".join(str(v) for v in row) for row in rows)
    sizes = " ".join(["4"] * len(fields))
    types = " ".join(["F"] * len(fields))
    counts = " ".join(["1"] * len(fields))
    return (
        "VERSION 0.7\n"
        f"FIELDS {' '.join(fields)}\n"
        f"SIZE {sizes}\n"
        f"TYPE {types}\n"
        f"COUNT {counts}\n"
        f"WIDTH {n}\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\n"
        f"POINTS {n}\nDATA {data}\n" + body + ("\n" if body else "")
    )


class TestReadFramePcd:
    def test_well_formed_three_points(self, tmp_path):
        path = tmp_path / "a.pcd"
        path.write_text(pcd_text(["x", "y", "z", "intensity"],
                                 [[1, 2, 3, 0.5], [4, 5, 6, 0.25], [7, 8, 9, 1.0]]))
        frame = read_frame_pcd(path, frame_id=3, timestamp=0.15)
        assert len(frame) == 3
        assert frame.frame_id == 3
        assert frame.timestamp == 0.15
        np.testing.assert_allclose(frame.points[0], [1, 2, 3, 0.5])

    def test_missing_intensity_defaults_zero(self, tmp_path):
        path = tmp_path / "b.pcd"
        path.write_text(pcd_text(["x", "y", "z"], [[1, 2, 3], [4, 5, 6]]))
        frame = read_frame_pcd(path)
        np.testing.assert_array_equal(frame.intensity, [0.0, 0.0])

    def test_truncated_data_names_line(self, tmp_path):
        path = tmp_path / "c.pcd"
        path.write_text(pcd_text(["x", "y", "z"], [[1, 2, 3]], points=3))
        with pytest.raises(ParseError, match="line"):
            read_frame_pcd(path)

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "d.pcd"
        text = pcd_text(["x", "y", "z"], [[1, 2, 3], [4, 5]])
        path.write_text(text)
        with pytest.raises(ParseError, match="line 12"):
            read_frame_pcd(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "e.pcd"
        path.write_text(pcd_text(["x", "y", "z"], [[1, "oops", 3]]))
        with pytest.raises(ParseError, match="non-numeric"):
            read_frame_pcd(path)

    def test_binary_layout_rejected(self, tmp_path):
        path = tmp_path / "f.pcd"
        path.write_text(pcd_text(["x", "y", "z"], [], data="binary"))
        with pytest.raises(UnsupportedLayout):
            read_frame_pcd(path)

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "g.pcd"
        path.write_text(pcd_text(["x", "y", "z", "ring"], [[1, 2, 3, 0]]))
        with pytest.raises(UnsupportedLayout):
            read_frame_pcd(path)

    def test_eight_bit_intensity_normalized_on_ingest(self, tmp_path):
        path = tmp_path / "h.pcd"
        path.write_text(pcd_text(["x", "y", "z", "intensity"],
                                 [[1, 2, 3, 255], [4, 5, 6, 51]]))
        frame = read_frame_pcd(path)
        np.testing.assert_allclose(frame.intensity, [1.0, 0.2])

    @pytest.mark.parametrize("reader", [read_frame_pcd, read_pcd_by_lines])
    def test_eight_bit_judged_on_kept_rows_only(self, tmp_path, reader):
        # the dropped row's 200 must not scale the kept 0.5 and 0.8 down
        path = tmp_path / "j.pcd"
        path.write_text(pcd_text(["x", "y", "z", "intensity"],
                                 [[1, 2, 3, 0.5], ["nan", 0, 0, 200], [4, 5, 6, 0.8]]))
        frame = reader(path)
        np.testing.assert_array_equal(frame.intensity, [0.5, 0.8])
        assert frame.dropped_points == 1

    def test_missing_data_declaration(self, tmp_path):
        path = tmp_path / "i.pcd"
        path.write_text("VERSION 0.7\nFIELDS x y z\nPOINTS 1\n")
        with pytest.raises(ParseError):
            read_frame_pcd(path)


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        rng = np.random.default_rng(5)
        pts = np.column_stack([rng.uniform(-30, 30, (40, 2)),
                               rng.uniform(-2, 2, (40, 1)),
                               rng.uniform(0, 1, (40, 1))])
        frame = PointCloudFrame(points=pts, timestamp=1.0, frame_id=7)
        path = tmp_path / "round.pcd"
        write_frame_pcd(frame, path)
        back = read_frame_pcd(path, frame_id=7, timestamp=1.0)
        assert len(back) == 40
        np.testing.assert_allclose(back.points, pts, atol=1e-6)


def outcome(read, path, validate):
    """What a reader makes of a file: its points bit for bit, or its error."""
    try:
        frame = read(path, validate=validate)
    except (ParseError, UnsupportedLayout, EmptyFrame) as exc:
        return type(exc).__name__, str(exc)
    return frame.points.tobytes(), getattr(frame, "dropped_points", None)


# tokens float() reads; loadtxt refuses the underscored ones
NUMBERS = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.9g}"),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:E}"),
    st.integers(0, 255).map(str),
    st.integers(0, 10**6).map(lambda v: f"{v:_}"),
    st.sampled_from(["NaN", "-nan", "+inf", "-Infinity", "INF", ".5", "5.", "+1e3",
                     "1_0", "-0", "1e999", "5e-324"]),
)
BAD_TOKENS = st.sampled_from(["oops", "1,5", "0x10", "1e", "--1", "#", "١"])
SEPARATORS = [" ", "  ", "\t", " \t", "\x1f", "\xa0"]
# str.splitlines() would end a line at these; the reader and loadtxt take
# them for whitespace between values
INLINE_BREAKS = ["\f", "\v", "\x1c", "\u2028"]


@st.composite
def pcd_files(draw):
    """A PCD text in the layouts the reader accepts, sometimes with one fault."""
    fields = draw(st.sampled_from([["x", "y", "z"], ["x", "y", "z", "intensity"]]))
    n = draw(st.integers(0, 12))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    separators = SEPARATORS + (INLINE_BREAKS if draw(st.integers(0, 3)) == 0 else [])
    rows = [draw(st.lists(NUMBERS, min_size=len(fields), max_size=len(fields)))
            for _ in range(n)]
    points = n
    fault = draw(st.sampled_from([None, None, "bad-token", "short", "long",
                                  "extra-row", "missing-row", "bad-points"]))
    if fault in ("bad-token", "short", "long") and rows:
        row = rows[draw(st.integers(0, n - 1))]
        if fault == "bad-token":
            row[draw(st.integers(0, len(row) - 1))] = draw(BAD_TOKENS)
        elif fault == "short":
            row.pop()
        else:
            row.append(draw(st.sampled_from(["1", "#", "# 1"])))
    elif fault == "extra-row":
        points -= 1 if n else 0
    elif fault == "missing-row":
        points += 1
    elif fault == "bad-points":
        points = draw(st.sampled_from(["", "many", "1.5"]))
    lines = ["# .PCD v0.7"] if draw(st.booleans()) else []
    lines += ["VERSION 0.7", f"FIELDS {' '.join(fields)}", "COUNT " + " ".join("1" * len(fields)),
              f"WIDTH {points}", "HEIGHT 1", f"POINTS {points}", "DATA ascii"]
    for row in rows:
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        sep = draw(st.sampled_from(separators))
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " "]))
        lines.append(lead + sep.join(row) + trail)
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


@st.composite
def frames(draw):
    special = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                               2.2250738585072014e-308, 1e300, -1e300, 1e-300])
    return draw(hnp.arrays(np.float64, (draw(st.integers(0, 600)), 4),
                           elements=st.one_of(st.floats(), special)))


class TestBulkReaderMatchesLineWalk:
    @settings(max_examples=300, deadline=None)
    @given(text=pcd_files())
    def test_random_files(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "random.pcd"
        path.write_bytes(text.encode("utf-8"))
        for validate in (False, True):
            assert outcome(read_frame_pcd, path, validate) == \
                outcome(read_pcd_by_lines, path, validate)

    @pytest.mark.parametrize("bad, message", [
        ("oops", "line 5000: non-numeric value"),
        ("", "line 5000: expected 4 values, got 3"),
        ("1_0", None),  # float() reads it: the walk must return the rows
    ])
    def test_fault_deep_in_the_data(self, tmp_path, bad, message):
        rows = [[i, 0.5, -1.25, 0.75] for i in range(6000)]
        rows[4989][3] = bad  # the header takes ten lines
        path = tmp_path / "deep.pcd"
        path.write_text(pcd_text(["x", "y", "z", "intensity"],
                                 [[v for v in row if v != ""] for row in rows]))
        if message is None:
            new = read_frame_pcd(path, validate=False).points
            np.testing.assert_array_equal(new, read_pcd_by_lines(path, validate=False).points)
            assert new[4989, 3] == 10.0
        else:
            with pytest.raises(ParseError, match=message):
                read_frame_pcd(path)
            assert outcome(read_frame_pcd, path, True) == outcome(read_pcd_by_lines, path, True)

    @pytest.mark.parametrize("body", [
        "1 2 3\f4 5 6\n",   # one line of six values, not two rows
        "1 2\f3\n4 5 6\n",  # a full first row, not a short one
    ])
    def test_splitlines_breaks_inside_a_line(self, tmp_path, body):
        path = tmp_path / "ff.pcd"
        path.write_text(pcd_text(["x", "y", "z"], [], points=2) + body)
        assert outcome(read_frame_pcd, path, False) == outcome(read_pcd_by_lines, path, False)


class TestLineRule:
    """Lines end at LF, CRLF or CR; any other whitespace separates values."""

    @pytest.mark.parametrize("sep", ["\x1c", "\f", "\u2028"])
    def test_other_whitespace_separates_values(self, tmp_path, sep):
        text = pcd_text(["x", "y", "z", "intensity"], [[1, 2, 3, 0.5], [-4, 5.5, 6e1, 1]])
        spaced, other = tmp_path / "spaced.pcd", tmp_path / "other.pcd"
        spaced.write_bytes(text.encode("utf-8"))
        other.write_bytes(text.replace(" ", sep).encode("utf-8"))
        np.testing.assert_array_equal(read_frame_pcd(other, validate=False).points,
                                      read_frame_pcd(spaced, validate=False).points)

    def test_form_feed_does_not_end_a_row(self, tmp_path):
        path = tmp_path / "ff.pcd"
        path.write_text(pcd_text(["x", "y", "z"], [], points=2) + "1 2 3\f4 5 6\n")
        with pytest.raises(ParseError, match="line 11: expected 3 values, got 6"):
            read_frame_pcd(path)


class TestReaderErrors:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fuzzed_input_raises_only_pcd_errors(self, tmp_path_factory, data):
        raw = bytearray(data.draw(pcd_files()).encode("utf-8"))
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(raw)))
            junk = data.draw(st.sampled_from([b"\xff", b"\xc3", b"\x00", b"\r", b"\n",
                                              b"\f", b"-", b"9", b"#", b" ", b"DATA ",
                                              b"POINTS -", b"binary", b"\xe2\x80\xa8"]))
            if data.draw(st.booleans()):
                raw[at:at + len(junk)] = junk
            else:
                raw[at:at] = junk
        path = tmp_path_factory.getbasetemp() / "fuzz.pcd"
        path.write_bytes(bytes(raw))
        try:
            read_frame_pcd(path, validate=False)
        except (ParseError, UnsupportedLayout):
            pass

    def test_negative_points(self, tmp_path):
        path = tmp_path / "neg.pcd"
        path.write_text(pcd_text(["x", "y", "z"], [], points=-1))
        with pytest.raises(ParseError, match="invalid POINTS"):
            read_frame_pcd(path)

    def test_non_utf8_byte_names_line(self, tmp_path):
        path = tmp_path / "latin1.pcd"
        path.write_bytes(pcd_text(["x", "y", "z"], [[1, 2, 3], [4, 5, 6]]).encode()
                         .replace(b"5", b"\xb5"))
        with pytest.raises(ParseError, match="line 12: non-numeric"):
            read_frame_pcd(path)

    def test_binary_body_is_unsupported_layout(self, tmp_path):
        path = tmp_path / "bin.pcd"
        header = pcd_text(["x", "y", "z"], [], points=2, data="binary").encode()
        path.write_bytes(header + np.array([1.5, -2.0, 3.0] * 2, "<f4").tobytes() + b"\xff")
        with pytest.raises(UnsupportedLayout):
            read_frame_pcd(path)

    def test_directory_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            read_frame_pcd(tmp_path)


class TestBlockWriterMatchesRowWriter:
    @settings(max_examples=60, deadline=None)
    @given(points=frames())
    def test_random_frames(self, tmp_path_factory, points):
        base = tmp_path_factory.getbasetemp()
        frame = PointCloudFrame(points=points)
        write_frame_pcd(frame, base / "blocks.pcd")
        write_pcd_by_rows(frame, base / "rows.pcd")
        assert (base / "blocks.pcd").read_bytes() == (base / "rows.pcd").read_bytes()

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 513])
    def test_special_values_across_block_edges(self, tmp_path, n):
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e-300]
        points = np.resize(np.array(special), (n, 4))
        frame = PointCloudFrame(points=points)
        write_frame_pcd(frame, tmp_path / "blocks.pcd")
        write_pcd_by_rows(frame, tmp_path / "rows.pcd")
        assert (tmp_path / "blocks.pcd").read_bytes() == (tmp_path / "rows.pcd").read_bytes()
