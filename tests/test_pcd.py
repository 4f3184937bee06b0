import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import read_pcd_by_lines, write_pcd_by_rows
from lidargrid import pcd as pcd_mod
from lidargrid.core import EmptyFrame, PointCloudFrame, validate_frame
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

    @pytest.mark.parametrize("body", ["binary", "ascii bulk", "ascii walk"])
    def test_each_body_path_leaves_intensity_to_the_frame(self, tmp_path, body, monkeypatch):
        xyz = np.array([[1.5, -2.25, 3.0], [10.0, 20.0, -1.0]])
        path = tmp_path / "xyz.pcd"
        if body == "binary":
            binary_pcd(path, xyz, fields="x y z", size="8 8 8", type="F F F", count="1 1 1")
        else:
            rows = xyz.tolist()
            if body == "ascii walk":
                rows[1][0] = "1_0"  # float() reads it, np.loadtxt does not
            path.write_text(pcd_text(["x", "y", "z"], rows))
        walks = []
        walk_rows = pcd_mod._walk_rows
        monkeypatch.setattr(pcd_mod, "_walk_rows", lambda *a: walks.append(a) or walk_rows(*a))
        points = read_frame_pcd(path).points
        np.testing.assert_array_equal(points, np.column_stack([xyz, np.zeros(2)]))
        if body != "binary":
            np.testing.assert_array_equal(points, read_pcd_by_lines(path).points)
        assert bool(walks) == (body == "ascii walk")

    @pytest.mark.parametrize("nan_row", [False, True])
    @pytest.mark.parametrize("body", ["binary f8", "binary f4 xyz", "ascii bulk", "ascii walk"])
    def test_each_body_path_validates_as_validate_frame(self, tmp_path, body, nan_row):
        # the reader hands over the rows as written, NaN and 8-bit values
        # included; validate_frame makes of them what it makes in memory
        rows = np.array([[1.5, -2.25, 3.0, 255.0], [10.0, 20.0, -1.0, 51.0],
                         [0.1, 0.2, 0.3, 7.0]])
        if nan_row:
            rows[1, 2] = np.nan
        path = tmp_path / "v.pcd"
        if body == "binary f8":
            binary_pcd(path, rows)
        elif body == "binary f4 xyz":
            binary_pcd(path, rows[:, :3].astype("<f4"), fields="x y z", size="4 4 4",
                       type="F F F", count="1 1 1")
            rows = np.column_stack([rows[:, :3].astype("<f4"), np.zeros(3)])
        else:
            text = rows.tolist()
            if body == "ascii walk":
                text[0][0] = "1_5"  # float() reads it, np.loadtxt does not
                rows[0, 0] = 15.0
            path.write_text(pcd_text(["x", "y", "z", "intensity"], text))
        read = read_frame_pcd(path)
        assert read.points.tobytes() == rows.tobytes()
        got, want = validate_frame(read), validate_frame(PointCloudFrame(points=rows))
        assert got.points.shape == want.points.shape == (3 - nan_row, 4)
        assert got.points.tobytes() == want.points.tobytes()
        assert got.dropped_points == want.dropped_points == nan_row

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

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "g.pcd"
        path.write_text(pcd_text(["x", "y", "z", "ring"], [[1, 2, 3, 0]]))
        with pytest.raises(UnsupportedLayout):
            read_frame_pcd(path)

    def test_eight_bit_intensity_normalized_on_ingest(self, tmp_path):
        # the reader keeps the file's values; validation scales them
        path = tmp_path / "h.pcd"
        path.write_text(pcd_text(["x", "y", "z", "intensity"],
                                 [[1, 2, 3, 255], [4, 5, 6, 51]]))
        frame = read_frame_pcd(path)
        np.testing.assert_array_equal(frame.intensity, [255.0, 51.0])
        np.testing.assert_allclose(validate_frame(frame).intensity, [1.0, 0.2])

    @pytest.mark.parametrize("reader", [read_frame_pcd, read_pcd_by_lines])
    def test_eight_bit_judged_on_kept_rows_only(self, tmp_path, reader):
        # the dropped row's 200 must not scale the kept 0.5 and 0.8 down
        path = tmp_path / "j.pcd"
        path.write_text(pcd_text(["x", "y", "z", "intensity"],
                                 [[1, 2, 3, 0.5], ["nan", 0, 0, 200], [4, 5, 6, 0.8]]))
        frame = validate_frame(reader(path))
        np.testing.assert_array_equal(frame.intensity, [0.5, 0.8])
        assert frame.dropped_points == 1

    def test_one_intensity_rule_in_memory_and_on_ingest(self, tmp_path):
        # 200 marks the frame 8-bit, so its 0.5 is scaled too, on both paths
        frame = PointCloudFrame(points=np.array([[1, 2, 3, 200.0], [4, 5, 6, 0.5]]))
        path = tmp_path / "k.pcd"
        write_frame_pcd(frame, path)
        in_memory = validate_frame(frame).intensity
        np.testing.assert_array_equal(in_memory, validate_frame(read_frame_pcd(path)).intensity)
        np.testing.assert_allclose(in_memory, [200 / 255, 0.5 / 255])

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
        np.testing.assert_array_equal(back.points, pts)

    def test_ascii_and_binary_files_read_the_same(self, tmp_path):
        # eighths: the row writer's %.9g text holds them exactly
        pts = np.random.default_rng(6).integers(-320, 320, (300, 4)) / 8.0
        frame = PointCloudFrame(points=pts)
        write_pcd_by_rows(frame, tmp_path / "rows.pcd")
        write_frame_pcd(frame, tmp_path / "binary.pcd")
        assert (tmp_path / "rows.pcd").read_bytes().count(b"DATA ascii\n") == 1
        np.testing.assert_array_equal(read_frame_pcd(tmp_path / "binary.pcd").points,
                                      read_frame_pcd(tmp_path / "rows.pcd").points)


def outcome(read, path):
    """What a reader makes of a file: its points bit for bit, or its error."""
    try:
        frame = read(path)
    except (ParseError, UnsupportedLayout) as exc:
        return type(exc).__name__, str(exc)
    return frame.points.tobytes()


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
        assert outcome(read_frame_pcd, path) == outcome(read_pcd_by_lines, path)

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
            new = read_frame_pcd(path).points
            np.testing.assert_array_equal(new, read_pcd_by_lines(path).points)
            assert new[4989, 3] == 10.0
        else:
            with pytest.raises(ParseError, match=message):
                read_frame_pcd(path)
            assert outcome(read_frame_pcd, path) == outcome(read_pcd_by_lines, path)

    @pytest.mark.parametrize("body", [
        "1 2 3\f4 5 6\n",   # one line of six values, not two rows
        "1 2\f3\n4 5 6\n",  # a full first row, not a short one
    ])
    def test_splitlines_breaks_inside_a_line(self, tmp_path, body):
        path = tmp_path / "ff.pcd"
        path.write_text(pcd_text(["x", "y", "z"], [], points=2) + body)
        assert outcome(read_frame_pcd, path) == outcome(read_pcd_by_lines, path)


class TestLineRule:
    """Lines end at LF, CRLF or CR; any other whitespace separates values."""

    @pytest.mark.parametrize("sep", ["\x1c", "\f", "\u2028"])
    def test_other_whitespace_separates_values(self, tmp_path, sep):
        text = pcd_text(["x", "y", "z", "intensity"], [[1, 2, 3, 0.5], [-4, 5.5, 6e1, 1]])
        spaced, other = tmp_path / "spaced.pcd", tmp_path / "other.pcd"
        spaced.write_bytes(text.encode("utf-8"))
        other.write_bytes(text.replace(" ", sep).encode("utf-8"))
        np.testing.assert_array_equal(read_frame_pcd(other).points, read_frame_pcd(spaced).points)

    def test_crlf_after_a_cr_header_ends_the_ascii_data_line(self, tmp_path):
        path = tmp_path / "mixed.pcd"
        path.write_bytes(b"VERSION 0.7\rFIELDS x y z\rPOINTS 2\rDATA ascii\r\n"
                         b"1 2 3\r\n4 5 oops\r\n")
        with pytest.raises(ParseError, match="line 6: non-numeric value"):
            read_frame_pcd(path)
        assert outcome(read_frame_pcd, path) == outcome(read_pcd_by_lines, path)

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
            read_frame_pcd(path)
        except (ParseError, UnsupportedLayout):
            pass

    @pytest.mark.parametrize("key", ["FIELDS", "POINTS"])
    def test_missing_header_line(self, tmp_path, key):
        path = tmp_path / "short.pcd"
        text = pcd_text(["x", "y", "z"], [[1, 2, 3]])
        path.write_text("".join(line for line in text.splitlines(keepends=True)
                                if not line.startswith(key)))
        with pytest.raises(ParseError, match=f"missing {key} declaration"):
            read_frame_pcd(path)

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

    def test_directory_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            read_frame_pcd(tmp_path)


def binary_pcd(path, records, fields="x y z intensity", size="8 8 8 8", type="F F F F",
               count="1 1 1 1", points=None, data="binary"):
    """Write ``records``' bytes after a PCD header whose lines are given as text."""
    n = len(records) if points is None else points
    header = (f"VERSION 0.7\nFIELDS {fields}\nSIZE {size}\nTYPE {type}\nCOUNT {count}\n"
              f"WIDTH {n}\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS {n}\nDATA {data}\n")
    path.write_bytes(header.encode() + np.ascontiguousarray(records).tobytes())


class TestBinaryBody:
    @settings(max_examples=100, deadline=None)
    @given(points=frames())
    def test_round_trip_keeps_every_bit(self, tmp_path_factory, points):
        path = tmp_path_factory.getbasetemp() / "bits.pcd"
        write_frame_pcd(PointCloudFrame(points=points), path)
        back = read_frame_pcd(path).points
        assert back.shape == points.shape
        np.testing.assert_array_equal(back.view(np.uint64), points.view(np.uint64))

    @settings(max_examples=100, deadline=None)
    @given(points=frames())
    def test_validated_read_is_the_validated_frame(self, tmp_path_factory, points):
        # NaN and infinite rows read back and are dropped as in memory
        path = tmp_path_factory.getbasetemp() / "valid.pcd"
        frame = PointCloudFrame(points=points)
        write_frame_pcd(frame, path)

        def validated(read):
            try:
                got = read()
            except EmptyFrame as exc:
                return str(exc)
            return got.points.tobytes(), got.dropped_points

        assert validated(lambda: validate_frame(read_frame_pcd(path))) == \
            validated(lambda: validate_frame(frame))

    @settings(max_examples=200, deadline=None)
    @given(points=frames(), data=st.data())
    def test_fuzzed_file_raises_only_pcd_errors(self, tmp_path_factory, points, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.pcd"
        write_frame_pcd(PointCloudFrame(points=points[:8]), path)
        raw = bytearray(path.read_bytes())
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(raw)))
            junk = data.draw(st.sampled_from([b"\x00", b"\xff", b"\r", b"\n", b"4", b"2",
                                              b"U", b"ascii", b"POINTS -", b"DATA ", b" 4"]))
            if data.draw(st.booleans()):
                raw[at:at + len(junk)] = junk
            elif data.draw(st.booleans()):
                raw[at:at] = junk
            else:
                del raw[at:at + len(junk)]
        path.write_bytes(bytes(raw))
        try:
            back = read_frame_pcd(path)
        except (ParseError, UnsupportedLayout):
            return
        assert back.points.dtype == np.float64 and back.points.shape[1] == 4

    def test_special_values_keep_their_bits(self, tmp_path):
        points = np.array([[0.0, -0.0, np.nan, np.inf], [-np.inf, 5e-324, -np.nan, 1e300]])
        write_frame_pcd(PointCloudFrame(points=points), tmp_path / "s.pcd")
        back = read_frame_pcd(tmp_path / "s.pcd").points
        np.testing.assert_array_equal(back.view(np.uint64), points.view(np.uint64))

    def test_rows_are_writable(self, tmp_path):
        write_frame_pcd(PointCloudFrame(points=np.ones((3, 4))), tmp_path / "w.pcd")
        back = read_frame_pcd(tmp_path / "w.pcd").points
        assert back.flags.writeable
        back[0, 0] = 2.0

    @pytest.mark.parametrize("cut", [-1, 1, -32, 32],
                             ids=["byte-short", "byte-long", "record-short", "record-long"])
    def test_body_of_the_wrong_length_is_parse_error(self, tmp_path, cut):
        # a whole record more or less is still the wrong length
        write_frame_pcd(PointCloudFrame(points=np.ones((3, 4))), tmp_path / "n.pcd")
        raw = (tmp_path / "n.pcd").read_bytes()
        (tmp_path / "n.pcd").write_bytes(raw[:cut] if cut < 0 else raw + b"\0" * cut)
        with pytest.raises(ParseError, match=f"binary body is {96 + cut} bytes, "
                                             "POINTS 3 needs 96") as err:
            read_frame_pcd(tmp_path / "n.pcd")
        assert err.value.category == "pcd-parse"

    @pytest.mark.parametrize("points", [10**7, 10**11])
    def test_points_past_the_body_are_refused_before_allocating(self, tmp_path, points):
        # 10**11 records would not fit in memory, 10**7 would: neither is allocated
        binary_pcd(tmp_path / "big.pcd", np.ones((2, 4)), points=points)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=f"binary body is 64 bytes, "
                                                 f"POINTS {points} needs {32 * points}$"):
                read_frame_pcd(tmp_path / "big.pcd")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("line", [
        {"size": "2 2 2 2"},
        {"size": "8 8 8 2"},
        {"type": "I I I I"},
        {"type": "F F F U"},
        {"count": "2 1 1 1"},
        {"size": "8 8 8"},
        {"type": "F F F"},
        {"data": "binary_compressed"},
        {"fields": "x y z intensity ring", "size": "8 8 8 8 2", "type": "F F F F U",
         "count": "1 1 1 1 1"},
    ], ids=["size-2", "one-size-2", "type-I", "one-type-U", "count-2", "short-size",
            "short-type", "binary_compressed", "ring-field"])
    def test_other_layouts_are_unsupported(self, tmp_path, line):
        binary_pcd(tmp_path / "u.pcd", np.ones((2, 4)), **line)
        with pytest.raises(UnsupportedLayout):
            read_frame_pcd(tmp_path / "u.pcd")

    def test_float32_xyz_reads_with_zero_intensity(self, tmp_path):
        xyz = np.array([[1.5, -2.25, 3.0], [0.1, 20.0, -1.0]], "<f4")
        binary_pcd(tmp_path / "f.pcd", xyz, fields="x y z", size="4 4 4", type="F F F",
                   count="1 1 1")
        back = read_frame_pcd(tmp_path / "f.pcd").points
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back[:, :3], xyz.astype(np.float64))
        np.testing.assert_array_equal(back[:, 3], [0.0, 0.0])

    def test_mixed_sizes_read_field_by_field(self, tmp_path):
        record = np.dtype([("x", "<f4"), ("y", "<f8"), ("z", "<f4"), ("intensity", "<f8")])
        records = np.array([(1.5, 2.0**-30, -3.0, 0.25), (4.0, 5.0, 6.5, 0.75)], record)
        binary_pcd(tmp_path / "m.pcd", records, size="4 8 4 8")
        back = read_frame_pcd(tmp_path / "m.pcd").points
        np.testing.assert_array_equal(back, [[1.5, 2.0**-30, -3.0, 0.25], [4.0, 5.0, 6.5, 0.75]])

    def test_negative_points_is_parse_error(self, tmp_path):
        binary_pcd(tmp_path / "neg.pcd", np.ones((0, 4)), points=-1)
        with pytest.raises(ParseError, match="invalid POINTS"):
            read_frame_pcd(tmp_path / "neg.pcd")

    def test_no_points_is_an_empty_frame(self, tmp_path):
        binary_pcd(tmp_path / "e.pcd", np.ones((0, 4)))
        frame = read_frame_pcd(tmp_path / "e.pcd")
        assert frame.points.shape == (0, 4)
        with pytest.raises(EmptyFrame, match="no points"):
            validate_frame(frame)

    @pytest.mark.parametrize("eol", [b"\r\n", b"\r", b"\n"])
    def test_header_lines_end_at_crlf_or_cr(self, tmp_path, eol):
        # x's first byte is 0x0A: after a CR header it must not end DATA's line
        points = np.array([[1.0 + 10 * 2.0**-52, 2.0, 3.0, 0.5]])
        write_frame_pcd(PointCloudFrame(points=points), tmp_path / "lf.pcd")
        header, body = (tmp_path / "lf.pcd").read_bytes().split(b"DATA binary\n")
        assert body[:1] == b"\n"
        (tmp_path / "eol.pcd").write_bytes(header.replace(b"\n", eol) + b"DATA binary" + eol + body)
        np.testing.assert_array_equal(read_frame_pcd(tmp_path / "eol.pcd").points, points)
