import math
import os
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import savetxt_writer_oracle
from ssmkit import csvfile
from ssmkit.errors import InvalidLogError

COLUMNS = ("time_s", "joint_id", "velocity", "torque")

# Spellings that both float() and np.loadtxt read.
_FORMATS = (repr, "{:.17g}".format, "{:.6e}".format, "{:.6E}".format, "{:.3f}".format,
            lambda x: repr(x) if repr(x).startswith("-") else f"+{x!r}")
_floats = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e300]
)


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 20))
    lines = [",".join(COLUMNS)]
    for _ in range(n):
        joint = float(draw(st.integers(1, 4)))
        values = [draw(_floats), joint, draw(_floats), draw(_floats)]
        fields = []
        for x in values:
            text = draw(st.sampled_from(_FORMATS))(x)
            fields.append(draw(st.sampled_from(["", " ", "\t"])) + text
                          + draw(st.sampled_from(["", " "])))
        lines.append(",".join(fields))
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline])), lines


def _row_loop(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return csvfile._read_rows(fh, path, COLUMNS, InvalidLogError, (1,))


def _read(path):
    return csvfile.read_numeric_csv(path, COLUMNS, InvalidLogError, "telemetry", (1,))


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


class TestReaderMatchesRowLoop:
    @settings(max_examples=100, deadline=None)
    @given(table=_tables())
    def test_valid_files_parse_bit_identically(self, tmp_path_factory, table):
        text, _ = table
        path = tmp_path_factory.getbasetemp() / "log.csv"
        path.write_bytes(text.encode("utf-8"))
        row_loop = mock.patch.object(csvfile, "_read_rows", side_effect=AssertionError)
        with row_loop:
            fast = _read(path)
        slow = _row_loop(path)
        assert fast.shape == slow.shape
        assert np.array_equal(_bits(fast), _bits(slow))

    @settings(max_examples=100, deadline=None)
    @given(table=_tables(), data=st.data())
    def test_one_corrupted_row_names_the_same_line(self, tmp_path_factory, table, data):
        _, lines = table
        records = [i for i, line in enumerate(lines) if i > 0 and line]
        target = data.draw(st.sampled_from(records))
        fields = lines[target].split(",")
        column = data.draw(st.integers(0, 3))
        bad = data.draw(
            st.sampled_from(["abc", "", "1.2.3", "0x1F", "--1", "1e", "2.5", "drop"])
        )
        if bad == "drop":
            del fields[column]
            message = "expected 4 columns"
        elif bad == "2.5" and column != 1:
            return  # a valid value outside the joint_id column
        else:
            fields[column] = bad
            integral = bad == "2.5"
            message = "joint_id must be an integer" if integral else "malformed record"
        lines = list(lines)
        lines[target] = ",".join(fields)
        path = tmp_path_factory.getbasetemp() / "log.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = f"{path}:{target + 1}: {message}"
        with pytest.raises(InvalidLogError) as fast:
            _read(path)
        with pytest.raises(InvalidLogError) as slow:
            _row_loop(path)
        assert str(fast.value) == str(slow.value) == expected


class TestRowLoopFallback:
    def test_forms_only_float_reads_are_accepted(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            'time_s,joint_id,velocity,torque\n"0",1,1_000,0.5\n0.005,"2",1,0.25\n',
            encoding="utf-8",
        )
        expected = [[0.0, 1.0, 1000.0, 0.5], [0.005, 2.0, 1.0, 0.25]]
        assert _read(path).tolist() == expected

    def test_whitespace_only_line_is_a_record(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("time_s,joint_id,velocity,torque\n0,1,0,0\n  \n", encoding="utf-8")
        with pytest.raises(InvalidLogError, match=":3: expected 4 columns"):
            _read(path)

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("time_s,joint_id,velocity,torque\n\n", encoding="utf-8")
        with pytest.raises(InvalidLogError, match="no data rows"):
            _read(path)


_LOG = "time_s,joint_id,velocity,torque\n0,1,0.5,1e-3\n0.005,2,-0.25,2.5\n0.01,1,3,-4\n"


def _loadtxt_sources():
    """Patch `np.loadtxt` as the reader calls it; the list collects what
    each call was handed as its file."""
    sources = []
    real = np.loadtxt

    def spy(fname, *args, **kwargs):
        sources.append(fname)
        if isinstance(fname, str) and not os.path.isfile(fname):
            # Opening a pipe a second time would wait for a writer forever.
            raise AssertionError(f"loadtxt would open {fname} again")
        return real(fname, *args, **kwargs)

    return mock.patch.object(csvfile.np, "loadtxt", side_effect=spy), sources


class TestReaderRoute:
    """Each route gives the row loop's array bits or its error text."""

    def _same_as_row_loop(self, path, fast):
        slow = _row_loop(path)
        assert fast.shape == slow.shape
        assert np.array_equal(_bits(fast), _bits(slow))

    def test_regular_csv_reaches_loadtxt_as_a_str_path(self, tmp_path):
        # A file handle makes numpy build one Python str per line.
        path = tmp_path / "log.csv"
        path.write_text(_LOG, encoding="utf-8")
        patch, sources = _loadtxt_sources()
        with patch:
            fast = _read(path)
        assert sources == [os.path.abspath(path)]
        self._same_as_row_loop(path, fast)

    @pytest.mark.parametrize("as_type", [str, Path], ids=["str", "Path"])
    def test_str_and_pathlib_arguments(self, tmp_path, monkeypatch, as_type):
        path = tmp_path / "log.csv"
        path.write_text(_LOG, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        for arg in (as_type(path), as_type(path.relative_to(tmp_path))):
            with mock.patch.object(csvfile, "_read_rows", side_effect=AssertionError):
                fast = _read(arg)
            self._same_as_row_loop(path, fast)

    def test_relative_name_that_parses_as_a_url(self, tmp_path, monkeypatch):
        # `http://localhost/log.csv` is also the relative path http:/localhost/log.csv.
        (tmp_path / "http:" / "localhost").mkdir(parents=True)
        path = tmp_path / "http:" / "localhost" / "log.csv"
        path.write_text(_LOG, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        fetch = mock.patch("urllib.request.urlopen", side_effect=AssertionError("fetched"))
        with fetch, mock.patch.object(csvfile, "_read_rows", side_effect=AssertionError):
            fast = _read("http://localhost/log.csv")
        self._same_as_row_loop(path, fast)

    def test_named_pipe_is_read_once_through_its_handle(self, tmp_path):
        fifo = tmp_path / "log.csv"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "w", encoding="utf-8") as fh:
                fh.write(_LOG)

        writer = threading.Thread(target=feed)
        writer.start()
        patch, sources = _loadtxt_sources()
        try:
            with patch:
                fast = _read(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert len(sources) == 1 and not isinstance(sources[0], str)
        plain = tmp_path / "plain.csv"
        plain.write_text(_LOG, encoding="utf-8")
        self._same_as_row_loop(plain, fast)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_is_read_as_plain_text(self, tmp_path, suffix):
        path = tmp_path / f"log.csv{suffix}"
        path.write_text(_LOG, encoding="utf-8")
        patch, sources = _loadtxt_sources()
        with patch:
            fast = _read(path)
        assert len(sources) == 1 and not isinstance(sources[0], str)
        self._same_as_row_loop(path, fast)

    def test_compressed_suffix_errors_name_the_line(self, tmp_path):
        path = tmp_path / "log.csv.gz"
        path.write_text(_LOG.replace("-0.25", "x"), encoding="utf-8")
        with pytest.raises(InvalidLogError) as fast:
            _read(path)
        with pytest.raises(InvalidLogError) as slow:
            _row_loop(path)
        assert str(fast.value) == str(slow.value) == f"{path}:3: malformed record"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_header_quoted_across_two_lines(self, tmp_path, newline):
        path = tmp_path / "log.csv"
        body = _LOG.split("\n", 1)[1].replace("\n", newline)
        path.write_bytes(f'time_s,joint_id,velocity,"torque{newline}"{newline}{body}'.encode())
        with mock.patch.object(csvfile, "_read_rows", side_effect=AssertionError):
            fast = _read(path)
        self._same_as_row_loop(path, fast)
        assert fast.shape == (3, 4)

    def test_invalid_utf8_body_on_the_path_route(self, tmp_path):
        # Past the first read buffer, so the header is decoded without error.
        path = tmp_path / "log.csv"
        path.write_bytes(_LOG.encode() + b"0.02,1,0,0\n" * 5000 + b"0.03,1,0.\xff,1\n")
        patch, sources = _loadtxt_sources()
        with patch, pytest.raises(InvalidLogError) as exc:
            _read(path)
        assert sources == [os.path.abspath(path)]
        assert str(exc.value) == f"{path}: telemetry file is not valid UTF-8"


_BLOCK = csvfile._WRITE_BLOCK_ROWS
_writer_values = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, -1e308]
)


@st.composite
def _writer_tables(draw):
    """Row counts around the block boundary, 1-6 columns or 1-D; a few drawn
    values repeated over the rows, so large tables stay cheap to draw."""
    n = draw(st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]))
    one_d = draw(st.booleans())
    ncols = 1 if one_d else draw(st.integers(1, 6))
    pool = np.array(draw(st.lists(_writer_values, min_size=1, max_size=24)))
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        0, pool.size, size=n * ncols)
    data = pool[picks]
    return data if one_d else data.reshape(n, ncols)


class TestWriterMatchesSavetxt:
    @settings(max_examples=60, deadline=None)
    @given(data=_writer_tables(), precision=st.integers(1, 17))
    def test_bytes_equal_savetxt(self, tmp_path_factory, data, precision):
        base = tmp_path_factory.getbasetemp()
        columns = tuple(f"c{j}" for j in range(1 if data.ndim == 1 else data.shape[1]))
        csvfile.write_numeric_csv(base / "new.csv", columns, data, precision)
        savetxt_writer_oracle(base / "old.csv", columns, data, precision)
        assert (base / "new.csv").read_bytes() == (base / "old.csv").read_bytes()

    @pytest.mark.parametrize("precision", [1, 3, 9, 17])
    def test_special_values_row(self, tmp_path, precision):
        data = np.array([[0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, -1e308]])
        columns = tuple("abcdefgh")
        csvfile.write_numeric_csv(tmp_path / "new.csv", columns, data, precision)
        savetxt_writer_oracle(tmp_path / "old.csv", columns, data, precision)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_large_table_peaks_far_below_a_whole_array_tuple(self, tmp_path):
        # One `%` call over all 540,000 floats peaks at about 27 MB.
        data = np.random.default_rng(0).standard_normal((90_000, 6))
        tracemalloc.start()
        try:
            csvfile.write_numeric_csv(tmp_path / "big.csv", tuple("abcdef"), data, 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
