"""Ingestion, pruning, splitting, synthesis, and the cached dataset format."""

from __future__ import annotations

import csv
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import nfdlm as nf
from nfdlm import flow_data
from nfdlm.cli import main
from nfdlm.flow_data import (
    CATEGORICAL,
    NUMERIC,
    PARSE_CHUNK_ROWS,
    SIGNAL_DIMS,
    synthetic_signal_columns,
)

from conftest import (
    SURROGATE_SPEC, assert_datasets_equal, count_mutants_that_load, numeric_ds, traced_peak,
)


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def tiny_csv(tmp_path):
    return write_csv(
        tmp_path / "tiny.csv",
        ["pkSeqID", "bytes", "category"],
        [[1, 100, "DDoS"], [2, 250, "Normal"], [3, 90, "DDoS"]],
    )


class TestParseFlowCsv:
    def test_three_row_file(self, tiny_csv):
        ds = nf.parse_flow_csv(tiny_csv, "category", "DDoS")
        assert ds.row_count == 3
        assert (ds.labels == [1, 0, 1]).all()
        # The label column becomes the labels and leaves no descriptor.
        kinds = {c.name: c.kind for c in ds.columns}
        assert kinds == {"pkSeqID": NUMERIC, "bytes": NUMERIC}
        assert (ds.matrix[:, ds.feature_positions(["bytes"])[0]] == [100.0, 250.0, 90.0]).all()

    def test_label_sum_matches_positive_rows(self, tmp_path):
        rows = [[i, i * 10, "DDoS" if i % 3 else "Normal"] for i in range(1, 21)]
        path = write_csv(tmp_path / "subset.csv", ["pkSeqID", "bytes", "category"], rows)
        ds = nf.parse_flow_csv(path, "category", "DDoS")
        assert int(ds.labels.sum()) == sum(1 for r in rows if r[2] == "DDoS")

    def test_row_order_preserved(self, tiny_csv):
        ds = nf.parse_flow_csv(tiny_csv, "category", "DDoS")
        assert (ds.matrix[:, ds.feature_positions(["pkSeqID"])[0]] == [1.0, 2.0, 3.0]).all()

    def test_mixed_column_is_categorical(self, tmp_path):
        path = write_csv(
            tmp_path / "mixed.csv",
            ["sport", "category"],
            [["80", "DDoS"], ["0x0303", "Normal"]],
        )
        ds = nf.parse_flow_csv(path, "category", "DDoS")
        assert {c.name: c.kind for c in ds.columns}["sport"] == CATEGORICAL
        # A descriptor only: the matrix has no column for it and no cell is kept.
        assert ds.feature_names == [] and ds.matrix.shape == (2, 0)
        assert ds.strings == {}

    def test_ragged_row_names_row_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,category\n1,2,DDoS\n1,Normal\n", encoding="utf-8")
        with pytest.raises(nf.DataError, match="row 2"):
            nf.parse_flow_csv(path, "category", "DDoS")

    def test_empty_cell_is_an_error(self, tmp_path):
        path = tmp_path / "hole.csv"
        path.write_text("a,b,category\n1,2,DDoS\n1,,Normal\n", encoding="utf-8")
        with pytest.raises(nf.DataError, match="row 2"):
            nf.parse_flow_csv(path, "category", "DDoS")

    def test_non_finite_cell_is_an_error(self, tmp_path):
        path = write_csv(
            tmp_path / "inf.csv", ["a", "category"], [[1, "DDoS"], ["inf", "Normal"]]
        )
        with pytest.raises(nf.DataError, match="non-finite"):
            nf.parse_flow_csv(path, "category", "DDoS")

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,proto,category\n", encoding="utf-8")
        ds = nf.parse_flow_csv(path, "category", "DDoS")
        assert [c.kind for c in ds.columns] == [NUMERIC, NUMERIC]
        assert ds.matrix.shape == (0, 2) and ds.labels.shape == (0,)

    def test_missing_file(self, tmp_path):
        with pytest.raises(nf.DataError, match="no such file"):
            nf.parse_flow_csv(tmp_path / "absent.csv", "category", "DDoS")

    def test_field_over_the_csv_limit(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("a,category\n" + "1" * 200_000 + ",DDoS\n", encoding="utf-8")
        with pytest.raises(nf.DataError, match="field larger than field limit"):
            nf.parse_flow_csv(path, "category", "DDoS")

    def test_missing_label_column(self, tiny_csv):
        with pytest.raises(nf.DataError, match="label column"):
            nf.parse_flow_csv(tiny_csv, "nope", "DDoS")

    def test_duplicate_header(self, tmp_path):
        path = write_csv(tmp_path / "dup.csv", ["a", "a", "category"], [[1, 2, "DDoS"]])
        with pytest.raises(nf.DataError, match="duplicate"):
            nf.parse_flow_csv(path, "category", "DDoS")

    def test_more_than_two_label_values_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "multi.csv",
            ["a", "category"],
            [[1, "DDoS"], [2, "Normal"], [3, "DoS"]],
        )
        with pytest.raises(nf.DataError, match="filter to two classes"):
            nf.parse_flow_csv(path, "category", "DDoS")


def whole_file_parse(path, label_column, positive_label):
    """Reference reading of a fault-free file: every record at once, a column
    numeric only when float() takes each of its cells. A categorical column's
    cells are not kept."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header, *rows = list(csv.reader(fh))
    cells = list(zip(*rows))
    label_idx = header.index(label_column)
    kinds, numeric = {}, []
    for j, name in enumerate(header):
        if j == label_idx:
            continue
        try:
            numeric.append([float(c) for c in cells[j]])
            kinds[name] = NUMERIC
        except ValueError:
            kinds[name] = CATEGORICAL
    matrix = np.array(numeric, dtype=np.float64).T.reshape(len(rows), len(numeric))
    labels = np.array([v == positive_label for v in cells[label_idx]], dtype=np.int64)
    return kinds, matrix, labels


def assert_matches_whole_file(ds, path):
    kinds, matrix, labels = whole_file_parse(path, "category", "DDoS")
    assert {c.name: c.kind for c in ds.columns} == kinds
    assert [c.name for c in ds.columns] == list(kinds)
    assert ds.matrix.tobytes() == np.ascontiguousarray(matrix).tobytes()
    assert (ds.labels == labels).all()


def long_rows(n, seed=0):
    """n rows of [id, value, proto, label], longer than one parse chunk."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n).tolist()
    return [
        [i, repr(v), ("tcp", "udp")[i % 2], "DDoS" if i % 5 else "Normal"]
        for i, v in enumerate(values)
    ]


LONG = 2 * PARSE_CHUNK_ROWS + 300  # rows past the first chunk boundary


class TestChunkedParse:
    """Files longer than one chunk parse as if read whole."""

    def count_reads(self, monkeypatch):
        """Paths parse_flow_csv opens, one entry per open."""
        calls = []
        real = flow_data._open_input

        def counted(path, *args, **kwargs):
            calls.append(path)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(flow_data, "_open_input", counted)
        return calls

    def put_bad_byte(self, path, i):
        """Overwrite the first byte of record i's proto cell with 0xff."""
        lines = path.read_bytes().split(b"\n")
        at = lines[i + 1].index(b",", lines[i + 1].index(b",") + 1) + 1
        lines[i + 1] = lines[i + 1][:at] + b"\xff" + lines[i + 1][at + 1 :]
        path.write_bytes(b"\n".join(lines))

    def test_columns_turning_categorical_late(self, tmp_path, monkeypatch):
        rows = long_rows(LONG)
        for i, row in enumerate(rows):
            row.append(i)  # late: numeric until the second chunk
            row.append(i % 7)  # later: numeric until the third chunk
            row.append(i)  # early: turns inside the first chunk
            row.append("nan" if i == 3 else i)  # non-finite, then not a number
        rows[PARSE_CHUNK_ROWS + 17][4] = "0x0303"
        rows[2 * PARSE_CHUNK_ROWS + 5][5] = "-"
        rows[100][6] = "x"
        rows[PARSE_CHUNK_ROWS + 40][7] = "n/a"
        header = ["pkSeqID", "bytes", "proto", "category", "late", "later", "early", "odd"]
        path = write_csv(tmp_path / "late.csv", header, rows)
        reads = self.count_reads(monkeypatch)
        ds = nf.parse_flow_csv(path, "category", "DDoS")
        kinds = {c.name: c.kind for c in ds.columns}
        assert [n for n, k in kinds.items() if k == CATEGORICAL] == [
            "proto", "late", "later", "early", "odd",
        ]
        # odd's nan, seen while it was numeric, goes with the column.
        assert_matches_whole_file(ds, path)
        assert ds.matrix.flags.c_contiguous and ds.matrix.flags.owndata
        # One read: the late columns leave the matrix at the end.
        assert reads == [path]

    def test_early_failure_needs_no_reread(self, tmp_path, monkeypatch):
        rows = long_rows(LONG)
        rows[PARSE_CHUNK_ROWS - 1][2] = "icmp"
        path = write_csv(tmp_path / "early.csv", ["id", "v", "proto", "category"], rows)
        reads = self.count_reads(monkeypatch)
        ds = nf.parse_flow_csv(path, "category", "DDoS")
        assert_matches_whole_file(ds, path)
        assert reads == [path]

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("ragged", "row {row} has 3 cells, expected 4"),
            ("empty", "row {row}: missing value in column 'v'"),
            ("blank", "row {row}: missing value in column 'proto'"),
            ("non_finite", "row {row}: non-finite value in column 'v'"),
            ("not_utf8", "row {row}: not UTF-8 text"),
        ],
    )
    def test_fault_past_first_chunk_names_its_row(self, tmp_path, fault, message):
        rows = long_rows(LONG)
        i = PARSE_CHUNK_ROWS + 123
        if fault == "ragged":
            rows[i] = rows[i][:3]
        elif fault == "empty":
            rows[i][1] = ""
        elif fault == "blank":
            rows[i][2] = "  "
        elif fault == "non_finite":
            rows[i][1] = "-inf"
        path = write_csv(tmp_path / "fault.csv", ["id", "v", "proto", "category"], rows)
        if fault == "not_utf8":
            self.put_bad_byte(path, i)
        with pytest.raises(nf.DataError, match=message.format(row=i + 1)):
            nf.parse_flow_csv(path, "category", "DDoS")

    def test_first_fault_in_file_order_wins(self, tmp_path):
        rows = long_rows(LONG)
        rows[PARSE_CHUNK_ROWS + 9][2] = ""
        rows[PARSE_CHUNK_ROWS + 10] = rows[PARSE_CHUNK_ROWS + 10][:2]
        rows[2 * PARSE_CHUNK_ROWS + 1][1] = ""
        path = write_csv(tmp_path / "faults.csv", ["id", "v", "proto", "category"], rows)
        with pytest.raises(nf.DataError, match=f"row {PARSE_CHUNK_ROWS + 10}: missing"):
            nf.parse_flow_csv(path, "category", "DDoS")

    def test_third_label_in_a_later_chunk(self, tmp_path):
        rows = long_rows(LONG)
        rows[2 * PARSE_CHUNK_ROWS + 7][3] = "DoS"
        path = write_csv(tmp_path / "labels.csv", ["id", "v", "proto", "category"], rows)
        row = 2 * PARSE_CHUNK_ROWS + 8
        with pytest.raises(
            nf.DataError, match=f"row {row}: label column 'category' has a third value 'DoS'; "
        ):
            nf.parse_flow_csv(path, "category", "DDoS")

    def test_third_label_is_reported_before_a_later_fault(self, tmp_path):
        # The parse stops at the third label, so it never decodes the bad byte.
        rows = long_rows(10_010)
        rows[4][3] = "DoS"
        path = write_csv(tmp_path / "labels.csv", ["id", "v", "proto", "category"], rows)
        data = path.read_bytes()
        at = data.rindex(b"tcp")
        path.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
        with pytest.raises(nf.DataError, match="row 5: label column 'category' has a third"):
            nf.parse_flow_csv(path, "category", "DDoS")

    @pytest.mark.parametrize("empty_row", [None, 4], ids=["alone", "after_an_empty_cell"])
    def test_bad_byte_in_the_read_ahead_keeps_file_order(self, tmp_path, empty_row):
        # Row 50's bad byte falls in the text decoder's first 8 KB read, which
        # decodes past row 5's empty cell.
        rows = long_rows(100)
        if empty_row is not None:
            rows[empty_row][1] = ""
        path = write_csv(tmp_path / "faults.csv", ["id", "v", "proto", "category"], rows)
        self.put_bad_byte(path, 49)
        message = "row 5: missing value in column 'v'" if empty_row else "row 50: not UTF-8 text"
        with pytest.raises(nf.DataError, match=f": {message}$"):
            nf.parse_flow_csv(path, "category", "DDoS")

    @pytest.mark.parametrize("rows, message", [
        (["1,2,3,DDoS", "1,,,DDoS"], "row 2: missing value in column 'b'$"),
        (["1,2,3,DDoS", "1,2,3,Normal", "1,,3,DoS"],
         "row 3: label column 'category' has a third value 'DoS'; "),
        (["1,2,3,DDoS", "1,\udcff"], "row 2: not UTF-8 text$"),
        (["1,2,3,DDoS", "nan,2,inf,Normal", "1,-inf,3,DDoS"],
         "row 2: non-finite value in column 'a'$"),
        ([f"{'nan' if i == 3 else i},{'' if i == 10 else i},3,{('DDoS', 'Normal')[i % 2]}"
          for i in range(1, 13)], "row 10: missing value in column 'b'$"),
    ], ids=["missing_by_column", "third_label_before_missing", "bad_byte_before_cell_count",
            "first_non_finite_cell", "missing_in_a_later_chunk_before_non_finite"])
    def test_fault_precedence_in_small_chunks(self, tmp_path, monkeypatch, rows, message):
        monkeypatch.setattr(flow_data, "PARSE_CHUNK_ROWS", 4)
        path = tmp_path / "faults.csv"
        text = "\n".join(["a,b,c,category", *rows]) + "\n"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))  # "\udcff" is the byte 0xff
        with pytest.raises(nf.DataError, match=f": {message}"):
            nf.parse_flow_csv(path, "category", "DDoS")

    def test_byte_that_is_not_utf8_in_the_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"id,v\xff,category\n1,2,DDoS\n")
        with pytest.raises(nf.DataError, match=": header: not UTF-8 text$"):
            nf.parse_flow_csv(path, "category", "DDoS")

    def test_quoted_cells_across_the_chunk_boundary(self, tmp_path):
        rows = long_rows(LONG)
        for i in range(PARSE_CHUNK_ROWS - 2, PARSE_CHUNK_ROWS + 2):
            rows[i][2] = '"a,\nb"'
        path = write_csv(tmp_path / "quoted.csv", ["id", "v", "proto", "category"], rows)
        ds = nf.parse_flow_csv(path, "category", "DDoS")
        assert ds.row_count == LONG
        assert {c.name: c.kind for c in ds.columns}["proto"] == CATEGORICAL
        assert_matches_whole_file(ds, path)

    def test_utf8_bom(self, tmp_path):
        path = write_csv(tmp_path / "bom.csv", ["id", "v", "proto", "category"], long_rows(LONG))
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        ds = nf.parse_flow_csv(path, "category", "DDoS")
        assert ds.columns[0] == nf.ColumnDescriptor("id", NUMERIC)
        assert_matches_whole_file(ds, path)


def ingest_from_fifo(tmp_path, data: bytes) -> subprocess.CompletedProcess:
    """nfdlm ingest of a named pipe that one writer thread feeds data into,
    run in a child process with a timeout, so that a second open of the pipe,
    which no writer would ever answer, fails the test instead of hanging it."""
    fifo = tmp_path / "flows.fifo"
    os.mkfifo(fifo)

    def feed():
        try:
            fifo.write_bytes(data)
        except BrokenPipeError:  # the reader stopped before the end
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    env = {**os.environ, "PYTHONPATH": str(Path(nf.__file__).parents[1])}
    argv = ["ingest", "--input", str(fifo), "--drop", "", "--out", str(tmp_path / "fifo.ds")]
    try:
        return subprocess.run([sys.executable, "-m", "nfdlm.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
    finally:
        if writer.is_alive():  # the child never opened the pipe: let the writer's open return
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
        assert not writer.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("turns", ["in_the_first_chunk", "late"])
def test_ingest_from_a_named_pipe(tmp_path, capsys, turns):
    """The parse reads its input once, so a file parses from a pipe as from a
    regular file, one whose column turns categorical after the first chunk
    included."""
    rows = [row + [i] for i, row in enumerate(long_rows(LONG))]
    rows[PARSE_CHUNK_ROWS + 17 if turns == "late" else 17][4] = "0x0303"
    path = write_csv(tmp_path / "flows.csv", ["id", "v", "proto", "category", "tag"], rows)
    done = ingest_from_fifo(tmp_path, path.read_bytes())
    assert (done.returncode, done.stderr) == (0, "")
    assert main(["ingest", "--input", str(path), "--drop", "",
                 "--out", str(tmp_path / "file.ds")]) == 0
    assert (tmp_path / "fifo.ds").read_bytes() == (tmp_path / "file.ds").read_bytes()
    out = capsys.readouterr().out
    assert done.stdout.split(" -> ")[0] == out.split(" -> ")[0]
    assert "2 numeric features (dropped categorical proto, tag)" in out


class TestPlainBlocks:
    """np.loadtxt converts each plain block, the first one included;
    csv.reader and float() read one chunk of records wherever a block is not
    plain. Both read the file as a whole-file parse does."""

    CHUNK = 64
    ROWS = 5 * CHUNK + 7  # blocks 1-6
    HEADER = ["id", "v", "proto", "category"]

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(flow_data, "PARSE_CHUNK_ROWS", self.CHUNK)

    def count_loadtxt(self, monkeypatch):
        """Block sizes passed to np.loadtxt, one entry per call."""
        calls = []
        real = np.loadtxt

        def counted(lines, **kwargs):
            calls.append(len(lines))
            return real(lines, **kwargs)

        monkeypatch.setattr(flow_data.np, "loadtxt", counted)
        return calls

    @pytest.mark.parametrize("ending", ["lf", "crlf"])
    @pytest.mark.parametrize("proto", [True, False], ids=["mixed", "numeric_only"])
    def test_every_plain_block_runs_loadtxt(self, tmp_path, monkeypatch, proto, ending):
        header, rows = self.HEADER, long_rows(self.ROWS)
        if not proto:
            header, rows = ["id", "v", "category"], [[i, v, label] for i, v, _, label in rows]
        path = write_csv(tmp_path / "flows.csv", header, rows)
        if ending == "crlf":  # csv.writer ends every record with CRLF
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([header, *rows])
            assert path.read_bytes().count(b"\r\n") == self.ROWS + 1
        calls = self.count_loadtxt(monkeypatch)
        readers = []
        real_reader = csv.reader
        monkeypatch.setattr(
            flow_data.csv, "reader", lambda lines: readers.append(1) or real_reader(lines)
        )
        ds = nf.parse_flow_csv(path, "category", "DDoS")
        assert calls == [self.CHUNK] * 5 + [7]
        # csv.reader reads the header, and block 1 of the mixed file only
        # because loadtxt refuses its proto cells.
        assert len(readers) == (2 if proto else 1)
        assert_matches_whole_file(ds, path)

    @pytest.mark.parametrize(
        "cell, kind, loadtxt_calls",
        [
            # Block 4 is not plain: blocks 1-3 and 5-6.
            ("\x1f1.5", CATEGORICAL, 5),
            ("1.5\x1c", CATEGORICAL, 5),
            (" 1.5\t", NUMERIC, 6),  # plain: every block runs loadtxt
            ("1_000", NUMERIC, 6),  # plain, but loadtxt refuses it
            ("\u0661\u0662", NUMERIC, 5),  # not ASCII
        ],
        ids=["us_before", "fs_after", "space_tab", "underscore", "arabic_digits"],
    )
    def test_cell_in_a_later_block_keeps_its_kind(
        self, tmp_path, monkeypatch, cell, kind, loadtxt_calls
    ):
        rows = long_rows(self.ROWS)
        rows[3 * self.CHUNK + 5][1] = cell
        path = write_csv(tmp_path / "cell.csv", self.HEADER, rows)
        calls = self.count_loadtxt(monkeypatch)
        ds = nf.parse_flow_csv(path, "category", "DDoS")
        assert {c.name: c.kind for c in ds.columns}["v"] == kind
        assert len(calls) == loadtxt_calls
        assert_matches_whole_file(ds, path)

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("blank_line", "row {row} has 0 cells, expected 4"),
            ("extra_field", "row {row} has 5 cells, expected 4"),
            ("missing_field", "row {row} has 3 cells, expected 4"),
            ("over_limit", "field larger than field limit"),
        ],
    )
    def test_fault_in_a_later_block(self, tmp_path, fault, message):
        # Block 4 is not plain, or np.loadtxt refuses the line's cell count;
        # either way csv.reader reads it and reports the fault.
        rows = long_rows(self.ROWS)
        i = 3 * self.CHUNK + 5
        if fault == "blank_line":
            rows[i] = []
        elif fault == "extra_field":
            rows[i].append(7)
        elif fault == "missing_field":
            del rows[i][1]
        else:
            rows[i][1] = "1" * 200_000
        path = write_csv(tmp_path / "fault.csv", self.HEADER, rows)
        with pytest.raises(nf.DataError, match=message.format(row=i + 1)):
            nf.parse_flow_csv(path, "category", "DDoS")

    @pytest.mark.parametrize(
        "column, cell, value",
        [("proto", '"udp"', "udp"), ("proto", '"t,c\np"', "t,c\np"), ("v", '"2.5"', 2.5)],
    )
    def test_quote_in_block_3(self, tmp_path, monkeypatch, column, cell, value):
        i = 2 * self.CHUNK + 3
        rows = long_rows(self.ROWS)
        rows[i][self.HEADER.index(column)] = cell
        path = write_csv(tmp_path / "quoted.csv", self.HEADER, rows)
        calls = self.count_loadtxt(monkeypatch)
        ds = nf.parse_flow_csv(path, "category", "DDoS")
        assert calls == [self.CHUNK] * 4 + [7]  # every block but block 3
        if column == "v":
            assert ds.matrix[i, ds.feature_positions([column])[0]] == value
        assert_matches_whole_file(ds, path)

    def test_every_cell_quoted(self, tmp_path, monkeypatch):
        path = tmp_path / "quoted.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
            writer.writerows([self.HEADER, *long_rows(self.ROWS)])
        calls = self.count_loadtxt(monkeypatch)
        ds = nf.parse_flow_csv(path, "category", "DDoS")
        assert calls == []
        assert {c.name: c.kind for c in ds.columns}["v"] == NUMERIC
        assert_matches_whole_file(ds, path)

    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_blank_line_in_a_label_only_file(self, tmp_path, ending):
        # A blank line has the comma count of a one-column line, and loadtxt
        # would skip it; csv.reader reads it as a record of no cells.
        path = tmp_path / "labels.csv"
        path.write_bytes(ending.join(["category", "DDoS", "", "Normal", ""]).encode())
        with pytest.raises(nf.DataError, match="row 2 has 0 cells, expected 1"):
            nf.parse_flow_csv(path, "category", "DDoS")

    def test_hash_in_a_later_block_is_a_cell(self, tmp_path):
        rows = long_rows(self.ROWS)
        rows[3 * self.CHUNK + 5][0] = "#1"
        path = write_csv(tmp_path / "hash.csv", self.HEADER, rows)
        ds = nf.parse_flow_csv(path, "category", "DDoS")
        assert {c.name: c.kind for c in ds.columns}["id"] == CATEGORICAL
        assert_matches_whole_file(ds, path)


def test_mutated_csvs_parse_or_fail_as_data_error(tmp_path, monkeypatch, capsys):
    """Seeded truncations, bit flips and byte edits of a CSV whose proto
    column is categorical from the start and whose late column turns
    categorical in its third chunk. Every 40th mutant goes through nfdlm
    ingest, which exits 0 or 2 with one line."""
    monkeypatch.setattr(flow_data, "PARSE_CHUNK_ROWS", 8)
    rows = [row + [i if i != 19 else "0x0303"] for i, row in enumerate(long_rows(30))]
    path = write_csv(tmp_path / "flows.csv", ["pkSeqID", "v", "proto", "category", "late"], rows)
    ds = nf.parse_flow_csv(path, "category", "DDoS")
    assert {c.name: c.kind for c in ds.columns}["late"] == CATEGORICAL
    calls = []

    def parse_or_ingest(mutant):
        calls.append(mutant)
        if len(calls) % 40:
            return nf.parse_flow_csv(mutant, "category", "DDoS")
        rc = main(["ingest", "--input", str(mutant), "--out", str(tmp_path / "flows.ds")])
        err = capsys.readouterr().err
        assert rc in (0, 2)
        if rc == 2:
            assert err.startswith("nfdlm: data error: ") and err.count("\n") == 1
            raise nf.DataError(err)

    loaded = count_mutants_that_load(path.read_bytes(), path, parse_or_ingest, 19, 2000)
    assert 0 < loaded < 2000


# Allowed tracemalloc peak of parse_flow_csv beyond 1.5x its matrix: one
# chunk of cells and interpreter noise. The file below measures 4.9 MB; a
# parse that keeps every cell as a string measures 37.5 MB.
PARSE_MEMORY_SLACK = 8_000_000


def write_wide_csv(path, rows, features, proto):
    """pkSeqID, stime, proto (the cell proto(i) of row i), features standard
    normal columns and a label."""
    rng = np.random.default_rng(5)
    values = rng.standard_normal((rows, features)).tolist()
    header = ["pkSeqID", "stime", "proto", *(f"f{j}" for j in range(features)), "category"]
    line = "%d,%.6f,%s," + ",".join(["%r"] * features) + ",%s\n"
    path.write_text(
        ",".join(header) + "\n" + "".join(
            line % (i, 1.5e9 + i * 7.31e-4, proto(i), *v, "Normal" if i % 40 == 0 else "DDoS")
            for i, v in enumerate(values)
        ),
        encoding="utf-8",
    )
    return path


def test_parse_memory_is_bounded_by_the_matrix(tmp_path):
    rows, features = 50_000, 4
    path = write_wide_csv(tmp_path / "wide.csv", rows, features,
                          lambda i: ("tcp", "udp", "arp")[i % 3])
    ds, peak = traced_peak(nf.parse_flow_csv, path, "category", "DDoS")
    assert ds.matrix.shape == (rows, features + 2)
    assert peak <= 1.5 * ds.matrix.nbytes + PARSE_MEMORY_SLACK


def test_late_column_leaves_the_matrix_in_place(tmp_path):
    """A column numeric for 40,000 rows, then categorical: its slot is
    compacted out of the matrix in place, within the same bound."""
    rows, features = 50_000, 4
    path = write_wide_csv(tmp_path / "late.csv", rows, features,
                          lambda i: "tcp" if i == 40_000 else str(i % 3))
    ds, peak = traced_peak(nf.parse_flow_csv, path, "category", "DDoS")
    assert {c.name: c.kind for c in ds.columns}["proto"] == CATEGORICAL
    assert ds.matrix.shape == (rows, features + 2)
    assert_matches_whole_file(ds, path)
    assert peak <= 1.5 * ds.matrix.nbytes + PARSE_MEMORY_SLACK


WIDE_SPEC = nf.SynthesisSpec(16_000, 4_000, 50, 0, 2.0, seed=3)
# Labels weigh more beside a narrow matrix: one label byte a row against 64 matrix bytes.
NARROW_SPEC = nf.SynthesisSpec(160_000, 40_000, 8, 0, 2.0, seed=3)


def test_save_memory_is_bounded_by_the_header(tmp_path):
    ds = nf.generate_synthetic_flows(WIDE_SPEC)
    path = tmp_path / "wide.ds"
    _, peak = traced_peak(nf.save_dataset, ds, path)
    with path.open("rb") as fh:
        header = len(fh.readline())
    assert peak <= 0.05 * ds.matrix.nbytes + header


@pytest.mark.parametrize("spec", [WIDE_SPEC, NARROW_SPEC], ids=["wide", "narrow"])
def test_load_memory_is_bounded_by_the_matrix(tmp_path, spec):
    ds = nf.generate_synthetic_flows(spec)
    path = tmp_path / "wide.ds"
    nf.save_dataset(ds, path)
    back, peak = traced_peak(nf.load_dataset, path)
    assert back.matrix.tobytes() == ds.matrix.tobytes()
    assert back.matrix.flags.c_contiguous
    assert peak <= 1.05 * ds.matrix.nbytes


def botiot_like_csv(tmp_path, rows=12):
    """43 columns: 30 numeric features, 3 default-dropped, 9 strings, 1 label."""
    numeric = [f"n{i:02d}" for i in range(30)]
    strings = ["flgs", "proto", "saddr", "sport", "daddr", "dport", "state", "smac", "dmac"]
    header = ["pkSeqID", "stime", "ltime"] + strings + numeric + ["category"]
    rng = np.random.default_rng(0)
    data = []
    for i in range(rows):
        row = [i, 1.5e9 + i, 1.5e9 + i + 1]
        row += [f"s{i % 3}"] * len(strings)
        row += list(np.round(rng.standard_normal(30), 6))
        row += ["DDoS" if i % 4 else "Normal"]
        data.append(row)
    return write_csv(tmp_path / "botiot.csv", header, data)


class TestDropColumns:
    def test_default_drops_plus_strings_leave_30_features(self, tmp_path):
        ds = nf.parse_flow_csv(botiot_like_csv(tmp_path), "category", "DDoS")
        assert len(ds.columns) == 42  # every CSV column but the label column
        out = nf.drop_columns(ds, drop_string_columns=True)
        assert len(out.feature_names) == 30
        assert out.labels is not None and (out.labels == ds.labels).all()

    def test_ingest_drops_categorical_columns_and_names_them(self, tmp_path, capsys):
        path, out = botiot_like_csv(tmp_path), tmp_path / "flows.ds"
        assert main(["ingest", "--input", str(path), "--out", str(out)]) == 0
        ds = nf.load_dataset(out)
        assert CATEGORICAL not in [c.kind for c in ds.columns] and ds.strings == {}
        assert len(ds.feature_names) == 30
        assert ("30 numeric features (dropped categorical flgs, proto, saddr, sport, daddr, "
                "dport, state, smac, dmac), 9 attack / 3 benign") in capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            main(["ingest", "--input", str(path), "--drop-strings", "--out", str(out)])
        assert excinfo.value.code == 1

    def test_empty_drop_list_is_identity(self, tiny_csv):
        ds = nf.parse_flow_csv(tiny_csv, "category", "DDoS")
        assert_datasets_equal(nf.drop_columns(ds, [], drop_string_columns=False), ds)

    def test_unknown_name_errors(self, tiny_csv):
        ds = nf.parse_flow_csv(tiny_csv, "category", "DDoS")
        with pytest.raises(nf.DataError, match="nosuchcol"):
            nf.drop_columns(ds, ["nosuchcol"])

    def test_the_label_column_is_no_column(self, tiny_csv):
        ds = nf.parse_flow_csv(tiny_csv, "category", "DDoS")
        with pytest.raises(nf.DataError, match=r"^unknown columns in drop list: \['category'\]$"):
            nf.drop_columns(ds, ["category"])

    def test_idempotent(self, tmp_path):
        ds = nf.parse_flow_csv(botiot_like_csv(tmp_path), "category", "DDoS")
        once = nf.drop_columns(ds, drop_string_columns=True)
        twice = nf.drop_columns(once, drop_string_columns=True)
        assert_datasets_equal(once, twice)

    def test_explicit_name_drop(self, tiny_csv):
        ds = nf.parse_flow_csv(tiny_csv, "category", "DDoS")
        out = nf.drop_columns(ds, ["pkSeqID"])
        assert out.feature_names == ["bytes"]
        assert out.matrix.shape == (3, 1)

    def test_copy_is_one_c_order_take(self):
        """Dropping a numeric column takes one C-order copy of the rest."""
        ds = nf.generate_synthetic_flows(nf.SynthesisSpec(16_000, 4_000, 38, 0, 2.0, seed=3))
        kept = [j for j in range(38) if j not in (5, 30)]
        out, peak = traced_peak(nf.drop_columns, ds, ["f05", "f30"])
        assert out.matrix.flags.c_contiguous
        assert out.matrix.tobytes() == np.ascontiguousarray(ds.matrix[:, kept]).tobytes()
        assert peak <= 1.05 * out.matrix.nbytes

    def test_shares_the_matrix_unless_a_numeric_column_goes(self, tmp_path):
        ds = nf.parse_flow_csv(botiot_like_csv(tmp_path), "category", "DDoS")
        strings_gone = nf.drop_columns(ds, [], drop_string_columns=True)
        assert strings_gone.matrix is ds.matrix
        numeric_gone = nf.drop_columns(ds, ["pkSeqID"], drop_string_columns=True)
        assert not np.shares_memory(numeric_gone.matrix, ds.matrix)


class TestStratifiedSplit:
    def make(self, n_pos, n_neg, seed=0):
        rng = np.random.default_rng(seed)
        cols = [nf.ColumnDescriptor("a", NUMERIC), nf.ColumnDescriptor("b", NUMERIC)]
        labels = np.concatenate([np.ones(n_pos, dtype=int), np.zeros(n_neg, dtype=int)])
        return nf.FlowDataset(cols, rng.standard_normal((n_pos + n_neg, 2)), labels)

    def test_90_10_at_fraction_point_2(self):
        train, test = nf.stratified_split(self.make(90, 10), 0.2, seed=1)
        assert int(test.labels.sum()) == 18
        assert int((test.labels == 0).sum()) == 2
        assert train.row_count == 80 and test.row_count == 20

    def test_same_seed_same_partition(self):
        ds = self.make(50, 30)
        a = nf.stratified_split(ds, 0.25, seed=42)
        b = nf.stratified_split(ds, 0.25, seed=42)
        assert_datasets_equal(a[0], b[0])
        assert_datasets_equal(a[1], b[1])

    def test_single_class_errors(self):
        ds = self.make(10, 0)
        with pytest.raises(nf.DataError, match="both classes"):
            nf.stratified_split(ds, 0.2, seed=0)

    def test_partition_is_exact(self):
        ds = self.make(37, 23, seed=5)
        train, test = nf.stratified_split(ds, 0.3, seed=9)
        joined = np.vstack([train.matrix, test.matrix])
        assert sorted(map(tuple, joined)) == sorted(map(tuple, ds.matrix))
        assert train.row_count + test.row_count == ds.row_count

    @pytest.mark.parametrize(
        "n_pos, n_neg, fraction, empty",
        [(50, 10, 0.01, "test part with no rows"), (2, 3, 0.9, "training part with no rows"),
         (50, 10, 0.05, "test part with no benign rows"),
         (10, 50, 0.05, "test part with no attack rows"),
         (40, 2, 0.75, "training part with no benign rows")],
        ids=["empty_test", "empty_training", "empty_test_benign", "empty_test_attack",
             "empty_training_benign"],
    )
    def test_fraction_that_empties_a_part_errors(self, n_pos, n_neg, fraction, empty):
        with pytest.raises(nf.DataError, match=f"^test_fraction {fraction} leaves the {empty}$"):
            nf.stratified_split(self.make(n_pos, n_neg), fraction, seed=0)

    @pytest.mark.parametrize("fraction", [0.1, 0.2, 0.33, 0.5])
    def test_per_class_sizes_track_round(self, fraction):
        ds = self.make(41, 17, seed=2)
        _, test = nf.stratified_split(ds, fraction, seed=3)
        for cls, count in ((1, 41), (0, 17)):
            got = int((test.labels == cls).sum())
            assert abs(got - round(fraction * count)) <= 1


class TestGenerateSyntheticFlows:
    def test_counts_and_imbalance(self, surrogate):
        assert surrogate.row_count == 20500
        assert int(surrogate.labels.sum()) == 20000
        assert int((surrogate.labels == 0).sum()) == 500
        assert len(surrogate.feature_names) == 30

    def test_class_mean_separation(self, surrogate):
        copies = {2 * t + 1 for t in range(SURROGATE_SPEC.planted_duplicate_pairs)}
        independent = [j for j in range(30) if j not in copies]
        attack = surrogate.matrix[surrogate.labels == 1][:, independent].mean(axis=0)
        benign = surrogate.matrix[surrogate.labels == 0][:, independent].mean(axis=0)
        distance = float(np.linalg.norm(attack - benign))
        assert abs(distance - SURROGATE_SPEC.class_separation) < 0.2

    def test_signal_columns_avoid_planted_copies(self):
        signal = synthetic_signal_columns(SURROGATE_SPEC)
        assert len(signal) == SIGNAL_DIMS
        assert all(j >= 10 for j in signal)  # copies occupy 0..9

    def test_planted_pairs_correlate_hard(self, surrogate):
        corr = np.corrcoef(surrogate.matrix, rowvar=False)
        for t in range(5):
            assert abs(corr[2 * t, 2 * t + 1]) > 0.99

    def test_no_dupes_keeps_off_diagonal_modest(self):
        spec = nf.SynthesisSpec(20000, 500, 30, 0, 6.0, seed=7)
        ds = nf.generate_synthetic_flows(spec)
        corr = np.abs(np.corrcoef(ds.matrix, rowvar=False))
        np.fill_diagonal(corr, 0.0)
        assert corr.max() < 0.65

    def test_pure_function_of_spec(self):
        spec = nf.SynthesisSpec(200, 50, 8, 2, 3.0, seed=13)
        a = nf.generate_synthetic_flows(spec)
        b = nf.generate_synthetic_flows(spec)
        assert_datasets_equal(a, b)

    def test_too_many_pairs_errors(self):
        spec = nf.SynthesisSpec(10, 10, 4, 3, 1.0, seed=0)
        with pytest.raises(nf.DataError, match="duplicate pairs"):
            nf.generate_synthetic_flows(spec)

    def test_zero_separation_gives_chance_accuracy(self):
        spec = nf.SynthesisSpec(2000, 2000, 6, 0, 0.0, seed=5)
        ds = nf.generate_synthetic_flows(spec)
        train, test = nf.stratified_split(ds, 0.2, seed=5)
        scaler = nf.fit_scaler(train)
        model = nf.build_mlp(ds.feature_names, seed=5)
        nf.train(model, nf.apply_scaler(scaler, train), nf.TrainingConfig(epochs=5, batch_size=20, seed=5))
        preds = nf.predict(model, nf.apply_scaler(scaler, test))
        accuracy = float((preds == test.labels).mean())
        assert 0.45 <= accuracy <= 0.55


def fixture_dataset() -> nf.FlowDataset:
    """Extreme values: the features, values and labels of fixtures/flows_v1.ds
    and fixtures/flows_v2.ds, files in the retired .ds format versions 1 and
    2, which also describe a categorical column and the label column."""
    cols = [nf.ColumnDescriptor("a", NUMERIC), nf.ColumnDescriptor("b", NUMERIC)]
    matrix = np.array([[1e300, 1e-300], [-1e300, -1e-300], [-0.0, 5e-324],
                       [1.7976931348623157e308, 0.1], [2.5, -3.0]])
    return nf.FlowDataset(cols, matrix, labels=np.array([1, 0, 1, 1, 0]))


def assert_bitwise_equal(a: nf.FlowDataset, b: nf.FlowDataset) -> None:
    assert_datasets_equal(a, b)
    assert a.matrix.tobytes() == b.matrix.tobytes()


def load_from_pipe(tmp_path, data: bytes) -> nf.FlowDataset:
    """load_dataset of a named pipe that another thread writes data into."""
    pipe = tmp_path / "pipe.ds"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        return nf.load_dataset(pipe)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


class TestDatasetFile:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(3)
        cols = [
            nf.ColumnDescriptor("a", NUMERIC),
            nf.ColumnDescriptor("proto", CATEGORICAL),
            nf.ColumnDescriptor("b", NUMERIC),
        ]
        matrix = np.column_stack(
            [rng.standard_normal(5) * 1e300, rng.standard_normal(5) * 1e-300]
        )
        ds = nf.FlowDataset(cols, matrix, labels=np.array([0, 1, 1, 0, 1]))
        path = tmp_path / "cache.ds"
        nf.save_dataset(ds, path)
        back = nf.load_dataset(path)
        # The cache keeps the features; a categorical descriptor holds no cell.
        assert back.columns == [c for c in cols if c.kind == NUMERIC]
        assert back.matrix.tobytes() == ds.matrix.tobytes()
        assert (back.labels == ds.labels).all() and back.strings == {}

    def test_header_holds_row_count_and_feature_names(self, tmp_path):
        path = tmp_path / "cache.ds"
        nf.save_dataset(fixture_dataset(), path)
        assert path.read_bytes().split(b"\n", 1)[0] == (
            b'{"format": "nfdlm.dataset", "format_version": 3, "row_count": 5, '
            b'"feature_names": ["a", "b"]}'
        )

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda b: b[:-8], "payload size mismatch"),
            (lambda b: b + b"\0", "payload size mismatch"),
            (lambda b: b.split(b"\n", 1)[0], "missing header line"),
        ],
        ids=["short", "long", "no_newline"],
    )
    def test_rejects_bad_payload_size(self, tmp_path, change, message):
        path = tmp_path / "cache.ds"
        nf.save_dataset(nf.generate_synthetic_flows(nf.SynthesisSpec(8, 4, 3, 0, 2.0)), path)
        path.write_bytes(change(path.read_bytes()))
        with pytest.raises(nf.DataError, match=message):
            nf.load_dataset(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda b: b, None),
            (lambda b: b[:-8], "payload size mismatch"),
            (lambda b: b + b"\0", "payload size mismatch"),
            (lambda b: b[:-1], "payload size mismatch"),
            (lambda b: b[:-1] + b"\2", "labels must be 0 or 1"),
        ],
        ids=["whole", "short", "long", "one_label_short", "label_byte_2"],
    )
    def test_reads_from_a_pipe(self, tmp_path, change, message):
        ds = nf.generate_synthetic_flows(nf.SynthesisSpec(8, 4, 3, 0, 2.0))
        nf.save_dataset(ds, tmp_path / "cache.ds")
        data = change((tmp_path / "cache.ds").read_bytes())
        if message is None:
            assert_datasets_equal(load_from_pipe(tmp_path, data), ds)
        else:
            with pytest.raises(nf.DataError, match=message):
                load_from_pipe(tmp_path, data)

    @pytest.mark.parametrize("source", ["file", "pipe"])
    @pytest.mark.parametrize("labels", ["present", "empty"])
    def test_round_trip_keeps_labels(self, tmp_path, labels, source):
        if source == "pipe" and not hasattr(os, "mkfifo"):
            pytest.skip("needs named pipes")
        ds = fixture_dataset()
        if labels == "empty":
            ds = flow_data.take_rows(ds, [])
        path = tmp_path / "cache.ds"
        nf.save_dataset(ds, path)
        if source == "file":
            back = nf.load_dataset(path)
        else:
            back = load_from_pipe(tmp_path, path.read_bytes())
        assert_bitwise_equal(back, ds)

    def test_mutated_files_load_or_fail_as_data_error(self, tmp_path):
        path = tmp_path / "cache.ds"
        nf.save_dataset(fixture_dataset(), path)
        loaded = count_mutants_that_load(path.read_bytes(), path, nf.load_dataset, 11, 2000)
        assert 0 < loaded < 2000

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.ds"
        path.write_text('{"format": "other"}\n', encoding="utf-8")
        with pytest.raises(nf.DataError, match="not a nfdlm.dataset"):
            nf.load_dataset(path)

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_written_files_follow_umask(self, tmp_path, umask):
        ds = nf.generate_synthetic_flows(nf.SynthesisSpec(8, 4, 2, 0, 2.0, seed=1))
        old = os.umask(umask)
        try:
            nf.save_model(nf.build_mlp(ds.feature_names, seed=0), tmp_path / "m.json")
            nf.write_flow_csv(ds, tmp_path / "flows.csv")
        finally:
            os.umask(old)
        assert sorted(os.listdir(tmp_path)) == ["flows.csv", "m.json"]
        for name in ("m.json", "flows.csv"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask

    def test_csv_round_trip_is_bitwise_on_numeric(self, tmp_path):
        rng = np.random.default_rng(11)
        values = np.concatenate(
            [rng.standard_normal(20), [1 / 3, 1e-308, 7.2e250, -0.0, 123456789.123456789]]
        )
        cols = [nf.ColumnDescriptor("v", NUMERIC)]
        ds = nf.FlowDataset(cols, values[:, None], labels=(np.arange(25) % 2))
        path = tmp_path / "flows.csv"
        nf.write_flow_csv(ds, path)
        back = nf.parse_flow_csv(path, "category", "DDoS")
        assert (back.matrix == ds.matrix).all()
        assert (back.labels == ds.labels).all()

    def test_parse_write_parse_fixpoint(self, tmp_path):
        first = nf.parse_flow_csv(botiot_like_csv(tmp_path), "category", "DDoS")
        path = tmp_path / "again.csv"
        nf.write_flow_csv(first, path)
        second = nf.parse_flow_csv(path, "category", "DDoS")
        assert (second.matrix == first.matrix).all()
        assert (second.labels == first.labels).all()
        # Categorical columns hold no cells to write, so the CSV leaves them out.
        assert second.columns == [c for c in first.columns if c.kind != CATEGORICAL]

    def test_label_column_mid_file_is_written_last(self, tmp_path):
        path = write_csv(
            tmp_path / "mid.csv", ["a", "category", "b"],
            [[1.5, "DDoS", -2], [0.25, "Normal", 7], [-0.0, "DDoS", 1e300]],
        )
        first = nf.parse_flow_csv(path, "category", "DDoS")
        nf.write_flow_csv(first, tmp_path / "again.csv")
        header = (tmp_path / "again.csv").read_text(encoding="utf-8").split("\n", 1)[0]
        assert header == "a,b,category"
        second = nf.parse_flow_csv(tmp_path / "again.csv", "category", "DDoS")
        assert second.feature_names == first.feature_names == ["a", "b"]
        assert second.matrix.tobytes() == first.matrix.tobytes()
        assert second.labels.tolist() == first.labels.tolist() == [True, False, True]

    def test_a_feature_named_like_the_label_column_is_not_written(self, tmp_path):
        ds = numeric_ds(np.zeros((2, 2)), labels=[1, 0], names=["a", "category"])
        with pytest.raises(nf.DataError, match="a feature is named 'category'"):
            nf.write_flow_csv(ds, tmp_path / "flows.csv")
        assert os.listdir(tmp_path) == []


class TestSelectFeatures:
    def test_subset_and_order(self, surrogate):
        view = nf.select_features(surrogate, ["f05", "f02"])
        assert view.feature_names == ["f05", "f02"]
        f05 = surrogate.feature_positions(["f05"])[0]
        assert (view.matrix[:, 0] == surrogate.matrix[:, f05]).all()
        assert (view.labels == surrogate.labels).all()

    def test_unknown_column(self, surrogate):
        with pytest.raises(nf.DataError, match="no such numeric column"):
            nf.select_features(surrogate, ["zz"])


class TestLabels:
    @pytest.mark.parametrize(
        "values", [[1, 0, 1], np.array([1, 0, 1]), np.array([1.0, 0.0, 1.0])],
        ids=["list", "int", "float"],
    )
    def test_zeros_and_ones_become_read_only_bool(self, values):
        labels = numeric_ds(np.zeros((3, 1)), labels=values).labels
        assert labels.dtype == bool and not labels.flags.writeable
        assert labels.tolist() == [True, False, True]

    def test_a_dataset_without_labels_is_refused(self):
        with pytest.raises(nf.DataError, match="labels must be 0 or 1"):
            nf.FlowDataset([nf.ColumnDescriptor("a", NUMERIC)], np.zeros((2, 1)), labels=None)

    def test_a_bool_vector_is_adopted(self):
        labels = np.array([True, False])
        assert numeric_ds(np.zeros((2, 1)), labels=labels).labels is labels
        assert not labels.flags.writeable

    def test_every_producer_makes_bool(self, tmp_path, tiny_csv):
        synthetic = nf.generate_synthetic_flows(nf.SynthesisSpec(30, 10, 3, 0, 2.0))
        nf.save_dataset(synthetic, tmp_path / "cache.ds")
        for ds in (
            synthetic,
            nf.parse_flow_csv(tiny_csv, "category", "DDoS"),
            nf.load_dataset(tmp_path / "cache.ds"),
            flow_data.take_rows(synthetic, [3, 1]),
            nf.smote_resample(synthetic, nf.SmoteConfig()),
        ):
            assert ds.labels.dtype == bool

    def test_stages_that_keep_row_order_share_the_labels(self):
        ds = nf.generate_synthetic_flows(nf.SynthesisSpec(30, 10, 3, 0, 2.0))
        for out in (
            nf.select_features(ds, ["f02", "f00"]),
            nf.apply_scaler(nf.fit_scaler(ds), ds),
            nf.drop_columns(ds, []),
        ):
            assert out.labels is ds.labels
