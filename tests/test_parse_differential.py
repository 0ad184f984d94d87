"""parse_flow_csv with np.loadtxt on plain blocks against the same parse with
csv.reader and float() on every block: equal datasets or equal errors."""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import pytest

import nfdlm as nf
from nfdlm import flow_data

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CHUNK = 3
VALUES = ["1", "-2.5", "1e3", "0.1", "7"]
# Cells that either reader may take differently, if the gate let them through.
CELLS = [
    " 4", "5\t", "nan", "-inf", "1e999", "1_000", "١٢", "0x1", "", " ", "tcp",
    '"7"', '"a,b"', '"a\nb"', "\x1f3", "3\x1c", "3\x0b", "\x00", "#5", "1 2", "\r", "\x7f",
    "9" * 140_000,
]
TWEAKS = (
    [("id", cell) for cell in CELLS]
    + [("v", cell) for cell in CELLS]
    + [("proto", cell) for cell in ('"udp"', '"u,dp"', "", "é", "a\x1fb")]
    + [("category", label) for label in ("DoS", "", " DDoS", '"DDoS"')]
    + [("shape", shape) for shape in ("extra", "short", "blank")]
    + [("ending", "\r")]
)
HEADERS = [
    ["id", "v", "proto", "category"],  # loadtxt refuses block 1 for its proto cells
    ["id", "v", "category"],  # numeric-only: block 1 takes the C path too
    ["category"],  # label-only: a blank line has the comma count of a whole one
]


def outcome(path):
    try:
        ds = nf.parse_flow_csv(path, "category", "DDoS")
    except nf.DataError as exc:
        return str(exc)
    kinds = [(c.name, c.kind) for c in ds.columns]
    return kinds, ds.matrix.tobytes(), ds.labels.tobytes()


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=900)
@hypothesis.given(
    header=st.sampled_from(HEADERS),
    rows=st.integers(0, 8 * CHUNK),
    tweaks=st.lists(st.tuples(st.integers(0, 8 * CHUNK), st.sampled_from(TWEAKS)), max_size=3),
    endings=st.sampled_from(["lf", "crlf", "mixed"]),
    bare_end=st.booleans(),
)
def test_loadtxt_blocks_read_as_csv_reader_blocks(header, rows, tweaks, endings, bare_end):
    records = [
        {"id": str(i), "v": VALUES[i % 5], "proto": ("tcp", "udp")[i % 2],
         "category": "Normal" if i % 3 == 0 else "DDoS",
         "ending": "\r\n" if endings == "crlf" or endings == "mixed" and i % 2 else "\n",
         "shape": "whole"}
        for i in range(rows)
    ]
    for i, (key, value) in tweaks:
        if i < rows:
            records[i][key] = value
    lines = [",".join(header) + "\n"]
    for r in records:
        cells = [r[name] for name in header]
        cells = {"whole": cells, "extra": cells + ["9"], "short": cells[:-1], "blank": []}
        lines.append(",".join(cells[r["shape"]]) + r["ending"])
    if bare_end:
        lines[-1] = lines[-1].rstrip("\r\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "flows.csv"
        path.write_bytes("".join(lines).encode("utf-8"))
        with mock.patch.object(flow_data, "PARSE_CHUNK_ROWS", CHUNK):
            fast = outcome(path)
            with mock.patch.object(flow_data, "_plain_block", lambda *args: None):
                slow = outcome(path)
    assert fast == slow
