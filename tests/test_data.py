"""Ingestion, transition construction, and round-trip tests."""

import tracemalloc

import numpy as np
import pytest

from pumpcausal import data as data_mod
from pumpcausal import tables
from pumpcausal.data import (
    TIMESERIES_HEADER,
    CovariateSeries,
    Dataset,
    Inspections,
    build_transitions,
    ingest_inspections,
    ingest_timeseries,
    transitions_header,
    write_inspections_csv,
    write_timeseries_csv,
    write_transitions_csv,
)
from pumpcausal.errors import DataError


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# timeseries bodies after the header, and the error each must raise
FIRST_OFFENDING_LINES = [
    ("P,0,1\nP,1,2,3\n", "line 3: expected 3 fields, got 4"),
    ("P,0,1\nP,1,2\nP,2\n", "line 4: expected 3 fields, got 2"),
    ("P,0,1\n\nP,1,2\n", "line 3: expected 3 fields, got 0"),
    ("P,0,1\nP,1.5,2\n", "line 3: day '1.5' is not an integer"),
    ("P,0,1\nP,1,2\nP,2,abc\n", "line 4: value 'abc' is not a number"),
    ("P,0,1\nP,1,nan\n", "line 3: non-finite value"),
    ("P,0,1\nP,1,2\nP,2,-inf\n", "line 4: non-finite value"),
    ("P,0,1\nP,2,1\n", r"line 3: pump P days not contiguous \(expected 1, got 2\)"),
    ("A,0,1\nB,5,1\nA,1,1\nB,7,1\n",
     r"line 5: pump B days not contiguous \(expected 6, got 7\)"),
    # the first offending line in file order, whatever its kind
    ("P,0,1\nP,2,1\nP,3,x\n", r"line 3: pump P days not contiguous"),
    ("P,0,1\nP,1,inf\nP,2\n", "line 3: non-finite value"),
    ("P,0,1\nQ,0,x\nP,5,1\nP,6,nan\n", "line 3: value 'x' is not a number"),
]

# timeseries bodies holding a byte that is not UTF-8, and the error each must
# raise: such a line is malformed like any other, so an earlier offending
# line of any kind is named first
NOT_UTF8_LINES = [
    (b"P,0,1\nP,2,1\nP,3,1\nP,4,\xff\n", r"line 3: pump P days not contiguous"),
    (b"P,0,1\nP,1,x\nP,2,1\nP,3,\xff\n", "line 3: value 'x' is not a number"),
    (b"P,0,1\nP,1,1\nP\xff,2,1\nQ,0,1\n", "line 4: not UTF-8 text$"),
    (b"P,0,1\nP,1,1\nP,2,1\xc3\n", "line 4: not UTF-8 text$"),  # a cut multi-byte character
]


class TestIngestInspections:
    def test_basic_parse(self, tmp_path):
        path = _write(tmp_path, "i.csv", "pump_id,day,state\nP001,0,1\nP001,90,2\n")
        inspections = ingest_inspections(path)
        assert inspections.pump_ids == ("P001",)
        assert _rows(inspections) == [("P001", 0, 1), ("P001", 90, 2)]

    def test_state_out_of_range(self, tmp_path):
        path = _write(tmp_path, "i.csv", "pump_id,day,state\nP001,0,9\n")
        with pytest.raises(DataError, match="line 2.*state 9"):
            ingest_inspections(path)

    def test_non_monotone_days(self, tmp_path):
        path = _write(tmp_path, "i.csv", "pump_id,day,state\nP001,90,1\nP001,0,1\n")
        with pytest.raises(DataError, match="line 3.*strictly"):
            ingest_inspections(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = _write(tmp_path, "i.csv", "pump_id,day,state\nP001,zero,1\n")
        with pytest.raises(DataError, match="line 2"):
            ingest_inspections(path)

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path, "i.csv", "pump,day,state\n")
        with pytest.raises(DataError, match="header"):
            ingest_inspections(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            ingest_inspections(tmp_path / "absent.csv")

    def test_groups_by_pump_preserving_day_order(self, tmp_path):
        path = _write(
            tmp_path,
            "i.csv",
            "pump_id,day,state\nA,0,1\nB,0,1\nA,30,1\nB,45,2\n",
        )
        inspections = ingest_inspections(path)
        assert inspections.pump_ids == ("A", "B")
        assert _rows(inspections) == [("A", 0, 1), ("A", 30, 1), ("B", 0, 1), ("B", 45, 2)]


class TestIngestTimeseries:
    def test_parse_and_gap_error(self, tmp_path):
        ok = _write(tmp_path, "t.csv", "pump_id,day,value\nP,0,1.5\nP,1,2.5\n")
        series = ingest_timeseries(ok)
        assert len(series) == 1
        assert series[0].start_day == 0
        np.testing.assert_array_equal(series[0].values, [1.5, 2.5])

        gap = _write(tmp_path, "g.csv", "pump_id,day,value\nP,0,1.0\nP,2,1.0\n")
        with pytest.raises(DataError, match="contiguous"):
            ingest_timeseries(gap)

    def test_non_finite_value(self, tmp_path):
        path = _write(tmp_path, "t.csv", "pump_id,day,value\nP,0,nan\n")
        with pytest.raises(DataError, match="non-finite"):
            ingest_timeseries(path)

    # a block size of 2 puts most offending lines past the first block
    @pytest.mark.parametrize("block_lines", [2, tables._BLOCK_LINES])
    @pytest.mark.parametrize("body, message", FIRST_OFFENDING_LINES)
    def test_error_names_first_offending_line(
        self, tmp_path, monkeypatch, block_lines, body, message
    ):
        monkeypatch.setattr(tables, "_BLOCK_LINES", block_lines)
        path = _write(tmp_path, "t.csv", "pump_id,day,value\n" + body)
        with pytest.raises(DataError, match=message):
            ingest_timeseries(path)

    @pytest.mark.parametrize("block_lines", [1, 2, tables._BLOCK_LINES])
    @pytest.mark.parametrize("body, message", NOT_UTF8_LINES)
    def test_byte_not_utf8_is_a_malformed_line(
        self, tmp_path, monkeypatch, block_lines, body, message
    ):
        monkeypatch.setattr(tables, "_BLOCK_LINES", block_lines)
        path = tmp_path / "t.csv"
        path.write_bytes(b"pump_id,day,value\n" + body)
        with pytest.raises(DataError, match=message) as error:
            ingest_timeseries(path)
        str(error.value).encode()  # holds no lone surrogate, so it prints

    @pytest.mark.parametrize("check_rows", [1, 2])
    @pytest.mark.parametrize("body, message", FIRST_OFFENDING_LINES)
    def test_checks_span_row_chunks(self, tmp_path, monkeypatch, check_rows, body, message):
        # a check over whole columns runs in spans; a span boundary between
        # a row and the one before it must change nothing
        monkeypatch.setattr(data_mod, "_CHECK_ROWS", check_rows)
        path = _write(tmp_path, "t.csv", "pump_id,day,value\n" + body)
        with pytest.raises(DataError, match=message):
            ingest_timeseries(path)

    @pytest.mark.parametrize("block_lines", [2, tables._BLOCK_LINES])
    def test_line_endings_parse_alike(self, tmp_path, monkeypatch, block_lines):
        # the lines are counted before they are parsed; LF, CRLF and a bare
        # CR must split both alike
        monkeypatch.setattr(tables, "_BLOCK_LINES", block_lines)
        lines = ["pump_id,day,value", "A,0,1.5", "A,1,-0.0", "B,4,2e-3", "B,5,7", "B,6,8.25"]
        bad = lines[:4] + ["B,5"] + lines[5:]
        columns = []
        for eol in ("\n", "\r\n", "\r"):
            path = tmp_path / "t.csv"
            path.write_bytes(eol.join(lines).encode() + eol.encode())
            table = tables.read_table(path, TIMESERIES_HEADER, (int, float))
            assert not table.errors and table.keys == ["A", "B"]
            columns.append(table.columns)
            series = ingest_timeseries(path)
            assert [(s.pump_id, s.start_day, s.values.tolist()) for s in series] == [
                ("A", 0, [1.5, -0.0]), ("B", 4, [2e-3, 7.0, 8.25])
            ]
            path.write_bytes(eol.join(bad).encode())  # and no line break at the end
            with pytest.raises(DataError, match="t.csv line 5: expected 3 fields, got 2$"):
                ingest_timeseries(path)
        for other in columns[1:]:
            for a, b in zip(columns[0], other):
                assert a.dtype == b.dtype and len(a) == 5
                np.testing.assert_array_equal(a, b)

    def test_ingestion_holds_one_copy(self, tmp_path, monkeypatch):
        # the columns are parsed straight into place and checked in spans:
        # beyond them only one block of lines (~0.5 MB) and one span's
        # temporaries are held.  At 500 pumps x 650 days the columns are
        # 6.5 MB, so the block is below a tenth of them.
        values = np.random.default_rng(3).normal(20.0, 1.0, (500, 650))
        path = tmp_path / "timeseries.csv"
        write_timeseries_csv(
            (CovariateSeries(f"P{i:04d}", 0, v) for i, v in enumerate(values)), path
        )
        del values
        read_peaks, tables_read = [], []

        def read_table(*args):
            tables_read.append(tables.read_table(*args))
            read_peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return tables_read[-1]

        monkeypatch.setattr(data_mod, "read_table", read_table)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            series = ingest_timeseries(path)
            ingest_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        nbytes = sum(c.nbytes for c in tables_read[0].columns)
        assert len(series) == 500 and nbytes == 650 * 500 * (4 + 8 + 8)
        assert read_peaks[0] <= 1.1 * nbytes
        assert ingest_peak <= 1.25 * nbytes

    @pytest.mark.parametrize(
        "text, message",
        [("pump,day,value\nP,0,1\n", "expected header pump_id,day,value"), ("", "empty file")],
    )
    def test_bad_header_and_empty_file(self, tmp_path, text, message):
        with pytest.raises(DataError, match=message):
            ingest_timeseries(_write(tmp_path, "t.csv", text))

    def test_interleaved_pumps_in_first_appearance_order(self, tmp_path):
        path = _write(
            tmp_path, "t.csv", "pump_id,day,value\nB,3,1.5\nA,0,2\nB,4,2.5\nA,1,3\nB,5,3.5\n"
        )
        series = ingest_timeseries(path)
        assert [(s.pump_id, s.start_day) for s in series] == [("B", 3), ("A", 0)]
        np.testing.assert_array_equal(series[0].values, [1.5, 2.5, 3.5])
        np.testing.assert_array_equal(series[1].values, [2.0, 3.0])

    def test_header_only_file_gives_no_series(self, tmp_path):
        assert ingest_timeseries(_write(tmp_path, "t.csv", "pump_id,day,value\n")) == []

    def test_quoted_pump_id_with_comma(self, tmp_path):
        path = _write(tmp_path, "t.csv", 'pump_id,day,value\n"A,1",0,1.5\n"A,1",1,2.5\n')
        (series,) = ingest_timeseries(path)
        assert series.pump_id == "A,1"
        np.testing.assert_array_equal(series.values, [1.5, 2.5])


class TestWriteTimeseries:
    def test_repeated_pump_rejected(self, tmp_path):
        series = [
            CovariateSeries(pid, 0, np.arange(5.0)) for pid in ("P000", "P000", "P001")
        ]
        path = tmp_path / "timeseries.csv"
        with pytest.raises(DataError, match="pump P000 has 2 series"):
            write_timeseries_csv(series, path)
        assert not path.exists()

    def test_write_ingest_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        series = [
            CovariateSeries(pid, start, rng.normal(size=length))
            for pid, start, length in (("P1", 0, 40), ("a,b", 7, 3), ("P3", 120, 1))
        ]
        path = tmp_path / "timeseries.csv"
        write_timeseries_csv(series, path)
        again = ingest_timeseries(path)
        assert [(s.pump_id, s.start_day) for s in again] == [
            (s.pump_id, s.start_day) for s in series
        ]
        for a, b in zip(again, series):
            np.testing.assert_array_equal(a.values, b.values)


def _rows(inspections):
    """The inspections as (pump_id, day, state) rows."""
    return [
        (inspections.pump_ids[p], d, s)
        for p, d, s in zip(
            inspections.pump.tolist(), inspections.day.tolist(), inspections.state.tolist()
        )
    ]


def _inspections(*triples):
    """Inspections of (pump_id, day, state) rows, each pump's rows together."""
    pump_ids = tuple(dict.fromkeys(pid for pid, _, _ in triples))
    return Inspections(
        pump_ids,
        [pump_ids.index(pid) for pid, _, _ in triples],
        [day for _, day, _ in triples],
        [state for _, _, state in triples],
    )


def _only_row(build):
    """The build's single transition as (state_index, delta_t, y, x)."""
    data = build.dataset
    assert len(data) == 1
    return int(data.k[0]) + 1, float(data.dt[0]), int(data.y[0]), data.x[0]


class TestBuildTransitions:
    def test_no_change_interval(self):
        build = build_transitions(_inspections(("P", 0, 1), ("P", 90, 1)))
        state, dt, y, x = _only_row(build)
        assert (state, dt, y) == (1, 90.0, 0)
        assert x.shape == (0,)  # no series, no covariate

    def test_single_step(self):
        build = build_transitions(_inspections(("P", 0, 1), ("P", 90, 2)))
        state, dt, y, _ = _only_row(build)
        assert (state, dt, y) == (1, 90.0, 1)

    def test_absorbing_state_produces_nothing(self):
        build = build_transitions(_inspections(("P", 0, 8), ("P", 90, 8)))
        assert len(build.dataset) == 0
        assert build.dropped_absorbing == 1

    def test_multi_step_jump_counts_as_transition(self):
        build = build_transitions(_inspections(("P", 0, 2), ("P", 60, 5)))
        state, _, y, _ = _only_row(build)
        assert (state, y) == (2, 1)

    def test_state_decrease_dropped_and_counted(self):
        build = build_transitions(
            _inspections(("P", 0, 3), ("P", 50, 2), ("P", 100, 3))
        )
        assert build.dropped_decrease == 1
        assert len(build.dataset) == 1

    def test_interval_covariate_is_mean_over_half_open_window(self):
        series = [CovariateSeries("P", 0, np.arange(10.0))]
        build = build_transitions(_inspections(("P", 0, 1), ("P", 4, 1)), series)
        *_, x = _only_row(build)
        # days 0,1,2,3 -> mean 1.5
        np.testing.assert_allclose(x, [1.5])

    def test_missing_covariate_coverage(self):
        series = [CovariateSeries("P", 0, np.arange(3.0))]
        with pytest.raises(DataError, match="covers days"):
            build_transitions(_inspections(("P", 0, 1), ("P", 4, 1)), series)

    def test_missing_covariate_series(self):
        # a series of a pump without inspections does not stand in for B's
        records = _inspections(("A", 0, 1), ("A", 4, 1), ("B", 0, 1), ("B", 4, 1))
        series = [CovariateSeries(pid, 0, np.arange(10.0)) for pid in ("A", "Q")]
        with pytest.raises(DataError, match="pump B: no covariate series"):
            build_transitions(records, series)

    def test_second_covariate_series(self):
        records = _inspections(("A", 0, 1), ("A", 4, 1), ("B", 0, 1), ("B", 4, 1))
        series = [CovariateSeries(pid, 0, np.arange(10.0)) for pid in ("A", "B", "B")]
        with pytest.raises(DataError, match="pump B has more than one covariate series"):
            build_transitions(records, series)

    def test_count_conservation(self):
        records = _inspections(
            ("A", 0, 1), ("A", 10, 2), ("A", 20, 1), ("A", 30, 8), ("A", 40, 8),
            ("B", 0, 7), ("B", 15, 8), ("B", 30, 8),
        )
        build = build_transitions(records)
        inspections_minus_one = (5 - 1) + (3 - 1)
        assert len(build.dataset) + build.dropped == inspections_minus_one
        assert build.dropped_decrease == 1  # A: 2 -> 1
        assert build.dropped_absorbing == 2  # A day 30, B day 15 start at 8


_GOOD_COLUMNS = {
    "y": [0, 1], "dt": [30.0, 45.0], "k": [0, 6], "pump": [0, 1], "x": np.zeros((2, 1)),
}


class TestDatasetValidation:
    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("pump", [0, 2], "pump index 2 out of range"),
            ("pump", [-1, 1], "pump index -1 out of range"),
            ("k", [-1, 0], r"state index 0 outside 1\.\.7"),
            ("k", [0, 7], r"state index 8 outside 1\.\.7"),
            ("dt", [30.0, 0.0], "non-positive interval length 0.0"),
            ("y", [0, 2], r"transition indicator 2 not in \{0, 1\}"),
            ("dt", [30.0], "differ in length"),
            ("x", np.zeros(2), "covariates must be an"),
        ],
    )
    def test_bad_column_rejected(self, column, value, message):
        Dataset(**_GOOD_COLUMNS, n_pumps=2, n_states=8)
        with pytest.raises(DataError, match=message):
            Dataset(**{**_GOOD_COLUMNS, column: value}, n_pumps=2, n_states=8)


class TestInspections:
    @pytest.mark.parametrize(
        "triples, message",
        [
            ((("P", 0, 1), ("P", 90, 9)), r"pump P: state 9 outside 1\.\.8"),
            ((("P", 0, 0),), r"pump P: state 0 outside 1\.\.8"),
            ((("P", -5, 1),), "pump P: negative day -5"),
            ((("P", 0, 1), ("P", 0, 1)), r"pump P: days not strictly increasing \(0 then 0\)"),
            ((("A", 0, 1), ("B", 90, 1), ("B", 30, 1)), r"pump B: days not strictly increasing"),
        ],
    )
    def test_contract_checked_in_memory(self, triples, message):
        with pytest.raises(DataError, match=message):
            _inspections(*triples)

    @pytest.mark.parametrize(
        "pump_ids, pump",
        [(("A", "B"), [0, 1, 0]), (("A", "B"), [1, 0]), (("A", "B"), [0, 0]), (("A",), [0, 1])],
    )
    def test_rows_must_run_by_pump_in_order(self, pump_ids, pump):
        with pytest.raises(DataError, match="one run of rows per pump"):
            Inspections(pump_ids, pump, range(0, 10 * len(pump), 10), [1] * len(pump))

    @pytest.mark.parametrize(
        "body, message",
        [
            ("P,0,1\nP,90,9\n", r"line 3: pump P: state 9 outside 1\.\.8"),
            ("P,0,1\nP,-1,1\n", "line 3: pump P: negative day -1"),
            ("A,0,1\nB,50,1\nA,10,1\nB,40,2\nA,5,1\n",
             r"line 5: pump B: days not strictly increasing \(50 then 40\)"),
            ("P,0,1\nP,90,2,3\n", "line 3: expected 3 fields, got 4"),
            ("P,0,1\nP,ninety,2\n", "line 3: day 'ninety' is not an integer"),
            ("P,0,1\nP,0,9\n", "line 3: pump P: state 9"),  # the first of two faults
        ],
    )
    def test_ingest_names_the_first_offending_line(self, tmp_path, body, message):
        path = _write(tmp_path, "i.csv", "pump_id,day,state\n" + body)
        with pytest.raises(DataError, match=message):
            ingest_inspections(path)

    @pytest.mark.parametrize("block_lines", [1, 2, tables._BLOCK_LINES])
    @pytest.mark.parametrize(
        "text, message",
        [
            (b"pump_id,day,state\nP,0,1\nP,30,2\nQ\xfe,0,1\n", "line 4: not UTF-8 text$"),
            (b"pump_id,d\xe9y,state\nP,0,1\n", "line 1: not UTF-8 text$"),
        ],
    )
    def test_byte_not_utf8_names_its_line(self, tmp_path, monkeypatch, block_lines, text, message):
        monkeypatch.setattr(tables, "_BLOCK_LINES", block_lines)
        path = tmp_path / "i.csv"
        path.write_bytes(text)
        with pytest.raises(DataError, match=message) as error:
            ingest_inspections(path)
        str(error.value).encode()  # holds no lone surrogate, so it prints

    def test_write_ingest_round_trip(self, tmp_path):
        inspections = _inspections(("a,b", 0, 1), ("a,b", 40, 3), ("Q", 5, 8))
        path = tmp_path / "inspections.csv"
        write_inspections_csv(inspections, path)
        assert _rows(ingest_inspections(path)) == _rows(inspections)


class TestTables:
    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "t.csv: file not found"),
            ("", "t.csv: empty file"),
            ("k,v\n", "line 1: expected header key,value, got k,v"),
            ("key,value\na,1\nb,2,3\n", "line 3: expected 2 fields, got 3"),
            ("key,value\na,1\nb,x\n", "line 3: value 'x' is not a number"),
            ("key,value\na,1\nb,2\na,3\n", "line 4: key a repeats line 2"),
        ],
    )
    def test_errors_name_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        table = tables.read_table(path, ["key", "value"], (float,))
        with pytest.raises(DataError, match=message):
            table.raise_first(table.repeated_keys())

    def test_undecodable_line_named(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"key,value\na,1\n\xff,2\n")
        table = tables.read_table(path, ["key", "value"], (float,))
        with pytest.raises(DataError, match="line 3: not UTF-8 text"):
            table.raise_first()

    @pytest.mark.parametrize("block_lines", [1, 2, tables._BLOCK_LINES])
    @pytest.mark.parametrize(
        "text, line", [(b"id,x\xff,y\na,1,2\n", 1), (b"id,x,y\na,1,2\nb\x80,3,4\nc,5,6\n", 3)]
    )
    def test_byte_not_utf8_with_header_from_file(self, tmp_path, monkeypatch, block_lines, text, line):
        monkeypatch.setattr(tables, "_BLOCK_LINES", block_lines)
        path = tmp_path / "t.csv"
        path.write_bytes(text)
        table = tables.read_table(path, None, (float,))
        assert table.errors == [(line, "not UTF-8 text")]
        assert all(map(tables._is_utf8, [*table.header, *table.keys]))

    @pytest.mark.parametrize("block_lines", [1, 2, tables._BLOCK_LINES])
    def test_quoted_field_left_open_is_malformed(self, tmp_path, monkeypatch, block_lines):
        # csv would join the lines into one row; here each line is one row,
        # wherever a block ends
        monkeypatch.setattr(tables, "_BLOCK_LINES", block_lines)
        path = _write(tmp_path, "t.csv", 'key,value\na,1\nb,"2\nc",3\n')
        table = tables.read_table(path, ["key", "value"], (float,))
        assert table.errors == [(3, "malformed line")] and table.keys == ["a"]

    @pytest.mark.parametrize(
        "text, keys, line",
        [("key,value\na,1\nb,x\n", ["a"], 3), ("key,value\na,1\na,x\n", ["a"], 3),
         ("key,value\nb,x\n", [], 2)],
    )
    def test_keys_are_those_of_parsed_rows(self, tmp_path, text, keys, line):
        # the malformed line's key is not kept, though its line was read
        table = tables.read_table(_write(tmp_path, "t.csv", text), ["key", "value"], (int,))
        assert table.keys == keys and table.columns[1].tolist() == [1] * len(keys)
        assert table.errors == [(line, "value 'x' is not an integer")]

    def test_write_json_is_strict(self, tmp_path):
        path = tmp_path / "new" / "t.json"  # the writer makes the directory
        tables.write_json(path, {"x": [1.5, None]})
        assert path.read_text(encoding="utf-8") == '{\n  "x": [\n    1.5,\n    null\n  ]\n}\n'
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                tables.write_json(path, {"x": [value]})
        assert tables.read_json(path) == {"x": [1.5, None]}  # left as it was

    def test_columns_keys_and_variable_header(self, tmp_path):
        path = tmp_path / "new" / "dir" / "t.csv"  # the writer makes the directories
        tables.write_table(path, ["id", "x", "y"], [["b", 1.5, 2], ['"a"', 0.1, 3], ["b", -0.0, 4]])
        table = tables.read_table(path, None, (float,))
        assert table.header == ("id", "x", "y") and not table.errors
        assert table.keys == ["b", '"a"']
        code, x, y = table.columns
        np.testing.assert_array_equal(code, [0, 1, 0])
        assert x.tolist() == [1.5, 0.1, -0.0] and np.signbit(x[2])
        assert y.dtype == np.float64 and y.flags.c_contiguous

    def test_label_kind_rejects_near_misses(self, tmp_path):
        from pumpcausal.grouping import Group

        path = _write(tmp_path, "g.csv", "id,group\na,positive\nb,positives\n")
        table = tables.read_table(path, ["id", "group"], (Group,))
        assert table.columns[1].tolist() == [Group.POSITIVE]
        message = "line 3: group 'positives' is not one of positive, negative"
        with pytest.raises(DataError, match=message):
            table.raise_first()


class TestRoundTrip:
    def test_transitions_csv_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        triples = []
        covariates = []
        for i in range(5):
            pid = f"P{i}"
            days = np.cumsum(rng.integers(5, 40, size=6)) - 5
            states = np.minimum(1 + np.cumsum(rng.integers(0, 2, size=6)), 8)
            triples.extend((pid, int(d), int(s)) for d, s in zip(days, states))
            covariates.append(
                CovariateSeries(pid, int(days[0]), rng.normal(size=int(days[-1] - days[0]) + 1))
            )
        data = build_transitions(_inspections(*triples), covariates).dataset
        path = tmp_path / "transitions.csv"
        write_transitions_csv(data, path)
        header = transitions_header(data.n_covariates)
        table = tables.read_table(path, header, (int, float, int, float))
        assert not table.errors
        code, state, dt, y, *x = table.columns
        np.testing.assert_array_equal(np.array(table.keys, dtype=int)[code], data.pump)
        np.testing.assert_array_equal(state - 1, data.k)
        np.testing.assert_array_equal(dt, data.dt)
        np.testing.assert_array_equal(y, data.y)
        np.testing.assert_array_equal(np.column_stack(x), data.x)
