"""Domain types, CSV ingestion, and transition construction.

Raw inputs are periodic inspections (pump, day, discrete health state in
1..K) and daily measurement series per pump.  Consecutive inspection pairs
become binary transition observations: y = 1 when the state increased over
the interval, with the interval-mean covariate vector attached.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

N_STATES = 8

INSPECTIONS_HEADER = ["pump_id", "day", "state"]
TIMESERIES_HEADER = ["pump_id", "day", "value"]
_TIMESERIES_ROW = np.dtype([("pump", np.int32), ("day", np.int64), ("value", np.float64)])
_BLOCK_LINES = 2**12  # lines per np.loadtxt call, and the span of an error search


@dataclass(frozen=True)
class InspectionRecord:
    """One inspection row: health state of a pump on a given day."""

    pump_id: str
    day: int
    state: int

    def __post_init__(self):
        if self.day < 0:
            raise DataError(f"pump {self.pump_id}: negative day {self.day}")
        if not 1 <= self.state <= N_STATES:
            raise DataError(
                f"pump {self.pump_id}: state {self.state} outside 1..{N_STATES}"
            )


@dataclass(frozen=True, eq=False)
class CovariateSeries:
    """Daily measurements for one pump over a contiguous day range."""

    pump_id: str
    start_day: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if not np.all(np.isfinite(values)):
            raise DataError(f"pump {self.pump_id}: non-finite measurement value")

    @property
    def end_day(self) -> int:
        """First day past the covered range."""
        return self.start_day + len(self.values)

    def window(self, start: int, end: int) -> np.ndarray:
        """Values for days [start, end); raises on incomplete coverage."""
        if start < self.start_day or end > self.end_day:
            raise DataError(
                f"pump {self.pump_id}: series covers days "
                f"[{self.start_day}, {self.end_day}) but [{start}, {end}) requested"
            )
        return self.values[start - self.start_day : end - self.start_day]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Transition observations as columns, plus the dimensions the model needs.

    Row r is one inspection interval that started below the absorbing state:
    pump ``pump[r]`` in 0-based state ``k[r]`` for ``dt[r]`` days, with
    ``y[r] = 1`` when the state increased and interval-mean covariates
    ``x[r]``.
    """

    y: np.ndarray
    dt: np.ndarray
    k: np.ndarray  # 0-based start state, in 0..K-2
    pump: np.ndarray
    x: np.ndarray  # (n, n_covariates)
    n_pumps: int
    n_states: int

    def __post_init__(self):
        y = np.asarray(self.y)
        k, pump = (np.asarray(c, dtype=np.intp) for c in (self.k, self.pump))
        dt = np.asarray(self.dt, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2:
            raise DataError(f"covariates must be an (n, p) array, got shape {x.shape}")
        if any(c.shape != (len(x),) for c in (y, dt, k, pump)):
            raise DataError("transition columns differ in length")
        checks = (
            ((pump < 0) | (pump >= self.n_pumps), pump, "pump index {} out of range"),
            ((k < 0) | (k >= self.n_states - 1), k + 1,
             f"state index {{}} outside 1..{self.n_states - 1}"),
            (dt <= 0, dt, "non-positive interval length {}"),
            ((y != 0) & (y != 1), y, "transition indicator {} not in {{0, 1}}"),
        )
        for bad, values, message in checks:
            if bad.any():
                raise DataError(message.format(values[bad][0]))
        y = y.astype(np.intp)
        for name, column in zip(("y", "dt", "k", "pump", "x"), (y, dt, k, pump, x)):
            object.__setattr__(self, name, column)

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[tuple[int, int, float, int, Sequence[float]]],
        n_pumps: int,
        n_states: int,
        n_covariates: int,
    ) -> "Dataset":
        """Build from (pump_index, state_index, delta_t, y, x) rows, with
        ``state_index`` 1-based as in the inspection files."""
        pump, state, dt, y, x = zip(*rows) if rows else ((),) * 5
        widths = {len(v) for v in x} - {n_covariates}
        if widths:
            raise DataError(f"covariate length {widths.pop()} != {n_covariates}")
        return cls(
            y=y,
            dt=dt,
            k=np.asarray(state, dtype=np.intp) - 1,
            pump=pump,
            x=np.array(x, dtype=float).reshape(len(rows), n_covariates),
            n_pumps=n_pumps,
            n_states=n_states,
        )

    @property
    def n_covariates(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return len(self.y)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )


@dataclass(frozen=True, eq=False)
class TransitionBuild:
    """Result of transition construction, with drop accounting."""

    dataset: Dataset
    pump_ids: tuple[str, ...]
    dropped_decrease: int
    dropped_absorbing: int

    @property
    def dropped(self) -> int:
        return self.dropped_decrease + self.dropped_absorbing


@contextmanager
def _open_csv(path: str | Path, expected_header: list[str]):
    """The open file, positioned after its checked header line."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise DataError(f"{path}: empty file")
        if header != expected_header:
            raise DataError(
                f"{path}: expected header {','.join(expected_header)}, "
                f"got {','.join(header)}"
            )
        yield fh


def _open_rows(path: str | Path, expected_header: list[str]):
    with _open_csv(path, expected_header) as fh:
        yield from enumerate(csv.reader(fh), start=2)


def ingest_inspections(path: str | Path) -> list[InspectionRecord]:
    """Parse an inspections CSV into records grouped by pump, day-ordered.

    Enforces strictly increasing days within each pump and states in 1..K.
    Errors carry the offending line number.
    """
    by_pump: dict[str, list[InspectionRecord]] = {}
    for line_no, row in _open_rows(path, INSPECTIONS_HEADER):
        if len(row) != 3:
            raise DataError(f"{path} line {line_no}: expected 3 fields, got {len(row)}")
        pump_id, day_s, state_s = row
        try:
            day = int(day_s)
            state = int(state_s)
        except ValueError:
            raise DataError(f"{path} line {line_no}: non-integer day or state") from None
        if not 1 <= state <= N_STATES:
            raise DataError(
                f"{path} line {line_no}: state {state} outside 1..{N_STATES}"
            )
        if day < 0:
            raise DataError(f"{path} line {line_no}: negative day {day}")
        group = by_pump.setdefault(pump_id, [])
        if group and day <= group[-1].day:
            raise DataError(
                f"{path} line {line_no}: pump {pump_id} days not strictly "
                f"increasing ({group[-1].day} then {day})"
            )
        group.append(InspectionRecord(pump_id, day, state))
    records: list[InspectionRecord] = []
    for group in by_pump.values():
        records.extend(group)
    return records


def _parse_lines(lines: list[str], codes) -> np.ndarray | None:
    """The lines as a (pump, day, value) table, pumps coded by ``codes``; None
    unless every line is one row of three fields with an integer day and a
    numeric value."""
    if not lines:
        return np.empty(0, _TIMESERIES_ROW)
    if any(map(str.isspace, lines)):  # loadtxt would skip a blank line
        return None
    try:
        table = np.loadtxt(
            lines, _TIMESERIES_ROW, delimiter=",", comments=None, quotechar='"',
            converters={0: codes.__getitem__}, ndmin=1,
        )
    except ValueError:
        return None
    return table if len(table) == len(lines) else None


def _parse_block(lines: list[str], codes) -> tuple[np.ndarray, int]:
    """The table of the lines before the first malformed one, and that
    line's index (``len(lines)`` when every line parses), found by bisection."""
    table = _parse_lines(lines, codes)
    if table is not None:
        return table, len(lines)
    good, bad = 0, len(lines)  # lines[:good] parse, lines[:bad] do not
    while bad - good > 1:
        mid = (good + bad) // 2
        if _parse_lines(lines[:mid], codes) is None:
            bad = mid
        else:
            good = mid
    return _parse_lines(lines[:good], codes), good


def ingest_timeseries(path: str | Path) -> list[CovariateSeries]:
    """Parse a timeseries CSV into one contiguous daily series per pump.

    The lines are parsed in blocks of ``_BLOCK_LINES`` into pump, day and
    value columns, and reading stops at the first malformed line.  An error
    names the first offending line in file order: malformed, non-finite, or
    breaking its pump's run of consecutive days.  Series come in
    first-appearance order, their values views into one value column.
    """
    codes = defaultdict()
    codes.default_factory = codes.__len__  # a new pump id takes the next code
    tables = [np.empty(0, _TIMESERIES_ROW)]  # so a header-only file concatenates
    errors: list[tuple[int, str]] = []
    line_no = 2
    with _open_csv(path, TIMESERIES_HEADER) as fh:
        while not errors and (lines := list(islice(fh, _BLOCK_LINES))):
            table, n_good = _parse_block(lines, codes)
            tables.append(table)
            if n_good < len(lines):
                n_fields = len(next(csv.reader(lines[n_good : n_good + 1]), []))
                errors.append((
                    line_no + n_good,
                    f"expected 3 fields, got {n_fields}" if n_fields != 3
                    else "non-numeric day or value",
                ))
            line_no += len(lines)
    # row r of the columns is line r + 2 of the file
    code, day, value = (
        np.concatenate([t[name] for t in tables]) for name in _TIMESERIES_ROW.names
    )
    del tables
    (nonfinite,) = np.nonzero(~np.isfinite(value))
    if len(nonfinite):
        errors.append((int(nonfinite[0]) + 2, "non-finite value"))

    order = None
    if np.any(code[1:] < code[:-1]):  # pumps interleaved: gather each pump's rows in file order
        order = np.argsort(code, kind="stable")
        code, day, value = code[order], day[order], value[order]
    pump_ids = list(codes)
    same_pump = code[1:] == code[:-1]
    (gaps,) = np.nonzero(same_pump & (np.diff(day) != 1))
    if len(gaps):
        rows = gaps + 1 if order is None else order[gaps + 1]
        first = np.argmin(rows)
        at = gaps[first] + 1
        errors.append((
            int(rows[first]) + 2,
            f"pump {pump_ids[code[at]]} days not contiguous "
            f"(expected {day[at - 1] + 1}, got {day[at]})",
        ))
    if errors:
        line, message = min(errors, key=lambda e: e[0])
        raise DataError(f"{path} line {line}: {message}")
    starts = np.flatnonzero(np.diff(code, prepend=-1))
    return [
        CovariateSeries(pump_ids[c], int(d), v)
        for c, d, v in zip(code[starts], day[starts], np.split(value, starts[1:]))
    ]


def build_transitions(
    records: Sequence[InspectionRecord],
    covariates: Sequence[CovariateSeries] = (),
    n_states: int = N_STATES,
) -> TransitionBuild:
    """Turn consecutive inspection pairs into transition observations.

    One observation per interval whose start state is below the absorbing
    state K; y = 1 iff the state increased (multi-step jumps included), the
    interval covariate is the mean of each daily series over [start, end).
    Intervals with state decreases (repairs) are dropped and counted.
    """
    by_pump: dict[str, list[InspectionRecord]] = {}
    for rec in records:
        by_pump.setdefault(rec.pump_id, []).append(rec)
    for pump_id, group in by_pump.items():
        days = [r.day for r in group]
        if any(b <= a for a, b in zip(days, days[1:])):
            raise DataError(f"pump {pump_id}: inspection days not strictly increasing")

    series_by_pump: dict[str, list[CovariateSeries]] = {}
    for series in covariates:
        series_by_pump.setdefault(series.pump_id, []).append(series)
    p_counts = {len(v) for v in series_by_pump.values()}
    if len(p_counts) > 1:
        raise DataError(f"pumps have differing covariate counts: {sorted(p_counts)}")
    n_covariates = p_counts.pop() if p_counts else 0

    pump_ids = tuple(by_pump)
    rows = []
    dropped_decrease = 0
    dropped_absorbing = 0
    for pump_index, pump_id in enumerate(pump_ids):
        group = by_pump[pump_id]
        pump_series = series_by_pump.get(pump_id, [])
        if len(pump_series) != n_covariates:
            raise DataError(f"pump {pump_id}: no covariate series")
        for start, end in zip(group, group[1:]):
            if start.state >= n_states:
                dropped_absorbing += 1
                continue
            if end.state < start.state:
                dropped_decrease += 1
                continue
            x = [s.window(start.day, end.day).mean() for s in pump_series]
            y = int(end.state > start.state)
            rows.append((pump_index, start.state, float(end.day - start.day), y, x))
    dataset = Dataset.from_rows(rows, len(pump_ids), n_states, n_covariates)
    return TransitionBuild(dataset, pump_ids, dropped_decrease, dropped_absorbing)


def transitions_header(n_covariates: int) -> list[str]:
    return ["pump_index", "state_index", "delta_t", "y"] + [
        f"x{j}" for j in range(n_covariates)
    ]


def write_transitions_csv(dataset: Dataset, path: str | Path) -> None:
    """Export observations; numbers use shortest round-trip formatting."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(transitions_header(dataset.n_covariates))
        columns = (dataset.pump, dataset.k + 1, dataset.dt, dataset.y, dataset.x)
        for pump, state, dt, y, x in zip(*(c.tolist() for c in columns)):
            writer.writerow([pump, state, repr(dt), y] + [repr(v) for v in x])


def read_transitions_csv(
    path: str | Path, n_pumps: int | None = None, n_states: int = N_STATES
) -> Dataset:
    """Re-ingest an exported transitions CSV; round-trips exactly."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:4] != transitions_header(0):
            raise DataError(f"{path}: bad transitions header")
        n_covariates = len(header) - 4
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 4 + n_covariates:
                raise DataError(f"{path} line {line_no}: wrong field count")
            try:
                rows.append(
                    (int(row[0]), int(row[1]), float(row[2]), int(row[3]),
                     [float(v) for v in row[4:]])
                )
            except ValueError:
                raise DataError(f"{path} line {line_no}: malformed row") from None
    if n_pumps is None:
        n_pumps = max((r[0] for r in rows), default=-1) + 1
    return Dataset.from_rows(rows, n_pumps, n_states, n_covariates)


def write_inspections_csv(records: Iterable[InspectionRecord], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(INSPECTIONS_HEADER)
        for rec in records:
            writer.writerow([rec.pump_id, rec.day, rec.state])


def write_timeseries_csv(series: Iterable[CovariateSeries], path: str | Path) -> None:
    """Write one daily series per pump; a repeated pump id raises, because
    ``ingest_timeseries`` reads one series per pump."""
    series = list(series)
    counts = Counter(s.pump_id for s in series)
    repeated = [pump_id for pump_id, count in counts.items() if count > 1]
    if repeated:
        raise DataError(
            f"pump {repeated[0]} has {counts[repeated[0]]} series; "
            "a timeseries file holds one series per pump"
        )
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMESERIES_HEADER)
        for s in series:
            for offset, value in enumerate(s.values):
                writer.writerow([s.pump_id, s.start_day + offset, repr(float(value))])
