"""Domain types, ingestion, and transition construction.

Raw inputs are periodic inspections (pump, day, discrete health state in
1..K) and daily measurement series per pump.  Consecutive inspection pairs
become binary transition observations: y = 1 when the state increased over
the interval, with the interval-mean covariate vector attached.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataError
from .tables import read_table, write_table

N_STATES = 8

INSPECTIONS_HEADER = ["pump_id", "day", "state"]
TIMESERIES_HEADER = ["pump_id", "day", "value"]


_CHECK_ROWS = 2**14  # rows per step of a check over whole columns


def _spans(start: int, stop: int):
    """Row ranges [a, b) of at most ``_CHECK_ROWS`` rows that cover
    [start, stop), so that a check over one span holds only that span's
    temporaries."""
    return ((a, min(a + _CHECK_ROWS, stop)) for a in range(start, stop, _CHECK_ROWS))


def _group_by_key(code: np.ndarray, *columns: np.ndarray):
    """The columns with each key's rows gathered in file order, and the
    gathering order (None when every key's rows already form one run).

    Keys are coded in order of appearance, so the rows are gathered exactly
    when the codes never decrease.
    """
    if not any(np.any(code[a:b] < code[a - 1 : b - 1]) for a, b in _spans(1, len(code))):
        return None, (code, *columns)
    order = np.argsort(code, kind="stable")
    return order, tuple(c[order] for c in (code, *columns))


def _first_in_file(masks, order: np.ndarray | None) -> list[tuple[int, int]]:
    """The bad row that comes first in the file, with its file row (row r
    of the columns is file row ``order[r]``); empty when none is bad.

    ``masks`` yields (a, bad) pairs in row order: ``bad[i]`` tells whether
    row a + i is bad.  Without ``order`` the first bad row is the answer,
    and no later mask is drawn.
    """
    first = None
    for a, bad in masks:
        rows = np.flatnonzero(bad) + a
        if not len(rows):
            continue
        if order is None:
            first = int(rows[0])
            break
        r = int(rows[np.argmin(order[rows])])
        if first is None or order[r] < order[first]:
            first = r
    if first is None:
        return []
    return [(first, first if order is None else int(order[first]))]


def _inspection_problems(pump_ids, pump, day, state, order=None) -> list[tuple[int, str]]:
    """The first row of pump-grouped inspection columns that breaks each
    rule on states and days, as (row, message); with ``order``, row r came
    from row ``order[r]`` of a file, and the row first in the file is named."""
    rules = (
        ((state < 1) | (state > N_STATES), lambda r: f"state {state[r]} outside 1..{N_STATES}"),
        (day < 0, lambda r: f"negative day {day[r]}"),
        ((np.diff(pump, prepend=-1) == 0) & (np.diff(day, prepend=0) <= 0),
         lambda r: f"days not strictly increasing ({day[r - 1]} then {day[r]})"),
    )
    return [
        (row, f"pump {pump_ids[pump[r]]}: {message(r)}")
        for bad, message in rules
        for r, row in _first_in_file([(0, bad)], order)
    ]


@dataclass(frozen=True, eq=False)
class Inspections:
    """Inspection rows as columns, grouped by pump: row r is pump
    ``pump_ids[pump[r]]`` in health state ``state[r]`` on day ``day[r]``.

    Each pump's rows form one run, pumps come in ``pump_ids`` order, days
    are non-negative and increase strictly within a pump, and states lie
    in 1..N_STATES.
    """

    pump_ids: tuple[str, ...]
    pump: np.ndarray
    day: np.ndarray
    state: np.ndarray

    def __post_init__(self):
        pump, day, state = (np.asarray(c, np.int64) for c in (self.pump, self.day, self.state))
        if not len(pump) == len(day) == len(state):
            raise DataError("inspection columns differ in length")
        for name, column in zip(("pump", "day", "state"), (pump, day, state)):
            object.__setattr__(self, name, column)
        starts = np.diff(pump, prepend=-1) != 0
        if np.any(pump != np.cumsum(starts) - 1) or starts.sum() != len(self.pump_ids):
            raise DataError("inspections must hold one run of rows per pump, in pump_ids order")
        problems = _inspection_problems(self.pump_ids, pump, day, state)
        if problems:
            raise DataError(min(problems)[1])

    def __len__(self) -> int:
        return len(self.pump)


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

    @property
    def n_covariates(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return len(self.y)


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


def ingest_inspections(path: str | Path) -> Inspections:
    """Parse an inspections CSV into columns grouped by pump, pumps in
    first-appearance order and each pump's rows in file order.

    An error names the first offending line: malformed, a state outside
    1..K, a negative day, or a day not after the pump's previous one.
    """
    table = read_table(path, INSPECTIONS_HEADER, (int,))
    order, (pump, day, state) = _group_by_key(*table.columns)
    problems = _inspection_problems(table.keys, pump, day, state, order)
    table.raise_first((row + 2, message) for row, message in problems)
    return Inspections(tuple(table.keys), pump, day, state)


def ingest_timeseries(path: str | Path) -> list[CovariateSeries]:
    """Parse a timeseries CSV into one contiguous daily series per pump.

    An error names the first offending line in file order: malformed,
    non-finite, or breaking its pump's run of consecutive days.  Series come
    in first-appearance order, their values views into one value column.
    The columns are checked in spans of ``_CHECK_ROWS`` rows, so a file
    whose pumps' rows each form one run is held once; a file whose pumps'
    rows interleave is also sorted into a pump-grouped copy.
    """
    table = read_table(path, TIMESERIES_HEADER, (int, float))
    value = table.columns[2]
    nonfinite = _first_in_file(
        ((a, ~np.isfinite(value[a:b])) for a, b in _spans(0, len(value))), None
    )
    errors = [(row + 2, "non-finite value") for _, row in nonfinite]
    order, (code, day, value) = _group_by_key(*table.columns)
    gaps = (
        (a, (code[a:b] == code[a - 1 : b - 1]) & (day[a:b] - day[a - 1 : b - 1] != 1))
        for a, b in _spans(1, len(code))
    )
    errors += [
        (row + 2, f"pump {table.keys[code[r]]} days not contiguous "
                  f"(expected {day[r - 1] + 1}, got {day[r]})")
        for r, row in _first_in_file(gaps, order)
    ]
    table.raise_first(errors)
    # the grouped codes run 0, 0, ..., 1, ...: each pump's first row is found
    # by bisection, with no full-length temporary
    starts = np.searchsorted(code, np.arange(len(table.keys), dtype=code.dtype))
    return [
        CovariateSeries(table.keys[c], int(d), v)
        for c, d, v in zip(code[starts], day[starts], np.split(value, starts[1:]))
    ]


def build_transitions(
    inspections: Inspections, covariates: Iterable[CovariateSeries] = ()
) -> TransitionBuild:
    """Turn consecutive inspection pairs into transition observations.

    One observation per interval whose start state is below the absorbing
    state K; y = 1 iff the state increased (multi-step jumps included).
    With covariates, each pump has one daily series and the interval
    covariate is its mean over [start, end); without, there is none.
    Intervals with state decreases (repairs) are dropped and counted.
    """
    series_by_pump: dict[str, CovariateSeries] = {}
    for series in covariates:
        if series_by_pump.setdefault(series.pump_id, series) is not series:
            raise DataError(f"pump {series.pump_id} has more than one covariate series")
    pump_ids = inspections.pump_ids
    if series_by_pump:
        lacking = [pid for pid in pump_ids if pid not in series_by_pump]
        if lacking:
            raise DataError(f"pump {lacking[0]}: no covariate series")

    pump, day, state = inspections.pump, inspections.day, inspections.state
    interval = pump[1:] == pump[:-1]  # rows r and r + 1 are one pump's inspections
    absorbing = interval & (state[:-1] >= N_STATES)
    decrease = interval & ~absorbing & (state[1:] < state[:-1])
    (start,) = np.nonzero(interval & ~absorbing & ~decrease)
    means = [
        series_by_pump[pump_ids[p]].window(a, b).mean()
        for p, a, b in zip(pump[start].tolist(), day[start].tolist(), day[start + 1].tolist())
    ] if series_by_pump else []
    dataset = Dataset(
        y=state[start + 1] > state[start],
        dt=(day[start + 1] - day[start]).astype(float),
        k=state[start] - 1,
        pump=pump[start],
        x=np.array(means, dtype=float).reshape(len(start), 1 if series_by_pump else 0),
        n_pumps=len(pump_ids),
        n_states=N_STATES,
    )
    return TransitionBuild(dataset, pump_ids, int(decrease.sum()), int(absorbing.sum()))


def transitions_header(n_covariates: int) -> list[str]:
    return ["pump_index", "state_index", "delta_t", "y"] + [
        f"x{j}" for j in range(n_covariates)
    ]


def write_transitions_csv(dataset: Dataset, path: str | Path) -> None:
    """Export observations; numbers use shortest round-trip formatting."""
    columns = (dataset.pump, dataset.k + 1, dataset.dt, dataset.y, dataset.x)
    write_table(
        path,
        transitions_header(dataset.n_covariates),
        ([pump, state, dt, y, *x] for pump, state, dt, y, x in zip(*(c.tolist() for c in columns))),
    )


def write_inspections_csv(inspections: Inspections, path: str | Path) -> None:
    pump_id = np.array(inspections.pump_ids, dtype=object)[inspections.pump]
    rows = zip(pump_id, inspections.day.tolist(), inspections.state.tolist())
    write_table(path, INSPECTIONS_HEADER, rows)


def write_timeseries_csv(series: Iterable[CovariateSeries], path: str | Path) -> None:
    """Write one daily series per pump; a repeated pump id raises, because
    ``ingest_timeseries`` reads one series per pump."""
    series = list(series)
    for pump_id, n in Counter(s.pump_id for s in series).most_common(1):
        if n > 1:
            raise DataError(f"pump {pump_id} has {n} series; a timeseries file holds one per pump")
    write_table(
        path,
        TIMESERIES_HEADER,
        (
            (s.pump_id, day, value)
            for s in series
            for day, value in enumerate(s.values.tolist(), start=s.start_day)
        ),
    )
