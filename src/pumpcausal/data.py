"""Domain types, CSV ingestion, and transition construction.

Raw inputs are periodic inspections (pump, day, discrete health state in
1..K) and daily measurement series per pump.  Consecutive inspection pairs
become binary transition observations: y = 1 when the state increased over
the interval, with the interval-mean covariate vector attached.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

N_STATES = 8

INSPECTIONS_HEADER = ["pump_id", "day", "state"]
TIMESERIES_HEADER = ["pump_id", "day", "value"]


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


def _open_rows(path: str | Path, expected_header: list[str]):
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if header != expected_header:
            raise DataError(
                f"{path}: expected header {','.join(expected_header)}, "
                f"got {','.join(header)}"
            )
        yield from ((line_no, row) for line_no, row in enumerate(reader, start=2))


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


def ingest_timeseries(path: str | Path) -> list[CovariateSeries]:
    """Parse a timeseries CSV into one contiguous daily series per pump."""
    by_pump: dict[str, tuple[int, list[float]]] = {}
    for line_no, row in _open_rows(path, TIMESERIES_HEADER):
        if len(row) != 3:
            raise DataError(f"{path} line {line_no}: expected 3 fields, got {len(row)}")
        pump_id, day_s, value_s = row
        try:
            day = int(day_s)
            value = float(value_s)
        except ValueError:
            raise DataError(f"{path} line {line_no}: non-numeric day or value") from None
        if not math.isfinite(value):
            raise DataError(f"{path} line {line_no}: non-finite value")
        if pump_id not in by_pump:
            by_pump[pump_id] = (day, [value])
        else:
            start, values = by_pump[pump_id]
            if day != start + len(values):
                raise DataError(
                    f"{path} line {line_no}: pump {pump_id} days not contiguous "
                    f"(expected {start + len(values)}, got {day})"
                )
            values.append(value)
    return [
        CovariateSeries(pump_id, start, np.array(values))
        for pump_id, (start, values) in by_pump.items()
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
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMESERIES_HEADER)
        for s in series:
            for offset, value in enumerate(s.values):
                writer.writerow([s.pump_id, s.start_day + offset, repr(float(value))])
