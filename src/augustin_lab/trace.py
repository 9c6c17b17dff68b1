"""Per-step iteration records and the CSV writer."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

CSV_COLUMNS = ("step", "f_value", "trace", "residual_thompson", "dist_to_reference", "wall_time_ms")


@dataclass(frozen=True)
class TraceRow:
    step: int
    f_value: float
    trace: float
    residual_thompson: float | None = None
    dist_to_reference: float | None = None
    wall_time_ms: float = 0.0


@dataclass
class IterationTrace:
    """Ordered per-step records of a solver run."""

    rows: list[TraceRow] = field(default_factory=list)

    def append(self, row: TraceRow) -> None:
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.rows]

    def to_csv(self, path) -> None:
        write_csv(path, CSV_COLUMNS, ([getattr(r, c) for c in CSV_COLUMNS] for r in self.rows))


def write_csv(path, header, rows) -> None:
    """Write a header and rows; None is an empty cell, floats keep every digit."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(x) for x in row])


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # includes numpy float scalars
        return repr(float(value))
    return str(value)
