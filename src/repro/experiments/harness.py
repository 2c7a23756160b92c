"""Experiment harness: result tables and common helpers.

Every experiment module produces a :class:`Table` — named columns plus rows —
so that the benchmark suite can assert the qualitative shape of the results
and ``python -m repro.experiments`` can print the full set the way a paper
appendix would.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Sequence


class Table:
    """A small result table with stable column order and pretty printing."""

    def __init__(self, title: str, columns: Sequence[str], description: str = ""):
        self.title = title
        self.columns = list(columns)
        self.description = description
        self.rows: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------ build
    def add_row(self, **values: Any) -> None:
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"row has columns not declared for table {self.title!r}: {sorted(unknown)}")
        self.rows.append({column: values.get(column) for column in self.columns})

    def extend(self, rows: Iterable[Mapping[str, Any]]) -> None:
        for row in rows:
            self.add_row(**dict(row))

    # ------------------------------------------------------------------ query
    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def rows_where(self, **conditions: Any) -> List[Dict[str, Any]]:
        selected = []
        for row in self.rows:
            if all(row.get(key) == value for key, value in conditions.items()):
                selected.append(row)
        return selected

    def value(self, column: str, **conditions: Any) -> Any:
        """The single value of ``column`` in the unique row matching ``conditions``."""
        rows = self.rows_where(**conditions)
        if len(rows) != 1:
            raise LookupError(
                f"expected exactly one row matching {conditions} in {self.title!r}, found {len(rows)}"
            )
        return rows[0][column]

    def __len__(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------------ output
    def formatted(self) -> str:
        """Render the table as aligned ASCII text."""
        headers = self.columns
        body = [[_fmt(row.get(column)) for column in headers] for row in self.rows]
        widths = [len(header) for header in headers]
        for line in body:
            for index, cell in enumerate(line):
                widths[index] = max(widths[index], len(cell))
        separator = "-+-".join("-" * width for width in widths)
        lines = [self.title]
        if self.description:
            lines.append(self.description)
        lines.append(" | ".join(header.ljust(width) for header, width in zip(headers, widths)))
        lines.append(separator)
        for line in body:
            lines.append(" | ".join(cell.ljust(width) for cell, width in zip(line, widths)))
        return "\n".join(lines)

    def to_markdown(self) -> str:
        lines = [f"### {self.title}", ""]
        if self.description:
            lines += [self.description, ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(_fmt(row.get(column)) for column in self.columns) + " |")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.title!r}, {len(self.rows)} rows)"


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
