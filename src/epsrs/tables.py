"""Tabular scan output and its CSV dialect.

One dialect everywhere: comma separator, '.' decimal point, header row, LF
line endings, 17 significant digits. That makes reruns byte-identical and the
files usable as golden references.
"""

from __future__ import annotations

from dataclasses import dataclass


def format_value(x: float) -> str:
    return f"{float(x):.17g}"


def write_text(file, text: str) -> None:
    """Write ``text`` to an open text file, or to a new file at a path."""
    if hasattr(file, "write"):
        file.write(text)
    else:
        with open(file, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


@dataclass
class ScanTable:
    """Named real-valued columns, rows ordered by the scan variable."""

    columns: list[str]
    rows: list[tuple[float, ...]]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row length {len(row)} != column count {len(self.columns)}"
                )

    def column(self, name: str) -> list[float]:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        lines.extend(",".join(format_value(x) for x in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def write_csv(self, file) -> None:
        write_text(file, self.to_csv())
