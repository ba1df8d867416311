"""Report documents and their JSON, CSV, and Markdown renderings.

Every cell is serialized exactly: integers as plain decimal strings,
fractions as "p/q" in lowest terms. Columns suffixed _approx carry decimal
approximations rounded to 12 significant digits and exist only for human
readers; nothing is ever compared through them.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

FORMATS = ("md", "csv", "json")


def fmt_exact(value: int | Fraction | str) -> str:
    """Serialize an exact value: ints in decimal, fractions as 'p/q'."""
    if isinstance(value, str):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def approx12(value: int | Fraction) -> str:
    """Decimal approximation with 12 significant digits, for _approx columns."""
    return f"{float(value):.12g}"


@dataclass
class ReportDocument:
    """One command's output: fixed columns, stringified rows, format choice."""

    command: str
    parameters: dict[str, str]
    columns: list[str]
    rows: list[dict[str, str]] = field(default_factory=list)
    fmt: str = "md"
    generated_at: str | None = None

    def __post_init__(self) -> None:
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}; expected one of {FORMATS}")


def render(doc: ReportDocument) -> str:
    if doc.fmt == "json":
        return _render_json(doc)
    if doc.fmt == "csv":
        return _render_csv(doc)
    return _render_md(doc)


def _render_json(doc: ReportDocument) -> str:
    envelope: dict[str, object] = {
        "command": doc.command,
        "parameters": doc.parameters,
    }
    if doc.generated_at is not None:
        envelope["generated_at"] = doc.generated_at
    envelope["columns"] = doc.columns
    envelope["rows"] = [
        {col: row.get(col, "") for col in doc.columns} for row in doc.rows
    ]
    return json.dumps(envelope, indent=2) + "\n"


def _render_csv(doc: ReportDocument) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(doc.columns)
    for row in doc.rows:
        writer.writerow([row.get(col, "") for col in doc.columns])
    return out.getvalue()


def _render_md(doc: ReportDocument) -> str:
    lines = [f"# {doc.command}", ""]
    if doc.parameters:
        params = ", ".join(f"{k}={v}" for k, v in doc.parameters.items())
        lines.append(f"parameters: {params}")
    if doc.generated_at is not None:
        lines.append(f"generated_at: {doc.generated_at}")
    if doc.parameters or doc.generated_at is not None:
        lines.append("")

    def md_cell(row: dict[str, str], col: str) -> str:
        # Literal | would end the table cell.
        return row.get(col, "").replace("|", "\\|")

    widths = {
        col: max(len(col), *(len(md_cell(r, col)) for r in doc.rows), 1)
        if doc.rows
        else len(col)
        for col in doc.columns
    }
    header = "| " + " | ".join(col.ljust(widths[col]) for col in doc.columns) + " |"
    rule = "| " + " | ".join("-" * widths[col] for col in doc.columns) + " |"
    lines.append(header)
    lines.append(rule)
    for row in doc.rows:
        cells = " | ".join(md_cell(row, col).ljust(widths[col]) for col in doc.columns)
        lines.append(f"| {cells} |")
    return "\n".join(lines) + "\n"
