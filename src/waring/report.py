"""Report documents and their JSON, CSV, and Markdown renderings.

Every cell is serialized exactly: integers as plain decimal strings,
fractions as "p/q" in lowest terms. Columns suffixed _approx carry decimal
approximations rounded to 12 significant digits and exist only for human
readers; nothing is ever compared through them.

A document's rows are tuples of strings in its column order, one cell per
column, so each renderer walks them without looking columns up by name.
"""

from __future__ import annotations

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from fractions import Fraction

FORMATS = ("md", "csv", "json")


def fmt_exact(value: int | Fraction | str) -> str:
    """Serialize an exact value: ints in decimal, fractions as 'p/q', as str does."""
    return str(value)


def approx12(value: int | Fraction) -> str:
    """Decimal approximation with 12 significant digits, for _approx columns."""
    return f"{float(value):.12g}"


class ReportDocument:
    """One command's output: fixed columns, stringified rows, format choice.

    Each row is a tuple of strings in column order, with one cell per
    column; column names are distinct, as JSON row objects need.
    """

    def __init__(
        self,
        command: str,
        parameters: dict[str, str],
        columns: list[str],
        rows: list[tuple[str, ...]] | None = None,
        fmt: str = "md",
        generated_at: str | None = None,
    ) -> None:
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
        if len(set(columns)) != len(columns):
            raise ValueError(f"duplicate column names in {columns}")
        self.command = command
        self.parameters = parameters
        self.columns = columns
        self.rows = [] if rows is None else rows
        self.fmt = fmt
        self.generated_at = generated_at


def render(doc: ReportDocument) -> str:
    if doc.fmt == "json":
        return _render_json(doc)
    if doc.fmt == "csv":
        return _render_csv(doc)
    return _render_md(doc)


def _render_json(doc: ReportDocument) -> str:
    """json.dumps(envelope, indent=2) + newline, with the rows encoded by hand.

    json.dumps uses its C encoder only without indent, so the envelope head
    goes through json.dumps and the rows are spelled out here, byte for
    byte as indent=2 would, through one %-template per document. The
    encoder escapes each character on its own, so a column whose joined
    cells it leaves unchanged needs no escaping in any cell, and its cells
    go into the template as they are, between quotes. Every other column's
    cells are encoded one by one.
    """
    import json

    envelope: dict[str, object] = {
        "command": doc.command,
        "parameters": doc.parameters,
    }
    if doc.generated_at is not None:
        envelope["generated_at"] = doc.generated_at
    envelope["columns"] = doc.columns
    envelope["rows"] = []
    head = json.dumps(envelope, indent=2)
    if not doc.rows:
        return head + "\n"
    if doc.columns:
        encode = json.encoder.encode_basestring_ascii
        columns = list(zip(*doc.rows))
        fields = []
        for j, (name, column) in enumerate(zip(doc.columns, columns)):
            key = "      " + encode(name).replace("%", "%%") + ": "
            joined = "".join(column)
            if encode(joined) == '"' + joined + '"':
                fields.append(key + '"%s"')
            else:
                fields.append(key + "%s")
                columns[j] = map(encode, column)
        template = "    {\n" + ",\n".join(fields) + "\n    }"
        rows = ",\n".join(map(template.__mod__, zip(*columns)))
    else:
        rows = ",\n".join(["    {}"] * len(doc.rows))
    # head ends with '"rows": []' and the closing brace.
    return head[: -len("[]\n}")] + "[\n" + rows + "\n  ]\n}\n"


def _render_csv(doc: ReportDocument) -> str:
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(doc.columns)
    writer.writerows(doc.rows)
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
    rows = doc.rows
    widths = [len(col) for col in doc.columns]
    if rows:
        columns = list(zip(*rows))
        # A literal | would end the table cell: escape it in the columns that hold one.
        piped = [j for j, column in enumerate(columns) if "|" in "".join(column)]
        for j in piped:
            columns[j] = [cell.replace("|", "\\|") for cell in columns[j]]
        if piped:
            rows = list(zip(*columns))
        widths = [max(w, 1, *map(len, column)) for w, column in zip(widths, columns)]
    lines.append("| " + " | ".join(col.ljust(w) for col, w in zip(doc.columns, widths)) + " |")
    lines.append("| " + " | ".join("-" * w for w in widths) + " |")
    template = "| " + " | ".join(f"%-{w}s" for w in widths) + " |"
    lines.extend(template % row for row in rows)
    return "\n".join(lines) + "\n"
