"""Report documents and their JSON, CSV, and Markdown renderings.

Every cell is serialized exactly: integers as plain decimal strings,
fractions as "p/q" in lowest terms. Columns suffixed _approx carry decimal
approximations rounded to 12 significant digits and exist only for human
readers; nothing is ever compared through them.

A document's rows are tuples of strings in its column order, one cell per
column, so each renderer walks them without looking columns up by name.
"""

from __future__ import annotations

from itertools import islice, repeat
from operator import add

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator
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
    column; column names are distinct, as JSON row objects need. rows may
    be any iterable of them: rendering reads it once, so rows made as they
    are read (a generator) are made only as their piece is written.
    """

    def __init__(
        self,
        command: str,
        parameters: dict[str, str],
        columns: list[str],
        rows: Iterable[tuple[str, ...]] | None = None,
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
    """doc's whole text: the pieces of render_pieces, joined."""
    return "".join(render_pieces(doc))


def render_pieces(doc: ReportDocument) -> Iterator[str]:
    """doc's text as pieces to write in order, each holding at most _CHUNK rows.

    doc.rows is read once. Only Markdown keeps every row, since its
    column widths depend on them all; JSON and CSV hold one piece's rows
    and text at a time.
    """
    if doc.fmt == "json":
        return _render_json(doc)
    if doc.fmt == "csv":
        return _render_csv(doc)
    return _render_md(doc)


# Rows per piece: of 1024, 4096 and 16384, 1024 rendered the six enumerate
# dumps fastest and with the lowest peak RSS (CHANGES.md has the figures).
_CHUNK = 1024


def _pieces(rows: Iterable[tuple[str, ...]]) -> Iterator[list[tuple[str, ...]]]:
    """rows in consecutive lists of at most _CHUNK rows, none empty."""
    rows = iter(rows)
    while piece := list(islice(rows, _CHUNK)):
        yield piece


def _render_json(doc: ReportDocument) -> Iterator[str]:
    """json.dumps(envelope, indent=2) + newline, with the rows encoded by hand.

    json.dumps uses its C encoder only without indent, so the envelope head
    goes through json.dumps and the rows are spelled out here, byte for
    byte as indent=2 would, through one %-template per piece of rows. The
    encoder escapes each character on its own, so a column whose joined
    cells in the piece it leaves unchanged needs no escaping in any of
    them, and they go into the template as they are, between quotes. Every
    other column's cells are encoded one by one.
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
    encode = json.encoder.encode_basestring_ascii
    keys = ["      " + encode(name).replace("%", "%%") + ": " for name in doc.columns]
    # head ends with '"rows": []' and the closing brace; with rows, the first
    # piece opens the list in their place, and the last line closes it.
    lead, tail = head[: -len("[]\n}")] + "[\n", head + "\n"
    for rows in _pieces(doc.rows):
        if keys:
            columns = list(zip(*rows))
            fields = []
            for j, (key, column) in enumerate(zip(keys, columns)):
                joined = "".join(column)
                if encode(joined) == '"' + joined + '"':
                    fields.append(key + '"%s"')
                else:
                    fields.append(key + "%s")
                    columns[j] = map(encode, column)
            template = "    {\n" + ",\n".join(fields) + "\n    }"
            yield lead + ",\n".join(map(template.__mod__, zip(*columns)))
        else:
            yield lead + ",\n".join(["    {}"] * len(rows))
        lead, tail = ",\n", "\n  ]\n}\n"
    yield tail


def _render_csv(doc: ReportDocument) -> Iterator[str]:
    """One csv.writer for the whole document, its buffer emptied after each piece."""
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(doc.columns)
    for rows in _pieces(doc.rows):
        writer.writerows(rows)
        yield out.getvalue()
        out.seek(0)
        out.truncate()
    yield out.getvalue()


def _render_md(doc: ReportDocument) -> Iterator[str]:
    """A table padded to its widest cells, so every row is read before the first piece."""
    lines = [f"# {doc.command}", ""]
    if doc.parameters:
        params = ", ".join(f"{k}={v}" for k, v in doc.parameters.items())
        lines.append(f"parameters: {params}")
    if doc.generated_at is not None:
        lines.append(f"generated_at: {doc.generated_at}")
    if doc.parameters or doc.generated_at is not None:
        lines.append("")
    rows = list(doc.rows)
    widths = [len(col) for col in doc.columns]
    piped = []  # the columns holding a literal |, which would end the table cell: it is escaped as \|
    for j, column in enumerate(zip(*rows)):
        if "|" in "".join(column):
            piped.append(j)
            width = max(map(add, map(len, column), map(str.count, column, repeat("|"))))
        else:
            width = max(map(len, column))
        widths[j] = max(widths[j], 1, width)
    lines.append("| " + " | ".join(col.ljust(w) for col, w in zip(doc.columns, widths)) + " |")
    lines.append("| " + " | ".join("-" * w for w in widths) + " |")
    yield "\n".join(lines) + "\n"
    template = "| " + " | ".join(f"%-{w}s" for w in widths) + " |\n"
    for start in range(0, len(rows), _CHUNK):
        piece = rows[start : start + _CHUNK]
        if piped:
            columns = list(zip(*piece))
            for j in piped:
                columns[j] = [cell.replace("|", "\\|") for cell in columns[j]]
            piece = zip(*columns)
        yield "".join(map(template.__mod__, piece))
