"""Report documents and their JSON, CSV, and Markdown renderings.

Every cell is serialized exactly: integers as plain decimal strings,
fractions as "p/q" in lowest terms. Columns suffixed _approx carry decimal
approximations rounded to 12 significant digits and exist only for human
readers; nothing is ever compared through them.

A document's rows are tuples of strings in its column order, one cell per
column, so each renderer walks them without looking columns up by name.
"""

from __future__ import annotations

import sys
from itertools import islice, repeat

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator
    from fractions import Fraction

FORMATS = ("md", "csv", "json")

# Exact values print with at most this many digits in numerator and denominator each;
# converting 10^5 digits to text takes about 0.16 s.
DIGIT_BUDGET = 100_000


def _exponent_estimate(bits: int) -> int:
    """The decimal exponent of a positive integer of bits bits, or one more: bits * 0.30103, rounded down."""
    return bits * 30103 // 100000


def check_digits(value: int | Fraction) -> None:
    """Reject a value whose numerator or denominator has more than DIGIT_BUDGET digits, before converting it.

    The exponent estimate plus one predicts the digits: the true count or one more.
    """
    digits = _exponent_estimate(max(value.numerator.bit_length(), value.denominator.bit_length())) + 1
    if digits > DIGIT_BUDGET:
        raise ValueError(f"an exact value of about {digits} digits is over the output budget of {DIGIT_BUDGET} digits")


def fmt_exact(value: int | Fraction) -> str:
    """Serialize an exact value: ints in decimal, fractions as 'p/q', as str does, within DIGIT_BUDGET."""
    check_digits(value)
    return str(value)


def approx12(value: int | Fraction) -> str:
    """Decimal approximation with 12 significant digits, for _approx columns.

    A nonzero value outside the normal float range, past it or below
    sys.float_info.min, is rounded exactly (half to even), and spelled as
    %.12g would spell it: trailing zeros dropped, e+NNN or e-NNN.
    """
    try:
        approx = float(value)
        if not value or abs(approx) >= sys.float_info.min:
            return f"{approx:.12g}"
    except OverflowError:
        pass
    from fractions import Fraction

    size = abs(Fraction(value))
    # One below the estimate from the bit lengths is at most the decimal exponent of size; step up to it.
    exponent = _exponent_estimate(size.numerator.bit_length() - size.denominator.bit_length()) - 1
    while Fraction(10) ** (exponent + 1) <= size:
        exponent += 1
    digits = round(size / Fraction(10) ** (exponent - 11))
    if digits == 10**12:  # rounded up to the next power of ten
        digits, exponent = 10**11, exponent + 1
    mantissa = str(digits)
    mantissa = (mantissa[0] + "." + mantissa[1:]).rstrip("0").rstrip(".")
    return f"{'-' if value < 0 else ''}{mantissa}e{exponent:+03d}"


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
    byte as indent=2 would: each piece is joined from its columns and the
    fixed separators between them, which hold the keys and the quotes. The
    encoder escapes each character on its own, so a column whose joined
    cells in the piece it leaves unchanged needs no escaping in any of
    them, and its cells go in as they are, between quotes. Every other
    column's cells are encoded one by one.
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
    keys = ["      " + encode(name) + ": " for name in doc.columns]
    # head ends with '"rows": []' and the closing brace; with rows, the first
    # piece opens the list in their place, and the last line closes it.
    lead, tail = head[: -len("[]\n}")] + "[\n", head + "\n"
    for rows in _pieces(doc.rows):
        if keys:
            # Each row joins its cells, each after a fixed separator that
            # closes the cell before it and opens its own, and a last one
            # that closes the row.
            parts = []
            quote, opening = "", "    {\n"
            for key, column in zip(keys, zip(*rows)):
                joined = "".join(column)
                separator = quote + opening + key
                quote = '"' if encode(joined) == '"' + joined + '"' else ""
                parts += (repeat(separator + quote), column if quote else map(encode, column))
                opening = ",\n"
            parts.append(repeat(quote + "\n    }"))
            yield lead + ",\n".join(map("".join, zip(*parts)))
        else:
            yield lead + ",\n".join(["    {}"] * len(rows))
        lead, tail = ",\n", "\n  ]\n}\n"
    yield tail


def _render_csv(doc: ReportDocument) -> Iterator[str]:
    """What one csv.writer writes for the header and every row.

    A plain piece of rows (see _plain_csv) is joined by hand; any other
    piece goes through the writer, whose buffer is emptied after each.
    """
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")

    def drained() -> str:
        text = out.getvalue()
        out.seek(0)
        out.truncate()
        return text

    writer.writerow(doc.columns)
    yield drained()
    for rows in _pieces(doc.rows):
        text = _plain_csv(rows)
        if text is None:
            writer.writerows(rows)
            text = drained()
        yield text


def _plain_csv(rows: list[tuple[str, ...]]) -> str | None:
    """rows as csv.writer writes them, if the piece is plain; else None.

    A piece is plain when it has at least two columns and no cell in it is
    empty or holds a quote, a carriage return, a newline or a NUL. Then
    the writer quotes exactly the cells that hold a comma, by wrapping
    them in quotes, in every supported Python; on the other cells its
    rules differ between versions, so those pieces are left to it.
    """
    columns = list(zip(*rows))
    if len(columns) < 2:
        return None
    for j, column in enumerate(columns):
        joined = "".join(column)
        if not all(column) or any(char in joined for char in '"\r\n\0'):
            return None
        if "," in joined:
            columns[j] = [f'"{cell}"' if "," in cell else cell for cell in column]
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def _render_md(doc: ReportDocument) -> Iterator[str]:
    """A table padded to its widest cells, so every row is read before the first piece.

    The rows are read piece by piece and held only as columns, each literal
    | escaped as \\| on the way in (it would end the table cell).
    """
    lines = [f"# {doc.command}", ""]
    if doc.parameters:
        params = ", ".join(f"{k}={v}" for k, v in doc.parameters.items())
        lines.append(f"parameters: {params}")
    if doc.generated_at is not None:
        lines.append(f"generated_at: {doc.generated_at}")
    if doc.parameters or doc.generated_at is not None:
        lines.append("")
    columns: list[list[str]] = [[] for _ in doc.columns]
    count = 0
    for rows in _pieces(doc.rows):
        count += len(rows)
        for cells, column in zip(columns, zip(*rows)):
            if "|" in "".join(column):
                column = [cell.replace("|", "\\|") for cell in column]
            cells += column
    widths = [len(name) for name in doc.columns]
    if count:
        widths = [max(w, 1, max(map(len, cells))) for w, cells in zip(widths, columns)]
    lines.append("| " + " | ".join(col.ljust(w) for col, w in zip(doc.columns, widths)) + " |")
    lines.append("| " + " | ".join("-" * w for w in widths) + " |")
    yield "\n".join(lines) + "\n"
    for start in range(0, count, _CHUNK):
        if columns:
            padded = [
                map(str.ljust, cells[start : start + _CHUNK], repeat(w)) for cells, w in zip(columns, widths)
            ]
            yield "| " + " |\n| ".join(map(" | ".join, zip(*padded))) + " |\n"
        else:
            yield "|  |\n" * min(_CHUNK, count - start)
