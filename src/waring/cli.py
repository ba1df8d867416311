"""Command-line front end.

Subcommands: rank, generic-rank, max-rank, max-rank-sum, bounds, enumerate,
verify, asymptotics, table. Output formats: Markdown (default), CSV, JSON.
Exit codes: 0 success (including verification passes with the expected
exceptions), 1 a verification found an unexpected counterexample, 2 usage
or input error, or output that cannot be written.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Iterable, Iterator, Sequence
from operator import getitem

from . import coprime_sums as cs
from . import monomials as mono
from .errors import UsageError, check_cell
from .monomials import MODE_CLOSED_FORM, MODE_ORACLE
from .report import DIGIT_BUDGET, FORMATS, ReportDocument, approx12, check_digits, fmt_exact, render_pieces

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .verify import RatioPoint

TABLE_NAMES = ("exceptional-44-53", "coprime-43", "known-examples")


# ---------------------------------------------------------------------------
# argument parsing helpers


def parse_exponent_list(text: str) -> list[int]:
    """Parse '1,2,2' into [1, 2, 2]."""
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"malformed exponent list {text!r}; expected e.g. 1,2,2")
    return values


def parse_sum_spec(text: str) -> list[list[int]]:
    """Parse '1,2|1,2' into [[1, 2], [1, 2]] (blocks separated by '|')."""
    return [parse_exponent_list(part) for part in text.split("|")]


def parse_range(text: str) -> tuple[int, int]:
    """Parse an inclusive range 'a:b' (or a single value 'a')."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            value = int(parts[0])
            return (value, value)
        if len(parts) == 2:
            return (int(parts[0]), int(parts[1]))
    except ValueError:
        pass
    raise UsageError(f"malformed range {text!r}; expected a:b")


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


# ---------------------------------------------------------------------------
# row builders

RANK_COLUMNS = ["n", "d", "vars_used", "kind", "value", "witness", "label"]


def _label_pieces(var: int) -> mono._Table:
    """Exponent -> the label piece of variable var, e.g. 2 -> 'x3^2' for var 3."""
    return mono._Table(lambda e: mono.monomial_label((e,), var))


def _monomial_rows(
    n: int, d: int, kind: str, groups: Iterable[tuple[int, int, tuple[int, ...], list]]
) -> Iterator[tuple[str, ...]]:
    """Rank rows of the monomials given as _partition_groups groups.

    A group (factor, depth, parts, rows) holds the monomials (r * factor,
    depth + u, t + parts) for each (r, u, t) in rows. Its prefix's
    witness is made once per group and its label once per offset u; each
    completion t's text is made once per call.
    """
    n_text, d_text = str(n), str(d)
    texts = mono._Table(str)
    # pieces[v]: the label pieces of variable v, made for the variables some row uses.
    pieces = mono._Table(_label_pieces)

    def label(exponents: tuple[int, ...], skip: int) -> str:
        """The label of exponents on the variables after the first skip."""
        variables = range(skip + 1, skip + len(exponents) + 1)
        return "*".join(map(getitem, map(pieces.__getitem__, variables), exponents))

    tails = mono._Table(lambda tail: (",".join(map(texts.__getitem__, tail)), label(tail, 0)))
    for factor, depth, parts, rows in groups:
        witness = ",".join(map(texts.__getitem__, parts))
        if witness and rows[0][2]:  # the completions are all nonempty, or the one completion is ()
            witness = "," + witness
        heads = {}  # u -> vars_used and the prefix's label after a completion of u variables
        for rank, used, tail in rows:
            tail_witness, tail_label = tails[tail]
            head = heads.get(used)
            if head is None:
                head = label(parts, used)
                if head and used:
                    head = "*" + head
                head = heads[used] = texts[depth + used], head
            yield (
                n_text,
                d_text,
                head[0],
                kind,
                str(rank * factor),
                tail_witness + witness,
                tail_label + head[1],
            )


def _sum_rows(
    n: int, d: int, kind: str, pool: Sequence[mono.Monomial],
    groups: Iterable[tuple[int, int, tuple[int, ...], list]],
) -> Iterator[tuple[str, ...]]:
    """Rank rows of the sums of pool blocks given as _block_groups groups.

    A group (rank, used, picked, rows) holds the sums (rank + r, used + u,
    picked + p) for each (r, u, p) in rows, p listing pool indices. Its
    prefix's text is made once per group, and each completion's once per
    call and first variable.
    """
    n_text, d_text = str(n), str(d)
    texts = mono._Table(str)
    sizes = [block.nvars for block in pool]
    # The witness syntax, e.g. '1,2|1,2'; rank parses it back.
    witnesses = [",".join(map(str, block.exponents)) for block in pool]
    # labels[i][first_var]: block i's label from variable first_var, made on
    # first use, so the cache holds only labels that some row shows.
    labels = [mono._Table(block.label) for block in pool]

    def spell(first_var: int, picked: tuple[int, ...]) -> tuple[str, str]:
        """The witness and label of the picked blocks, numbered from first_var."""
        block_labels = []
        for i in picked:
            block_labels.append(labels[i][first_var])
            first_var += sizes[i]
        return "|".join([witnesses[i] for i in picked]), cs.sum_label(block_labels)

    def spell_after(key: tuple[int, tuple[int, ...]]) -> tuple[str, str]:
        """A completion's witness and label, each led by its separator to follow a prefix's ('' if empty)."""
        witness, label = spell(*key)
        return ("|" + witness, cs.sum_label(("", label))) if key[1] else ("", "")

    completions = mono._Table(spell_after)
    for rank, used, picked, rows in groups:
        witness, label = spell(1, picked)
        first_var = used + 1
        for r, u, p in rows:
            tail_witness, tail_label = completions[first_var, p]
            yield (
                n_text,
                d_text,
                texts[used + u],
                kind,
                str(rank + r),
                witness + tail_witness,
                label + tail_label,
            )


def _object_row(obj: mono.Monomial | cs.CoprimeSum, kind: str) -> tuple[str, ...]:
    """The rank row of one Monomial or CoprimeSum, from the two builders above."""
    if isinstance(obj, cs.CoprimeSum):
        groups = [(cs.sum_rank(obj), obj.vars_used, range(len(obj.blocks)), [(0, 0, ())])]
        rows = _sum_rows(obj.ambient_vars, obj.degree, kind, obj.blocks, groups)
    else:
        groups = [(mono.waring_rank(obj), obj.nvars, obj.exponents, [(1, 0, ())])]
        rows = _monomial_rows(obj.ambient_vars, obj.degree, kind, groups)
    check_digits(groups[0][0])  # the rank
    return next(rows)


def _sparse_row(columns: list[str], /, **cells: str) -> tuple[str, ...]:
    """The row of the named cells in column order: a column they leave out is ''."""
    return tuple([cells.get(col, "") for col in columns])


class _CountedRows:
    """Rows made as they are read, once, and their number, known before any is made.

    len() gives the number before or after the rows are written, and
    list() sizes itself by it.
    """

    def __init__(self, rows: Iterator[tuple[str, ...]], count: int) -> None:
        self._rows, self._count = rows, count

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        return self._rows

    def __len__(self) -> int:
        return self._count


def _cell_rows(n: int, d: int, sums: bool = False, spanning: bool = False) -> _CountedRows:
    """The rank rows of cell (n, d)'s monomials, or of its coprime sums (only
    those on all n variables when spanning), in enumerate order, and their
    number, from the count recurrences without a walk."""
    if sums:
        check_cell("enumerate_coprime_sums", n, d)
        pool = cs._block_pool(n, d)
        rows = _sum_rows(n, d, "coprime_sum", pool, cs._block_groups(pool, n, spanning=spanning))
        counts = cs._multiset_counts(mono._partition_counts([d], min(n, d))[d], n)
        count = counts[n] if spanning else sum(counts) - 1  # less the empty sum
    else:
        check_cell("enumerate_monomials", n, d)
        rows = _monomial_rows(n, d, "monomial", mono._partition_groups(d, n))
        count = sum(mono._partition_counts([d], min(n, d))[d])
    return _CountedRows(rows, count)


def _document(args, columns: list[str], rows, parameters) -> ReportDocument:
    generated_at = None if args.deterministic else _utc_now()
    return ReportDocument(
        command=args.command,
        parameters=parameters,
        columns=columns,
        rows=rows,
        fmt=args.format,
        generated_at=generated_at,
    )


# ---------------------------------------------------------------------------
# subcommand handlers (each returns (ReportDocument, exit_code))


def cmd_rank(args) -> tuple[ReportDocument, int]:
    if args.monomial is not None:
        exponents = parse_exponent_list(args.monomial)
        m = mono.canonicalize(exponents, args.vars)
        rows = [_object_row(m, "monomial")]
        params = {"monomial": args.monomial}
    else:
        blocks = parse_sum_spec(args.sum)
        f = cs.make_sum(blocks, args.vars)
        rows = [_object_row(f, "coprime_sum")]
        params = {"sum": args.sum}
    if args.vars is not None:
        params["vars"] = str(args.vars)
    return _document(args, RANK_COLUMNS, rows, params), 0


def cmd_generic_rank(args) -> tuple[ReportDocument, int]:
    from . import rank_tables as rt

    params = {"n": str(args.n), "d": str(args.d)}
    row = _sparse_row(RANK_COLUMNS, **params, kind="generic", value=fmt_exact(rt.generic_rank(args.n, args.d)))
    return _document(args, RANK_COLUMNS, [row], params), 0


# Per max-rank subcommand: its help, witness search and row kind.
MAX_RANK_COMMANDS = {
    "max-rank": ("maximum monomial rank for (n, d)", mono.max_rank_monomial, "r_max"),
    "max-rank-sum": ("maximum coprime-sum rank for (n, d)", cs.max_rank_sum, "r_max_star"),
}


def cmd_max_rank(args) -> tuple[ReportDocument, int]:
    _, search, kind = MAX_RANK_COMMANDS[args.command]
    mode = MODE_ORACLE if args.oracle else MODE_CLOSED_FORM
    row = _object_row(search(args.n, args.d, mode), kind)
    params = {"n": str(args.n), "d": str(args.d), "mode": mode}
    return _document(args, RANK_COLUMNS, [row], params), 0


BOUNDS_COLUMNS = ["n", "d", "kind", "value", "value_approx"]


def cmd_bounds(args) -> tuple[ReportDocument, int]:
    from fractions import Fraction

    from . import rank_tables as rt

    params = {"n": str(args.n), "d": str(args.d)}

    def row(kind: str, value: int | Fraction) -> tuple[str, ...]:
        return (params["n"], params["d"], kind, fmt_exact(value), approx12(value))

    rows = [row(record.kind, record.value) for record in rt.upper_bounds(args.n, args.d)]
    rows.append(row("generic", rt.generic_rank(args.n, args.d)))
    # Heuristic size of the bound-to-generic gap, reported approximately
    # only, never asserted.
    rows.append(row("gap_ratio_heuristic", Fraction(args.d * args.n, args.d + args.n - 1)))
    return _document(args, BOUNDS_COLUMNS, rows, params), 0


def cmd_enumerate(args) -> tuple[ReportDocument, int]:
    if args.spanning and not args.sums:
        raise UsageError("--spanning applies only to --sums")
    rows = _cell_rows(args.n, args.d, args.sums, args.spanning)
    params = {
        "n": str(args.n),
        "d": str(args.d),
        "sums": str(bool(args.sums)).lower(),
        "spanning": str(bool(args.spanning)).lower(),
    }
    return _document(args, RANK_COLUMNS, rows, params), 0


VERIFY_COLUMNS = ["kind", "n", "d", "witness", "label", "lhs", "rhs", "value"]


def cmd_verify(args) -> tuple[ReportDocument, int]:
    from . import verify as vf

    claim = vf.get_claim(args.claim)
    vf.check_n_range(args.claim, args.n_range)
    n_range = None if args.n_range is None else parse_range(args.n_range)
    d_range = None if args.d_range is None else parse_range(args.d_range)
    report = vf.verify_claim(args.claim, n_range, d_range, args.threads)
    summary = [
        ("status", report.status),
        ("checked_count", str(report.checked_count)),
        ("expected_exceptions_matched", str(report.expected_exceptions_matched).lower()),
    ]
    if not args.deterministic:
        summary.append(("elapsed_ms", str(report.elapsed_ms)))
    rows = [_sparse_row(VERIFY_COLUMNS, kind=kind, value=value) for kind, value in summary]
    for v in report.violations:
        kind = "expected_exception" if v.expected else "violation"
        *_, witness, label = _object_row(v.witness, kind) if v.witness else ("", "")
        rows.append(
            _sparse_row(
                VERIFY_COLUMNS,
                kind=kind,
                n=str(v.n),
                d=str(v.d),
                witness=witness,
                label=label,
                lhs=fmt_exact(v.lhs),
                rhs=fmt_exact(v.rhs),
            )
        )
    n_min, n_max, d_min, d_max = report.grid
    has_n_range = claim.default_n is not None
    params = {
        "claim": args.claim,
        "n_range": f"{n_min}:{n_max}" if has_n_range else "",
        "d_range": f"{d_min}:{d_max}",
        "threads": str(args.threads),
    }
    doc = _document(args, VERIFY_COLUMNS, rows, params)
    return doc, 0 if report.passed else 1


ASYMPTOTICS_COLUMNS = ["n", "d", "kind", "ratio", "ratio_approx", "limit", "limit_approx", "gap", "gap_approx"]


def _ratio_row(point: RatioPoint) -> tuple[str, ...]:
    """The point's row: each of its ratio, limit and gap, exactly and then approximately."""
    cells = [cell(value) for value in (point.ratio, point.limit, point.gap) for cell in (fmt_exact, approx12)]
    return (str(point.n), str(point.d), "exact", *cells)


# Per mode, the asymptotics flags it does not read; passing one is a usage
# error. Their defaults are None for that reason, and are filled in below.
UNREAD_FLAGS = {"d-limit": ("--d", "--n-max"), "n-limit": ("--n", "--d-samples", "--which")}


def cmd_asymptotics(args) -> tuple[ReportDocument, int]:
    from . import verify as vf

    if args.mode not in UNREAD_FLAGS:
        raise UsageError(f"unknown mode {args.mode!r}; expected d-limit or n-limit")
    unread = [f for f in UNREAD_FLAGS[args.mode] if getattr(args, f[2:].replace("-", "_")) is not None]
    if unread:
        raise UsageError(f"--mode {args.mode} does not read {', '.join(unread)}")
    if args.mode == "d-limit":
        if args.n is None:
            raise UsageError("--mode d-limit requires --n")
        d_samples = "10,100,1000" if args.d_samples is None else args.d_samples
        which = args.which or "monomial"
        try:
            samples = [int(d) for d in d_samples.split(",")]
        except ValueError:
            raise UsageError(f"malformed --d-samples {d_samples!r}; expected degrees, e.g. 10,100,1000")
        points = [vf.ratio_to_generic(args.n, d, which) for d in samples]
        params = {"mode": args.mode, "n": str(args.n), "d_samples": d_samples, "which": which}
    else:
        if args.d is None:
            raise UsageError("--mode n-limit requires --d")
        n_max = 100 if args.n_max is None else args.n_max
        points = vf.ratio_decay_fixed_d(args.d, n_max)
        params = {"mode": args.mode, "d": str(args.d), "n_max": str(n_max)}
    rows = [_ratio_row(p) for p in points]
    return _document(args, ASYMPTOTICS_COLUMNS, rows, params), 0


TABLE_COLUMNS = ["n", "d", "kind", "witness", "label", "value", "generic_rank", "note"]


def _table_row(rank_row: tuple[str, ...], generic_rank: str) -> tuple[str, ...]:
    """A rank row as a table row, with its cell's generic rank."""
    return _sparse_row(TABLE_COLUMNS, **dict(zip(RANK_COLUMNS, rank_row)), generic_rank=generic_rank)


def cmd_table(args) -> tuple[ReportDocument, int]:
    from . import rank_tables as rt

    rows = []
    if args.name in ("exceptional-44-53", "coprime-43"):
        # The monomials at (4, 4) and (5, 3) by rank (the value column), highest
        # first, or the spanning sums at (4, 3), lowest first; ties in enumerate order.
        sums = args.name == "coprime-43"
        for n, d in [(4, 3)] if sums else [(4, 4), (5, 3)]:
            gen = str(rt.generic_rank(n, d))
            ranked = sorted(_cell_rows(n, d, sums, sums), key=lambda row: int(row[4]), reverse=not sums)
            rows += [_table_row(row, gen) for row in ranked]
    elif args.name == "known-examples":
        for ex in rt.known_examples():
            rows.append(
                _sparse_row(
                    TABLE_COLUMNS,
                    n=str(ex.n),
                    d=str(ex.d),
                    kind="known_example",
                    label=ex.label,
                    value=str(ex.rank),
                    generic_rank=str(rt.generic_rank(ex.n, ex.d)),
                    note=ex.source_note,
                )
            )
    else:
        raise UsageError(f"unknown table {args.name!r}; expected one of {TABLE_NAMES}")
    params = {"name": args.name}
    return _document(args, TABLE_COLUMNS, rows, params), 0


# ---------------------------------------------------------------------------
# parser assembly


class _ClaimIds:
    """verify.CLAIM_IDS, comma-joined when --claim's help text is rendered."""

    def __str__(self) -> str:
        from .verify import CLAIM_IDS

        return ", ".join(CLAIM_IDS)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="md", help="output format")
    common.add_argument("--out", metavar="FILE", default=None, help="write to FILE instead of stdout")
    common.add_argument(
        "--deterministic",
        action="store_true",
        help="omit timestamps and timings so identical runs are byte-identical",
    )
    cell = argparse.ArgumentParser(add_help=False)
    cell.add_argument("--n", type=int, required=True)
    cell.add_argument("--d", type=int, required=True)

    parser = argparse.ArgumentParser(
        prog="waring",
        description="Exact Waring ranks of monomials and coprime-monomial sums, "
        "with exhaustive claim verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", parents=[common], help="rank of one monomial or coprime sum")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--monomial", help="exponent list, e.g. 1,2,2")
    group.add_argument("--sum", help="blocks joined by |, e.g. 1,2|1,2")
    p.add_argument("--vars", type=int, default=None, help="ambient variable count")
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("generic-rank", parents=[common, cell], help="generic rank for (n, d)")
    p.set_defaults(handler=cmd_generic_rank)

    for name, (help_text, _, _) in MAX_RANK_COMMANDS.items():
        p = sub.add_parser(name, parents=[common, cell], help=help_text)
        p.add_argument("--oracle", action="store_true", help="brute-force instead of closed form")
        p.set_defaults(handler=cmd_max_rank)

    p = sub.add_parser("bounds", parents=[common, cell], help="upper-bound chain for (n, d)")
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("enumerate", parents=[common, cell], help="list monomials or coprime sums")
    p.add_argument("--sums", action="store_true", help="enumerate coprime sums")
    p.add_argument("--spanning", action="store_true", help="only sums using all n variables")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("verify", parents=[common], help="exhaustively check a claim")
    p.add_argument(
        "--threads",
        type=positive_int,
        default=1,
        help="at least 1; echoed in the report, and the output is the same for any value "
        "(verify starts no process)",
    )
    # argparse expands %(claim_ids)s only when it prints help, so verify loads
    # only then. Set after add_argument, which newer Pythons test-expand.
    claim = p.add_argument("--claim", required=True)
    claim.help, claim.claim_ids = "one of: %(claim_ids)s", _ClaimIds()
    p.add_argument("--n-range", dest="n_range", default=None, help="inclusive a:b")
    p.add_argument("--d-range", dest="d_range", default=None, help="inclusive a:b")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("asymptotics", parents=[common], help="exact ratios to the generic rank")
    p.add_argument("--mode", required=True, help="d-limit or n-limit")
    p.add_argument("--n", type=int, default=None, help="fixed n (d-limit)")
    p.add_argument("--d-samples", dest="d_samples", help="comma list of d values (d-limit; default 10,100,1000)")
    p.add_argument("--which", choices=("monomial", "coprime"), help="monomial (default) or coprime (d-limit)")
    p.add_argument("--d", type=int, default=None, help="fixed d (n-limit)")
    p.add_argument("--n-max", dest="n_max", type=int, help="largest n (n-limit; default 100)")
    p.set_defaults(handler=cmd_asymptotics)

    p = sub.add_parser("table", parents=[common], help="regenerate a reference table")
    p.add_argument("--name", required=True, help="one of: " + ", ".join(TABLE_NAMES))
    p.set_defaults(handler=cmd_table)

    return parser


def _write_stdout(pieces: Iterable[str]) -> None:
    """Write all of the pieces to stdout in order, or raise OSError with
    stdout pointed at the null device, so the flush at exit cannot fail again.

    Each piece's bytes are written until none are left: under python -u a
    closed pipe can cut a raw write short, and stdout's text layer would
    drop the rest.
    """
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # a text-only stream, such as io.StringIO
        sys.stdout.writelines(pieces)
        return
    encoding, errors = sys.stdout.encoding, sys.stdout.errors
    try:
        sys.stdout.flush()
        for piece in pieces:
            data = memoryview(piece.encode(encoding, errors))
            while data:
                data = data[out.write(data):]
        out.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGIT_BUDGET)  # Python's own limit is 4300 digits; restored on return
    try:
        doc, exit_code = args.handler(args)
        pieces = render_pieces(doc)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        else:
            _write_stdout(pieces)
    except OSError as exc:
        print(f"error: cannot write {'--out' if args.out else 'stdout'}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
