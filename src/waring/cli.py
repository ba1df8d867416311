"""Command-line front end.

Subcommands: rank, generic-rank, max-rank, max-rank-sum, bounds, enumerate,
verify, asymptotics, table. Output formats: Markdown (default), CSV, JSON.
Exit codes: 0 success (including verification passes with the expected
exceptions), 1 a verification found an unexpected counterexample, 2 usage
or input error.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from . import coprime_sums as cs
from . import monomials as mono
from . import rank_tables as rt
from . import verify as vf
from .errors import UsageError
from .monomials import MODE_CLOSED_FORM, MODE_ORACLE
from .report import FORMATS, ReportDocument, approx12, fmt_exact, render

VERIFY_DEFAULT_RANGES = {
    # claim id -> (n_range, d_range); lemma-slope has no n range.
    "theorem-monomial": ((4, 8), (2, 20)),
    "theorem-coprime": ((4, 8), (3, 10)),
    "lemma-slope": (None, (4, 20)),
    "ineq-agm": ((4, 8), (2, 20)),
    "ineq-pure-power": ((4, 14), (4, 14)),
}

TABLE_NAMES = ("exceptional-44-53", "coprime-43", "known-examples")


# ---------------------------------------------------------------------------
# argument parsing helpers


def parse_exponent_list(text: str) -> list[int]:
    """Parse '1,2,2' into [1, 2, 2]."""
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"malformed exponent list {text!r}; expected e.g. 1,2,2")
    if not values:
        raise UsageError("empty exponent list")
    return values


def parse_sum_spec(text: str) -> list[list[int]]:
    """Parse '1,2|1,2' into [[1, 2], [1, 2]] (blocks separated by '|')."""
    blocks = [parse_exponent_list(part) for part in text.split("|")]
    if not blocks:
        raise UsageError("empty sum expression")
    return blocks


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


def _monomial_row(m: mono.Monomial, kind: str = "monomial") -> dict[str, str]:
    return {
        "n": str(m.ambient_vars),
        "d": str(m.degree),
        "vars_used": str(m.nvars),
        "kind": kind,
        "value": str(mono.waring_rank(m)),
        "witness": ",".join(str(e) for e in m.exponents),
        "label": m.label(),
    }


def _sum_row(f: cs.CoprimeSum, kind: str = "coprime_sum") -> dict[str, str]:
    return {
        "n": str(f.ambient_vars),
        "d": str(f.degree),
        "vars_used": str(f.vars_used),
        "kind": kind,
        "value": str(cs.sum_rank(f)),
        "witness": "|".join(",".join(str(e) for e in b.exponents) for b in f.blocks),
        "label": f.label(),
    }


def _document(args, command: str, columns: list[str], rows, parameters) -> ReportDocument:
    generated_at = None if args.deterministic else _utc_now()
    return ReportDocument(
        command=command,
        parameters=parameters,
        columns=columns,
        rows=list(rows),
        fmt=args.format,
        generated_at=generated_at,
    )


RANK_COLUMNS = ["n", "d", "vars_used", "kind", "value", "witness", "label"]


# ---------------------------------------------------------------------------
# subcommand handlers (each returns (ReportDocument, exit_code))


def cmd_rank(args) -> tuple[ReportDocument, int]:
    if args.monomial is not None:
        exponents = parse_exponent_list(args.monomial)
        m = mono.canonicalize(exponents, args.vars)
        rows = [_monomial_row(m)]
        params = {"monomial": args.monomial}
    else:
        blocks = parse_sum_spec(args.sum)
        f = cs.make_sum(blocks, args.vars)
        rows = [_sum_row(f)]
        params = {"sum": args.sum}
    if args.vars is not None:
        params["vars"] = str(args.vars)
    return _document(args, "rank", RANK_COLUMNS, rows, params), 0


def cmd_generic_rank(args) -> tuple[ReportDocument, int]:
    value = rt.generic_rank(args.n, args.d)
    row = {
        "n": str(args.n),
        "d": str(args.d),
        "kind": "generic",
        "value": str(value),
        "witness": "",
        "label": "",
    }
    params = {"n": str(args.n), "d": str(args.d)}
    return _document(args, "generic-rank", RANK_COLUMNS, [row], params), 0


def _mode(args) -> str:
    return MODE_ORACLE if args.oracle else MODE_CLOSED_FORM


def cmd_max_rank(args) -> tuple[ReportDocument, int]:
    mode = _mode(args)
    if mode == MODE_ORACLE:
        witness = None
        best = -1
        for m in mono.enumerate_monomials(args.n, args.d):
            r = mono.waring_rank(m)
            if r > best:
                witness, best = m, r
    else:
        witness = mono.max_rank_monomial(args.n, args.d)
    row = _monomial_row(witness, kind="r_max")
    params = {"n": str(args.n), "d": str(args.d), "mode": mode}
    return _document(args, "max-rank", RANK_COLUMNS, [row], params), 0


def cmd_max_rank_sum(args) -> tuple[ReportDocument, int]:
    mode = _mode(args)
    witness = cs.max_rank_sum(args.n, args.d, mode)
    row = _sum_row(witness, kind="r_max_star")
    params = {"n": str(args.n), "d": str(args.d), "mode": mode}
    return _document(args, "max-rank-sum", RANK_COLUMNS, [row], params), 0


BOUNDS_COLUMNS = ["n", "d", "kind", "value", "value_approx"]


def cmd_bounds(args) -> tuple[ReportDocument, int]:
    rows = []
    for record in rt.upper_bounds(args.n, args.d):
        rows.append(
            {
                "n": str(record.n),
                "d": str(record.d),
                "kind": record.kind,
                "value": str(record.value),
                "value_approx": approx12(record.value),
            }
        )
    gen = rt.generic_rank(args.n, args.d)
    rows.append(
        {
            "n": str(args.n),
            "d": str(args.d),
            "kind": "generic",
            "value": str(gen),
            "value_approx": approx12(gen),
        }
    )
    # Heuristic size of the bound-to-generic gap, reported approximately
    # only, never asserted.
    heuristic = Fraction(args.d * args.n, args.d + args.n - 1)
    rows.append(
        {
            "n": str(args.n),
            "d": str(args.d),
            "kind": "gap_ratio_heuristic",
            "value": fmt_exact(heuristic),
            "value_approx": approx12(heuristic),
        }
    )
    params = {"n": str(args.n), "d": str(args.d)}
    return _document(args, "bounds", BOUNDS_COLUMNS, rows, params), 0


def cmd_enumerate(args) -> tuple[ReportDocument, int]:
    if args.spanning and not args.sums:
        raise UsageError("--spanning applies only to --sums")
    if args.sums:
        rows = [
            _sum_row(f)
            for f in cs.enumerate_coprime_sums(args.n, args.d, spanning=args.spanning)
        ]
    else:
        rows = [_monomial_row(m) for m in mono.enumerate_monomials(args.n, args.d)]
    params = {
        "n": str(args.n),
        "d": str(args.d),
        "sums": str(bool(args.sums)).lower(),
        "spanning": str(bool(args.spanning)).lower(),
    }
    return _document(args, "enumerate", RANK_COLUMNS, rows, params), 0


VERIFY_COLUMNS = ["kind", "n", "d", "witness", "label", "lhs", "rhs", "value"]


def _run_verify(claim: str, n_range, d_range, workers: int) -> vf.VerificationReport:
    if claim == "theorem-monomial":
        return vf.verify_theorem_monomial(n_range, d_range, workers)
    if claim == "theorem-coprime":
        return vf.verify_theorem_coprime(n_range, d_range, workers)
    if claim == "lemma-slope":
        return vf.verify_lemma_slope(d_range, workers)
    if claim == "ineq-agm":
        return vf.verify_inequality_agm(n_range, d_range, workers)
    if claim == "ineq-pure-power":
        return vf.verify_inequality_pure_power(d_range, n_range, workers)
    raise UsageError(f"unknown claim {claim!r}; expected one of {vf.CLAIM_IDS}")


def cmd_verify(args) -> tuple[ReportDocument, int]:
    if args.claim not in VERIFY_DEFAULT_RANGES:
        raise UsageError(f"unknown claim {args.claim!r}; expected one of {vf.CLAIM_IDS}")
    default_n, default_d = VERIFY_DEFAULT_RANGES[args.claim]
    if args.claim == "lemma-slope" and args.n_range is not None:
        raise UsageError("lemma-slope ranges over n internally; pass only --d-range")
    n_range = parse_range(args.n_range) if args.n_range else default_n
    d_range = parse_range(args.d_range) if args.d_range else default_d

    report = _run_verify(args.claim, n_range, d_range, args.threads)

    expected = {
        (4, 3, shapes) for shapes in vf.EXPECTED_COPRIME_EXCEPTIONS
    } if args.claim == "theorem-coprime" else set()

    rows = [
        {"kind": "status", "value": report.status},
        {"kind": "checked_count", "value": str(report.checked_count)},
        {
            "kind": "expected_exceptions_matched",
            "value": str(report.expected_exceptions_matched).lower(),
        },
    ]
    if not args.deterministic:
        rows.append({"kind": "elapsed_ms", "value": str(report.elapsed_ms)})
    for v in report.violations:
        if isinstance(v.witness, cs.CoprimeSum):
            witness = "|".join(
                ",".join(str(e) for e in b.exponents) for b in v.witness.blocks
            )
            label = v.witness.label()
            is_expected = (v.n, v.d, v.witness.block_shapes()) in expected
        elif isinstance(v.witness, mono.Monomial):
            witness = ",".join(str(e) for e in v.witness.exponents)
            label = v.witness.label()
            is_expected = False
        else:
            witness = ""
            label = ""
            is_expected = False
        rows.append(
            {
                "kind": "expected_exception" if is_expected else "violation",
                "n": str(v.n),
                "d": str(v.d),
                "witness": witness,
                "label": label,
                "lhs": fmt_exact(v.lhs),
                "rhs": fmt_exact(v.rhs),
            }
        )
    params = {
        "claim": args.claim,
        "n_range": f"{n_range[0]}:{n_range[1]}" if n_range else "",
        "d_range": f"{d_range[0]}:{d_range[1]}",
        "threads": str(args.threads),
    }
    doc = _document(args, "verify", VERIFY_COLUMNS, rows, params)
    return doc, 0 if report.passed else 1


ASYMPTOTICS_COLUMNS = [
    "n",
    "d",
    "kind",
    "ratio",
    "ratio_approx",
    "limit",
    "limit_approx",
    "gap",
    "gap_approx",
]


def _ratio_row(point: vf.RatioPoint) -> dict[str, str]:
    return {
        "n": str(point.n),
        "d": str(point.d),
        "kind": "upper_bound" if point.bound_only else "exact",
        "ratio": fmt_exact(point.ratio),
        "ratio_approx": approx12(point.ratio),
        "limit": fmt_exact(point.limit),
        "limit_approx": approx12(point.limit),
        "gap": fmt_exact(point.gap),
        "gap_approx": approx12(point.gap),
    }


def cmd_asymptotics(args) -> tuple[ReportDocument, int]:
    if args.mode == "d-limit":
        if args.n is None:
            raise UsageError("--mode d-limit requires --n")
        samples = parse_exponent_list(args.d_samples)
        points = [vf.ratio_to_generic(args.n, d, args.which) for d in samples]
        params = {
            "mode": args.mode,
            "n": str(args.n),
            "d_samples": args.d_samples,
            "which": args.which,
        }
    elif args.mode == "n-limit":
        if args.d is None:
            raise UsageError("--mode n-limit requires --d")
        points = vf.ratio_decay_fixed_d(args.d, args.n_max, args.oracle_limit)
        params = {
            "mode": args.mode,
            "d": str(args.d),
            "n_max": str(args.n_max),
            "oracle_limit": str(args.oracle_limit),
        }
    else:
        raise UsageError(f"unknown mode {args.mode!r}; expected d-limit or n-limit")
    rows = [_ratio_row(p) for p in points]
    return _document(args, "asymptotics", ASYMPTOTICS_COLUMNS, rows, params), 0


TABLE_COLUMNS = ["n", "d", "kind", "witness", "label", "value", "generic_rank", "note"]


def cmd_table(args) -> tuple[ReportDocument, int]:
    rows = []
    if args.name == "exceptional-44-53":
        for n, d in ((4, 4), (5, 3)):
            gen = rt.generic_rank(n, d)
            cell = sorted(
                mono.enumerate_monomials(n, d),
                key=mono.waring_rank,
                reverse=True,
            )
            for m in cell:
                row = _monomial_row(m)
                row["generic_rank"] = str(gen)
                row["note"] = ""
                rows.append(row)
    elif args.name == "coprime-43":
        sums = sorted(
            cs.enumerate_coprime_sums(4, 3, spanning=True),
            key=lambda f: (cs.sum_rank(f), f.block_shapes()),
        )
        gen = rt.generic_rank(4, 3)
        for f in sums:
            row = _sum_row(f)
            row["generic_rank"] = str(gen)
            row["note"] = ""
            rows.append(row)
    elif args.name == "known-examples":
        for ex in rt.known_examples():
            rows.append(
                {
                    "n": str(ex.n),
                    "d": str(ex.d),
                    "kind": "known_example",
                    "witness": "",
                    "label": ex.label,
                    "value": str(ex.rank),
                    "generic_rank": str(rt.generic_rank(ex.n, ex.d)),
                    "note": ex.source_note,
                }
            )
    else:
        raise UsageError(f"unknown table {args.name!r}; expected one of {TABLE_NAMES}")
    params = {"name": args.name}
    return _document(args, "table", TABLE_COLUMNS, rows, params), 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="md", help="output format")
    common.add_argument("--out", metavar="FILE", default=None, help="write to FILE instead of stdout")
    common.add_argument(
        "--deterministic",
        action="store_true",
        help="omit timestamps and timings so identical runs are byte-identical",
    )
    common.add_argument(
        "--threads", type=positive_int, default=1, help="verification worker count"
    )

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

    p = sub.add_parser("generic-rank", parents=[common], help="generic rank for (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=cmd_generic_rank)

    p = sub.add_parser("max-rank", parents=[common], help="maximum monomial rank for (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="brute-force instead of closed form")
    p.set_defaults(handler=cmd_max_rank)

    p = sub.add_parser(
        "max-rank-sum", parents=[common], help="maximum coprime-sum rank for (n, d)"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="brute-force instead of closed form")
    p.set_defaults(handler=cmd_max_rank_sum)

    p = sub.add_parser("bounds", parents=[common], help="upper-bound chain for (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("enumerate", parents=[common], help="list monomials or coprime sums")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--sums", action="store_true", help="enumerate coprime sums")
    p.add_argument("--spanning", action="store_true", help="only sums using all n variables")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("verify", parents=[common], help="exhaustively check a claim")
    p.add_argument("--claim", required=True, help="one of: " + ", ".join(vf.CLAIM_IDS))
    p.add_argument("--n-range", dest="n_range", default=None, help="inclusive a:b")
    p.add_argument("--d-range", dest="d_range", default=None, help="inclusive a:b")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("asymptotics", parents=[common], help="exact ratios to the generic rank")
    p.add_argument("--mode", required=True, help="d-limit or n-limit")
    p.add_argument("--n", type=int, default=None, help="fixed n (d-limit)")
    p.add_argument("--d-samples", dest="d_samples", default="10,100,1000", help="comma list of d values (d-limit)")
    p.add_argument("--which", choices=("monomial", "coprime"), default="monomial")
    p.add_argument("--d", type=int, default=None, help="fixed d (n-limit)")
    p.add_argument("--n-max", dest="n_max", type=int, default=100, help="largest n (n-limit)")
    p.add_argument("--oracle-limit", dest="oracle_limit", type=int, default=12,
                   help="largest n brute-forced when no closed form applies (n-limit)")
    p.set_defaults(handler=cmd_asymptotics)

    p = sub.add_parser("table", parents=[common], help="regenerate a reference table")
    p.add_argument("--name", required=True, help="one of: " + ", ".join(TABLE_NAMES))
    p.set_defaults(handler=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc, exit_code = args.handler(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render(doc)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
