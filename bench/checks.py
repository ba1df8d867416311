"""Output checks: parse a waring report and compare it with reference values.

Each check returns a list of problems; an empty list means the output is
correct. Checks read columns by name and ignore columns and rows they do
not know, so a report may gain columns without failing. Where a planned
change may relabel rows (the asymptotics `kind` column), any correct value
is accepted under any label; only a bound row must say it is a bound.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

import reference as ref

_MD_CELL = re.compile(r"(?<!\\)\|")


def parse_report(text: str, fmt: str) -> list[dict[str, str]]:
    """Rows of a rendered report as dicts of column -> cell text."""
    if fmt == "json":
        return json.loads(text)["rows"]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    if fmt == "md":
        lines = [line for line in text.splitlines() if line.startswith("|")]
        if len(lines) < 2:
            raise ValueError("no markdown table found")
        split = [
            [c.strip().replace("\\|", "|") for c in _MD_CELL.split(line)[1:-1]]
            for line in lines
        ]
        header = split[0]
        return [dict(zip(header, cells)) for cells in split[2:]]
    raise ValueError(f"unknown format {fmt!r}")


def build_argv(spec: dict) -> list[str]:
    """CLI arguments for a command spec {'cmd', 'params', 'fmt'}."""
    argv = [spec["cmd"]]
    for key, value in spec["params"].items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv += [flag, str(value)]
    return argv + ["--format", spec["fmt"]]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _blocks(text: str) -> list[list[int]]:
    return [_ints(b) for b in text.split("|")]


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _check_monomial_row(row: dict, n: int, d: int, problems: list[str]) -> None:
    exps = _ints(row["witness"])
    _expect(problems, "degree", sum(exps), d)
    _expect(problems, "row d", row["d"], str(d))
    _expect(problems, "row n", row["n"], str(n))
    _expect(problems, "vars_used", row["vars_used"], str(sum(1 for e in exps if e > 0)))
    if sum(1 for e in exps if e > 0) > n:
        problems.append(f"witness {row['witness']} uses more than {n} variables")
    _expect(problems, "value", row["value"], str(ref.monomial_rank(exps)))


def _check_sum_row(row: dict, n: int, d: int, problems: list[str]) -> None:
    blocks = _blocks(row["witness"])
    for b in blocks:
        _expect(problems, "block degree", sum(b), d)
    used = sum(1 for b in blocks for e in b if e > 0)
    _expect(problems, "row n", row["n"], str(n))
    _expect(problems, "vars_used", row["vars_used"], str(used))
    if used > n:
        problems.append(f"witness {row['witness']} uses more than {n} variables")
    _expect(problems, "value", row["value"], str(sum(ref.monomial_rank(b) for b in blocks)))


def check_rank(p: dict, rows: list[dict]) -> list[str]:
    problems: list[str] = []
    if len(rows) != 1:
        return [f"expected 1 row, got {len(rows)}"]
    row = rows[0]
    if "monomial" in p:
        exps = _ints(p["monomial"])
        n = p.get("vars") or len(exps)
        _check_monomial_row(row, n, sum(exps), problems)
        _expect(problems, "witness", _ints(row["witness"]), sorted(e for e in exps if e > 0))
    else:
        blocks = _blocks(p["sum"])
        n = p.get("vars") or sum(len(b) for b in blocks)
        _check_sum_row(row, n, sum(blocks[0]), problems)
    return problems


def check_generic_rank(p: dict, rows: list[dict]) -> list[str]:
    if len(rows) != 1:
        return [f"expected 1 row, got {len(rows)}"]
    problems: list[str] = []
    _expect(problems, "generic rank", rows[0]["value"], str(ref.generic_rank(p["n"], p["d"])))
    return problems


def check_max_rank(p: dict, rows: list[dict]) -> list[str]:
    if len(rows) != 1:
        return [f"expected 1 row, got {len(rows)}"]
    problems: list[str] = []
    _check_monomial_row(rows[0], p["n"], p["d"], problems)
    _expect(problems, "r_max", rows[0]["value"], str(ref.r_max(p["n"], p["d"])))
    return problems


def check_max_rank_sum(p: dict, rows: list[dict]) -> list[str]:
    if len(rows) != 1:
        return [f"expected 1 row, got {len(rows)}"]
    problems: list[str] = []
    _check_sum_row(rows[0], p["n"], p["d"], problems)
    _expect(problems, "r_max_star", rows[0]["value"], str(ref.r_max_star(p["n"], p["d"])))
    return problems


def check_bounds(p: dict, rows: list[dict]) -> list[str]:
    want = ref.upper_bounds(p["n"], p["d"])
    want["generic"] = ref.generic_rank(p["n"], p["d"])
    got = {row["kind"]: row["value"] for row in rows}
    problems: list[str] = []
    for kind, value in want.items():
        _expect(problems, kind, got.get(kind), str(value))
    return problems


def check_enumerate(p: dict, rows: list[dict]) -> list[str]:
    n, d = p["n"], p["d"]
    if p.get("sums"):
        want = ref.coprime_sum_count(n, d, spanning=bool(p.get("spanning")))
    else:
        want = ref.partition_count(d, n)
    problems: list[str] = []
    _expect(problems, "row count", len(rows), want)
    seen = set()
    for row in rows:
        if p.get("sums"):
            _check_sum_row(row, n, d, problems)
            if p.get("spanning"):
                _expect(problems, "spanning vars_used", row["vars_used"], str(n))
        else:
            _check_monomial_row(row, n, d, problems)
        seen.add(row["witness"])
        if len(problems) > 5:
            break
    if not problems and len(seen) != len(rows):
        problems.append("duplicate witnesses")
    return problems


def _range(text: str | None) -> tuple[int, int] | None:
    if text is None:
        return None
    lo, hi = text.split(":")
    return int(lo), int(hi)


def check_verify(p: dict, rows: list[dict]) -> list[str]:
    """Summary rows against the reference count; exceptions only the known ones."""
    n_range, d_range = _range(p.get("n_range")), _range(p["d_range"])
    claim = p["claim"]
    summary = {row["kind"]: row["value"] for row in rows if row["kind"] not in ("violation", "expected_exception")}
    found = {
        (int(row["n"]), int(row["d"]), tuple(tuple(b) for b in _blocks(row["witness"])))
        for row in rows
        if row["kind"] == "expected_exception"
    }
    violations = [row for row in rows if row["kind"] == "violation"]
    want_found = set()
    if claim == "theorem-coprime" and n_range[0] <= 4 <= n_range[1] and d_range[0] <= 3 <= d_range[1]:
        want_found = {(4, 3, shapes) for shapes in ref.EXPECTED_COPRIME_SHAPES}
    problems: list[str] = []
    _expect(problems, "status", summary.get("status"),
            "pass_with_expected_exceptions" if want_found else "pass")
    _expect(problems, "checked_count", summary.get("checked_count"),
            str(ref.verify_checked_count(claim, n_range, d_range)))
    _expect(problems, "expected_exceptions_matched", summary.get("expected_exceptions_matched"), "true")
    _expect(problems, "expected exceptions", found, want_found)
    _expect(problems, "violations", len(violations), 0)
    return problems


def _check_ratio_row(row: dict, exact: Fraction, limit: Fraction, bound: Fraction | None,
                     problems: list[str]) -> None:
    ratio = Fraction(row["ratio"])
    if ratio != exact and not (bound is not None and ratio == bound and "bound" in row.get("kind", "")):
        problems.append(f"ratio at n={row['n']}, d={row['d']}: got {row['ratio']}, want {exact}")
    _expect(problems, "limit", Fraction(row["limit"]), limit)
    _expect(problems, "gap", Fraction(row["gap"]), abs(ratio - limit))


def check_asymptotics(p: dict, rows: list[dict]) -> list[str]:
    problems: list[str] = []
    if p["mode"] == "d-limit":
        n, ds = p["n"], _ints(p["d_samples"])
        _expect(problems, "rows", [int(r["d"]) for r in rows], ds)
        best = ref.r_max_star if p.get("which") == "coprime" else ref.r_max
        for row, d in zip(rows, ds):
            exact = Fraction(best(n, d), ref.generic_rank(n, d))
            _check_ratio_row(row, exact, ref.fixed_n_limit(n), None, problems)
    else:
        d, n_max = p["d"], p.get("n_max") or 100
        _expect(problems, "rows", [int(r["n"]) for r in rows], list(range(d, n_max + 1)))
        for row in rows:
            n = int(row["n"])
            gen = ref.generic_rank(n, d)
            bound = Fraction(n * 2 ** (d - 1), d * gen)
            _check_ratio_row(row, Fraction(ref.r_max_star(n, d), gen), Fraction(0), bound, problems)
    return problems


_TABLES = {
    # name -> sorted (n, d, value, generic_rank) per row
    "exceptional-44-53": sorted(
        [(4, 4, ref.monomial_rank(m), 10) for m in ref.partitions(4, 4)]
        + [(5, 3, ref.monomial_rank(m), 8) for m in ref.partitions(3, 5)]
    ),
    "coprime-43": [(4, 3, r, ref.generic_rank(4, 3)) for r in (4, 5, 5, 6)],
    "known-examples": sorted((n, d, r, ref.generic_rank(n, d)) for n, d, r in ((3, 3, 5), (3, 4, 7), (4, 3, 6))),
}


def check_table(p: dict, rows: list[dict]) -> list[str]:
    got = sorted((int(r["n"]), int(r["d"]), int(r["value"]), int(r["generic_rank"])) for r in rows)
    problems: list[str] = []
    _expect(problems, f"table {p['name']}", got, _TABLES[p["name"]])
    return problems


_CHECKS = {
    "rank": check_rank,
    "generic-rank": check_generic_rank,
    "max-rank": check_max_rank,
    "max-rank-sum": check_max_rank_sum,
    "bounds": check_bounds,
    "enumerate": check_enumerate,
    "verify": check_verify,
    "asymptotics": check_asymptotics,
    "table": check_table,
}


def check_output(spec: dict, text: str) -> list[str]:
    """Problems with one command's rendered output; [] when it is correct."""
    try:
        rows = parse_report(text, spec["fmt"])
        return _CHECKS[spec["cmd"]](spec["params"], rows)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
