import contextlib
import csv
import decimal
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from waring import cli
from waring import verify as vf
from waring.cli import main, parse_exponent_list, parse_range, parse_sum_spec
from waring import coprime_sums as cs
from waring import monomials as mono
from waring.coprime_sums import CoprimeSum, enumerate_coprime_sums, make_sum, sum_rank
from waring.errors import UsageError
from waring.monomials import Monomial, canonicalize, enumerate_monomials, r_max, waring_rank
from waring.rank_tables import generic_rank, upper_bounds
from waring import report
from waring.report import FORMATS, ReportDocument, approx12, fmt_exact, render, render_pieces
from fractions import Fraction


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Rows per rendered piece: one and two put a piece boundary between any two rows.
CHUNKS = (1, 2, report._CHUNK)


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args, "--format", "json", "--deterministic")
    assert err == ""
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# argument parsing helpers


def test_parse_exponent_list():
    assert parse_exponent_list("1,2,2") == [1, 2, 2]
    with pytest.raises(UsageError):
        parse_exponent_list("1,x")
    with pytest.raises(UsageError):
        parse_exponent_list("")


def test_parse_sum_spec():
    assert parse_sum_spec("1,2|1,2") == [[1, 2], [1, 2]]


def test_parse_range():
    assert parse_range("4:8") == (4, 8)
    assert parse_range("7") == (7, 7)
    with pytest.raises(UsageError):
        parse_range("4:8:9")
    with pytest.raises(UsageError):
        parse_range("a:b")


# ---------------------------------------------------------------------------
# rank and table commands


def test_rank_monomial(capsys):
    code, doc = run_json(capsys, "rank", "--monomial", "1,2,2")
    assert code == 0
    (row,) = doc["rows"]
    assert row["value"] == "9"
    assert row["label"] == "x1*x2^2*x3^2"
    assert row["n"] == "3" and row["d"] == "5"


def test_rank_sum(capsys):
    code, doc = run_json(capsys, "rank", "--sum", "1,2|1,2")
    assert code == 0
    (row,) = doc["rows"]
    assert row["value"] == "6"
    assert row["label"] == "x1*x2^2 + x3*x4^2"
    assert row["n"] == "4" and row["d"] == "3"


def test_rank_degenerate_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "rank", "--monomial", "0,0")
    assert code == 2
    assert "error" in err


def test_rank_respects_vars_flag(capsys):
    code, doc = run_json(capsys, "rank", "--monomial", "1,1,1", "--vars", "5")
    assert code == 0
    assert doc["rows"][0]["n"] == "5"
    assert doc["rows"][0]["value"] == "4"


def test_generic_rank_command(capsys):
    code, doc = run_json(capsys, "generic-rank", "--n", "4", "--d", "3")
    assert code == 0
    assert doc["rows"][0]["value"] == "5"


def test_max_rank_oracle(capsys):
    code, doc = run_json(capsys, "max-rank", "--n", "4", "--d", "4", "--oracle")
    assert code == 0
    (row,) = doc["rows"]
    assert row["value"] == "8"
    assert row["witness"] == "1,1,1,1"


def test_max_rank_sum_past_d_prints_the_oracles_witness(capsys):
    # n > d = 4, one past a block of 4: x1 and that block give way to blocks of 3 and 2.
    code, doc = run_json(capsys, "max-rank-sum", "--n", "5", "--d", "4")
    assert code == 0
    (row,) = doc["rows"]
    assert row["value"] == "10"
    assert row["witness"] == "1,1,2|1,3"


def test_max_rank_sum_oracle(capsys):
    code, doc = run_json(capsys, "max-rank-sum", "--n", "5", "--d", "4", "--oracle")
    assert code == 0
    (row,) = doc["rows"]
    assert row["value"] == "10"
    assert row["witness"] == "1,1,2|1,3"


def test_bounds_command(capsys):
    code, doc = run_json(capsys, "bounds", "--n", "3", "--d", "4")
    assert code == 0
    by_kind = {row["kind"]: row["value"] for row in doc["rows"]}
    assert by_kind["jelisiejew_bound"] == "9"
    assert by_kind["ballico_deparis_bound"] == "8"
    assert by_kind["blekherman_bound"] == "12"
    assert by_kind["generic"] == "6"
    assert "gap_ratio_heuristic" in by_kind


@pytest.mark.parametrize("fmt", FORMATS)
def test_bounds_beyond_float_range_exits_zero(capsys, fmt):
    # The span bound at (1000, 1000) is about 1e+600, past any float.
    code, out, err = run_cli(capsys, "bounds", "--n", "1000", "--d", "1000", "--format", fmt, "--deterministic")
    assert (code, err) == (0, "")
    assert "1.02407581349e+600" in out


def test_enumerate_monomials_command(capsys):
    code, doc = run_json(capsys, "enumerate", "--n", "4", "--d", "4")
    assert code == 0
    assert [row["witness"] for row in doc["rows"]] == [
        "4",
        "1,3",
        "2,2",
        "1,1,2",
        "1,1,1,1",
    ]


def test_enumerate_sums_spanning(capsys):
    code, doc = run_json(
        capsys, "enumerate", "--n", "4", "--d", "3", "--sums", "--spanning"
    )
    assert code == 0
    assert len(doc["rows"]) == 4
    assert sorted(int(row["value"]) for row in doc["rows"]) == [4, 5, 5, 6]


def test_enumerate_spanning_without_sums_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--n", "4", "--d", "3", "--spanning")
    assert code == 2


def handler_rows(*argv):
    """The rows a subcommand's handler builds, before rendering, keyed by column."""
    args = cli.build_parser().parse_args(list(argv))
    doc, code = args.handler(args)
    assert code == 0
    return [dict(zip(doc.columns, row)) for row in doc.rows]


def enumerate_argv(n, d, sums, spanning):
    argv = ["enumerate", "--n", str(n), "--d", str(d)]
    return argv + ["--sums"] * sums + ["--spanning"] * spanning


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    d=st.integers(1, 9),
    sums=st.booleans(),
    spanning=st.booleans(),
)
def test_enumerate_rows_equal_object_rows(n, d, sums, spanning):
    # The expected rows come from the public object API only, so they stay
    # an independent reference for the exponent-tuple row builders.
    spanning = spanning and sums
    if sums:
        expected = [
            {
                "n": str(f.ambient_vars),
                "d": str(f.degree),
                "vars_used": str(f.vars_used),
                "kind": "coprime_sum",
                "value": str(sum_rank(f)),
                "witness": "|".join(",".join(map(str, b.exponents)) for b in f.blocks),
                "label": f.label(),
            }
            for f in enumerate_coprime_sums(n, d, spanning=spanning)
        ]
    else:
        expected = [
            {
                "n": str(m.ambient_vars),
                "d": str(m.degree),
                "vars_used": str(m.nvars),
                "kind": "monomial",
                "value": str(waring_rank(m)),
                "witness": ",".join(map(str, m.exponents)),
                "label": m.label(),
            }
            for m in enumerate_monomials(n, d)
        ]
    assert handler_rows(*enumerate_argv(n, d, sums, spanning)) == expected


@pytest.mark.parametrize("sums, spanning", [(False, False), (True, False), (True, True)])
def test_cell_rows_count_is_the_rows_it_yields(sums, spanning):
    # Every cell in 1..8 variables and degrees, not only the golden ones:
    # the count from the recurrences is the walk's row count, and each row
    # uses at most n variables (exactly n when spanning).
    vars_used = cli.RANK_COLUMNS.index("vars_used")
    for n in range(1, 9):
        for d in range(1, 9):
            rows = cli._cell_rows(n, d, sums, spanning)
            count = len(rows)
            used = [int(row[vars_used]) for row in rows]
            assert len(used) == count, (n, d)
            assert all(u == n if spanning else 1 <= u <= n for u in used), (n, d)


@pytest.mark.parametrize("sums", [False, True])
def test_enumerate_builds_no_object_per_row(monkeypatch, sums):
    # enumerate rows come from raw partitions and block-index multisets:
    # at most the block pool is built, never one object per row. Both the
    # checked and the trusted route bind fields with _set, so it counts each.
    pool_size = len(cs._block_pool(8, 8))
    built = {Monomial: 0, CoprimeSum: 0}
    for cls in built:
        def counting_set(self, *values, _cls=cls, _set=cls._set):
            built[_cls] += 1
            _set(self, *values)

        monkeypatch.setattr(cls, "_set", counting_set)
    rows = handler_rows(*enumerate_argv(8, 8, sums, False))
    assert len(rows) == (764 if sums else 22)
    assert built[CoprimeSum] == 0
    assert built[Monomial] <= (pool_size if sums else 0)


def test_enumerate_spanning_groups_completions_under_their_prefix(monkeypatch):
    # The spanning sums are the grouped block walk over an exact-usage
    # table: a prefix's text is made once for all of its spanning completions.
    recorded = []
    sum_rows = cli._sum_rows

    def recording_sum_rows(n, d, kind, pool, groups):
        recorded.extend(groups)
        return sum_rows(n, d, kind, pool, recorded)

    monkeypatch.setattr(cli, "_sum_rows", recording_sum_rows)
    rows = handler_rows(*enumerate_argv(10, 12, True, True))
    assert len(rows) == 11_068 == sum(len(group[3]) for group in recorded)
    assert len(recorded) < len(rows)
    assert all(group[3] for group in recorded)


@pytest.mark.parametrize(
    "argv, first_vars, n, value, label_end",
    [
        (["max-rank-sum", "--n", "20000", "--d", "2"], list(range(1, 20000, 2)), "20000", "20000", "x19999*x20000"),
        (["rank", "--sum", "1,1", "--vars", "10000000"], [1], "10000000", "2", "x1*x2"),
    ],
    ids=["max-rank-sum", "rank-sum"],
)
def test_object_row_labels_each_block_once(monkeypatch, argv, first_vars, n, value, label_end):
    # One object's row labels each block once, at its own first variable:
    # many ambient variables or repeated blocks cost no extra labels.
    calls = []
    label = Monomial.label

    def counting_label(self, first_var=1):
        calls.append(first_var)
        # Stop at the first extra label, before a per-offset table can grow.
        assert len(calls) <= len(first_vars), "labelled a block at an offset no row shows"
        return label(self, first_var)

    monkeypatch.setattr(Monomial, "label", counting_label)
    (row,) = handler_rows(*argv)
    assert calls == first_vars
    assert (row["n"], row["value"]) == (n, value)
    assert row["label"].endswith(label_end)


@pytest.mark.parametrize(
    "argv, most",
    [
        (["enumerate", "--n", "10", "--d", "40"], 10 * 40),
        (["rank", "--monomial", "1,1000000", "--vars", "1000000"], 2),
    ],
    ids=["enumerate", "rank"],
)
def test_monomial_rows_label_each_piece_once(monkeypatch, argv, most):
    # Monomial rows spell labels from pieces made once per variable and
    # exponent that some row shows: no table sized by n or d is built.
    calls = []
    label = mono.monomial_label

    def counting_label(exponents, first_var=1):
        calls.append((first_var, *exponents))
        # Stop at the first extra piece, before a sized table can grow.
        assert len(calls) <= most, "made more label pieces than the bound"
        return label(exponents, first_var)

    monkeypatch.setattr(mono, "monomial_label", counting_label)
    rows = handler_rows(*argv)
    witnesses = [tuple(map(int, row["witness"].split(","))) for row in rows]
    shown = {(var, e) for exponents in witnesses for var, e in enumerate(exponents, 1)}
    assert len(set(calls)) == len(calls)
    assert set(calls) <= shown
    assert [row["label"] for row in rows] == [label(exponents) for exponents in witnesses]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    d=st.integers(1, 6),
    sums=st.booleans(),
    spanning=st.booleans(),
)
# Beyond the tail tables: monomials whose prefixes of one to three parts
# join tabled completions, and sums in more than six variables, whose
# prefixes do too (with --spanning, only the completions on all n variables).
@example(n=3, d=14, sums=False, spanning=False)
@example(n=5, d=13, sums=False, spanning=False)
@example(n=2, d=25, sums=False, spanning=False)
@example(n=9, d=3, sums=True, spanning=False)
@example(n=9, d=3, sums=True, spanning=True)
@example(n=8, d=4, sums=True, spanning=False)
def test_enumerate_witnesses_round_trip_through_rank(n, d, sums, spanning):
    spanning = spanning and sums
    flag = "--sum" if sums else "--monomial"
    for row in handler_rows(*enumerate_argv(n, d, sums, spanning)):
        # The same value, vars_used and label, and the same n, d and witness.
        (ranked,) = handler_rows("rank", flag, row["witness"], "--vars", str(n))
        assert ranked == row


def test_table_exceptional(capsys):
    code, doc = run_json(capsys, "table", "--name", "exceptional-44-53")
    assert code == 0
    rows = doc["rows"]
    assert len(rows) == 8
    assert [r["value"] for r in rows] == ["8", "6", "4", "3", "1", "4", "3", "1"]
    assert {r["generic_rank"] for r in rows[:5]} == {"10"}
    assert {r["generic_rank"] for r in rows[5:]} == {"8"}


def test_table_coprime_43(capsys):
    code, doc = run_json(capsys, "table", "--name", "coprime-43")
    assert code == 0
    assert [r["value"] for r in doc["rows"]] == ["4", "5", "5", "6"]


@pytest.mark.parametrize(
    "name, cells, descending",
    [
        ("exceptional-44-53", [("4", "4"), ("5", "3")], True),
        ("coprime-43", [("4", "3", "--sums", "--spanning")], False),  # two sums tie at rank 5
    ],
)
def test_table_rows_are_the_enumerate_rows_stably_sorted_by_rank(capsys, name, cells, descending):
    keys = ("n", "d", "kind", "witness", "label", "value")
    expected = []
    for n, d, *flags in cells:
        _, doc = run_json(capsys, "enumerate", "--n", n, "--d", d, *flags)
        ranked = sorted(doc["rows"], key=lambda row: int(row["value"]), reverse=descending)
        expected += [[row[key] for key in keys] for row in ranked]
    code, doc = run_json(capsys, "table", "--name", name)
    assert code == 0
    assert [[row[key] for key in keys] for row in doc["rows"]] == expected


def test_table_known_examples(capsys):
    code, doc = run_json(capsys, "table", "--name", "known-examples")
    assert code == 0
    assert len(doc["rows"]) == 3


def test_table_unknown_name(capsys):
    code, out, err = run_cli(capsys, "table", "--name", "nope")
    assert code == 2


# ---------------------------------------------------------------------------
# verify command and exit codes


def test_verify_theorem_coprime_exit_zero(capsys):
    code, doc = run_json(
        capsys, "verify", "--claim", "theorem-coprime",
        "--n-range", "4:6", "--d-range", "3:8",
    )
    assert code == 0
    by_kind = {}
    for row in doc["rows"]:
        by_kind.setdefault(row["kind"], []).append(row)
    assert by_kind["status"][0]["value"] == "pass_with_expected_exceptions"
    assert len(by_kind["expected_exception"]) == 3
    assert "violation" not in by_kind


def test_verify_lemma_slope_exit_zero(capsys):
    code, doc = run_json(capsys, "verify", "--claim", "lemma-slope", "--d-range", "4:30")
    assert code == 0
    status = next(r for r in doc["rows"] if r["kind"] == "status")
    assert status["value"] == "pass"


def test_verify_precondition_violation_exits_two(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--claim", "theorem-monomial",
        "--n-range", "3:5", "--d-range", "2:10",
    )
    assert code == 2


def test_verify_unknown_claim_exits_two(capsys):
    code, out, err = run_cli(capsys, "verify", "--claim", "theorem-unknown")
    assert code == 2


def test_verify_malformed_range_exits_two(capsys):
    # An empty range is malformed too, not a request for the default grid.
    for flag in ("--n-range", "--d-range"):
        for text in ("four:five", ""):
            code, out, err = run_cli(capsys, "verify", "--claim", "theorem-monomial", flag, text)
            assert code == 2
            assert err == f"error: malformed range {text!r}; expected a:b\n"


def test_verify_unknown_claim_is_named_before_a_malformed_range(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--claim", "theorem-unknown", "--n-range", "four:five"
    )
    assert code == 2
    assert err.startswith("error: unknown claim 'theorem-unknown'")


def test_verify_lemma_slope_names_a_stray_n_range_before_parsing_it(capsys):
    for text in ("4:x", ""):
        code, out, err = run_cli(capsys, "verify", "--claim", "lemma-slope", "--n-range", text)
        assert code == 2
        assert err == "error: lemma-slope ranges over n internally; pass only --d-range\n"


# The README's default grids, pinned literally.
DEFAULT_GRIDS = {
    "theorem-monomial": ("4:8", "2:20"),
    "theorem-coprime": ("4:8", "3:10"),
    "lemma-slope": ("", "4:20"),
    "ineq-agm": ("4:8", "2:20"),
    "ineq-pure-power": ("4:14", "4:14"),
}


def test_verify_defaults_run_clean(capsys):
    assert set(DEFAULT_GRIDS) == set(vf.CLAIM_IDS)
    for claim, (n_range, d_range) in DEFAULT_GRIDS.items():
        code, doc = run_json(capsys, "verify", "--claim", claim)
        assert code == 0, claim
        assert doc["parameters"]["n_range"] == n_range
        assert doc["parameters"]["d_range"] == d_range
        assert not any(row["kind"] == "violation" for row in doc["rows"])


def test_verify_unexpected_counterexample_exits_one(capsys, monkeypatch):
    def fake_columns(columns):
        # One unexpected counterexample, in the first cell only.
        return [[(1, [vf.Violation(n, d, None, 1, 2)] if (n, d) == (2, 4) else []) for n in ns] for d, ns in columns]

    old = vf.CLAIMS["lemma-slope"]
    claim = vf.Claim(fake_columns, old.min_n, old.min_d, old.default_n, old.default_d)
    monkeypatch.setitem(vf.CLAIMS, "lemma-slope", claim)
    code, out, err = run_cli(
        capsys, "verify", "--claim", "lemma-slope", "--deterministic"
    )
    assert code == 1
    assert "violation" in out


@pytest.mark.parametrize("claim_id", vf.CLAIM_IDS)
def test_verify_prints_the_same_on_one_and_two_threads(capsys, monkeypatch, claim_id):
    # Two CPUs on any host: --threads 2 starts no process and changes no output.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    claim = vf.CLAIMS[claim_id]
    args = ["verify", "--claim", claim_id, "--d-range", f"{claim.min_d}:{claim.min_d + 2}"]
    if claim.default_n is not None:
        args += ["--n-range", f"{claim.min_n}:{claim.min_n + 2}"]
    solo = run_cli(capsys, *args, "--threads", "1", "--deterministic")
    code, out, err = run_cli(capsys, *args, "--threads", "2", "--deterministic")
    # The parameters line echoes the requested count; nothing else may differ.
    assert out.count("threads=2") == 1
    assert (code, out.replace("threads=2", "threads=1"), err) == solo


def test_verify_threads_echo_requested_count(capsys):
    code, doc = run_json(
        capsys, "verify", "--claim", "theorem-monomial",
        "--n-range", "4:4", "--d-range", "2:2", "--threads", "64",
    )
    assert code == 0
    assert doc["parameters"]["threads"] == "64"


@pytest.mark.parametrize("value", ["0", "-3"])
def test_threads_below_one_is_usage_error(capsys, value):
    code, out, err = run_cli(capsys, "verify", "--claim", "ineq-agm", "--threads", value)
    assert code == 2
    assert out == ""
    assert "--threads" in err


def test_threads_not_an_int_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--claim", "ineq-agm", "--threads", "x")
    assert (code, out) == (2, "")
    assert err.endswith("waring verify: error: argument --threads: invalid int value: 'x'\n")


def test_verify_reports_elapsed_ms_unless_deterministic(capsys):
    args = ("verify", "--claim", "theorem-monomial", "--n-range", "4:4", "--d-range", "2:3", "--format", "json")
    code, out, err = run_cli(capsys, *args)
    summary = {row["kind"]: row["value"] for row in json.loads(out)["rows"]}
    assert (code, err) == (0, "")
    assert list(summary) == ["status", "checked_count", "expected_exceptions_matched", "elapsed_ms"]
    assert summary["elapsed_ms"].isdigit()
    _, doc = run_json(capsys, *args[:-2])
    assert "elapsed_ms" not in {row["kind"] for row in doc["rows"]}


def test_threads_only_on_verify(capsys):
    code, out, err = run_cli(capsys, "rank", "--monomial", "1,2", "--threads", "2")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --threads 2" in err


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.md"
    code, out, err = run_cli(capsys, "rank", "--monomial", "1,2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert not target.exists()


# ---------------------------------------------------------------------------
# asymptotics command


def test_asymptotics_d_limit(capsys):
    code, doc = run_json(
        capsys, "asymptotics", "--mode", "d-limit", "--n", "4",
        "--d-samples", "10,100,1000",
    )
    assert code == 0
    assert {row["limit"] for row in doc["rows"]} == {"8/9"}
    assert [row["d"] for row in doc["rows"]] == ["10", "100", "1000"]


def test_asymptotics_gap_below_float_range_prints_its_digits(capsys):
    code, doc = run_json(capsys, "asymptotics", "--mode", "d-limit", "--n", "4", "--d-samples", "1" + "0" * 400)
    assert code == 0
    [row] = doc["rows"]
    assert Fraction(row["gap"]) > 0 and row["gap_approx"] == "8.88888888889e-801"


def test_asymptotics_d_limit_n3(capsys):
    code, doc = run_json(
        capsys, "asymptotics", "--mode", "d-limit", "--n", "3", "--d-samples", "5,50"
    )
    assert code == 0
    assert {row["limit"] for row in doc["rows"]} == {"3/2"}


def test_asymptotics_n_limit(capsys):
    code, doc = run_json(
        capsys, "asymptotics", "--mode", "n-limit", "--d", "3", "--n-max", "100"
    )
    assert code == 0
    assert doc["rows"][-1]["ratio"] == "150/1717"


def test_asymptotics_bad_mode_exits_two(capsys):
    code, out, err = run_cli(capsys, "asymptotics", "--mode", "sideways")
    assert code == 2


def test_asymptotics_missing_n_exits_two(capsys):
    code, out, err = run_cli(capsys, "asymptotics", "--mode", "d-limit")
    assert code == 2


def test_asymptotics_missing_d_exits_two(capsys):
    code, out, err = run_cli(capsys, "asymptotics", "--mode", "n-limit")
    assert (code, out, err) == (2, "", "error: --mode n-limit requires --d\n")


@pytest.mark.parametrize(
    "mode, flag, value",
    [
        ("d-limit", "--d", "7"),
        ("d-limit", "--n-max", "3"),
        ("n-limit", "--n", "9"),
        ("n-limit", "--d-samples", "10"),
        ("n-limit", "--which", "monomial"),
    ],
)
def test_asymptotics_rejects_a_flag_its_mode_does_not_read(capsys, mode, flag, value):
    cell = ["--n", "4"] if mode == "d-limit" else ["--d", "4"]
    code, out, err = run_cli(capsys, "asymptotics", "--mode", mode, *cell, flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: --mode {mode} does not read {flag}\n"


def test_asymptotics_defaults_are_those_of_the_mode_that_reads_them(capsys):
    code, doc = run_json(capsys, "asymptotics", "--mode", "d-limit", "--n", "4")
    assert (code, doc["parameters"]["d_samples"], doc["parameters"]["which"]) == (0, "10,100,1000", "monomial")
    code, doc = run_json(capsys, "asymptotics", "--mode", "n-limit", "--d", "4")
    assert (code, doc["parameters"]["n_max"]) == (0, "100")


# ---------------------------------------------------------------------------
# output formats, determinism, round trips


def test_deterministic_runs_byte_identical(capsys):
    args = ("enumerate", "--n", "4", "--d", "4", "--format", "json", "--deterministic")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "generated_at" not in out1


def test_timestamp_present_without_deterministic(capsys):
    code, out, err = run_cli(capsys, "generic-rank", "--n", "3", "--d", "3")
    assert code == 0
    assert "generated_at" in out


def test_json_round_trip_monomials(capsys):
    _, doc = run_json(capsys, "enumerate", "--n", "5", "--d", "6")
    for row in doc["rows"]:
        m = canonicalize(parse_exponent_list(row["witness"]), int(row["n"]))
        assert waring_rank(m) == int(row["value"])
        assert m.degree == int(row["d"])


def test_json_round_trip_sums(capsys):
    _, doc = run_json(capsys, "enumerate", "--n", "6", "--d", "4", "--sums")
    assert doc["rows"]
    for row in doc["rows"]:
        f = make_sum(parse_sum_spec(row["witness"]), int(row["n"]))
        assert sum_rank(f) == int(row["value"])
        assert f.degree == int(row["d"])


def test_csv_output_parses(capsys):
    code, out, err = run_cli(
        capsys, "table", "--name", "coprime-43", "--format", "csv", "--deterministic"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:3] == ["n", "d", "kind"]
    assert len(rows) == 5  # header + four sums
    witness_col = rows[0].index("witness")
    assert rows[1][witness_col] == "3|3|3|3"


def test_markdown_escapes_pipes(capsys, monkeypatch):
    for chunk in CHUNKS:
        monkeypatch.setattr(report, "_CHUNK", chunk)
        code, out, err = run_cli(capsys, "table", "--name", "coprime-43", "--deterministic")
        assert code == 0
        assert "3\\|3\\|3\\|3" in out


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    args = (
        "table", "--name", "known-examples", "--format", "json",
        "--deterministic", "--out", str(target),
    )
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    assert out == ""
    on_disk = target.read_text(encoding="utf-8")
    code, stdout_copy, _ = run_cli(
        capsys, "table", "--name", "known-examples", "--format", "json",
        "--deterministic",
    )
    assert on_disk == stdout_copy


@pytest.mark.parametrize(
    "argv",
    [("enumerate", "--n", "0", "--d", "3"), ("enumerate", "--spanning", "--n", "4", "--d", "3")],
)
def test_usage_error_leaves_out_file_as_it_was(tmp_path, capsys, argv):
    # Output is written as it is rendered, so every check must come first.
    target = tmp_path / "report.md"
    target.write_text("keep")
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert target.read_text() == "keep"


@pytest.mark.parametrize("fmt, bound", [("csv", 3_000_000), ("json", 3_000_000), ("md", 9_000_000)])
def test_enumerate_dump_memory_does_not_hold_the_whole_text(tmp_path, fmt, bound):
    # 16,928 rows; their text is 1.4 MB in csv, 3.6 MB in json and 2.1 MB
    # in md. Holding every row, then the whole text and its bytes, the
    # traced peaks were 8.9, 17.5 and 13.3 MB. Markdown still holds its
    # rows, to pad its columns, so its bound is looser.
    argv = ["enumerate", "--n", "10", "--d", "40", "--format", fmt, "--out", str(tmp_path / "dump")]
    assert main(argv) == 0  # fills the caches the walk shares across calls
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, peak


def test_unwritable_out_exits_two(tmp_path, capsys):
    code, out, err = run_cli(capsys, "rank", "--monomial", "1,2", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --out: [Errno 21] Is a directory")


def _cli_process(*args: str, stdout, unbuffered: str) -> subprocess.Popen:
    """waring with args in a fresh interpreter, its stderr piped as text;
    unbuffered is PYTHONUNBUFFERED, which "" turns off."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.Popen(
        [sys.executable, "-m", "waring.cli", *args],
        env={**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered},
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_full_stdout_exits_two_with_one_error_line(unbuffered):
    with open("/dev/full", "w") as full:
        proc = _cli_process("rank", "--monomial", "1,2", stdout=full, unbuffered=unbuffered)
        _, err = proc.communicate(timeout=60)  # reads stderr to the end and closes it
    assert proc.returncode == 2
    assert err == "error: cannot write stdout: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_pipe_exits_two_with_one_error_line(unbuffered):
    # About 2 MB of rows: far more than a pipe buffers once its reader is
    # gone. Unbuffered, the closed pipe cuts the raw write short instead.
    args = ("enumerate", "--n", "10", "--d", "40")
    proc = _cli_process(*args, stdout=subprocess.PIPE, unbuffered=unbuffered)
    assert proc.stdout.readline() == "# enumerate\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == "error: cannot write stdout: [Errno 32] Broken pipe\n"


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == 2


def values(valid, *invalid):
    return valid | st.sampled_from(invalid)


def joined(items, sep, most):
    return st.lists(items, min_size=1, max_size=most).map(sep.join)


# A small argv grammar: every subcommand and flag, with valid and invalid
# values, n and d at most 6 wherever a command walks its objects. An invalid
# value is one that does not parse or lies outside an operation's domain.
small_int = values(st.integers(1, 6).map(str), "-1", "0", "x", "")
# Degrees whose values pass float range (approx12's exact path) and Python's
# default limit of 4300 digits, and in 30 variables the digit budget
# (29 * 3500 digits), each computed in well under a second. The flags
# themselves parse under the digit budget, so 4300 digits bound none of them.
big_d = small_int | st.sampled_from(["1000", "1" + "0" * 200, "1" + "0" * 3500])
BIG_CELL = {"--n": small_int | st.just("30"), "--d": big_d}
exponent_list = values(joined(st.integers(0, 6).map(str), ",", 4), "1,x", "", ",")
ordered_pair = st.lists(st.integers(2, 6), min_size=2, max_size=2).map(lambda pair: "%d:%d" % tuple(sorted(pair)))
small_range = values(ordered_pair, "6:4", "5", "x", "1:2:3")
NONE = st.none()  # a flag without a value
CELL = {"--n": small_int, "--d": small_int}
# Per command form: its leading words, then its required and its optional flags.
GRAMMAR = [
    (["rank"], {"--monomial": exponent_list}, {"--vars": small_int}),
    (["rank"], {"--sum": joined(exponent_list, "|", 3)}, {"--vars": small_int}),
    (["generic-rank"], BIG_CELL, {}),
    (["max-rank"], CELL, {"--oracle": NONE}),
    (["max-rank"], BIG_CELL, {}),
    (["max-rank-sum"], CELL, {"--oracle": NONE}),
    (["max-rank-sum"], BIG_CELL, {}),
    (["bounds"], BIG_CELL, {}),
    (["enumerate"], CELL, {"--sums": NONE, "--spanning": NONE}),
    (
        ["verify"],
        {"--claim": st.sampled_from([*vf.CLAIM_IDS, "theorem-none"])},
        {
            "--threads": values(st.sampled_from(["1", "2"]), "0", "x"),
            "--n-range": small_range,
            "--d-range": small_range,
        },
    ),
    (
        ["asymptotics", "--mode", "d-limit"],
        {"--n": small_int},
        {
            "--d-samples": joined(big_d, ",", 3),
            "--which": values(st.sampled_from(["monomial", "coprime"]), "other"),
        },
    ),
    (["asymptotics", "--mode", "n-limit"], {"--d": small_int}, {"--n-max": small_int | st.just("1000")}),
    (["asymptotics", "--mode", "x-limit"], {}, {"--n": small_int, "--d": small_int}),
    (["table"], {"--name": st.sampled_from([*cli.TABLE_NAMES, "no-such-table"])}, {}),
    (["no-such-command"], {}, {}),
]
COMMON = {
    "--format": st.sampled_from(["md", "csv", "json", "xml"]),
    "--out": st.sampled_from(["file", "directory"]),
    "--deterministic": NONE,
}
RARE = {"--help": NONE, "--no-such-flag": NONE}


@st.composite
def cli_argvs(draw):
    words, required, optional = draw(st.sampled_from(GRAMMAR))
    flags = {**required, **optional, **COMMON, **RARE}
    # Odds in six of drawing each flag, so that most argvs get past the parser.
    odds = {**dict.fromkeys(flags, 3), **dict.fromkeys(required, 5), **dict.fromkeys(RARE, 1)}
    chosen = [flag for flag in flags if draw(st.integers(0, 5)) < odds[flag]]
    argv = list(words)
    for flag in draw(st.permutations(chosen)):
        value = draw(flags[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


def run_in_process(argv, out_dir):
    """main(argv), its --out value made a path in out_dir: (code, stdout, stderr, text written to --out)."""
    target = out_dir / "report"
    paths = {"file": str(target), "directory": str(out_dir)}
    argv = [paths[arg] if prev == "--out" else arg for prev, arg in zip(["", *argv], argv)]
    if target.exists():
        target.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), target.read_text() if target.exists() else None


def assert_renderings_agree(argv, out_dir):
    """argv's csv and json outputs parse back to the same rows, and its md table has as many."""
    argv = [arg for prev, arg in zip(["", *argv], argv) if "--format" not in (prev, arg)]
    texts = {}
    for fmt in FORMATS:
        code, out, err, written = run_in_process([*argv, "--format", fmt, "--deterministic"], out_dir)
        assert code == 0, (argv, fmt, err)
        texts[fmt] = out if written is None else written
    columns, *rows = csv.reader(io.StringIO(texts["csv"]))
    doc = json.loads(texts["json"])
    assert doc["columns"] == columns, argv
    assert [tuple(row[col] for col in columns) for row in doc["rows"]] == list(map(tuple, rows)), argv
    table = [line for line in texts["md"].splitlines() if line.startswith("|")]
    assert len(table) == 2 + len(rows), argv  # the header and its rule, then one line per row


@settings(max_examples=150, deadline=None)
@given(argv=cli_argvs())
@example(argv=["verify", "--claim", "theorem-coprime", "--n-range", "4:5", "--d-range", "3:4", "--deterministic"])
@example(argv=["rank", "--monomial", "0,0", "--deterministic"])
@example(argv=["asymptotics", "--mode", "n-limit", "--d", "3", "--n-max", "2"])
@example(argv=["enumerate", "--n", "3", "--d", "3", "--out", "directory"])
@example(argv=["bounds", "--n", "1000", "--d", "1000", "--deterministic"])
@example(argv=["max-rank", "--n", "30", "--d", "1" + "0" * 200, "--deterministic"])
@example(argv=["generic-rank", "--n", "30", "--d", "1" + "0" * 3500, "--deterministic"])
def test_cli_contract_on_any_small_argv(argv):
    limit = sys.get_int_max_str_digits()
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err, written = run_in_process(argv, Path(tmp))
        assert sys.get_int_max_str_digits() == limit, argv
        assert code in (0, 1, 2), argv
        assert code != 1 or argv[0] == "verify", argv
        assert "Traceback" not in err, argv
        if code == 2:
            lines = err.splitlines()
            assert lines and [line for line in lines if "error:" in line] == lines[-1:], argv
        if "--deterministic" in argv:
            assert run_in_process(argv, Path(tmp)) == (code, out, err, written), argv
        if code == 0 and "--help" not in argv:
            assert_renderings_agree(argv, Path(tmp))


# ---------------------------------------------------------------------------
# report document primitives


VERIFY_HELP = """\
usage: waring verify [-h] [--format {md,csv,json}] [--out FILE]
                     [--deterministic] [--threads THREADS] --claim CLAIM
                     [--n-range N_RANGE] [--d-range D_RANGE]

options:
  -h, --help            show this help message and exit
  --format {md,csv,json}
                        output format
  --out FILE            write to FILE instead of stdout
  --deterministic       omit timestamps and timings so identical runs are
                        byte-identical
  --threads THREADS     at least 1; echoed in the report, and the output is
                        the same for any value (verify starts no process)
  --claim CLAIM         one of: theorem-monomial, theorem-coprime, lemma-
                        slope, ineq-agm, ineq-pure-power
  --n-range N_RANGE     inclusive a:b
  --d-range D_RANGE     inclusive a:b
"""


def test_verify_help_is_pinned_and_names_every_claim(capsys, monkeypatch):
    # argparse wraps help to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, "verify", "--help")
    assert (code, out, err) == (0, VERIFY_HELP, "")
    # Unwrap: argparse breaks lines after a hyphen.
    flat = " ".join(out.split()).replace("- ", "-")
    assert "--claim CLAIM one of: " + ", ".join(vf.CLAIM_IDS) + " --n-range" in flat


def exact_text(value):
    """str(value), past the interpreter's limit on digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv, values",
    [
        (["generic-rank", "--n", "8000", "--d", "8000"], lambda: [generic_rank(8000, 8000)]),
        (["bounds", "--n", "8000", "--d", "8000"], lambda: [r.value for r in upper_bounds(8000, 8000)]),
        (["max-rank", "--n", "20000", "--d", "200000"], lambda: [r_max(20000, 200000)]),
    ],
)
def test_values_past_the_default_digit_limit_print_exactly(capsys, argv, values):
    limit = sys.get_int_max_str_digits()
    code, doc = run_json(capsys, *argv)
    assert code == 0 and sys.get_int_max_str_digits() == limit
    texts = [exact_text(value) for value in values()]
    assert max(map(len, texts)) > limit
    assert [row["value"] for row in doc["rows"]][: len(texts)] == texts


def test_an_int_flag_past_the_default_digit_limit_parses_within_the_budget(capsys):
    limit = sys.get_int_max_str_digits()
    d = "1" + "0" * 5000
    code, doc = run_json(capsys, "generic-rank", "--n", "1", "--d", d)
    assert code == 0 and sys.get_int_max_str_digits() == limit
    assert [row["d"] for row in doc["rows"]] == [d]
    # Past the budget the flag is still rejected, and the limit is restored after argparse's exit.
    code, out, err = run_cli(capsys, "generic-rank", "--n", "1", "--d", "1" + "0" * report.DIGIT_BUDGET)
    assert (code, out) == (2, "") and "argument --d: invalid int value" in err
    assert sys.get_int_max_str_digits() == limit


def test_a_value_over_the_digit_budget_exits_two_naming_its_digits(capsys):
    limit = sys.get_int_max_str_digits()
    value = generic_rank(30, 10**3500)
    digits = value.bit_length() * 30103 // 100000 + 1
    assert digits > report.DIGIT_BUDGET
    code, out, err = run_cli(capsys, "generic-rank", "--n", "30", "--d", "1" + "0" * 3500)
    assert (code, out) == (2, "")
    assert err == f"error: an exact value of about {digits} digits is over the output budget of 100000 digits\n"
    assert sys.get_int_max_str_digits() == limit


@settings(max_examples=100, deadline=None)
@given(
    value=st.integers(1, 10**4000)
    | st.integers(0, 4000).map(lambda k: 10**k)  # the smallest with k + 1 digits
    | st.integers(1, 4000).map(lambda k: 10**k - 1)  # the largest with k digits
)
def test_predicted_digits_are_the_true_count_or_one_more(value):
    digits = len(str(value))
    for budget, rejected in ((digits - 1, True), (digits + 1, False)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(report, "DIGIT_BUDGET", budget)
            try:
                report.check_digits(Fraction(1, value) if value % 2 else value)
            except ValueError:
                assert rejected, (value, budget)
            else:
                assert not rejected, (value, budget)


def test_fmt_exact_and_approx():
    assert fmt_exact(1717) == "1717"
    assert fmt_exact(Fraction(150, 1717)) == "150/1717"
    assert fmt_exact(Fraction(8, 2)) == "4"
    assert approx12(Fraction(1, 3)) == "0.333333333333"


@settings(max_examples=200, deadline=None)
@given(
    value=st.integers(2**1024, 10**700) | st.builds(Fraction, st.integers(10**400, 10**700), st.integers(1, 10**80)),
    sign=st.sampled_from([1, -1]),
)
@example(value=10**400 - 1, sign=1)  # rounds up to the next power of ten
@example(value=1234567890125 * 10**300, sign=1)  # a tie, rounded to the even digit
@example(value=7**500, sign=-1)
@example(value=10**400, sign=1)  # the exponent estimate is the true exponent
@example(value=Fraction(10**401 - 1, 10), sign=1)  # the estimate is one more than the true exponent
def test_approx12_beyond_float_range_rounds_the_exact_value(value, sign):
    text = approx12(sign * value)
    mantissa, exponent = text.lstrip("-").split("e+")
    digits = mantissa.replace(".", "")
    assert text.startswith("-") == (sign < 0)
    assert 1 <= len(digits) <= 12 and digits[0] != "0" and digits[-1] != "0", text
    assert "." in mantissa or len(digits) == 1, text
    # Within half a unit in the 12th digit of the exact value.
    error = abs(Fraction(mantissa) * 10 ** int(exponent) - value)
    assert 2 * error <= 10 ** (int(exponent) - 11), text
    leading = str(int(value))
    if leading[12] < "5":
        # Rounded down: the mantissa is the value's leading digits.
        assert leading[:12].rstrip("0") == digits
        assert int(exponent) == len(leading) - 1


def decimal12(value):
    """The oracle for approx12's exact path: value rounded by decimal to 12 digits, half to even, spelled by g."""
    context = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
    quotient = context.divide(decimal.Decimal(value.numerator), decimal.Decimal(value.denominator))
    return format(quotient.normalize(context), "g")


TINY = Fraction(sys.float_info.min)


@settings(max_examples=300, deadline=None)
@given(
    value=st.builds(lambda digits, exponent: Fraction(digits, 10**exponent), st.integers(1, 10**20), st.integers(328, 900))
    | st.builds(Fraction, st.integers(1, 10**80), st.integers(10**400, 10**700))
    | st.builds(Fraction, st.integers(1, 2**1000), st.just(2**2100))
    | st.integers(2**1024, 10**700)
    | st.builds(Fraction, st.integers(10**400, 10**700), st.integers(1, 10**80)),
    sign=st.sampled_from([1, -1]),
)
@example(value=Fraction(123456789012345, 10**330), sign=1)  # a subnormal float: wrong digits on the float path
@example(value=Fraction(3, 10**320), sign=-1)
@example(value=Fraction(1, 10**400), sign=1)  # float() gives 0.0
@example(value=Fraction(1234567890125, 10**330), sign=1)  # a tie, rounded down to the even digit
@example(value=Fraction(1234567890135, 10**330), sign=-1)  # a tie, rounded up to the even digit
@example(value=Fraction(10**15 - 1, 10**345), sign=1)  # rounds up to the next power of ten
@example(value=TINY - Fraction(1, 10**400), sign=1)  # just below the normal range
@example(value=1234567890125 * 10**300, sign=-1)  # a tie past float range
def test_approx12_outside_the_normal_float_range_is_the_decimal_rounding(value, sign):
    assert value < TINY or value > sys.float_info.max
    assert approx12(sign * value) == decimal12(sign * value)


def test_approx12_of_zero_and_of_both_signs():
    assert approx12(0) == approx12(Fraction(0)) == "0"
    for value in (Fraction(1, 10**400), Fraction(2, 3), 10**400):
        assert approx12(-value) == "-" + approx12(value)


def test_approx12_keeps_the_float_path_in_float_range():
    for value in (1, Fraction(2, 3), 10**300, Fraction(10**308, 7), 2**1023, TINY, TINY + Fraction(1, 10**400)):
        for signed in (value, -value):
            assert approx12(signed) == f"{float(signed):.12g}"


def test_report_document_rejects_unknown_format():
    with pytest.raises(ValueError):
        ReportDocument("x", {}, ["a"], [], fmt="xml")


def test_report_document_rejects_duplicate_columns():
    # A tuple row cannot hold one cell for two equal names: JSON would
    # print the key twice.
    with pytest.raises(ValueError, match="duplicate"):
        ReportDocument("x", {}, ["a", "b", "a"], [("1", "2", "3")], fmt="json")


def rendered_in_pieces(doc, chunk):
    """The joined pieces of doc, its rows read once, as an iterator, in pieces of chunk rows."""
    doc = ReportDocument(doc.command, doc.parameters, doc.columns, iter(doc.rows), doc.fmt, doc.generated_at)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "_CHUNK", chunk)
        return "".join(render_pieces(doc))


def test_render_empty_table():
    doc = ReportDocument("x", {"p": "1"}, ["a", "b"], [], fmt="md")
    text = render(doc)
    assert "| a | b |" in text


# Cells that stress the JSON string escaping and the Markdown pipe escape.
cell_text = st.text(
    st.one_of(st.sampled_from('"\\|%\x00\x1f\x7f\n\té€\u2028😀'), st.characters()),
    max_size=8,
)


@st.composite
def documents(draw, fmt):
    columns = draw(st.lists(cell_text, max_size=5, unique=True))
    row = st.tuples(*[cell_text] * len(columns))
    rows = draw(st.lists(row, max_size=6))
    generated_at = draw(st.none() | cell_text)
    parameters = draw(st.dictionaries(cell_text, cell_text, max_size=3))
    return ReportDocument(draw(cell_text), parameters, columns, rows, fmt, generated_at)


@settings(max_examples=100, deadline=None)
@given(documents("json"))
@example(ReportDocument("enumerate", {"n": "1"}, ["a", "b"], [], "json"))
@example(ReportDocument("enumerate", {}, ["a"], [], "json", "2026-01-01T00:00:00Z"))
@example(ReportDocument("x", {}, [], [(), ()], "json"))
@example(ReportDocument("x", {}, ["plain", "mixed"], [("a", "b"), ("c%s", 'd"\n'), ("e", "f")], "json"))
@example(ReportDocument("x", {}, ["100%", "%s", "%%d"], [("1", "%d", "é"), ("2", "%", "e")], "json"))
@example(ReportDocument("x", {}, ["a", "b"], [("1", "é"), ("2", "x"), ("3", "y")], "json"))
@example(ReportDocument("x", {"p": "1"}, [], [(), (), ()], "json", "2026-01-01T00:00:00Z"))
def test_json_renderer_equals_indented_json_dumps(doc):
    envelope = {"command": doc.command, "parameters": doc.parameters}
    if doc.generated_at is not None:
        envelope["generated_at"] = doc.generated_at
    envelope["columns"] = doc.columns
    envelope["rows"] = [dict(zip(doc.columns, row)) for row in doc.rows]
    for chunk in CHUNKS:
        assert rendered_in_pieces(doc, chunk) == json.dumps(envelope, indent=2) + "\n", chunk


@settings(max_examples=100, deadline=None)
@given(documents("md"))
@example(ReportDocument("x", {}, [], [(), ()], "md"))
def test_markdown_renderer_pads_escaped_cells(doc):
    keyed = [dict(zip(doc.columns, row)) for row in doc.rows]
    escaped = [[row[col].replace("|", "\\|") for col in doc.columns] for row in keyed]
    widths = [
        max([len(col), 1] + [len(cells[j]) for cells in escaped]) if escaped else len(col)
        for j, col in enumerate(doc.columns)
    ]
    table = [doc.columns, ["-" * w for w in widths]] + escaped
    expected = "".join(
        "| " + " | ".join(cell.ljust(w) for cell, w in zip(cells, widths)) + " |\n"
        for cells in table
    )
    for chunk in CHUNKS:
        assert rendered_in_pieces(doc, chunk).endswith("\n" + expected), chunk


@settings(max_examples=100, deadline=None)
@given(documents("csv"))
@example(ReportDocument("x", {}, ["a"], [("1",), ("",), ("2",)], "csv"))  # the writer prints ""
@example(ReportDocument("x", {}, ["a", "b", "c"], [("1", "", "3"), ("4", "5", "6")], "csv"))
@example(ReportDocument("x", {}, ["a", "b"], [(",", ",,"), (",,,", "x")], "csv"))
@example(ReportDocument("x", {}, ["a", "b"], [("1", "2"), ("\r", "3"), ("4", "5")], "csv"))
@example(ReportDocument("x", {}, ["a", "b"], [("1", "2"), ("3", "\x00"), ("4", "5")], "csv"))
# Plain pieces next to others, in pieces of one row and of two.
@example(
    ReportDocument(
        "x", {}, ["a", "b"],
        [("1", "2,3"), ("4", "5"), ('"6"', "7"), ("8", "9"), ("a,b", "c"), ("d", "e"), ("f", "g\n")],
        "csv",
    )
)
def test_csv_renderer_equals_one_csv_writer_pass(doc):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(doc.columns)
    writer.writerows(doc.rows)
    for chunk in CHUNKS:
        assert rendered_in_pieces(doc, chunk) == out.getvalue(), chunk


def test_enumerate_csv_writes_only_its_header_through_csv_writer(capsys, monkeypatch):
    # Every piece of this dump is plain, so the rows skip the writer.
    written = []
    real_writer = csv.writer

    class CountingWriter:
        def __init__(self, *args, **kwargs):
            self.writer = real_writer(*args, **kwargs)

        def writerow(self, row):
            written.append(row)
            return self.writer.writerow(row)

        def writerows(self, rows):
            rows = list(rows)
            written.extend(rows)
            return self.writer.writerows(rows)

    monkeypatch.setattr(csv, "writer", CountingWriter)
    code, out, err = run_cli(capsys, "enumerate", "--n", "10", "--d", "12", "--sums", "--format", "csv")
    assert (code, err) == (0, "")
    assert written == [cli.RANK_COLUMNS]
    assert out.count("\n") == 1 + 19_614
