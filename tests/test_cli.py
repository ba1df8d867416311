import csv
import io
import json

import pytest

from waring import verify as vf
from waring.cli import main, parse_exponent_list, parse_range, parse_sum_spec
from waring.coprime_sums import make_sum, sum_rank
from waring.errors import UsageError
from waring.monomials import canonicalize, waring_rank
from waring.report import ReportDocument, approx12, fmt_exact, render
from fractions import Fraction


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_max_rank_sum_closed_form_regime_error(capsys):
    code, out, err = run_cli(capsys, "max-rank-sum", "--n", "5", "--d", "4")
    assert code == 2
    assert "oracle" in err


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
    code, out, err = run_cli(
        capsys, "verify", "--claim", "theorem-monomial", "--n-range", "four:five"
    )
    assert code == 2


def test_verify_defaults_run_clean(capsys):
    code, doc = run_json(capsys, "verify", "--claim", "ineq-agm")
    assert code == 0
    assert doc["parameters"]["n_range"] == "4:8"
    assert doc["parameters"]["d_range"] == "2:20"


def test_verify_unexpected_counterexample_exits_one(capsys, monkeypatch):
    def fake(d_range, workers=1):
        return vf.VerificationReport(
            claim_id="lemma-slope",
            grid=(2, 5, 4, 5),
            checked_count=1,
            violations=[vf.Violation(3, 4, None, 1, 2)],
            status=vf.STATUS_FAIL,
            expected_exceptions_matched=False,
        )

    monkeypatch.setattr(vf, "verify_lemma_slope", fake)
    code, out, err = run_cli(
        capsys, "verify", "--claim", "lemma-slope", "--deterministic"
    )
    assert code == 1
    assert "violation" in out


def test_verify_threads_match_single_worker(capsys):
    _, doc1 = run_json(
        capsys, "verify", "--claim", "theorem-coprime",
        "--n-range", "4:5", "--d-range", "3:6",
    )
    _, doc2 = run_json(
        capsys, "verify", "--claim", "theorem-coprime",
        "--n-range", "4:5", "--d-range", "3:6", "--threads", "2",
    )
    assert doc1["rows"] == doc2["rows"]


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


def test_markdown_escapes_pipes(capsys):
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


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == 2


# ---------------------------------------------------------------------------
# report document primitives


def test_fmt_exact_and_approx():
    assert fmt_exact(1717) == "1717"
    assert fmt_exact(Fraction(150, 1717)) == "150/1717"
    assert fmt_exact(Fraction(8, 2)) == "4"
    assert approx12(Fraction(1, 3)) == "0.333333333333"


def test_report_document_rejects_unknown_format():
    with pytest.raises(ValueError):
        ReportDocument("x", {}, ["a"], [], fmt="xml")


def test_render_empty_table():
    doc = ReportDocument("x", {"p": "1"}, ["a", "b"], [], fmt="md")
    text = render(doc)
    assert "| a | b |" in text
