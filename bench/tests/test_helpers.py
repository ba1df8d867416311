"""Tests for the benchmark's own helpers: percentiles, spans, references, checks.

Run with: python -m pytest bench/tests
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import pytest

import checks
import mix
import reference as ref
import run
from tracing import NullTracer, Tracer, calibration_loop, percentile, self_times, summarize, tail_percentile

import waring
from waring import cli


# --- tail percentile rule ---------------------------------------------------


@pytest.mark.parametrize(
    "samples, expected",
    [(11, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(samples, expected):
    assert tail_percentile(samples) == expected


def test_tail_percentile_value_has_ten_samples_above():
    values = list(range(1, 101))
    p = tail_percentile(len(values))
    cut = percentile(values, p)
    assert cut == 90
    assert sum(1 for v in values if v > cut) == 10


def test_tail_of_few_samples_leaves_one_beyond():
    value, used = run.tail([[3.0, 1.0, 2.0, 5.0, 4.0, 6.0]])
    assert value == 5.0 and used == [75.0]
    value, used = run.tail([[3.0]])
    assert value == 3.0 and used == [None]


def test_tail_is_median_of_batch_percentiles():
    batches = [list(range(1, 101)), [x * 2 for x in range(1, 101)], [x * 3 for x in range(1, 101)]]
    value, used = run.tail(batches)
    assert used == [90.0, 90.0, 90.0]
    assert value == 180


# --- spans and self time ----------------------------------------------------


def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "request": "r", "attrs": {}}


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),   # overlaps a
        _span("c", 9.0, 12.0, parent=0),  # sticks out of the parent
        _span("a.inner", 1.5, 2.0, parent=1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)
    table = summarize(spans)
    assert table["root"]["calls"] == 1
    assert table["root"]["total_s"] == pytest.approx(10.0)


def test_tracer_nests_spans_and_inherits_request():
    tr = Tracer()
    with tr.span("outer", request="cell/4,3"):
        with tr.span("inner") as attrs:
            attrs["count"] = 7
    outer, inner = tr.spans
    assert inner["parent"] == 0 and outer["parent"] is None
    assert inner["request"] == "cell/4,3"
    assert inner["attrs"] == {"count": 7}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_wrap_records_mode_and_null_tracer_records_nothing():
    tr = Tracer()
    traced = tr.wrap("m.f", lambda n, d, mode="closed_form": n + d, mode_arg=2)
    assert traced(1, 2, "oracle") == 3
    assert traced(1, 2, mode="closed_form") == 3
    assert [s["attrs"]["mode"] for s in tr.spans] == ["oracle", "closed_form"]
    null = NullTracer()
    with null.span("x"):
        pass
    assert null.wrap("m.f", len) is len
    assert null.spans == []


# --- reference values against the package -----------------------------------


def test_partition_recurrence_matches_enumerate_monomials():
    for n in range(1, 8):
        for d in range(1, 16):
            assert ref.partition_count(d, n) == sum(1 for _ in waring.enumerate_monomials(n, d))


def test_coprime_count_matches_enumerate_coprime_sums():
    for n in range(1, 8):
        for d in range(1, 8):
            for spanning in (False, True):
                got = sum(1 for _ in waring.enumerate_coprime_sums(n, d, spanning=spanning))
                assert ref.coprime_sum_count(n, d, spanning) == got


def test_workload_totals():
    assert sum(ref.partition_count(d, n) for n, d in run.grid_cells(run.MONOMIAL_GRID)) == 391944
    assert sum(ref.coprime_sum_count(n, d) for n, d in run.grid_cells(run.COPRIME_GRID)) == 388787
    assert ref.partition_count(40, 10) == 16928
    assert ref.coprime_sum_count(10, 12) == 19614


def test_reference_ranks_match_oracles():
    for n in range(1, 11):
        for d in range(1, 8):
            assert ref.r_max_star(n, d) == waring.r_max_star(n, d, "oracle")
            assert ref.r_max(n, d) == waring.r_max(n, d, "oracle")
            assert ref.generic_rank(n, d) == waring.generic_rank(n, d)


# --- output checks accept real output and reject corrupted output -----------


def _cli_text(spec):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(checks.build_argv(spec)) == 0
    return buf.getvalue()


def _first_batch_per_kind():
    seen = {}
    for spec in mix.make_batch(random.Random(7)):
        seen.setdefault((spec["kind"], spec["fmt"]), spec)
    return list(seen.values())


def _corrupt(spec, rows):
    rows = [dict(r) for r in rows]
    if spec["cmd"] == "verify":
        row = next(r for r in rows if r["kind"] == "checked_count")
        row["value"] = str(int(row["value"]) + 1)
    elif spec["cmd"] == "asymptotics":
        rows[-1]["ratio"] = rows[-1]["ratio"] + "1"
    elif spec["cmd"] == "enumerate":
        rows = rows[:-1]
    else:
        rows[0]["value"] = str(int(rows[0]["value"]) + 1)
    return rows


@pytest.mark.parametrize("spec", _first_batch_per_kind(), ids=lambda s: f"{s['kind']}-{s['fmt']}")
def test_cli_checks_accept_real_and_reject_corrupted_output(spec):
    text = _cli_text(spec)
    assert checks.check_output(spec, text) == []
    rows = checks.parse_report(text, spec["fmt"])
    assert checks._CHECKS[spec["cmd"]](spec["params"], _corrupt(spec, rows))
    assert checks.check_output(spec, text[: len(text) // 3])


def _frac(value):
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def test_asymptotics_check_accepts_exact_rows_under_a_new_kind_label():
    spec = {"cmd": "asymptotics", "params": {"mode": "n-limit", "d": 5, "n_max": 20}, "fmt": "json"}
    rows = checks.parse_report(_cli_text(spec), "json")
    assert any(r["kind"] == "upper_bound" for r in rows)
    relabelled = []
    for r in rows:
        n = int(r["n"])
        ratio = Fraction(ref.r_max_star(n, 5), ref.generic_rank(n, 5))
        relabelled.append({**r, "kind": "knapsack", "ratio": _frac(ratio), "gap": _frac(ratio)})
    assert checks.check_asymptotics(spec["params"], relabelled) == []
    # A bound value is accepted only on a row that says it is a bound.
    mislabelled = [{**r, "kind": "exact"} for r in rows]
    assert checks.check_asymptotics(spec["params"], mislabelled)


def test_coprime_grid_check_requires_exactly_the_three_known_exceptions():
    spec = {"cmd": "verify", "params": {"claim": "theorem-coprime", "n_range": "4:5", "d_range": "3:4"}, "fmt": "csv"}
    rows = checks.parse_report(_cli_text(spec), "csv")
    assert checks.check_verify(spec["params"], rows) == []
    exceptions = [r for r in rows if r["kind"] == "expected_exception"]
    assert len(exceptions) == 3
    dropped = [r for r in rows if r is not exceptions[0]]
    assert checks.check_verify(spec["params"], dropped)
    status = [dict(r, value="pass") if r["kind"] == "status" else r for r in rows]
    assert checks.check_verify(spec["params"], status)
    extra = rows + [dict(exceptions[0], kind="violation")]
    assert checks.check_verify(spec["params"], extra)


def test_monomial_grid_check_rejects_wrong_count_or_status():
    good = {"status": "pass", "checked": 391944, "violations": 0}
    assert run.check_monomial_grid(good, 391944) == []
    assert run.check_monomial_grid(dict(good, checked=391943), 391944)
    assert run.check_monomial_grid(dict(good, status="fail", violations=1), 391944)


def test_dump_check_rejects_changed_bytes(tmp_path):
    data = b"| n |\n| - |\n| 1 |\n"
    refs = {"dumps": {"x.md": {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}},
            "dump_rows": {"x.md": 1}}
    path = tmp_path / "x.md"
    path.write_bytes(data)
    state = run.Run()
    assert run.check_dump(state, refs, "x.md", path) == []
    path.write_bytes(data.replace(b"1 |", b"2 |"))
    assert run.check_dump(state, refs, "x.md", path)
    path.unlink()
    assert run.check_dump(state, refs, "x.md", path)


def test_enumerate_check_rejects_a_wrong_rank():
    spec = {"cmd": "enumerate", "params": {"n": 4, "d": 6, "sums": True}, "fmt": "md"}
    text = _cli_text(spec)
    assert checks.check_output(spec, text) == []
    rows = checks.parse_report(text, "md")
    rows[3] = dict(rows[3], value=str(int(rows[3]["value"]) + 1))
    assert checks.check_enumerate(spec["params"], rows)


def test_pinned_dump_sizes_match_reference_row_counts():
    pinned = json.loads((run.BENCH / "expected_dumps.json").read_text())
    assert {name for name, _, _ in run.DUMPS} == set(pinned)


def test_calibration_loop_reports_seconds_per_iteration():
    per_iteration = calibration_loop(20000)
    assert 1e-8 < per_iteration < 1e-4


def test_run_scales_each_call_by_calibration_timings_near_it():
    state = run.Run()
    slow = state.call(run.Child(0, 10.0, 1.0, 1.0, b""), 0.9, [2 * run.CAL_REF_S_PER_ITER] * 2)
    untimed = state.call(run.Child(0, 100.0, 1.0, 1.0, b""), 0.9, [])
    state.add_pass([[slow]], 9, 1.0)
    state.add_pass([[untimed]], 9, 1.0)
    assert state.scales() == [0.5, 1.0]
    groups, rates = state.requests(scaled=True)
    assert groups[0] == pytest.approx([0.45, 0.9])
    assert rates == pytest.approx([20.0, 10.0])
    groups, rates = state.requests(scaled=False)
    assert groups[0] == pytest.approx([0.9, 0.9])
