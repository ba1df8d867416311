"""Benchmark for waring: four closed-loop workloads, one client each.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports waring only from the checkout's src/ (and fails if it resolves
anywhere else), starts every pass in a fresh interpreter, checks every
output against reference values computed without waring, and prints one
JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it ("record: ...") and .bench_build/results/ hold the
machine record (Python, nproc, CPU, commit, seed, load) and exact counters.

Workloads (a request is what one caller waits for):
  monomial-grid   verify_theorem_monomial((4, 10), (2, 40), workers=1),
                  called in-process; 391,944 monomials per request.
  coprime-grid    waring verify --claim theorem-coprime --n-range 4:12
                  --d-range 3:12 --threads 2 --format json; 388,787 sums.
  cli-mix         batches of 100 short waring invocations drawn from
                  --seed (mix.py); a request is one invocation.
  enumerate-dump  waring enumerate --n 10 --d 40 and --n 10 --d 12 --sums,
                  each in md, csv and json with --out; a request is all six
                  (109,626 rows). Output digests are pinned.
The grid and dump workloads are fixed and ignore --seed. Worker processes
never exceed min(2, nproc).

--trace 0 runs as many passes as fit in --seconds and reports the
end-to-end metrics. Request times are scaled to a reference host speed by
a calibration loop timed in the same process just before and after each
call (see CAL_ITERATIONS); the record keeps every call's scale and the
unscaled metrics.
  setup_s           median of 7 set-ups: clear src/waring/__pycache__,
                    import and warm up in a fresh interpreter, build the
                    reference values
  throughput_per_s  work per second of request time, median over passes:
                    monomials, coprime sums, invocations or rows
  latency_p50_ms    median request latency
  latency_tail_ms   highest percentile with at least 10 requests beyond it
                    (p90 of each cli-mix batch, median over batches); with
                    fewer than 20 requests, at least one beyond it
  peak_rss_mb       largest resident set of any process of a pass
                    (children and their pool workers), median over passes
attempted counts every checked operation: each set-up warm-up, each
request (in --trace 1, each replayed grid cell and CLI call) and the
check that exact counters match earlier runs in the checkout; the error
rate is failed / attempted.

--trace 1 replays every workload once with spans around the public calls
into each layer (worker.py) and reports the per-layer metrics; the grid
cells are replayed serially in one process. trace.overhead_pct compares
the traced replay of --workload with the mean of the same replay run
untraced just before and just after it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import checks
import mix
import reference as ref
from tracing import merge_spans, percentile, summarize, tail_percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
TMP = WORK / "tmp"

WORKLOADS = ("monomial-grid", "coprime-grid", "cli-mix", "enumerate-dump")
WORKERS = min(2, os.cpu_count() or 1)
SETUP_REPS = 7
INTERP_REPS = 10
# The shared host's speed drifts: the same pass takes up to 1.7 times as
# long from one minute to the next. Where the work runs in one process, the
# benchmark times a fixed pure-Python loop (tracing.calibration_loop, no
# waring code, so a change to waring cannot move it) in that process just
# before and just after the work. Each call's time is scaled to a reference
# speed of CAL_REF_S_PER_ITER seconds per loop iteration by the mean of the
# timings within CAL_WINDOW_S of the call: short calls borrow their
# neighbours' timings, so no call rests on one short timing. The loop is
# sized to about a tenth of the work it brackets. On coprime-grid the loop
# runs in the CLI's parent process, on one CPU, while the pool uses every
# CPU, so there it tracks the host's speed less closely.
CAL_ITERATIONS = {"monomial-grid": 300_000, "coprime-grid": 300_000, "cli-mix": 15_000, "enumerate-dump": 50_000}
CAL_REF_S_PER_ITER = 1.2e-6
CAL_WINDOW_S = 1.0
CHILD_TIMEOUT_S = 120
MONOMIAL_GRID = ((4, 10), (2, 40))
COPRIME_GRID = ((4, 12), (3, 12))
COPRIME_SPEC = {
    "cmd": "verify",
    "params": {"claim": "theorem-coprime", "n_range": "4:12", "d_range": "3:12", "threads": WORKERS},
    "fmt": "json",
}
DUMPS = tuple(
    (f"{name}.{fmt}", {**params, "deterministic": True}, fmt)
    for name, params in (
        ("monomials", {"n": 10, "d": 40}),
        ("sums", {"n": 10, "d": 12, "sums": True}),
    )
    for fmt in mix.FORMATS
)
SUBCOMMANDS = ("rank", "generic-rank", "max-rank", "max-rank-sum", "bounds",
               "enumerate", "verify", "asymptotics", "table")


class BenchError(Exception):
    """The benchmark cannot run in this directory; no result is printed."""


class Child(NamedTuple):
    code: int
    start: float
    wall: float
    rss_mb: float
    stdout: bytes


def _child_env() -> dict[str, str]:
    # Drop inherited PYTHON* settings so nothing outside the checkout can
    # change what the children import or how they run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONNOUSERSITE="1")
    return env


ENV = _child_env()


def run_child(args: list[str], tag: str) -> Child:
    """Run the interpreter on args; wall time and the process tree's peak RSS."""
    out_path = TMP / f"{tag}.stdout"
    with open(out_path, "wb") as out, open(TMP / f"{tag}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=ENV, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    # wait4 reaped the child; tell Popen so it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux and covers the child's reaped descendants.
    return Child(proc.returncode, start, wall, usage.ru_maxrss / 1024, out_path.read_bytes())


def run_worker(mode: str, payload: dict, tag: str) -> tuple[Child, dict | None]:
    child = run_child([str(BENCH / "worker.py"), mode, json.dumps(payload)], tag)
    if child.code != 0:
        return child, None
    return child, json.loads(child.stdout.decode().splitlines()[-1])


def run_cli(spec: dict, tag: str, cal_iterations: int) -> tuple[Child, float, list[float]]:
    """One `waring` invocation: the child, its latency and calibration timings.

    The command runs under timed_cli.py, between two calibration timings in
    its own process, and the latency excludes them. A command that dies
    before the second timing leaves none, and its latency is the wall time.
    """
    report = TMP / f"{tag}.calibration.json"
    report.unlink(missing_ok=True)
    argv = [str(BENCH / "timed_cli.py"), str(cal_iterations), str(report), *checks.build_argv(spec)]
    child = run_child(argv, tag)
    if not report.is_file():
        return child, child.wall, []
    cal = json.loads(report.read_text())
    return child, child.wall - cal["calibration_s"], cal["calibration_s_per_iteration"]


def cli_problems(spec: dict, child: Child) -> list[str]:
    """Problems with an invocation's exit code and stdout."""
    if child.code != 0:
        return [f"{spec['cmd']}: exit code {child.code}"]
    return checks.check_output(spec, child.stdout.decode("utf-8"))


def grid_cells(grid) -> list[tuple[int, int]]:
    (n_lo, n_hi), (d_lo, d_hi) = grid
    return [(n, d) for n in range(n_lo, n_hi + 1) for d in range(d_lo, d_hi + 1)]


class Run:
    """Calls, passes and failures of one benchmark run."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (time, seconds per calibration iteration)
        self.calls: list[tuple[float, float, float]] = []  # (start, end, unscaled latency)
        self.passes: list[tuple[list[list[int]], int, float, bool]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counters: dict[str, object] = {}

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def call(self, child: Child, latency: float, calibration: list[float]) -> int:
        """Record one measured child and the calibration timings before and after it."""
        end = child.start + child.wall
        self.samples += zip((child.start, end), calibration)
        self.calls.append((child.start, end, latency))
        return len(self.calls) - 1

    def add_pass(self, requests: list[list[int]], units: int, rss_mb: float, batch: bool = False) -> None:
        """A pass: its requests as lists of call indices, its work units and peak RSS.

        The requests of a batch pass form their own group for the tail.
        """
        self.passes.append((requests, units, rss_mb, batch))

    def scales(self) -> list[float]:
        """Per call: reference speed over the host's speed around the call.

        The host's speed is the mean of the calibration timings taken within
        CAL_WINDOW_S of the call; 1 where there are none.
        """
        out = []
        for start, end, _ in self.calls:
            near = [v for t, v in self.samples if start - CAL_WINDOW_S <= t <= end + CAL_WINDOW_S]
            out.append(CAL_REF_S_PER_ITER / statistics.mean(near) if near else 1.0)
        return out

    def requests(self, scaled: bool) -> tuple[list[list[float]], list[float]]:
        """Request latencies grouped for the tail, and each pass's rate."""
        factors = self.scales() if scaled else [1.0] * len(self.calls)
        latency = [call[2] * f for call, f in zip(self.calls, factors)]
        pooled, batches, rates = [], [], []
        for requests, units, _, batch in self.passes:
            values = [sum(latency[i] for i in request) for request in requests]
            if batch:
                batches.append(values)
            else:
                pooled.extend(values)
            rates.append(units / sum(values))
        return batches or [pooled], rates


def tail(groups: list[list[float]]) -> tuple[float, list]:
    """Tail latency and, per group, the percentile used (None: the only sample)."""
    values, used = [], []
    for g in groups:
        p = tail_percentile(len(g)) or tail_percentile(len(g), 1)
        values.append(percentile(g, p) if p is not None else max(g))
        used.append(p)
    return statistics.median(values), used


# ---------------------------------------------------------------------------
# set-up


def references(seed: int) -> dict:
    mono = {f"{n},{d}": ref.partition_count(d, n) for n, d in grid_cells(MONOMIAL_GRID)}
    cop = {f"{n},{d}": ref.coprime_sum_count(n, d) for n, d in grid_cells(COPRIME_GRID)}
    dumps = json.loads((BENCH / "expected_dumps.json").read_text())
    rows = {name: (ref.coprime_sum_count(p["n"], p["d"]) if p.get("sums") else ref.partition_count(p["d"], p["n"]))
            for name, p, _ in DUMPS}
    return {
        "monomial_cells": mono,
        "monomial_total": sum(mono.values()),
        "coprime_cells": cop,
        "coprime_total": sum(cop.values()),
        "batch": mix.make_batch(random.Random(seed)),
        "dumps": dumps,
        "dump_rows": rows,
    }


def setup_once(workload: str, seed: int) -> tuple[dict, list[str]]:
    """Cold import (bytecode compiled afresh), warm-up and reference values."""
    shutil.rmtree(SRC / "waring" / "__pycache__", ignore_errors=True)
    payload = {"workload": workload, "workers": WORKERS, "out": str(TMP / "probe.out")}
    child, res = run_worker("probe", payload, "probe")
    if res is None:
        err = (TMP / "probe.stderr").read_text(errors="replace").strip().splitlines()[-1:]
        raise BenchError(f"cannot import waring from {SRC} (exit {child.code}): {err}")
    for key in ("waring", "cli"):
        where = Path(res[key]).resolve()
        if not where.is_relative_to((SRC / "waring").resolve()):
            raise BenchError(f"waring resolves to {where}, not to {SRC / 'waring'}")
    problems = [f"warm-up: {res['warmup_error']}"] if res["warmup_error"] else []
    return references(seed), problems


def setup(workload: str, seed: int, run: Run) -> tuple[dict, list[float]]:
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        refs, problems = setup_once(workload, seed)
        times.append(time.perf_counter() - start)
        run.op(problems)
    return refs, times


# ---------------------------------------------------------------------------
# untraced passes


def check_monomial_grid(res: dict, want_checked: int) -> list[str]:
    problems = []
    if res["status"] != "pass" or res["violations"] != 0:
        problems.append(f"status {res['status']} with {res['violations']} violations, want pass")
    if res["checked"] != want_checked:
        problems.append(f"checked_count {res['checked']}, want {want_checked}")
    return problems


def monomial_pass(run: Run, refs: dict) -> None:
    payload = {"grid": MONOMIAL_GRID, "cal_iterations": CAL_ITERATIONS["monomial-grid"]}
    child, res = run_worker("grid-monomial", payload, "monomial")
    if res is None:
        run.op([f"grid-monomial worker: exit code {child.code}"])
        run.add_pass([[run.call(child, child.wall, [])]], refs["monomial_total"], child.rss_mb)
        return
    run.op(check_monomial_grid(res, refs["monomial_total"]))
    run.counters["monomial-grid.checked"] = res["checked"]
    call = run.call(child, res["wall_s"], res["calibration_s_per_iteration"])
    run.add_pass([[call]], refs["monomial_total"], child.rss_mb)


def coprime_pass(run: Run, refs: dict) -> float | None:
    """One coprime-grid request; returns the report's elapsed_ms in seconds."""
    child, latency, calibration = run_cli(COPRIME_SPEC, "coprime", CAL_ITERATIONS["coprime-grid"])
    problems = cli_problems(COPRIME_SPEC, child)
    run.op(problems)
    run.add_pass([[run.call(child, latency, calibration)]], refs["coprime_total"], child.rss_mb)
    if problems:
        return None
    rows = checks.parse_report(child.stdout.decode(), "json")
    summary = {r["kind"]: r["value"] for r in rows}
    run.counters["coprime-grid.checked"] = int(summary["checked_count"])
    return int(summary["elapsed_ms"]) / 1000 if "elapsed_ms" in summary else None


def cli_batch(run: Run, batch: list[dict]) -> None:
    requests, rss = [], 0.0
    for j, spec in enumerate(batch):
        child, latency, calibration = run_cli(spec, f"cli-{j}", CAL_ITERATIONS["cli-mix"])
        run.op(cli_problems(spec, child))
        requests.append([run.call(child, latency, calibration)])
        rss = max(rss, child.rss_mb)
    run.add_pass(requests, len(batch), rss, batch=True)


def check_dump(run: Run, refs: dict, name: str, path: Path) -> list[str]:
    """The output file against its pinned digest."""
    if not path.is_file():
        return [f"{name}: no output written"]
    data = path.read_bytes()
    want = refs["dumps"][name]
    problems = []
    if len(data) != want["bytes"] or hashlib.sha256(data).hexdigest() != want["sha256"]:
        problems.append(f"{name}: output differs from the pinned digest ({len(data)} bytes)")
    run.counters[f"enumerate-dump.bytes.{name}"] = len(data)
    return problems


def dump_spec(name: str, params: dict, fmt: str) -> tuple[dict, Path]:
    path = TMP / f"dump-{name}"
    return {"cmd": "enumerate", "params": {**params, "out": str(path)}, "fmt": fmt}, path


def dump_pass(run: Run, refs: dict) -> None:
    calls, rss = [], 0.0
    for name, params, fmt in DUMPS:
        spec, path = dump_spec(name, params, fmt)
        path.unlink(missing_ok=True)
        child, latency, calibration = run_cli(spec, "dump", CAL_ITERATIONS["enumerate-dump"])
        problems = [f"enumerate {name}: exit code {child.code}"] if child.code else []
        if not problems:
            problems = check_dump(run, refs, name, path)
        run.op(problems)
        calls.append(run.call(child, latency, calibration))
        rss = max(rss, child.rss_mb)
    run.add_pass([calls], sum(refs["dump_rows"].values()), rss)


def check_dump_contents(run: Run) -> None:
    """Read the last pass's files row by row against the references.

    Every pass already matched the pinned digests; this checks that what
    they pin is right, once per run and outside the timed loop.
    """
    for name, params, fmt in DUMPS:
        spec, path = dump_spec(name, params, fmt)
        run.op(checks.check_output(spec, path.read_text(encoding="utf-8")) if path.is_file()
               else [f"{name}: no output written"])


def measure(workload: str, seconds: float, seed: int, refs: dict, run: Run) -> None:
    """Closed loop: as many whole passes as fit in `seconds`, at least one.

    Another pass starts only if one as long as the last still fits, so a
    run lasts about `seconds` however fast the program is.
    """
    rng = random.Random(seed)
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        if workload == "monomial-grid":
            monomial_pass(run, refs)
        elif workload == "coprime-grid":
            coprime_pass(run, refs)
        elif workload == "cli-mix":
            cli_batch(run, mix.make_batch(rng))
        else:
            dump_pass(run, refs)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    if workload == "enumerate-dump":
        check_dump_contents(run)


def end_to_end(run: Run, setup_times: list[float]) -> tuple[dict, dict]:
    """The metrics with request times at the reference speed, and unscaled."""
    values = {}
    for scaled in (True, False):
        groups, rates = run.requests(scaled)
        tail_s, used = tail(groups)
        values[scaled] = {
            "throughput_per_s": statistics.median(rates),
            "latency_p50_ms": statistics.median([x for g in groups for x in g]) * 1000,
            "latency_tail_ms": tail_s * 1000,
        }
    run.counters["latency.requests"] = sum(len(g) for g in groups)
    run.counters["latency.tail_percentile"] = used
    units = {"throughput_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms"}
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        **{name: (value, units[name]) for name, value in values[True].items()},
        "peak_rss_mb": (statistics.median(p[2] for p in run.passes), "MB"),
    }, values[False]


# ---------------------------------------------------------------------------
# traced replays


def _total(spans: list[dict], name: str, attr: str | None = None, **match) -> float:
    out = 0
    for s in spans:
        if s["name"] == name and all(s["attrs"].get(k) == v for k, v in match.items()):
            out += s["attrs"][attr] if attr else s["end"] - s["start"]
    return out


def _durations(spans: list[dict], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def _median_ms(values: list[float]) -> float:
    # A replay that failed leaves no spans; the run is then reported incorrect.
    return statistics.median(values) * 1000 if values else 0.0


def grid_tour(run: Run, refs: dict, kind: str, traced: bool) -> tuple[float, list[dict]]:
    grid, cells_key = (MONOMIAL_GRID, "monomial_cells") if kind == "monomial" else (COPRIME_GRID, "coprime_cells")
    payload = {"traced": traced, "cells": grid_cells(grid)}
    child, res = run_worker(f"tour-{kind}", payload, f"tour-{kind}")
    if res is None:
        run.op([f"tour-{kind} worker: exit code {child.code}"])
        return child.wall, []
    for cell, want in refs[cells_key].items():
        got = res["counts"].get(cell)
        run.op([] if got == want else [f"{kind} cell {cell}: {got} objects, want {want}"])
    if kind == "monomial":
        run.op([] if res["violations"] == 0 else [f"{res['violations']} monomials at or above generic rank"])
    else:
        found = {(n, d, tuple(map(tuple, shapes))) for n, d, shapes in res["nonstrict"]}
        want = {(4, 3, shapes) for shapes in ref.EXPECTED_COPRIME_SHAPES}
        run.op([] if found == want else [f"coprime sums at or above generic rank: {sorted(found)}"])
    run.counters[f"{kind}-grid.objects_per_cell"] = res["counts"]
    return child.wall, res["spans"]


def cli_tour(run: Run, refs: dict, traced: bool) -> tuple[float, list[dict]]:
    wall, spans = 0.0, []
    for j, spec in enumerate(mix.tour(refs["batch"])):
        out = TMP / f"tour-cli-{j}.out"
        payload = {"traced": traced, "argv": checks.build_argv(spec), "out": str(out), "request": f"cli-mix/{j}"}
        child, res = run_worker("cli", payload, "tour-cli")
        wall += child.wall
        if res is None or res["exit_code"] != 0:
            run.op([f"{spec['cmd']}: replay failed"])
            continue
        run.op(checks.check_output(spec, out.read_text(encoding="utf-8")))
        merge_spans(spans, res["spans"])
    return wall, spans


def dump_tour(run: Run, refs: dict, traced: bool) -> tuple[float, list[dict]]:
    wall, spans = 0.0, []
    for name, params, fmt in DUMPS:
        spec, path = dump_spec(name, params, fmt)
        path.unlink(missing_ok=True)
        payload = {"traced": traced, "argv": checks.build_argv(spec), "out": str(path),
                   "request": f"enumerate-dump/{name}"}
        child, res = run_worker("cli", payload, "tour-dump")
        wall += child.wall
        if res is None or res["exit_code"] != 0:
            run.op([f"enumerate {name}: replay failed"])
            continue
        problems = check_dump(run, refs, name, path)
        if traced:
            rows = _total(res["spans"], "report.render", "rows")
            run.counters[f"enumerate-dump.rows.{name}"] = rows
            if rows != refs["dump_rows"][name]:
                problems.append(f"{name}: {rows} rows rendered, want {refs['dump_rows'][name]}")
        run.op(problems)
        merge_spans(spans, res["spans"])
    return wall, spans


TOURS = {
    "monomial-grid": lambda run, refs, traced: grid_tour(run, refs, "monomial", traced),
    "coprime-grid": lambda run, refs, traced: grid_tour(run, refs, "coprime", traced),
    "cli-mix": cli_tour,
    "enumerate-dump": dump_tour,
}


def per_layer(workload: str, refs: dict, run: Run) -> tuple[dict, list[dict]]:
    interp = [run_child(["-c", "pass"], "interp").wall for _ in range(INTERP_REPS)]
    walls, spans, untraced = {}, {}, []
    for name, tour in TOURS.items():
        if name == workload:
            # The box drifts; an untraced replay on each side of the traced
            # one keeps the drift out of the overhead.
            untraced.append(tour(run, refs, False)[0])
        walls[name], spans[name] = tour(run, refs, True)
        if name == workload:
            untraced.append(tour(run, refs, False)[0])
    untraced_wall = statistics.mean(untraced)
    verify_wall = coprime_pass(run, refs)

    mon, cop, cli, dump = (spans[w] for w in WORKLOADS)
    handler = {sub: _durations(dump if sub == "enumerate" else cli, f"cli.handler.{sub}") for sub in SUBCOMMANDS}
    cells = _durations(cop, "verify.cell")
    serial = sum(cells)
    grids = mon + cop
    metrics = {
        "cli.interp_start_ms": (_median_ms(interp), "ms"),
        "cli.import_ms": (_median_ms(_durations(cli, "cli.import")), "ms"),
        "cli.parse_ms": (_median_ms(_durations(cli, "cli.parse")), "ms"),
        **{f"cli.handler_ms.{sub}": (sum(t) / max(len(t), 1) * 1000, "ms") for sub, t in handler.items()},
        "monomials.partitions_s": (_total(mon, "monomials.partitions"), "s"),
        "monomials.partitions_count": (_total(mon, "monomials.partitions", "count"), "count"),
        "monomials.enumerate_s": (_total(mon, "monomials.enumerate_monomials"), "s"),
        "monomials.construct_s": (_total(mon, "monomials.enumerate_monomials") - _total(mon, "monomials.partitions"), "s"),
        "monomials.rank_s": (_total(mon, "monomials.waring_rank"), "s"),
        "monomials.rank_calls": (_total(mon, "monomials.waring_rank", "calls"), "count"),
        "coprime_sums.enumerate_s": (_total(cop, "coprime_sums.enumerate_coprime_sums"), "s"),
        "coprime_sums.enumerate_count": (_total(cop, "coprime_sums.enumerate_coprime_sums", "count"), "count"),
        "coprime_sums.sum_rank_s": (_total(cop, "coprime_sums.sum_rank"), "s"),
        "coprime_sums.oracle_s": (_total(cli, "coprime_sums.max_rank_sum", mode="oracle")
                                  + _total(cli, "coprime_sums.r_max_star", mode="oracle"), "s"),
        "rank_tables.generic_rank_s": (_total(grids, "rank_tables.generic_rank"), "s"),
        "rank_tables.generic_rank_calls": (len(_durations(grids, "rank_tables.generic_rank")), "count"),
        "rank_tables.upper_bounds_s": (_total(cli, "rank_tables.upper_bounds"), "s"),
        "verify.wall_s": (verify_wall or 0.0, "s"),
        "verify.cells": (len(cells), "count"),
        "verify.serial_compute_s": (serial, "s"),
        "verify.cell_max_s": (max(cells, default=0.0), "s"),
        "verify.parallel_efficiency": (serial / (WORKERS * verify_wall) if verify_wall else 0.0, "ratio"),
        **{f"report.render_s.{fmt}": (_total(dump, "report.render", fmt=fmt), "s") for fmt in mix.FORMATS},
        "report.rows": (_total(dump, "report.render", "rows"), "count"),
        **{f"report.bytes.{fmt}": (_total(dump, "report.write", "bytes", fmt=fmt), "B") for fmt in mix.FORMATS},
        "report.write_s": (_total(dump, "report.write"), "s"),
        "trace.overhead_pct": ((walls[workload] - untraced_wall) / untraced_wall * 100, "%"),
        "trace.spans": (sum(len(s) for s in spans.values()), "count"),
    }
    merged: list[dict] = []
    for name in WORKLOADS:
        merge_spans(merged, spans[name])
    return metrics, merged


# ---------------------------------------------------------------------------
# record and output


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref_name = text[5:]
    loose = ROOT / ".git" / ref_name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def check_counters(run: Run) -> None:
    """Exact counters must read the same in every run in this checkout.

    The comparison counts as one operation of the run.
    """
    path = WORK / "counters.json"
    seen = json.loads(path.read_text()) if path.is_file() else {}
    problems = []
    for key, value in run.counters.items():
        if key.startswith("latency."):
            continue
        if key in seen and seen[key] != value:
            problems.append(f"counter {key} changed between runs: {seen[key]} then {value}")
        seen.setdefault(key, value)
    run.op(problems)
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "waring" / "__init__.py").is_file():
            raise BenchError(f"no waring package under {SRC}")
        TMP.mkdir(parents=True, exist_ok=True)
        load_before = os.getloadavg()[0]
        run = Run()
        refs, setup_times = setup(args.workload, args.seed, run)
        spans: list[dict] = []
        unscaled: dict = {}
        if args.trace:
            metrics, spans = per_layer(args.workload, refs, run)
        else:
            measure(args.workload, args.seconds, args.seed, refs, run)
            metrics, unscaled = end_to_end(run, setup_times)
        check_counters(run)
        load_after = os.getloadavg()[0]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "load1_before": load_before,
        "load1_after": load_after,
        "workers": WORKERS,
        "setup_times_s": setup_times,
        "calibration_s_per_iteration": [v for _, v in run.samples],
        "scales": run.scales(),
        "unscaled_metrics": unscaled,
        "error_rate": run.failed / max(run.attempted, 1),
        "problems": run.problems[:20],
        "counters": run.counters,
    }
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
    if spans:
        trace_out = {"spans": spans, "self_time": summarize(spans)}
        (results_dir / f"{stem}.spans.json").write_text(json.dumps(trace_out))
    for problem in run.problems[:20]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    print("record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
