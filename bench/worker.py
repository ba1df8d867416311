"""One benchmark pass inside a fresh interpreter.

Usage: python worker.py MODE PAYLOAD_JSON. run.py starts this file with
PYTHONPATH set to the checkout's src/, reads the JSON object this prints
as its last line, and checks it. Modes:

  probe          import waring and its CLI, report where they resolve, and
                 warm up the path the workload takes
  grid-monomial  one verify_theorem_monomial call, timed after the import
                 and between two timings of the calibration loop
  tour-monomial  the monomial grid replayed cell by cell, with spans
  tour-coprime   the coprime grid replayed cell by cell, with spans
  cli            one CLI invocation replayed step by step, with spans

Replays take payload["traced"]; untraced replays make the same calls with
a NullTracer, which is the baseline for the tracing overhead.
"""

from __future__ import annotations

import json
import sys
import time

from tracing import NullTracer, Tracer, calibration_loop


def probe(payload: dict) -> dict:
    import waring
    import waring.cli

    found = {"waring": waring.__file__, "cli": waring.cli.__file__, "warmup_error": None}
    try:
        if payload["workload"] == "monomial-grid":
            waring.verify_theorem_monomial((4, 4), (2, 3), workers=1)
        elif payload["workload"] == "coprime-grid":
            waring.verify_theorem_coprime((4, 5), (3, 4), workers=payload["workers"])
        elif waring.cli.main(["rank", "--monomial", "1,2,2", "--out", payload["out"]]) != 0:
            found["warmup_error"] = "waring rank exited non-zero"
    except Exception as exc:  # reported as a failed operation, not a crash
        found["warmup_error"] = f"{type(exc).__name__}: {exc}"
    return found


def grid_monomial(payload: dict) -> dict:
    from waring import verify_theorem_monomial

    before = calibration_loop(payload["cal_iterations"])
    start = time.perf_counter()
    report = verify_theorem_monomial(*payload["grid"], workers=1)
    wall = time.perf_counter() - start
    after = calibration_loop(payload["cal_iterations"])
    return {
        "wall_s": wall,
        "calibration_s_per_iteration": [before, after],
        "status": report.status,
        "checked": report.checked_count,
        "violations": len(report.violations),
    }


def tour_monomial(payload: dict, tr: Tracer) -> dict:
    from waring import enumerate_monomials, generic_rank, partitions, waring_rank

    counts, violations = {}, 0
    for n, d in payload["cells"]:
        with tr.span("verify.cell", request=f"monomial-grid/{n},{d}"):
            with tr.span("rank_tables.generic_rank"):
                gen = generic_rank(n, d)
            with tr.span("monomials.partitions") as attrs:
                attrs["count"] = sum(1 for _ in partitions(d, n))
            with tr.span("monomials.enumerate_monomials") as attrs:
                monos = list(enumerate_monomials(n, d))
                attrs["count"] = len(monos)
            with tr.span("monomials.waring_rank") as attrs:
                violations += sum(1 for m in monos if waring_rank(m) >= gen)
                attrs["calls"] = len(monos)
        counts[f"{n},{d}"] = len(monos)
    return {"counts": counts, "violations": violations}


def tour_coprime(payload: dict, tr: Tracer) -> dict:
    from waring import enumerate_coprime_sums, generic_rank, sum_rank

    counts, nonstrict = {}, []
    for n, d in payload["cells"]:
        with tr.span("verify.cell", request=f"coprime-grid/{n},{d}"):
            with tr.span("rank_tables.generic_rank"):
                gen = generic_rank(n, d)
            with tr.span("coprime_sums.enumerate_coprime_sums") as attrs:
                sums = list(enumerate_coprime_sums(n, d))
                attrs["count"] = len(sums)
            with tr.span("coprime_sums.sum_rank") as attrs:
                nonstrict += [[n, d, f.block_shapes()] for f in sums if sum_rank(f) >= gen]
                attrs["calls"] = len(sums)
        counts[f"{n},{d}"] = len(sums)
    return {"counts": counts, "nonstrict": nonstrict}


# Public functions whose calls the cli replay wraps in spans, with every
# module that holds a reference to them, and the position of a mode argument.
_WRAPPED = (
    ("coprime_sums.max_rank_sum", ("coprime_sums",), 2),
    ("coprime_sums.r_max_star", ("coprime_sums", "verify"), 2),
    ("rank_tables.upper_bounds", ("rank_tables",), None),
    ("rank_tables.generic_rank", ("rank_tables", "verify"), None),
)


def _install_wrappers(tr: Tracer) -> None:
    import importlib

    for name, holders, mode_arg in _WRAPPED:
        module_name, attr = name.split(".")
        original = getattr(importlib.import_module("waring." + module_name), attr, None)
        if original is None:
            continue
        traced = tr.wrap(name, original, mode_arg)
        for holder in holders:
            module = importlib.import_module("waring." + holder)
            if getattr(module, attr, None) is original:
                setattr(module, attr, traced)


def cli(payload: dict, tr: Tracer) -> dict:
    """The steps of waring.cli.main, each in its own span."""
    with tr.span("cli.main", request=payload["request"]):
        with tr.span("cli.import"):
            import waring.cli as wcli
            from waring import report
        _install_wrappers(tr)
        with tr.span("cli.parse"):
            args = wcli.build_parser().parse_args(payload["argv"])
        with tr.span("cli.handler." + args.command):
            doc, code = args.handler(args)
        with tr.span("report.render", fmt=doc.fmt) as attrs:
            text = report.render(doc)
            attrs["rows"] = len(doc.rows)
        with tr.span("report.write", fmt=doc.fmt) as attrs:
            data = text.encode("utf-8")
            with open(args.out or payload["out"], "wb") as fh:
                fh.write(data)
            attrs["bytes"] = len(data)
    return {"exit_code": code}


def main() -> None:
    mode, payload = sys.argv[1], json.loads(sys.argv[2])
    if mode == "probe":
        result = probe(payload)
    elif mode == "grid-monomial":
        result = grid_monomial(payload)
    else:
        tr = Tracer() if payload["traced"] else NullTracer()
        replay = {"tour-monomial": tour_monomial, "tour-coprime": tour_coprime, "cli": cli}[mode]
        result = replay(payload, tr)
        result["spans"] = tr.spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
