"""Byte-identity of the CLI over a fixed command matrix.

Every command below runs in-process with --deterministic in md, csv and
json. tests/golden_outputs.json records, per run, the exit code, the
sha256 of stdout and the stderr text, so a refactor that claims "same
behaviour" is checked by a diff. The matrix covers every subcommand and
every exit-2 path. Regenerate the file only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from waring.cli import TABLE_NAMES, build_parser, main
from waring.verify import CLAIM_IDS

GOLDEN = Path(__file__).with_name("golden_outputs.json")
FORMATS = ("md", "csv", "json")
DUMP_DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "expected_dumps.json"
DUMPS = {"monomials": "enumerate --n 10 --d 40", "sums": "enumerate --n 10 --d 12 --sums"}

COMMANDS = (
    "rank --monomial 1,2,2",
    "rank --monomial 0,2,1,0 --vars 6",
    "rank --sum 1,2|1,2",
    "rank --sum 1,1,1|3|0,3 --vars 9",
    "rank --sum 1,1,1|0,2",
    "rank --sum 1|1",
    "rank --monomial 0,0",
    "rank --monomial 1,2,3 --vars 2",
    "rank --monomial 1,1000000 --vars 1000000",
    "generic-rank --help",
    "generic-rank --n 4 --d 4",
    "generic-rank --n 100 --d 3",
    "generic-rank --n 0 --d 3",
    "max-rank --help",
    "max-rank --n 4 --d 4",
    "max-rank --n 6 --d 13",
    "max-rank --n 5 --d 9 --oracle",
    "max-rank --n 4 --d 0",
    "max-rank --n 4 --d 0 --oracle",
    "max-rank-sum --help",
    "max-rank-sum --n 7 --d 3",
    "max-rank-sum --n 4 --d 7",
    "max-rank-sum --n 8 --d 4 --oracle",
    "max-rank-sum --n 8 --d 4",
    "max-rank-sum --n 10 --d 6 --oracle",
    "max-rank-sum --n 5 --d 1",
    "max-rank-sum --n 5 --d 1 --oracle",
    "bounds --help",
    "bounds --n 4 --d 5",
    "bounds --n 2 --d 2",
    "bounds --n 3 --d 0",
    "enumerate --help",
    "enumerate --n 4 --d 4",
    "enumerate --n 4 --d 3 --sums --spanning",
    "enumerate --n 5 --d 4 --sums",
    "enumerate --n 3 --d 3 --spanning",
    "enumerate --n 0 --d 3 --sums",
    "enumerate --n 7 --d 3 --sums",
    "enumerate --n 5 --d 5 --sums --spanning",
    "enumerate --n 8 --d 5 --sums --spanning",
    "enumerate --n 10 --d 7 --sums --spanning",
    "enumerate --n 1 --d 4",
    "enumerate --n 9 --d 2",
    "enumerate --n 3 --d 0",
    "enumerate --n 0 --d 3 --spanning",
    "enumerate --n 3 --d 1 --sums",
    "enumerate --n 11 --d 12",
    "enumerate --n 11 --d 4 --sums",
    "enumerate --n 10 --d 40",
    "enumerate --n 10 --d 12 --sums",
    "verify --claim theorem-monomial",
    "verify --claim theorem-coprime",
    "verify --claim lemma-slope",
    "verify --claim ineq-agm",
    "verify --claim ineq-pure-power",
    "verify --claim theorem-coprime --n-range 4:6 --d-range 3:5 --threads 2",
    "verify --claim theorem-coprime --n-range 4:7 --d-range 3:7 --threads 2",
    "verify --claim theorem-monomial --n-range 4:12 --d-range 2:6",
    "verify --claim theorem-coprime --n-range 4:6 --d-range 3:3 --threads 2",
    "verify --claim ineq-pure-power --n-range 4:6 --d-range 4:9",
    "verify --claim theorem-unknown",
    "verify --claim theorem-monomial --n-range 3:5 --d-range 2:4",
    "verify --claim ineq-agm --n-range 6:5",
    "verify --claim ineq-agm --d-range four:five",
    "verify --claim lemma-slope --n-range 4:6",
    "verify --claim lemma-slope --d-range 3:6",
    "verify --claim ineq-pure-power --n-range 4:5 --d-range 6:8",
    "verify --claim ineq-agm --threads 0",
    "asymptotics --mode d-limit --n 4 --d-samples 10,100",
    "asymptotics --mode d-limit --n 5 --d-samples 5,9 --which coprime",
    "asymptotics --mode d-limit --n 6 --d-samples 4,5 --which coprime",
    "asymptotics --mode d-limit --n 4 --d-samples 10,x",
    "asymptotics --mode n-limit --d 4 --n-max 14 --oracle-limit 9",
    "asymptotics --mode n-limit --d 4 --n-max 14",
    "asymptotics --mode n-limit --d 4 --n-max 14 --which monomial --n 9",
    "asymptotics --mode n-limit --d 4 --n-max 14 --d-samples 10",
    "asymptotics --mode d-limit --n 4 --d-samples 10,100 --d 7 --n-max 3",
    "asymptotics --mode d-limit --n 4 --d-samples 10,100 --n-max 3",
    "asymptotics --mode sideways",
    "asymptotics --mode d-limit",
    "table --name exceptional-44-53",
    "table --name coprime-43",
    "table --name known-examples",
    "table --name nothing",
)


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr": err.getvalue(),
    }


def matrix() -> dict[str, list[str]]:
    """Run key -> argv, for every command in every format."""
    return {
        f"{command} --format {fmt}": command.split() + ["--format", fmt, "--deterministic"]
        for command in COMMANDS
        for fmt in FORMATS
    }


def test_commands_cover_every_subcommand_table_and_claim():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    words = [command.split() for command in COMMANDS]

    def named(flag):
        return {argv[argv.index(flag) + 1] for argv in words if flag in argv}

    assert {argv[0] for argv in words} >= set(subparsers.choices)
    assert named("--name") >= set(TABLE_NAMES)
    assert named("--claim") >= set(CLAIM_IDS)


def test_handler_rows_are_tuples_of_strings_in_column_order():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for key, argv in matrix().items():
        if golden[key]["exit"] != 0 or "--help" in argv:
            continue
        args = build_parser().parse_args(argv)
        doc, _ = args.handler(args)
        count = len(doc.rows)  # enumerate knows its count before it makes a row
        rows = list(doc.rows)  # read once: enumerate makes its rows as they are read
        assert len(rows) == count, key
        shapes = {(type(row), len(row)) for row in rows}
        assert shapes <= {(tuple, len(doc.columns))}, key
        assert all(type(cell) is str for row in rows for cell in row), key


def test_cli_output_matches_golden(monkeypatch):
    # argparse wraps its usage text to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    runs = matrix()
    assert sorted(golden) == sorted(runs)
    changed = [key for key, argv in runs.items() if run(argv) != golden[key]]
    assert changed == []


def test_enumerate_dumps_match_the_pinned_digests(tmp_path):
    # The six files the benchmark's enumerate-dump workload writes, against
    # the size and sha256 it pins for each; the golden matrix has none of them.
    pinned = json.loads(DUMP_DIGESTS.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(f"{name}.{fmt}" for name in DUMPS for fmt in FORMATS)
    for name, command in DUMPS.items():
        for fmt in FORMATS:
            path = tmp_path / f"{name}.{fmt}"
            assert main(command.split() + ["--format", fmt, "--deterministic", "--out", str(path)]) == 0
            data = path.read_bytes()
            want = pinned[path.name]
            assert (len(data), hashlib.sha256(data).hexdigest()) == (want["bytes"], want["sha256"]), path.name


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    os.environ["COLUMNS"] = "80"
    results = {key: run(argv) for key, argv in matrix().items()}
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
