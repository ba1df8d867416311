"""The lazy `waring` package namespace, its imports, the shared (n, d) check,
and the immutable value classes."""

import ast
import importlib
import pickle
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import waring
from waring.coprime_sums import CoprimeSum, make_sum
from waring.errors import UsageError
from waring.monomials import Monomial
from waring.rank_tables import KnownExample, RankRecord, known_examples, upper_bounds
from waring.report import ReportDocument
from waring.verify import (
    CLAIMS,
    Claim,
    RatioPoint,
    VerificationReport,
    Violation,
    _agm_columns,
    ratio_to_generic,
    verify_claim,
)

PUBLIC_NAMES = {
    "BOUND_KINDS", "CLAIMS", "CLAIM_IDS", "CoprimeSum", "DegenerateInputError",
    "DimensionError", "EXPECTED_COPRIME_EXCEPTIONS", "KnownExample", "MODE_CLOSED_FORM",
    "MODE_ORACLE", "Monomial", "RankRecord", "RatioPoint", "UsageError", "VerificationReport",
    "Violation", "binomial", "canonicalize", "ceil_div", "enumerate_coprime_sums",
    "enumerate_monomials", "generic_rank", "greedy_construction", "known_examples", "make_sum",
    "max_rank_monomial", "max_rank_sum", "partitions", "r_max", "r_max_star",
    "ratio_decay_fixed_d", "ratio_to_generic", "sum_rank", "upper_bounds", "verify_claim",
    "verify_theorem_coprime", "verify_theorem_monomial", "waring_rank",
}
SUBMODULES = ("coprime_sums", "errors", "exact_math", "monomials", "rank_tables", "verify")


def test_all_lists_the_public_names_once():
    assert len(PUBLIC_NAMES) == 38
    assert sorted(waring.__all__) == sorted(PUBLIC_NAMES)


@pytest.mark.parametrize("name", sorted(PUBLIC_NAMES))
def test_public_name_is_its_submodules_object(name):
    value = getattr(waring, name)
    modules = [importlib.import_module("waring." + m) for m in SUBMODULES]
    holders = [module for module in modules if hasattr(module, name)]
    assert holders
    assert all(getattr(module, name) is value for module in holders)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from waring import *", namespace)
    assert PUBLIC_NAMES <= set(namespace)
    assert all(namespace[name] is getattr(waring, name) for name in PUBLIC_NAMES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        waring.no_such_name
    assert not hasattr(waring, "Record")
    with pytest.raises(ImportError):
        exec("from waring import no_such_name", {})


def _sources():
    """Every module file of src/waring."""
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "waring").glob("*.py"))
    assert sources
    return sources


def _absolute_imports():
    """(file name, top-level module) for each absolute import in src/waring."""
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                yield path.name, module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    for name, top in _absolute_imports():
        assert top == "waring" or top in sys.stdlib_module_names, (name, top)


def test_no_module_imports_dataclasses():
    # Every value class is a _record.Record; one mechanism, not two.
    assert [(name, top) for name, top in _absolute_imports() if top == "dataclasses"] == []


@pytest.mark.parametrize("path", _sources(), ids=lambda path: path.name)
def test_every_module_parses_as_python_3_10(path):
    # pyproject.toml requires Python 3.10.7 or later. This checks syntax only:
    # a 3.11-only library call or behaviour would still pass.
    ast.parse(path.read_text(encoding="utf-8"), filename=path.name, feature_version=(3, 10))


# ---------------------------------------------------------------------------
# the waring names the benchmark calls

BENCH = Path(__file__).resolve().parents[1] / "bench"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(scope):
    """The nodes of scope's body, less the bodies of the functions defined in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _waring_names(scope, bound):
    """The dotted waring names scope reads: its imports from waring, the
    attributes it reads off a name they bind (bound holds those of the
    enclosing scopes), and the waring modules it names in strings."""
    bound = dict(bound)
    nodes = list(_own_nodes(scope))
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "waring":
                    yield alias.name
                    bound[alias.asname or "waring"] = alias.name if alias.asname else "waring"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.partition(".")[0] == "waring":
            for alias in node.names:
                yield f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in nodes:
        if isinstance(node, ast.Attribute):
            chain, base = [], node
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                yield ".".join([bound[base.id], *reversed(chain)])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"waring(\.\w+)+", node.value):
                yield node.value
        elif isinstance(node, FUNCTIONS):
            yield from _waring_names(node, bound)


def _resolve(dotted):
    """The object a dotted waring name stands for: its longest importable module prefix, then attributes."""
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:end]))
        except ModuleNotFoundError:
            continue
        for attr in parts[end:]:
            value = getattr(value, attr)
        return value
    raise ModuleNotFoundError(dotted)


def test_every_waring_name_the_bench_uses_resolves():
    # A change that deletes or renames a name the benchmark calls fails
    # here, before any benchmark run.
    names = {(path.name, name) for path in sorted(BENCH.glob("*.py"))
             for name in _waring_names(ast.parse(path.read_text(encoding="utf-8")), {})}
    assert {"waring.cli.main", "waring.report.render", "waring.enumerate_monomials"} <= {n for _, n in names}
    for path_name, name in sorted(names):
        try:
            _resolve(name)
        except (AttributeError, ModuleNotFoundError) as exc:
            pytest.fail(f"bench/{path_name} uses {name}, which does not resolve: {exc}")
    # worker._WRAPPED names functions as "module.attr", with every module
    # that must hold that same function for its calls to be traced.
    worker = ast.parse((BENCH / "worker.py").read_text(encoding="utf-8"))
    [wrapped] = [node.value for node in worker.body if isinstance(node, ast.Assign)
                 and [target.id for target in node.targets if isinstance(target, ast.Name)] == ["_WRAPPED"]]
    for name, holders, _ in ast.literal_eval(wrapped):
        function = _resolve("waring." + name)
        attr = name.rpartition(".")[2]
        for holder in holders:
            assert getattr(importlib.import_module("waring." + holder), attr, None) is function, (name, holder)


def test_every_command_line_and_grid_call_the_bench_makes_is_accepted(monkeypatch):
    # The benchmark builds these argument lists and calls from its own
    # modules; one that waring stopped accepting would fail only there, as
    # a failed run. The modules are read, not run.
    from waring import cli

    monkeypatch.syspath_prepend(str(BENCH))
    run, checks, mix = (importlib.import_module(name) for name in ("run", "checks", "mix"))
    specs = [run.COPRIME_SPEC] + [run.dump_spec(*dump)[0] for dump in run.DUMPS]
    specs += [spec for seed in range(10) for spec in mix.make_batch(random.Random(seed))]
    assert len(specs) == 1 + 6 + 10 * mix.BATCH
    assert "--threads" in checks.build_argv(run.COPRIME_SPEC)
    parser = cli.build_parser()
    for spec in specs:
        parser.parse_args(checks.build_argv(spec))
    assert waring.verify_theorem_monomial((4, 5), (2, 3), workers=2).passed
    assert waring.verify_theorem_coprime((4, 5), (3, 4), workers=2).passed


# ---------------------------------------------------------------------------
# the (n, d) domain of each public entry point

# name -> (min_n, min_d); generators are advanced once, since they check lazily.
CELL_ENTRY_POINTS = {
    "enumerate_monomials": (1, 1),
    "enumerate_coprime_sums": (1, 1),
    "max_rank_monomial": (1, 1),
    "max_rank_sum": (1, 1),
    "r_max": (1, 1),
    "r_max_star": (1, 1),
    "generic_rank": (1, 1),
    "upper_bounds": (1, 1),
    "ratio_to_generic": (2, 2),
    "greedy_construction": (1, 2),
}


@pytest.mark.parametrize("name", CELL_ENTRY_POINTS)
def test_entry_point_rejects_a_cell_below_its_domain_by_name(name):
    fn = getattr(waring, name)
    min_n, min_d = CELL_ENTRY_POINTS[name]
    for n, d in ((min_n - 1, min_d), (min_n, min_d - 1)):
        with pytest.raises(UsageError) as exc:
            result = fn(n, d)
            if name.startswith("enumerate_"):
                next(result)
        assert str(exc.value) == f"{name} needs n >= {min_n} and d >= {min_d}, got ({n}, {d})"


# ---------------------------------------------------------------------------
# value classes


def _values():
    """Each value class, built twice from equal but distinct arguments."""
    coprime = make_sum([[1, 2], [3]], 4)
    return [
        (Monomial(exponents=(1, 2), ambient_vars=3), Monomial((1, 2), 3)),
        (make_sum([[1, 2], [3]], 4), make_sum([[3], [2, 1]], 4)),
        (upper_bounds(2, 2)[0], RankRecord(n=2, d=2, kind="span_bound", value=3)),
        (known_examples()[0], KnownExample(**vars(known_examples()[0]))),
        (Violation(4, 2, Monomial((1, 1), 4), 2, 4), Violation(4, 2, Monomial((1, 1), 4), 2, 4, False)),
        (Violation(4, 3, coprime, 5, 5, True), Violation(n=4, d=3, witness=coprime, lhs=5, rhs=5, expected=True)),
        (
            ratio_to_generic(5, 9, "coprime"),
            RatioPoint(5, 9, Fraction(81, 143), Fraction(15, 32), Fraction(447, 4576)),
        ),
        (CLAIMS["ineq-agm"], Claim(_agm_columns, 4, 2, (4, 8), (2, 20))),
    ]


def test_repr_is_what_the_dataclasses_printed():
    # A Claim's repr holds its cell function's address, so it is left out.
    reprs = [repr(a) for a, _ in _values() if not isinstance(a, Claim)]
    assert reprs == [
        "Monomial(exponents=(1, 2), ambient_vars=3)",
        "CoprimeSum(blocks=(Monomial(exponents=(1, 2), ambient_vars=2), "
        "Monomial(exponents=(3,), ambient_vars=1)), ambient_vars=4)",
        "RankRecord(n=2, d=2, kind='span_bound', value=3)",
        "KnownExample(label='x^2*y + y^2*z', n=3, d=3, rank=5, source_note="
        "'classical plane cubic attaining the maximum rank 5 for (3,3)')",
        "Violation(n=4, d=2, witness=Monomial(exponents=(1, 1), ambient_vars=4), lhs=2, rhs=4, "
        "expected=False)",
        "Violation(n=4, d=3, witness=CoprimeSum(blocks=(Monomial(exponents=(1, 2), ambient_vars=2), "
        "Monomial(exponents=(3,), ambient_vars=1)), ambient_vars=4), lhs=5, rhs=5, expected=True)",
        "RatioPoint(n=5, d=9, ratio=Fraction(81, 143), limit=Fraction(15, 32), "
        "gap=Fraction(447, 4576))",
    ]


def test_equal_values_compare_and_hash_equal():
    for a, b in _values():
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    assert Monomial((1, 2), 3) != Monomial((1, 2), 4)
    assert Monomial((3,), 1) != CoprimeSum((Monomial((3,), 1),), 1)
    assert Monomial((1, 2), 3) != ((1, 2), 3)


def test_fields_cannot_be_assigned_or_deleted():
    for a, _ in _values():
        for name in list(vars(a)):
            with pytest.raises(AttributeError):
                setattr(a, name, 0)
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 0


def test_values_round_trip_through_pickle():
    for a, _ in _values():
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(a, protocol))
            assert copy == a and copy is not a
            assert hash(copy) == hash(a)


def test_verification_report_repr_equality_and_pickle():
    report = verify_claim("theorem-coprime", (4, 4), (3, 3))
    other = VerificationReport(
        "theorem-coprime", (4, 4, 3, 3), 10, list(report.violations),
        "pass_with_expected_exceptions", True, report.elapsed_ms,
    )
    assert repr(report) == (
        f"VerificationReport(claim_id='theorem-coprime', grid=(4, 4, 3, 3), checked_count=10, "
        f"violations={report.violations!r}, status='pass_with_expected_exceptions', "
        f"expected_exceptions_matched=True, elapsed_ms={report.elapsed_ms})"
    )
    assert report == other and report is not other
    with pytest.raises(TypeError):  # its violations are a list
        hash(report)
    with pytest.raises(AttributeError):
        report.status = "fail"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(report, protocol))
        assert copy == report and copy is not report


@pytest.mark.parametrize(
    "ratio, gap, message",
    [
        (Fraction(0), Fraction(1), "ratio must be positive"),
        (Fraction(-1, 2), Fraction(0), "ratio must be positive"),
        (Fraction(1, 2), Fraction(-1, 3), "gap must be nonnegative"),
    ],
)
def test_ratio_point_rejects_a_nonpositive_ratio_or_a_negative_gap(ratio, gap, message):
    with pytest.raises(ValueError) as exc:
        RatioPoint(4, 4, ratio, Fraction(1), gap)
    assert str(exc.value) == message


def test_report_document_takes_keywords_and_fresh_default_rows():
    doc = ReportDocument(command="c", parameters={}, columns=["a"])
    other = ReportDocument("c", {}, ["a"])
    assert (doc.rows, doc.fmt, doc.generated_at) == ([], "md", None)
    doc.rows.append(("1",))
    assert other.rows == []
