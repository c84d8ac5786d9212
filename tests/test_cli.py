"""End-to-end tests for the command-line interface.

Every subcommand is exercised through click's CliRunner: table and JSON
formats, file output, and the exit-code contract (0 success/certified,
1 verification failure, 2 usage or parse errors).
"""

import contextlib
import gc
import hashlib
import io
import json
import math
import pathlib
import re
import shlex
import subprocess
import sys
import weakref

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from gtbasis import operators, patterns
from gtbasis.cli import emit, main
from gtbasis.operators import (
    GTModule,
    GeneratorSpec,
    matrix_from_json,
    operator_matrix,
)
from gtbasis.patterns import GTPattern, Partition, enumerate_patterns
from gtbasis.raising import GeneratorWord
from gtbasis.scalars import RadicalScalar
from gtbasis.weights import epsilon_string, weight_of

from golden_data import P210, rad
from test_operators import _corrupting

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(args, expect_exit=0):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == expect_exit, (
        "exit %s != %s for %r\n%s" % (result.exit_code, expect_exit, args, result.output)
    )
    return result


# -- dim ---------------------------------------------------------------------


def test_dim_prints_dimension():
    assert run(["dim", "2,1,0"]).output == "8\n"
    assert run(["dim", "1,1,0"]).output == "3\n"
    assert run(["dim", "2,1,1,0"]).output == "15\n"


def test_dim_rejects_malformed_partition():
    res = run(["dim", "1,2,0"], expect_exit=2)
    assert "weakly decreasing" in res.output
    run(["dim", "a,b"], expect_exit=2)
    run(["dim", ""], expect_exit=2)
    for text in ("2,1,,", "2,,1,0", ",2,1,0", "2,1,0,"):
        run(["dim", text], expect_exit=2)
    # entries that int() would read: one error line each, no traceback
    for args in (["dim", "2,1,0_0"], ["dim", "+2,1,0"], ["dim", "\u0662,1,0"],
                 ["weights", "2,1,0", "--pattern", "2,1,0;1,0;0_0"],
                 ["raise", "2,1,0", "--pattern", "2,1,0;1,0;\u0660"]):
        res = run(args, expect_exit=2)
        assert "malformed" in res.stderr and "Traceback" not in res.stderr
        assert sum(line.startswith("Error:") for line in res.stderr.splitlines()) == 1


# -- patterns ----------------------------------------------------------------


def test_patterns_table():
    res = run(["patterns", "1,1,0"])
    assert res.output.splitlines() == [
        "1,1,0;1,0;0  kappa=(0,1,1)  ε_2 + ε_3",
        "1,1,0;1,0;1  kappa=(1,0,1)  ε_1 + ε_3",
        "1,1,0;1,1;1  kappa=(1,1,0)  ε_1 + ε_2",
    ]


def test_patterns_json_matches_library():
    res = run(["patterns", "2,1,0", "--format", "json"])
    doc = json.loads(res.output)
    pats = enumerate_patterns(P210)
    assert [entry["pattern"] for entry in doc] == [p.to_string() for p in pats]
    for entry, p in zip(doc, pats):
        w = weight_of(p)
        assert entry["kappa"] == list(w)
        assert entry["epsilon_string"] == epsilon_string(w)


# -- matrix ------------------------------------------------------------------


def test_matrix_table_for_defining_module():
    res = run(["matrix", "1,0", "E", "1"])
    assert res.output.splitlines() == [
        "# E index 1 on 1,0, dim 2",
        "# basis (rows below top): 0 | 1",
        "0  0",
        "1  0",
    ]


def test_matrix_json_round_trip():
    for generator, index in (("E", 1), ("F", 2), ("H", 3), ("cartan", 2)):
        res = run(["matrix", "2,1,0", generator, str(index), "--format", "json"])
        mat = matrix_from_json(json.loads(res.output))
        kind = {"E": "raise", "F": "lower", "H": "diag", "cartan": "cartan"}[generator]
        assert mat.entries == operator_matrix(GeneratorSpec(kind, index), GTModule(P210)).entries


def _dense_matrix_output(partition, spec, fmt):
    """``matrix`` output formatted from the dense grid of ``entries``, cell by cell."""
    mat, letter = operator_matrix(spec, GTModule(partition)), spec.LETTERS[spec.kind]
    if fmt == "json":
        doc = {"partition": list(partition.parts), "generator": letter,
               "index": spec.index, "dim": mat.dim,
               "entries": [[v.to_json() for v in row] for row in mat.entries]}
        return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    cells = [[str(v) for v in row] for row in mat.entries]
    widths = [max(len(row[c]) for row in cells) for c in range(mat.dim)]
    lines = ["# %s index %d on %s, dim %d" % (letter, spec.index, partition, mat.dim),
             "# basis (rows below top): %s"
             % " | ".join(p.compact_str() for p in enumerate_patterns(partition))]
    lines += ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("parts", ["2,1,0", "3,2,1,0", "2,1,1,0"])
def test_matrix_output_matches_the_dense_grid(parts):
    partition = Partition.from_string(parts)
    n = partition.n
    for kind, letter in GeneratorSpec.LETTERS.items():
        for index in range(1, (n if kind == "diag" else n - 1) + 1):
            spec = GeneratorSpec(kind, index)
            for fmt in ("table", "json"):
                res = run(["matrix", parts, letter, str(index), "--format", fmt])
                want = _dense_matrix_output(partition, spec, fmt)
                assert res.output == want, (parts, letter, index, fmt)


def test_matrix_matrixmarket_format():
    res = run(["matrix", "2,1,0", "E", "1", "--format", "matrixmarket"])
    lines = res.output.splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1] == "% partition 2,1,0 generator E index 1"
    assert lines[2] == "8 8 4"
    assert len(lines) == 7


def test_matrix_index_out_of_range_is_usage_error():
    res = run(["matrix", "2,1,0", "E", "3"], expect_exit=2)
    assert "out of range" in res.output
    run(["matrix", "2,1,0", "cartan", "3"], expect_exit=2)
    # H runs over all n diagonal generators, so index 3 is fine for n = 3.
    run(["matrix", "2,1,0", "H", "3"])


def test_generator_index_error_names_the_typed_letter():
    res = run(["matrix", "2,1,0", "F", "7"], expect_exit=2)
    assert "Error: F index 7 out of range 1..2" in res.output
    res = run(["matrix", "2,1,0", "H", "4"], expect_exit=2)
    assert "Error: H index 4 out of range 1..3" in res.output
    res = run(["export", "2,1,0", "E", "9"], expect_exit=2)
    assert "Error: E index 9 out of range 1..2" in res.output


# -- verify ------------------------------------------------------------------


def test_verify_reports_one_line():
    res = run(["verify", "2,1,0"])
    assert res.output == (
        "relations: PASS (38 checks), simplicity: CERTIFIED (8/8, rank 8)\n"
    )


def test_verify_json_document():
    res = run(["verify", "1,0", "--format", "json"])
    doc = json.loads(res.output)
    assert doc["partition"] == [1, 0]
    assert doc["relations"] == {"passed": True, "checks": 7, "failures": []}
    assert doc["simplicity"] == {
        "certified": True,
        "raised": 2,
        "dim": 2,
        "rank": 2,
        "failures": [],
    }


@pytest.mark.parametrize("fmt, golden", [
    ("table", "verify_210_scale_both.txt"),
    ("json", "verify_210_scale_both.json"),
])
def test_failing_verify_text_is_pinned(monkeypatch, fmt, golden):
    # one entry of E_2 and the transposed entry of F_2 doubled: 20 of 38 fail
    _corrupting(monkeypatch, "scale_both")
    res = run(["verify", "2,1,0", "--format", fmt], expect_exit=1)
    assert res.output == (GOLDEN / golden).read_text(encoding="utf-8")


# -- weights -----------------------------------------------------------------


def test_weights_decomposition_table():
    res = run(["weights", "2,1,0"])
    lines = res.output.splitlines()
    assert lines[0] == "# 7 weights, dim 8"
    assert "kappa=(1,1,1)  ε_1 + ε_2 + ε_3  multiplicity 2: 1,1;1 | 2,0;1" in lines
    assert len(lines) == 8


def test_weights_single_pattern():
    res = run(["weights", "2,1,0", "--pattern", "2,1,0;1,0;0"])
    assert res.output == (
        "2,1,0;1,0;0  kappa=(0,1,2)  fundamental=(-1,-1)  ε_2 + 2ε_3\n"
    )


def test_weights_json_multiplicities():
    res = run(["weights", "2,1,0", "--format", "json"])
    doc = json.loads(res.output)
    assert len(doc) == 7
    assert sum(entry["multiplicity"] for entry in doc) == 8
    double = [e for e in doc if e["multiplicity"] == 2]
    assert len(double) == 1
    assert double[0]["kappa"] == [1, 1, 1]
    assert double[0]["patterns"] == ["2,1,0;1,1;1", "2,1,0;2,0;1"]


def test_weights_invalid_pattern_is_usage_error():
    res = run(["weights", "2,1,0", "--pattern", "2,1,0;2,2;1"], expect_exit=2)
    assert "invalid pattern" in res.output


# -- raise -------------------------------------------------------------------


def test_raise_table():
    res = run(["raise", "2,1,0", "--pattern", "2,1,0;2,0;0"])
    assert res.output.splitlines() == [
        "pattern: 2,1,0;2,0;0",
        "word: E12^0 E23^1 E12^2",
        "exponents: (0,1,2)",
        "lambda: 2",
    ]


def test_raise_highest_pattern_uses_identity_word():
    res = run(["raise", "2,1,0", "--pattern", "2,1,0;2,1;2"])
    assert res.output.splitlines() == [
        "pattern: 2,1,0;2,1;2",
        "word: E12^0 E23^0 E12^0",
        "exponents: (0,0,0)",
        "lambda: 1",
    ]


def test_raise_json():
    res = run(["raise", "2,1,0", "--pattern", "2,1,0;1,1;1", "--format", "json"])
    doc = json.loads(res.output)
    assert doc["pattern"] == "2,1,0;1,1;1"
    assert doc["exponents"] == [1, 1, 0]
    assert RadicalScalar.from_json(doc["lambda"]) == rad(1, 2, 6)


@pytest.fixture
def default_int_str_limit():
    """Run with the interpreter's default int-string limit, where it has one.

    The CLI lifts the limit for a command only: after the test, and after a
    run that exits 0 and one that exits 1, the limit is the default again.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    limit = sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(limit)
    try:
        yield
        assert sys.get_int_max_str_digits() == limit
        run(["raise", "1559,0", "--pattern", "1559,0;0"])
        assert sys.get_int_max_str_digits() == limit
        run(["monomials", "2,1,0", "--schedule", "alternate", "--strict"], expect_exit=1)
        assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(old)


@contextlib.contextmanager
def _no_int_str_limit():
    """Lift the int-string limit for the test's own conversions of big ints."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_integers_of_any_size_print(default_int_str_limit):
    m = 10 ** 4000
    table = run(["raise", "1559,0", "--pattern", "1559,0;0"]).stdout
    doc = json.loads(run(["raise", "1559,0", "--pattern", "1559,0;0", "--format", "json"]).stdout)
    dim_text = run(["dim", "%d,0,0" % m]).stdout
    refusal = run(["verify", "%d,0,0" % m], expect_exit=2).stderr
    with _no_int_str_limit():
        lam = math.factorial(1559)  # 4305 digits
        d = (m + 1) * (m + 2) // 2
        assert table.splitlines()[-1] == "lambda: %d" % lam
        assert RadicalScalar.from_json(doc["lambda"]) == rad(lam)
        assert dim_text == "%d\n" % d
        assert refusal == "dimension %d exceeds --max-dim 5000\n" % d


@pytest.mark.parametrize("command, options, unshifted, shifted", [
    ("raise", [], "3,2,1;3,2;3", "2,1,0;2,1;2"),
    ("weights", [], "3,2,1;3,1;2", "2,1,0;2,0;1"),
    ("weights", ["--format", "json"], "3,2,1;3,1;2", "2,1,0;2,0;1"),
])
def test_pattern_may_repeat_an_unshifted_partition(command, options, unshifted, shifted):
    plain = run([command, "2,1,0", *options, "--pattern", shifted]).output
    assert run([command, "3,2,1", *options, "--pattern", unshifted]).output == plain


def test_pattern_of_another_partition_is_refused():
    for partition in ("3,2,1", "2,1,0"):
        res = run(["raise", partition, "--pattern", "3,1,0;3,1;3"], expect_exit=2)
        assert "does not belong to partition 2,1,0" in res.output


def test_raise_requires_pattern_option():
    run(["raise", "2,1,0"], expect_exit=2)
    run(["raise", "2,1,0", "--pattern", "nonsense"], expect_exit=2)


@pytest.mark.parametrize("args, golden", [
    (["raise", "2,1,0", "--pattern", "2,1,0;2,0;0"], "raise_210.txt"),
    (["raise", "2,1,0", "--pattern", "2,1,0;2,0;0", "--format", "json"], "raise_210.json"),
    (["matrix", "2,1,0", "cartan", "1", "--format", "json"], "matrix_210_cartan_1.json"),
    (["monomials", "2,1,0", "--schedule", "alternate", "--format", "json"],
     "monomials_210_alternate.json"),
])
def test_output_text_is_pinned(args, golden):
    assert run(args).output == (GOLDEN / golden).read_text(encoding="utf-8")


# -- monomials ---------------------------------------------------------------


def test_monomials_canonical_is_basis():
    res = run(["monomials", "2,1,0"])
    lines = res.output.splitlines()
    assert lines[0] == "# monomial family for 2,1,0, schedule canonical"
    assert lines[-2] == "rank: 8"
    assert lines[-1] == "BASIS"
    assert len(lines) == 11


def test_monomials_alternate_reports_duplicate():
    res = run(["monomials", "2,1,0", "--schedule", "alternate"])
    lines = res.output.splitlines()
    assert "2,1,0;2,0;1  F23^1 F12^1 F23^0  [duplicate of 2,1,0;1,1;1]" in lines
    assert lines[-2] == "rank: 7"
    assert lines[-1] == "NOT A BASIS (rank 7 < dim 8; 1 duplicate word)"


def test_monomials_strict_exit_codes():
    run(["monomials", "2,1,0", "--strict"])
    run(["monomials", "2,1,0", "--schedule", "alternate", "--strict"], expect_exit=1)


def test_monomials_alternate_at_n_four():
    res = run(["monomials", "2,1,1,0", "--schedule", "alternate"])
    lines = res.output.splitlines()
    assert lines[0] == "# monomial family for 2,1,1,0, schedule alternate"
    assert lines[-1] == "NOT A BASIS (rank 14 < dim 15; 1 duplicate word)"
    run(["monomials", "2,1,1,0", "--schedule", "alternate", "--strict"], expect_exit=1)


def test_monomials_builds_no_word(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the monomials verdict built a GeneratorWord")

    monkeypatch.setattr(GeneratorWord, "__init__", forbidden)
    for fmt in ("table", "json"):
        run(["monomials", "3,2,1,0", "--format", fmt])
        run(["monomials", "8,4,0", "--schedule", "alternate", "--format", fmt])


def test_monomials_json():
    res = run(["monomials", "2,1,0", "--schedule", "alternate", "--format", "json"])
    doc = json.loads(res.output)
    assert doc["schedule"] == "alternate"
    assert doc["rank"] == 7
    assert doc["is_basis"] is False
    assert len(doc["entries"]) == 8
    dups = [e for e in doc["entries"] if e["duplicate_of"] is not None]
    assert len(dups) == 1
    assert dups[0]["pattern"] == "2,1,0;2,0;1"
    # duplicate_of is the index of the first occurrence in the entry list.
    assert doc["entries"][dups[0]["duplicate_of"]]["pattern"] == "2,1,0;1,1;1"


# -- export ------------------------------------------------------------------


def test_export_matches_matrixmarket_format():
    exported = run(["export", "2,1,0", "E", "1"]).output
    via_matrix = run(
        ["matrix", "2,1,0", "E", "1", "--format", "matrixmarket"]
    ).output
    assert exported == via_matrix
    coords = [line.split() for line in exported.splitlines()[3:]]
    assert [(r, c) for r, c, _ in coords] == [
        ("3", "1"), ("5", "2"), ("7", "5"), ("8", "6")
    ]


# -- shared options ----------------------------------------------------------


def test_output_option_writes_file(tmp_path):
    target = tmp_path / "dump.json"
    res = run(["patterns", "1,0", "--format", "json", "--output", str(target)])
    assert res.output == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert [entry["pattern"] for entry in doc] == ["1,0;0", "1,0;1"]


@pytest.mark.parametrize("args", [
    ["verify", "2,1,0"],
    ["patterns", "2,1,0"],
    ["raise", "2,1,0", "--pattern", "2,1,0;2,0;0"],
])
def test_output_to_a_missing_directory_is_one_line_and_exit_2(tmp_path, args):
    target = tmp_path / "missing" / "x"
    result = CliRunner().invoke(main, [*args, "--output", str(target)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == "cannot write %s: No such file or directory\n" % target
    assert result.stdout == ""
    assert not target.parent.exists()


def test_output_to_a_missing_directory_prints_no_traceback(tmp_path):
    target = tmp_path / "missing" / "x"
    proc = subprocess.run(
        [sys.executable, "-m", "gtbasis", "verify", "2,1,0", "--output", str(target)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "cannot write %s: No such file or directory\n" % target
    assert proc.stdout == ""


def test_verify_does_not_import_numpy():
    code = ("import sys\n"
            "from gtbasis.cli import main\n"
            "try:\n"
            "    main(['verify', '2,1,0'])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "assert 'numpy' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("relations: PASS (38 checks)")


def test_unknown_format_rejected():
    run(["patterns", "1,0", "--format", "xml"], expect_exit=2)
    # matrixmarket only makes sense for matrices.
    run(["verify", "1,0", "--format", "matrixmarket"], expect_exit=2)


def test_help_lists_all_subcommands():
    res = run(["--help"])
    for name in ("dim", "patterns", "matrix", "verify", "weights",
                 "raise", "monomials", "export"):
        assert name in res.output


def _readme_examples():
    """(argument list, printed text) of each ``$ gtbasis ...`` example in
    README.md's ``sh`` blocks whose output is printed in full, with no "..."."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.S | re.M):
        for example in re.split(r"^\$ gtbasis ", block, flags=re.M)[1:]:
            command, _, text = example.partition("\n")
            text = text.rstrip("\n") + "\n"
            if "..." not in text:
                examples.append((shlex.split(command, comments=True), text))
    return examples


def test_readme_examples_print_what_the_readme_shows():
    examples = _readme_examples()
    assert len(examples) >= 7
    for args, text in examples:
        result = CliRunner().invoke(main, args)
        assert result.exception is None or isinstance(result.exception, SystemExit), args
        assert result.output == text, args


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gtbasis", "dim", "2,1,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "8"


def test_emit_keeps_no_reference_to_a_redirected_stdout():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        emit("verdict", None)
    assert buf.getvalue() == "verdict\n"
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None


# -- one enumeration per verdict ----------------------------------------------


def _count_calls(monkeypatch, original):
    """Route every gtbasis binding of the function through a counter.

    Returns the list of each call's positional arguments.
    """
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, mod in list(sys.modules.items()):
        if name == "gtbasis" or name.startswith("gtbasis."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counting)
    return calls


def _count_enumerations(monkeypatch):
    return _count_calls(monkeypatch, patterns.enumerate_patterns)


@pytest.mark.parametrize("args", [
    ["verify", "3,2,1,0"],
    ["verify", "2,1,1,1,0", "--format", "json"],
    ["monomials", "5,3,2,0"],
    ["monomials", "3,2,1,0,0", "--format", "json"],
    ["monomials", "6,3,0", "--schedule", "alternate"],
    ["matrix", "2,1,0", "E", "1"],
    ["matrix", "3,2,1,0", "F", "2", "--format", "json"],
    ["export", "3,2,1,0", "E", "2"],
])
def test_each_verdict_enumerates_the_basis_once(monkeypatch, args):
    calls = _count_enumerations(monkeypatch)
    run(args)
    assert len(calls) == 1


@pytest.mark.parametrize("parts", ["2,1,0", "3,2,1,0", "2,1,1,1,0", "3,2,1,0,0,0"])
def test_verify_checks_each_weight_ladder_once(monkeypatch, parts):
    # the relation gate and the certificate share GTModule.ladder_fault,
    # locality_fault and the gate's window columns: one pass over the E_k
    calls = []
    original = operators._raising_structure

    def counting(module):
        calls.append(module)
        return original(module)

    monkeypatch.setattr(operators, "_raising_structure", counting)
    run(["verify", parts])
    assert len(calls) == 1


@pytest.mark.parametrize("parts", ["2,1,0", "3,2,1,0", "2,1,1,1,0"])
def test_generator_matrices_evaluate_no_raising_coefficient(monkeypatch, parts):
    # E_k is built as F_kᵀ, so only the raise path of words calls the
    # kernel with step 1
    steps = []
    original = operators._act

    def counting(rows, k, step, roots, shifts):
        steps.append(step)
        return original(rows, k, step, roots, shifts)

    monkeypatch.setattr(operators, "_act", counting)
    run(["verify", parts])
    assert steps and set(steps) == {-1}
    steps.clear()
    lowest = enumerate_patterns(Partition.from_string(parts))[0]
    operators.act_raise(1, lowest)
    assert steps == [1]
    steps.clear()
    run(["raise", parts, "--pattern", lowest.to_string()])
    assert 1 in steps


def test_raising_matrix_output_is_pinned():
    # E_k is built as the transpose of F_k; its table, JSON and Matrix Market
    # text are the ones the raising kernel's matrices gave
    digests = json.loads((GOLDEN / "matrix_e_sha256.json").read_text(encoding="utf-8"))
    assert len(digests) == 15
    for args, digest in digests.items():
        assert hashlib.sha256(run(args.split()).output.encode()).hexdigest() == digest, args


# -- size guard ----------------------------------------------------------------


@pytest.mark.parametrize("args", [
    ["verify", "9,4,2,0", "--max-dim", "100"],
    ["patterns", "2,1,0", "--max-dim", "7"],
    ["weights", "2,1,0", "--max-dim", "7"],
    ["matrix", "2,1,0", "E", "1", "--max-dim", "7"],
    ["export", "2,1,0", "E", "1", "--max-dim", "7"],
    ["monomials", "2,1,0", "--max-dim", "7", "--format", "json"],
])
def test_max_dim_refuses_before_enumerating(monkeypatch, args):
    calls = _count_enumerations(monkeypatch)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    dim, limit = ("2916", "100") if args[1] == "9,4,2,0" else ("8", "7")
    assert result.stderr == "dimension %s exceeds --max-dim %s\n" % (dim, limit)
    assert result.stdout == ""
    assert calls == []


def test_max_dim_admits_a_module_of_that_dimension():
    assert run(["verify", "2,1,0", "--max-dim", "8"]).output.startswith("relations: PASS")


def test_max_dim_refusal_is_one_line_without_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "gtbasis", "verify", "9,4,2,0", "--max-dim", "100"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == "dimension 2916 exceeds --max-dim 100\n"
    assert proc.stdout == ""


def test_max_dim_spares_weights_of_one_pattern(monkeypatch):
    # one --pattern enumerates nothing, so a module past --max-dim is fine
    calls = _count_enumerations(monkeypatch)
    result = run(["weights", "20,10,5,0", "--pattern", "20,10,5,0;20,10,5;20,10;20"])
    assert "kappa=(20,10,5,0)" in result.output
    assert calls == []


# -- parser fuzzing ------------------------------------------------------------

PARSER_TEXT = st.text(
    alphabet=st.sampled_from(
        list("0123456789,;^-+ EFHabxyz\t\n") + ["٣", "１", "²", "߀", "\u00a0"]
    ),
    max_size=24,
)


def rejected(parse, text):
    """Whether parse rejects text; any exception but ValueError fails the test."""
    try:
        parse(text)
    except ValueError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(PARSER_TEXT)
def test_parsers_raise_only_value_error(text):
    if rejected(Partition.from_string, text):
        run(["dim", "--", text], expect_exit=2)
    if rejected(lambda t: GTPattern.from_string(t, P210), text):
        run(["raise", "2,1,0", "--pattern=" + text], expect_exit=2)
    rejected(GTPattern.from_string, text)
