"""The command-line driver, the instance file format and the expression
evaluator, with a sweep of one-leaf mutations of the samples through every
command."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fixtures
from semicross import errors
from semicross.cli import eval_expression, main
from semicross.errors import CheckError, EvalError, SchemaError
from semicross.io_json import load_instance, parse_instance, serialize_instance
from semicross.reps import group_case_check

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"


# C({x, y}) under the identity, with pi = 1 at both points: an algebraic pair
# whose pi is not multiplicative (pi(d_x) pi(d_y) = 1, pi(d_x d_y) = 0)
ONE_POINT = {
    "semigroup": {"carrier": ["x", "y"], "generators": [{"x": "x", "y": "y"}]},
    "algebra": {"kind": "function", "points": ["x", "y"]},
    "action": {"induced": True},
    "elements": {
        "a": [["id{x,y}", [[1, 0], [0, 0]]]],
        "b": [["id{x,y}", [[1, 0], [-1, 0]]]],
    },
    "representations": [{
        "name": "r",
        "space": {"dim": 1, "p": 2},
        "pi": {"x": [[[1, 0]]], "y": [[[1, 0]]]},
        "v": {"id{x,y}": [[[1, 0]]]},
    }],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_flip_passes_with_pa1_counts(self, capsys):
        code, out, _ = run(capsys, "validate", str(INSTANCES / "flip.json"))
        assert code == 0
        assert "PA1: 25/25 pass" in out

    def test_semi_table_star_reconstructed(self, capsys):
        code, out, _ = run(capsys, "validate", str(INSTANCES / "semi_table.json"))
        assert code == 0
        assert "star map reconstructed" in out

    def test_matrix_instance_passes(self, capsys):
        code, out, _ = run(capsys, "validate", str(INSTANCES / "m2.json"))
        assert code == 0

    def test_corrupted_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "line" in err

    def test_schema_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"semigroup": {"carrier": ["1"]}}))
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2

    def test_axiom_failure_exits_1(self, capsys, tmp_path):
        doc = json.loads((INSTANCES / "semi_table.json").read_text())
        doc["action"]["maps"]["e"] = [[[2, 0], [0, 0]]]  # scaled, not isometric
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1

    def test_json_flag_shapes_output(self, capsys):
        code, out, _ = run(capsys, "--json", "validate", str(INSTANCES / "flip.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "validate"
        assert all(r["passed"] for r in doc["reports"])

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_check_error_while_loading_exits_1(self, tmp_path, flags):
        # a stored star map that is not the inverse map fails inside
        # load_instance, before any subcommand runs
        doc = json.loads((INSTANCES / "semi_table.json").read_text())
        doc["semigroup"]["star"] = [1, 0]
        bad = tmp_path / "bad_star.json"
        bad.write_text(json.dumps(doc))
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        cmd = [sys.executable, *flags, "-m", "semicross.cli"]
        result = subprocess.run(
            [*cmd, "--json", "validate", str(bad)], capture_output=True, text=True, env=env
        )
        assert result.returncode == 1
        assert json.loads(result.stdout)["error"]["code"] == "NonUniqueInverse"
        result = subprocess.run(
            [*cmd, "validate", str(bad)], capture_output=True, text=True, env=env
        )
        assert result.returncode == 1
        assert result.stderr.startswith("error[NonUniqueInverse]: ")

    def test_json_flag_reports_error_codes(self, capsys, tmp_path):
        doc = json.loads((INSTANCES / "semi_table.json").read_text())
        doc["action"]["ideals"]["e"] = [[[1, 0], [1, 0]]]  # not an ideal
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "--json", "validate", str(bad))
        assert code == 1
        assert json.loads(out)["error"]["code"] == "NotAnIdeal"


class TestBuild:
    def test_semi_dimensions(self, capsys):
        code, out, _ = run(
            capsys,
            "build",
            str(INSTANCES / "semi.json"),
            "--null",
            "--quotient",
            "--seminorm",
            "reg",
        )
        assert code == 0
        assert "dim ell1 = 3" in out
        assert "dim null = 1" in out
        assert "dim quotient = 2" in out
        assert "null inside kernel: True (equal: True)" in out

    def test_flip_with_regular_family(self, capsys):
        code, out, _ = run(
            capsys, "build", str(INSTANCES / "flip.json"), "--seminorm", "reg"
        )
        assert code == 0
        assert "dim seminorm kernel = 0" in out
        assert "dim family crossed product = 4" in out

    def test_group_instance_dispatches_the_group_checks(self, capsys):
        code, out, _ = run(capsys, "build", str(INSTANCES / "z2.json"))
        assert code == 0
        assert "group case" in out

    def test_unknown_rep_id(self, capsys):
        code, _, err = run(
            capsys, "build", str(INSTANCES / "flip.json"), "--seminorm", "nope"
        )
        assert code == 2

    def test_report_subcommand(self, capsys):
        code, out, _ = run(capsys, "report", str(INSTANCES / "sim2.json"))
        assert code == 0
        assert "dim ell1 = 8" in out
        assert "dim null = 4" in out
        assert "dim quotient = 4" in out

    def test_commands_read_an_explicit_instance_by_one_path(self, capsys, tmp_path):
        # validate and report do not record that an explicit instance passed,
        # so report, build and eval read its null ideal by the same numeric
        # path: one null basis, printed as it always was, and no exact norm
        # over operator-2-norm blocks, which the 64-gon program cannot model
        trivial_m2 = tmp_path / "trivial_m2.json"
        trivial_m2.write_text(json.dumps(fixtures.TRIVIAL_M2))
        for path in (str(INSTANCES / "semi_table.json"), str(trivial_m2)):
            report, build = (
                json.loads(run(capsys, "--json", *argv)[1])["build"]["null_basis"]
                for argv in (["report", path], ["build", path, "--null"])
            )
            assert report == build
        row = "  null basis row: [-0.707107+0.j  0.      +0.j  0.707107+0.j]"
        for argv in (["report"], ["build", "--null"]):
            code, out, _ = run(capsys, argv[0], str(INSTANCES / "semi_table.json"), *argv[1:])
            assert code == 0 and row in out.splitlines()
        code, _, err = run(capsys, "eval", str(trivial_m2), "qnorm(a)")
        assert code == 1 and err.startswith("error[QuotientNormNotLP]: ")

    def test_matrix_group_action_kernel_strictly_above_null(self, capsys):
        # one 2-dimensional representation cannot see all of the 8-dimensional
        # section algebra of the swap-conjugation action, so its kernel is a
        # proper convolution ideal above the (trivial) difference ideal
        code, out, _ = run(
            capsys, "build", str(INSTANCES / "m2_swap.json"), "--seminorm", "sw"
        )
        assert code == 0
        assert "dim null = 0" in out
        assert "dim seminorm kernel = 4" in out
        assert "null inside kernel: True (equal: False)" in out


class TestEval:
    def test_norm_of_convolution(self, capsys):
        code, out, _ = run(
            capsys, "eval", str(INSTANCES / "flip.json"), "norm1(conv(a, b))"
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.0)

    def test_double_star_is_identity(self, capsys):
        code, out, _ = run(
            capsys, "eval", str(INSTANCES / "flip.json"), "star(star(a)) - a"
        )
        assert code == 0
        assert out.strip() == "0"

    def test_quotient_norm_of_semi_coset(self, capsys):
        code, out, _ = run(capsys, "eval", str(INSTANCES / "semi.json"), "qnorm(a)")
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.0, rel=2e-3)

    def test_seminorm_uses_the_file_representations(self, capsys):
        code, out, _ = run(capsys, "eval", str(INSTANCES / "semi.json"), "snorm(g)")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.0, abs=1e-9)

    def test_scalar_multiples_and_sums(self, capsys):
        code, out, _ = run(
            capsys, "eval", str(INSTANCES / "flip.json"), "norm1(2*a + a*0.5)"
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(2.5)

    def test_convolution_via_star_operator(self, capsys):
        code, out, _ = run(capsys, "eval", str(INSTANCES / "flip.json"), "norm1(a*b)")
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.0)

    def test_unknown_name_reports_position(self):
        inst = load_instance(INSTANCES / "flip.json")
        with pytest.raises(EvalError) as err:
            eval_expression("norm1(zzz)", inst)
        assert err.value.position == 6

    def test_rejects_arbitrary_syntax(self):
        inst = load_instance(INSTANCES / "flip.json")
        with pytest.raises(EvalError):
            eval_expression("__import__('os')", inst)
        with pytest.raises(EvalError):
            eval_expression("a + 1", inst)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", ["flip", "semi", "sim2", "z2", "semi_table", "m2"]
    )
    def test_serialize_parse_is_bit_for_bit(self, name):
        text = (INSTANCES / f"{name}.json").read_text()
        first = parse_instance(text)
        emitted = serialize_instance(first)
        second = parse_instance(emitted)
        assert np.array_equal(first.semigroup.table, second.semigroup.table)
        assert first.semigroup.labels == second.semigroup.labels
        for t in range(len(first.semigroup)):
            assert np.array_equal(
                first.action.ideal(t).basis, second.action.ideal(t).basis
            )
            assert np.array_equal(
                first.action.paut(t).matrix, second.action.paut(t).matrix
            )
        for key, rep in first.representations.items():
            assert np.array_equal(rep.pi, second.representations[key].pi)
            assert np.array_equal(rep.v, second.representations[key].v)
        for key, f in first.elements.items():
            assert np.array_equal(f.to_dense(), second.elements[key].to_dense())
        assert serialize_instance(second) == emitted

    def test_elements_outside_ideals_are_rejected(self, tmp_path):
        doc = json.loads((INSTANCES / "flip.json").read_text())
        doc["elements"] = {"bad": [["(1>2)", [[1, 0], [0, 0]]]]}  # d1 not in I_t
        with pytest.raises(SchemaError):
            parse_instance(json.dumps(doc))


class TestConsoleScript:
    def test_entry_point_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "semicross.cli", "validate", str(INSTANCES / "flip.json")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "PA1: 25/25 pass" in result.stdout

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_bad_representation_fails_with_a_named_code(self, tmp_path, flags):
        # python -O strips assert statements; input checks must not rely on them
        doc = json.loads((INSTANCES / "m2.json").read_text())
        pi = doc["representations"][0]["pi"]
        pi["b0:0,1"] = [[[2 * re, 2 * im] for re, im in row] for row in pi["b0:0,1"]]
        bad = tmp_path / "m2_doubled.json"
        bad.write_text(json.dumps(doc))
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        result = subprocess.run(
            [sys.executable, *flags, "-m", "semicross.cli", "--json", "validate", str(bad)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert result.returncode == 1
        assert json.loads(result.stdout)["error"]["code"] == "NotMultiplicative"


    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_seminorm_kernel_that_is_not_an_ideal(self, tmp_path, flags):
        # pi = 1 at both points passes the algebraic checks, which do not ask
        # pi to be multiplicative; its kernel is spanned by d_x - d_y
        bad = tmp_path / "one_point.json"
        bad.write_text(json.dumps(ONE_POINT))
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        cmd = [sys.executable, *flags, "-m", "semicross.cli"]
        result = subprocess.run(
            [*cmd, "--json", "build", str(bad), "--seminorm", "r"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 1
        doc = json.loads(result.stdout)
        assert doc["error"]["code"] == "NotAnIdeal" and "build" not in doc
        result = subprocess.run(
            [*cmd, "build", str(bad), "--seminorm", "r"], capture_output=True, text=True, env=env
        )
        assert result.returncode == 1
        assert result.stderr.startswith("error[NotAnIdeal]: ")

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_seminorm_of_a_pi_that_is_not_multiplicative(self, tmp_path, flags):
        # the same pair: snorm(b) would read 0 for b = d_x - d_y although
        # snorm(conv(b, a)) = 1, so the sup over the family is not a seminorm
        bad = tmp_path / "one_point.json"
        bad.write_text(json.dumps(ONE_POINT))
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        cmd = [sys.executable, *flags, "-m", "semicross.cli"]
        result = subprocess.run(
            [*cmd, "--json", "eval", str(bad), "snorm(b)"], capture_output=True, text=True, env=env
        )
        assert result.returncode == 1
        assert json.loads(result.stdout)["error"]["code"] == "NotMultiplicative"
        result = subprocess.run(
            [*cmd, "eval", str(bad), "snorm(b)"], capture_output=True, text=True, env=env
        )
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr.startswith("error[NotMultiplicative]: ")

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_quotient_norm_over_operator_2_norm_blocks(self, tmp_path, flags):
        # the order difference of 1 >= e survives, so the quotient norm needs
        # the LP, which has no model of the operator 2-norm on M_2
        bad = tmp_path / "trivial_m2.json"
        bad.write_text(json.dumps(fixtures.TRIVIAL_M2))
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        cmd = [sys.executable, *flags, "-m", "semicross.cli"]
        result = subprocess.run(
            [*cmd, "--json", "eval", str(bad), "qnorm(a)"], capture_output=True, text=True, env=env
        )
        assert result.returncode == 1
        assert json.loads(result.stdout)["error"]["code"] == "QuotientNormNotLP"
        result = subprocess.run(
            [*cmd, "eval", str(bad), "qnorm(a)"], capture_output=True, text=True, env=env
        )
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr.startswith("error[QuotientNormNotLP]: ")
        # a zero null ideal still gives the plain norm, on the same blocks
        result = subprocess.run(
            [*cmd, "eval", str(INSTANCES / "m2.json"), "qnorm(a)"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0 and result.stdout.strip() == "1.0"


LAZY_SCIPY = """
import contextlib, io, sys
import semicross
from semicross.cli import main
def scipy_loaded():
    return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)
print(scipy_loaded())
with contextlib.redirect_stdout(io.StringIO()):
    main(["validate", sys.argv[1]])
print(scipy_loaded())
out = io.StringIO()
with contextlib.redirect_stdout(out):
    main(["eval", sys.argv[2], "qnorm(a)"])
print(scipy_loaded())
print(out.getvalue().strip())
"""

# each command in turn, then whether numpy.ma has been imported
NO_MASKED = """
import contextlib, io, json, sys
from semicross.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    print("numpy.ma" in sys.modules)
"""


def _set(path: tuple, value):
    """Edit of an instance document: ``doc[path[0]]...[path[-1]] = value``."""

    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return edit


def _literal(path: tuple, text: str):
    """Edit that writes ``text`` verbatim at ``path``: NaN, Infinity, 1e999."""

    def edit(doc):
        _set(path, "@literal@")(doc)
        return json.dumps(doc).replace('"@literal@"', text)

    return edit


# (instance, edit, exit code, error code): each once ended in a traceback
MALFORMED_SEMIGROUPS = {
    "zero out of range": ("semi_table", _set(("semigroup", "zero"), 5), 2, "SchemaError"),
    "zero not an int": ("semi_table", _set(("semigroup", "zero"), [0]), 2, "SchemaError"),
    "zero not absorbing": ("semi_table", _set(("semigroup", "zero"), 0), 1, "ZeroNotAbsorbing"),
    "table entry out of range": (
        "semi_table", _set(("semigroup", "table", 0, 1), 5), 2, "SchemaError"
    ),
    "table entry not an int": (
        "semi_table", _set(("semigroup", "table"), [[0, "e"], [1, 1]]), 2, "SchemaError"
    ),
    "labels not strings": (
        "semi_table", _set(("semigroup", "elements"), [["1"], "e"]), 2, "SchemaError"
    ),
    "star not ints": ("semi_table", _set(("semigroup", "star"), ["e", 1]), 2, "SchemaError"),
    "no generators": ("flip", _set(("semigroup", "generators"), []), 2, "SchemaError"),
    "mixed carrier": ("flip", _set(("semigroup", "carrier"), [1, "2"]), 2, "SchemaError"),
    "carrier of lists": ("flip", _set(("semigroup", "carrier"), [["1"], ["2"]]), 2, "SchemaError"),
}


# numbers the checks cannot use: a NaN residual compares false, so a NaN
# basis once passed validation; a p outside {1, 2, inf} ended in a traceback
MALFORMED_VALUES = {
    "NaN in an ideal basis": (
        "semi_table", _literal(("action", "ideals", "e", 0, 0, 0), "NaN"), 2, "SchemaError"
    ),
    "Infinity in a map": (
        "semi_table", _literal(("action", "maps", "1", 0, 0, 1), "-Infinity"), 2, "SchemaError"
    ),
    "number that overflows": (
        "semi_table", _literal(("action", "maps", "1", 0, 0, 0), "1e999"), 2, "SchemaError"
    ),
    "representation p = 2.5": (
        "semi_table", _set(("representations", 0, "space", "p"), 2.5), 2, "SchemaError"
    ),
    "regular representation p = 0": (
        "flip", _set(("representations", 0, "p"), 0), 2, "SchemaError"
    ),
    "algebra p = 3": ("m2", _set(("algebra", "p"), 3), 2, "SchemaError"),
    "representation dim true": (
        "semi_table", _set(("representations", 0, "space", "dim"), True), 2, "SchemaError"
    ),
    "representation dim -1": (
        "semi_table", _set(("representations", 0, "space", "dim"), -1), 2, "SchemaError"
    ),
    "representation dim 2.5": (
        "semi_table", _set(("representations", 0, "space", "dim"), 2.5), 2, "SchemaError"
    ),
    "representation name as a list": (
        "semi_table", _set(("representations", 0, "name"), ["R"]), 2, "SchemaError"
    ),
    "ideal given as a number": (
        "semi_table", _set(("action", "ideals", "1"), 5), 2, "SchemaError"
    ),
    "maps given as a list": ("semi_table", _set(("action", "maps"), []), 2, "SchemaError"),
    # a zero-dimensional algebra left space.dim unbounded by any matrix
    "matrix block of size 0": ("m2", _set(("algebra", "blocks"), [0]), 2, "SchemaError"),
}
# each once ended in a traceback: a space.dim that no given matrix has made
# the loader allocate (4, dim, dim) first, and a finite 1e300 overflowed an
# SVD, whose LAPACK message then went to stdout before the --json document
HUGE_VALUES = {
    "space.dim beyond the given matrices": (
        "m2_swap", _set(("representations", 0, "space", "dim"), 1_000_000), 2, "SchemaError"
    ),
    "finite number of size 1e300": (
        "m2_swap", _literal(("action", "ideals", "g", 0, 3, 0), "1e300"), 2, "SchemaError"
    ),
    "integer with 400 digits": (
        "m2_swap", _literal(("action", "maps", "g", 0, 0, 0), "1" + "0" * 400), 2, "SchemaError"
    ),
}
MALFORMED_VALUES.update(HUGE_VALUES)


def _fails_with_a_named_code(tmp_path, flags, name, edit, exit_code, code):
    """The edited instance fails validation with ``code`` and ``exit_code``,
    with and without --json."""
    doc = json.loads((INSTANCES / f"{name}.json").read_text())
    text = edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(text or json.dumps(doc))
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    cmd = [sys.executable, *flags, "-m", "semicross.cli"]
    result = subprocess.run(
        [*cmd, "--json", "validate", str(bad)], capture_output=True, text=True, env=env
    )
    assert result.returncode == exit_code, result.stderr
    assert json.loads(result.stdout)["error"]["code"] == code
    result = subprocess.run(
        [*cmd, "validate", str(bad)], capture_output=True, text=True, env=env
    )
    assert result.returncode == exit_code
    assert result.stderr.startswith(f"error[{code}]: ")


class TestMalformedSemigroup:
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    @pytest.mark.parametrize("case", list(MALFORMED_SEMIGROUPS))
    def test_fails_with_a_named_code(self, tmp_path, case, flags):
        _fails_with_a_named_code(tmp_path, flags, *MALFORMED_SEMIGROUPS[case])


class TestMalformedValues:
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    @pytest.mark.parametrize("case", list(MALFORMED_VALUES))
    def test_fails_with_a_named_code(self, tmp_path, case, flags):
        _fails_with_a_named_code(tmp_path, flags, *MALFORMED_VALUES[case])

    @pytest.mark.parametrize("case", list(MALFORMED_VALUES))
    def test_build_and_report_name_it_too(self, tmp_path, capsys, case):
        name, edit, exit_code, code = MALFORMED_VALUES[case]
        doc = json.loads((INSTANCES / f"{name}.json").read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(edit(doc) or json.dumps(doc))
        for cmd in (["build", "--null", "--quotient"], ["report"]):
            assert main(["--json", *cmd, str(bad)]) == exit_code
            assert json.loads(capsys.readouterr().out)["error"]["code"] == code


class TestHugeValues:
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    @pytest.mark.parametrize("case", list(HUGE_VALUES))
    def test_eval_names_it_in_parsable_json(self, tmp_path, case, flags):
        name, edit, exit_code, code = HUGE_VALUES[case]
        doc = json.loads((INSTANCES / f"{name}.json").read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(edit(doc) or json.dumps(doc))
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        for argv in (["validate", str(bad)], ["eval", str(bad), "norm1(conv(a, b))"]):
            result = subprocess.run(
                [sys.executable, *flags, "-m", "semicross.cli", "--json", *argv],
                capture_output=True, text=True, env=env,
            )
            assert result.returncode == exit_code, result.stderr
            assert json.loads(result.stdout)["error"]["code"] == code  # nothing else on stdout
            assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    @pytest.mark.parametrize("expression, message", [
        ("norm1(conv(1e200*a, 1e200*b))", "number exceeds 1e+06 at column 11"),
        ("1e400*a", "number exceeds 1e+06 at column 0"),  # the literal reads as inf
        ("norm1(" + "1e6*" * 52 + "a)", "the value is not finite at column 6"),
    ])
    def test_eval_bounds_its_literals_and_values(self, expression, message, flags):
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        result = subprocess.run(
            [sys.executable, *flags, "-m", "semicross.cli", "--json", "eval",
             str(INSTANCES / "m2_swap.json"), expression],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert result.returncode == 1 and result.stderr == ""  # no overflow warnings
        error = json.loads(result.stdout)["error"]
        assert error == {"code": "EvalError", "message": message}


class TestGroupCheckOfAnInvalidAction:
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_ideal_short_of_the_algebra(self, tmp_path, flags):
        # semi_table with e e = 1 is the group Z2, but I_e is still one point.
        # build validates an explicit action before its later checks, so it
        # names the failure as validate does; the group check, which build
        # reached first before it validated, still names the pair (e, 1)
        doc = json.loads((INSTANCES / "semi_table.json").read_text())
        doc["semigroup"]["table"][1][1] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        for command in ("validate", "build"):
            result = subprocess.run(
                [sys.executable, *flags, "-m", "semicross.cli", "--json", command, str(bad)],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
            )
            assert result.returncode == 1, result.stderr
            assert json.loads(result.stdout)["error"] == {
                "code": "PA1Violation",
                "message": "composition law fails at (e, e): source subspaces differ",
            }, command
        with pytest.raises(errors.GroupConvolutionMismatch, match=r"at \(e, 1\)"):
            group_case_check(load_instance(bad).action)


class TestLazyScipy:
    def test_no_command_imports_scipy(self):
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        result = subprocess.run(
            [sys.executable, "-c", LAZY_SCIPY,
             str(INSTANCES / "flip.json"), str(INSTANCES / "semi.json")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert result.returncode == 0, result.stderr
        *imported, qnorm = result.stdout.split()
        # after the import, after validate and after the quotient norm
        assert imported == ["False"] * 3
        # the value recorded for semi in perfbench/cli_expected.json
        assert float(qnorm) == pytest.approx(0.9999999999999969, abs=1e-9)

    def test_no_command_imports_numpy_ma(self):
        # np.unique imports numpy.ma (about 11 ms and 1.5 MB per process)
        argvs = [["eval", str(INSTANCES / "semi.json"), "qnorm(a)"],
                 ["eval", str(INSTANCES / "flip.json"), "norm1(conv(a, b))"]]
        for name in ("flip", "m2", "m2_swap", "semi", "semi_table", "sim2", "z2"):
            path = INSTANCES / f"{name}.json"
            reps = [r["name"] for r in json.loads(path.read_text()).get("representations", [])]
            argvs += [["validate", str(path)], ["report", str(path)],
                      ["build", str(path), "--null", "--quotient", "--seminorm", *reps]]
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        result = subprocess.run(
            [sys.executable, "-c", NO_MASKED, json.dumps(argvs)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False"] * 23


# ------------------------------------------------- one-leaf mutation sweep

SAMPLE_DOCS = {name: json.loads((INSTANCES / f"{name}.json").read_text()) for name in (
    "flip", "m2", "m2_swap", "semi", "semi_table", "sim2", "z2")}
NAMED_CHECKS = {
    name for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, CheckError) and cls not in (CheckError, SchemaError)
}
# the command after its instance path: every subcommand, each eval function
# and a seminorm family of the file's own representations
SWEEP_COMMANDS = {
    "validate": ["validate"],
    "report": ["report"],
    "build": ["build", "--null", "--quotient"],
    "build --seminorm": ["build", "--seminorm", "@reps@"],
    "eval conv star": ["eval", "norm1(conv(a, star(a)) - 2 * a)"],
    "eval qnorm": ["eval", "qnorm(a)"],
    "eval snorm": ["eval", "snorm(a)"],
}
LEAF_VALUES = [-1, 0, 1, 2, 5, 0.5, -2.5, 1e7, 1e300, float("nan"), float("inf"),
               None, True, "x", [], {}, [[0, 0]]]


def _leaves(doc, path=()) -> list:
    """The path of every number, string, bool or null in a JSON document."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [leaf for key, value in items for leaf in _leaves(value, (*path, key))]
    return [path]


def _mutant(name: str, path: tuple, value) -> str:
    doc = json.loads(json.dumps(SAMPLE_DOCS[name]))
    _set(path, value)(doc)
    return json.dumps(doc)


def _argv(command: str, name: str, path) -> list:
    reps = [r["name"] for r in SAMPLE_DOCS[name]["representations"]]
    head, *rest = SWEEP_COMMANDS[command]
    rest = [arg for r in rest for arg in (reps if r == "@reps@" else [r])]
    return ["--json", head, str(path), *rest]


def _no_constant(text):
    raise ValueError(f"{text} in a --json document")


def _in_process(argv) -> tuple:
    """The exit code of ``main`` and the error code of its --json document."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, json.loads(out.getvalue(), parse_constant=_no_constant).get("error", {}).get("code")


def _allowed(outcome) -> bool:
    code, error = outcome
    return (outcome in ((0, None), (2, "SchemaError"))) or (code == 1 and error in NAMED_CHECKS)


# a fixed subset, run in-process and under python -O: table entries (the
# inverse-semigroup and order checks; the third made the group check of
# ``build`` raise LinAlgError), a generator, an ideal basis and a map entry
# (the partial-automorphism checks), a representation entry and an element
OPTIMIZED_CASES = [
    ("semi_table", ("semigroup", "table", 0, 0), 1),
    ("semi_table", ("semigroup", "table", 1, 0), 0),
    ("semi_table", ("semigroup", "table", 1, 1), 0),
    ("flip", ("semigroup", "generators", 0, "1"), "1"),
    ("m2_swap", ("action", "maps", "g", 0, 0, 0), 0.5),
    ("m2", ("action", "ideals", "1", 0, 0, 0), 2),
    ("semi", ("representations", 0, "p"), 1),
    ("z2", ("elements", "a", 0, 1, 0, 0), 1e7),
]
OPTIMIZED_RUN = """
import contextlib, io, json, sys
from semicross.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    print(json.dumps([code, json.loads(out.getvalue()).get("error", {}).get("code")]))
"""


class TestOneLeafSweep:
    """ROADMAP item 4: every one-leaf mutation of a sample, under every
    command, exits 0, or 1 with a named CheckError, or 2 with SchemaError,
    and prints one --json document that parses."""

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(name=st.sampled_from(sorted(SAMPLE_DOCS)), data=st.data())
    @pytest.mark.parametrize("command", list(SWEEP_COMMANDS))
    def test_mutations_fail_with_named_codes(self, tmp_path_factory, command, name, data):
        doc = SAMPLE_DOCS[name]
        section = data.draw(st.sampled_from(sorted(doc)), label="section")
        path = data.draw(st.sampled_from(_leaves(doc[section], (section,))), label="path")
        strings = sorted({v for p in _leaves(doc) if isinstance(v := _get(doc, p), str)})
        value = data.draw(st.sampled_from(LEAF_VALUES + strings), label="value")
        bad = tmp_path_factory.mktemp("sweep") / "bad.json"
        bad.write_text(_mutant(name, path, value))
        outcome = _in_process(_argv(command, name, bad))
        assert _allowed(outcome), outcome

    def test_fixed_subset_under_python_O(self, tmp_path):
        argvs, plain = [], []
        for i, (name, path, value) in enumerate(OPTIMIZED_CASES):
            bad = tmp_path / f"bad{i}.json"
            bad.write_text(_mutant(name, path, value))
            for command in SWEEP_COMMANDS:
                argvs.append(_argv(command, name, bad))
                plain.append(_in_process(argvs[-1]))
        assert all(map(_allowed, plain)), plain
        assert {code for code, _ in plain} == {0, 1, 2}
        env_path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        result = subprocess.run(
            [sys.executable, "-O", "-c", OPTIMIZED_RUN, json.dumps(argvs)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, env_path))},
        )
        assert result.returncode == 0, result.stderr
        assert [tuple(json.loads(line)) for line in result.stdout.splitlines()] == plain


def _get(doc, path: tuple):
    for key in path:
        doc = doc[key]
    return doc
