"""Command-line front end.

    semicross validate INSTANCE.json
    semicross build INSTANCE.json [--null] [--quotient] [--seminorm REP ...]
    semicross eval INSTANCE.json "norm1(conv(a, b))"
    semicross report INSTANCE.json

Exit codes: 0 on success, 1 on an axiom failure, 2 on a parse or schema
problem.  ``--json`` switches every subcommand to machine-readable output.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys

import numpy as np

from ._linalg import rows_equal, rows_leq
from .actions import check_derived_identities, validate_action
from .algebras import paut_validate, validate_algebra
from .ell1 import (
    Ell1Element,
    convolve,
    ell1_norm,
    involution,
    null_ideal,
    quotient_algebra,
    quotient_ell1_norm,
)
from .errors import CheckError, EvalError, SchemaError
from .io_json import MAX_MAGNITUDE, ParsedInstance, load_instance
from .reporting import CheckReport
from .reps import (
    check_algebraic,
    check_spatial,
    group_case_check,
    is_normalized,
    seminorm_family,
    seminorm_kernel,
    validate_rep,
)


def _argument_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="semicross", description=__doc__)
    top.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    top.add_argument("--tol", type=float, default=1e-9, help="numeric tolerance")
    top.add_argument("--cap", type=int, default=10_000, help="enumeration size cap")
    top.add_argument("--json", action="store_true", help="machine-readable output")
    sub = top.add_subparsers(dest="command", required=True)
    for name in ("validate", "build", "eval", "report"):
        p = sub.add_parser(name)
        p.add_argument("path")
        if name == "build":
            p.add_argument("--null", action="store_true")
            p.add_argument("--quotient", action="store_true")
            p.add_argument("--seminorm", nargs="*", metavar="REP")
        if name == "eval":
            p.add_argument("expression")
    return top


def main(argv=None) -> int:
    args = _argument_parser().parse_args(argv)
    out: dict = {"command": args.command}
    try:
        try:
            inst = load_instance(args.path, cap=args.cap, tol=args.tol)
        except OSError as err:
            raise SchemaError(str(err)) from err
        if args.command == "validate":
            _run_validate(args, inst, out)
        elif args.command == "build":
            _run_build(args, inst, out)
        elif args.command == "eval":
            _run_eval(args, inst, out)
        else:
            _run_validate(args, inst, out)
            _run_build(args, inst, out, everything=True)
    except SchemaError as err:
        _emit_error(args, out, err)
        return 2
    except (CheckError, AssertionError) as err:
        _emit_error(args, out, err)
        return 1
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _emit_error(args, out, err) -> None:
    code = getattr(err, "code", type(err).__name__)
    out["error"] = {"code": code, "message": str(err)}
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(f"error[{code}]: {err}", file=sys.stderr)


def _say(args, text: str) -> None:
    if not args.json:
        print(text)


def _add_report(args, out, report: CheckReport) -> None:
    out.setdefault("reports", []).append(report.to_dict())
    _say(args, report.summary())


def _run_validate(args, inst: ParsedInstance, out: dict) -> None:
    for note in inst.notes:
        _say(args, f"note: {note}")
    out["notes"] = list(inst.notes)
    # loading validated a given table; a generated one is inverse by construction
    components = CheckReport("action components")
    components.add("semigroup", "table is an inverse semigroup", True)
    validate_algebra(inst.algebra, seed=args.seed, tol=args.tol)
    components.add("algebra", "associative, submultiplicative, star laws", True)
    for t, label in enumerate(inst.semigroup.labels):
        cert = paut_validate(inst.action.paut(t), tol=args.tol, seed=args.seed)
        components.add(
            "partial automorphisms", label, True, f"isometry: {cert.isometry_level}"
        )
    _add_report(args, out, components)
    # unrecorded: eval does not validate (an invalid instance fails at the
    # step it reaches), so every command reads an explicit instance's null
    # ideal and quotient norm by the same numeric path
    _add_report(args, out, validate_action(inst.action, tol=args.tol, record=False))
    _add_report(args, out, check_derived_identities(inst.action, tol=args.tol))
    for name, rep in inst.representations.items():
        _add_report(args, out, validate_rep(rep, tol=args.tol, seed=args.seed))
        report = CheckReport(f"representation {name}")
        algebraic = _try(check_algebraic, rep, args.tol)
        spatial = _try(check_spatial, rep, args.tol)
        report.add("classification", "algebraic", algebraic is None,
                   algebraic or "")
        report.add("classification", "spatial", spatial is None, spatial or "")
        report.add("classification", "normalized", is_normalized(rep, args.tol))
        _add_report(args, out, report)


def _try(check, rep, tol) -> str | None:
    try:
        check(rep, tol)
        return None
    except CheckError as err:
        return f"{err.code}: {err}"


def _run_build(args, inst: ParsedInstance, out: dict, everything: bool = False) -> None:
    action = inst.action
    # an invalid explicit action fails here as under ``validate`` (``report``
    # has just validated it; theta certifies an induced one)
    if not everything and getattr(action, "_theta", None) is None:
        validate_action(action, tol=args.tol, record=False)
    want_null = everything or getattr(args, "null", False)
    want_quotient = everything or getattr(args, "quotient", False)
    seminorm_names = getattr(args, "seminorm", None)
    if everything and seminorm_names is None:
        seminorm_names = list(inst.representations)
    build: dict = {"dim_ell1": action.total_dim}
    _say(args, f"dim ell1 = {action.total_dim}")
    null = None
    if want_null or want_quotient or seminorm_names:
        null = null_ideal(action, tol=args.tol)
        build["dim_null"] = null.dim
        _say(args, f"dim null = {null.dim}")
        if want_null:
            build["null_basis"] = [
                [[float(z.real), float(z.imag)] for z in row] for row in null.basis
            ]
            for row in null.basis:
                _say(args, f"  null basis row: {np.round(row, 6)}")
    if want_quotient and null is not None:
        quot = quotient_algebra(action, null, tol=args.tol)
        build["dim_quotient"] = quot.dim
        build["quotient_structure"] = [
            [[[float(z.real), float(z.imag)] for z in row] for row in plane]
            for plane in quot.structure
        ]
        _say(args, f"dim quotient = {quot.dim}")
        labels = [
            f"{inst.semigroup.labels[t]}[{i}]"
            for t, off in action.offsets.items()
            for i in range(action.ideal(t).dim)
        ]
        for a in range(quot.dim):
            for b in range(quot.dim):
                coeffs = quot.structure[a, b]
                terms = [
                    f"{np.round(c, 6)}*{labels[quot.coords[k]]}"
                    for k, c in enumerate(coeffs)
                    if abs(c) > args.tol
                ]
                if terms:
                    _say(
                        args,
                        f"  {labels[quot.coords[a]]} . {labels[quot.coords[b]]} = "
                        + " + ".join(terms),
                    )
    if seminorm_names:
        missing = [n for n in seminorm_names if n not in inst.representations]
        if missing:
            raise SchemaError(f"unknown representation ids: {missing}")
        family = [inst.representations[n] for n in seminorm_names]
        kernel = seminorm_kernel(family, tol=args.tol)
        build["dim_seminorm_kernel"] = kernel.shape[0]
        build["dim_family_crossed_product"] = action.total_dim - kernel.shape[0]
        _say(args, f"dim seminorm kernel = {kernel.shape[0]}")
        _say(
            args,
            f"dim family crossed product = {action.total_dim - kernel.shape[0]}",
        )
        contains = rows_leq(null.basis, kernel, args.tol)
        equal = contains and rows_equal(null.basis, kernel, args.tol)
        build["null_inside_kernel"] = bool(contains)
        build["null_equals_kernel"] = bool(equal)
        _say(args, f"null inside kernel: {contains} (equal: {equal})")
    if inst.semigroup.is_group:
        rep = group_case_check(action, tol=args.tol)
        build["group_case"] = rep.to_dict()
        _say(args, rep.summary())
    out["build"] = build


# ----------------------------------------------------------- expressions


def _run_eval(args, inst: ParsedInstance, out: dict) -> None:
    value = eval_expression(args.expression, inst, tol=args.tol)
    if isinstance(value, Ell1Element):
        sg = inst.semigroup
        rendered = [
            [sg.labels[t], [[float(z.real), float(z.imag)] for z in value.value(t)]]
            for t in value.support
        ]
        out["value"] = {"element": rendered}
        _say(args, str(value))
    else:
        out["value"] = {"scalar": value}
        _say(args, repr(value))


def eval_expression(text: str, inst: ParsedInstance, tol: float = 1e-9):
    """Evaluate an expression over the instance's element literals.

    Grammar: names from the 'elements' block; + and - on elements; scalar *
    element; element * element (convolution); unary -; complex literals; and
    the calls conv(a, b), star(a), norm1(a), qnorm(a), snorm(a).
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as err:
        raise EvalError(f"syntax error: {err.msg}", err.offset) from err

    action = inst.action

    def lookup(name: str, node):
        if name not in inst.elements:
            raise EvalError(f"unknown element {name!r}", node.col_offset)
        return inst.elements[name]

    def call(func: str, node):
        argv = [walk(a) for a in node.args]

        def need(n, kinds):
            if len(argv) != n:
                raise EvalError(f"{func} takes {n} argument(s)", node.col_offset)
            for a, kind in zip(argv, kinds):
                if kind == "elem" and not isinstance(a, Ell1Element):
                    raise EvalError(f"{func} needs element arguments", node.col_offset)

        if func == "conv":
            need(2, ["elem", "elem"])
            return convolve(argv[0], argv[1], tol)
        if func == "star":
            need(1, ["elem"])
            return involution(argv[0], tol)
        if func == "norm1":
            need(1, ["elem"])
            return ell1_norm(argv[0])
        if func == "qnorm":
            need(1, ["elem"])
            return quotient_ell1_norm(argv[0], null_ideal(action, tol=tol), tol=tol)
        if func == "snorm":
            need(1, ["elem"])
            if not inst.representations:
                raise EvalError("snorm needs representation blocks", node.col_offset)
            return seminorm_family(
                argv[0], list(inst.representations.values()), tol=tol
            )
        raise EvalError(f"unknown function {func!r}", node.col_offset)

    def walk(node):
        value = step(node)
        if not np.isfinite(value.to_dense() if isinstance(value, Ell1Element) else value).all():
            raise EvalError("the value is not finite", node.col_offset)
        return value

    def step(node):
        if isinstance(node, ast.Name):
            return lookup(node.id, node)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float, complex)):
                if abs(node.value) > MAX_MAGNITUDE:  # 1e400 reads as inf
                    raise EvalError(f"number exceeds {MAX_MAGNITUDE:g}", node.col_offset)
                return complex(node.value)
            raise EvalError("only numeric literals are allowed", node.col_offset)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            val = walk(node.operand)
            sign = -1.0 if isinstance(node.op, ast.USub) else 1.0
            if isinstance(val, Ell1Element):
                return val.scale(sign)
            return sign * val
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult)
        ):
            lhs, rhs = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Mult):
                if isinstance(lhs, Ell1Element) and isinstance(rhs, Ell1Element):
                    return convolve(lhs, rhs, tol)
                if isinstance(lhs, Ell1Element):
                    return lhs.scale(rhs)
                if isinstance(rhs, Ell1Element):
                    return rhs.scale(lhs)
                return lhs * rhs
            if isinstance(lhs, Ell1Element) != isinstance(rhs, Ell1Element):
                raise EvalError("cannot add an element and a scalar", node.col_offset)
            if isinstance(node.op, ast.Add):
                return lhs + rhs
            return lhs - rhs
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name):
                raise EvalError("only plain function calls are allowed", node.col_offset)
            return call(node.func.id, node)
        raise EvalError(
            f"unsupported syntax {type(node).__name__}", getattr(node, "col_offset", None)
        )

    with np.errstate(over="ignore", invalid="ignore"):  # named by walk instead
        return walk(tree.body)


if __name__ == "__main__":
    sys.exit(main())
