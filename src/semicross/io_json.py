"""Reading and writing instance files.

One self-describing JSON document drives everything: a semigroup block
(generators as partial bijections, or an explicit Cayley table), an algebra
block (kind tag plus parameters), an action block (induced or explicit
ideal/map data), optional representation blocks and optional element
literals.  Complex scalars are [re, im] pairs throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import as_complex
from .actions import Action, PartialSetAction, induce_action
from .algebras import FinAlgebra, Ideal, PartialAut, function_algebra, matrix_algebra
from .ell1 import Ell1Element
from .errors import SchemaError
from .reps import CovariantRep, ReprSpace, regular_rep
from .semigroups import InvSemigroup, PartialBijection, generate_semigroup


# The checks compare with absolute tolerances (1e-9 by default), and one
# rounding of an entry of size 1e6 is 2e-10; far larger entries overflow
# the squares inside an SVD, which LAPACK reports on stdout.
MAX_MAGNITUDE = 10**6


def _complex_in(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(x, (int, float)) for x in value)
    ):
        return complex(value[0], value[1])
    raise SchemaError(f"{where}: expected a number or [re, im] pair")


def _finite(text: str) -> float:
    """A JSON number, or the NaN and Infinity that ``json`` also reads,
    rejected unless finite (a NaN residual would pass every check) and at
    most ``MAX_MAGNITUDE`` in size."""
    value = float(text)
    if not math.isfinite(value):
        raise SchemaError(f"non-finite number {text} in the instance file")
    if abs(value) > MAX_MAGNITUDE:
        raise SchemaError(f"number {text} in the instance file exceeds {MAX_MAGNITUDE:g}")
    return value


def _integer(text: str) -> int:
    """A JSON integer of at most ``MAX_MAGNITUDE`` in size, judged by its
    digits before they are read."""
    if len(text.lstrip("-")) > len(str(MAX_MAGNITUDE)) or abs(value := int(text)) > MAX_MAGNITUDE:
        raise SchemaError(f"number {text[:20]} in the instance file exceeds {MAX_MAGNITUDE:g}")
    return value


def _p_in(value, where: str):
    """A norm exponent p: 1, 2 or "inf"."""
    if value == "inf":
        return np.inf
    if isinstance(value, bool) or value not in (1, 2):
        raise SchemaError(f"{where}: expected 1, 2 or \"inf\", not {value!r}")
    return value


def _complex_out(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _vector_in(data, dim: int, where: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != dim:
        raise SchemaError(f"{where}: expected a vector of length {dim}")
    return np.array([_complex_in(x, where) for x in data], dtype=complex)


def _vector_out(v) -> list:
    return [_complex_out(z) for z in as_complex(v)]


def _matrix_in(data, shape, where: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != shape[0]:
        raise SchemaError(f"{where}: expected {shape[0]} rows")
    return np.array([_vector_in(row, shape[1], where) for row in data])


def _matrix_out(m) -> list:
    return [_vector_out(row) for row in np.atleast_2d(as_complex(m))]


@dataclass(eq=False)
class ParsedInstance:
    semigroup: InvSemigroup
    algebra: FinAlgebra
    action: Action
    theta: PartialSetAction | None
    representations: dict
    elements: dict
    notes: list = field(default_factory=list)


def parse_instance(text: str, cap: int = 10_000, tol: float = 1e-9) -> ParsedInstance:
    """Parse, build and cross-link all blocks; raises SchemaError on shape
    problems and the named axiom errors on semantic ones."""
    try:
        doc = json.loads(text, parse_float=_finite, parse_int=_integer, parse_constant=_finite)
    except json.JSONDecodeError as err:
        raise SchemaError(
            f"not valid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    for key in doc:
        if key not in {"semigroup", "algebra", "action", "representations", "elements"}:
            raise SchemaError(f"unknown top-level key {key!r}")
    notes: list[str] = []
    sg, theta = _parse_semigroup(doc.get("semigroup"), cap, notes)
    algebra = _parse_algebra(doc.get("algebra"), theta)
    action = _parse_action(doc.get("action"), sg, algebra, theta, tol)
    reps = _parse_representations(
        doc.get("representations", []), action, theta, tol, notes
    )
    elements = _parse_elements(doc.get("elements", {}), action, tol)
    return ParsedInstance(sg, algebra, action, theta, reps, elements, notes)


def load_instance(path, cap: int = 10_000, tol: float = 1e-9) -> ParsedInstance:
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read(), cap, tol)


def _is_index(x) -> bool:
    return type(x) is int  # not bool, which is an int subclass


def _parse_semigroup(block, cap, notes):
    if not isinstance(block, dict):
        raise SchemaError("missing or malformed 'semigroup' block")
    if "generators" in block:
        carrier = block.get("carrier")
        if not isinstance(carrier, list) or not carrier:
            raise SchemaError("semigroup.carrier: expected a nonempty list")
        if not all(isinstance(x, str) for x in carrier):
            raise SchemaError("semigroup.carrier: expected point names as strings")
        raws = block["generators"]
        if not isinstance(raws, list) or not raws:
            raise SchemaError("semigroup.generators: expected a nonempty list")
        gens = []
        for g, raw in enumerate(raws):
            if not isinstance(raw, dict):
                raise SchemaError(f"semigroup.generators[{g}]: expected a mapping")
            try:
                gens.append(PartialBijection.from_dict(tuple(carrier), raw))
            except (TypeError, ValueError) as err:
                raise SchemaError(f"semigroup.generators[{g}]: {err}") from err
        sg = generate_semigroup(gens, cap=cap)
        return sg, PartialSetAction.tautological(sg)
    if "table" in block:
        table = block["table"]
        if not isinstance(table, list) or any(
            not isinstance(row, list) or len(row) != len(table) for row in table
        ):
            raise SchemaError("semigroup.table: expected a square table")
        n = len(table)
        if not all(_is_index(x) and 0 <= x < n for row in table for x in row):
            raise SchemaError(f"semigroup.table: entries must be element indices 0..{n - 1}")
        labels = block.get("elements")
        if labels is not None and (
            not isinstance(labels, list) or not all(isinstance(x, str) for x in labels)
        ):
            raise SchemaError("semigroup.elements: expected a list of strings")
        if labels is not None and len(labels) != n:
            raise SchemaError("semigroup.elements: wrong length")
        if labels is not None and len(set(labels)) != len(labels):
            raise SchemaError("semigroup.elements: labels must be distinct")
        zero = block.get("zero")
        if isinstance(zero, str):
            if labels is None or zero not in labels:
                raise SchemaError(f"semigroup.zero: unknown element {zero!r}")
            zero = labels.index(zero)
        elif zero is not None and not (_is_index(zero) and 0 <= zero < n):
            raise SchemaError(f"semigroup.zero: expected an element label or an index below {n}")
        star = block.get("star")
        if star is None:
            notes.append("star map reconstructed from the table")
        elif not isinstance(star, list) or not all(_is_index(x) for x in star):
            raise SchemaError("semigroup.star: expected a list of integer element indices")
        sg = InvSemigroup.from_table(table, labels=labels, star=star, zero=zero)
        return sg, None
    raise SchemaError("semigroup block needs 'generators' or 'table'")


def _parse_algebra(block, theta):
    if block is None and theta is not None:
        return function_algebra(theta.carrier)
    if not isinstance(block, dict) or "kind" not in block:
        raise SchemaError("missing or malformed 'algebra' block")
    if block["kind"] == "function":
        points = block.get("points")
        if not isinstance(points, list) or not points:
            raise SchemaError("algebra.points: expected a nonempty list")
        return function_algebra(points)
    if block["kind"] == "matrix":
        sizes = block.get("blocks")
        if not isinstance(sizes, list) or not sizes or not all(
            _is_index(n) and n > 0 for n in sizes
        ):
            raise SchemaError("algebra.blocks: expected a nonempty list of positive sizes")
        return matrix_algebra(sizes, _p_in(block.get("p", 2), "algebra.p"))
    raise SchemaError(f"algebra.kind: unsupported kind {block['kind']!r}")


def _solve_unit(algebra: FinAlgebra, basis: np.ndarray, tol: float) -> np.ndarray:
    """Unit of a subspace found by least squares over its own coordinates."""
    if basis.shape[0] == 0:
        return np.zeros(algebra.dim, dtype=complex)
    rows = []
    rhs = []
    for x in basis:
        prods = np.array([algebra.mul(b, x) for b in basis])  # (m, d)
        rows.append(prods.T)
        rhs.append(x)
    lhs = np.vstack([np.atleast_2d(r) for r in rows]).reshape(-1, basis.shape[0])
    target = np.concatenate(rhs)
    c, *_ = np.linalg.lstsq(lhs, target, rcond=None)
    return c @ basis


def _parse_action(block, sg, algebra, theta, tol):
    if not isinstance(block, dict):
        raise SchemaError("missing or malformed 'action' block")
    if block.get("induced"):
        if theta is None:
            raise SchemaError("action.induced requires a generated semigroup")
        if algebra.kind != "function" or algebra.points != theta.carrier:
            raise SchemaError("action.induced requires C(carrier) as the algebra")
        return induce_action(theta)
    ideals_raw = block.get("ideals")
    maps_raw = block.get("maps", {})
    units_raw = block.get("units", {})
    for key, raw in (("ideals", ideals_raw), ("maps", maps_raw), ("units", units_raw)):
        if not isinstance(raw, dict):
            raise SchemaError(f"action.{key}: expected a mapping from element labels")
    for key in list(ideals_raw) + list(maps_raw) + list(units_raw):
        if key not in sg.labels:
            raise SchemaError(f"action: unknown semigroup element {key!r}")
    ideals = {}
    for t, label in enumerate(sg.labels):
        raw = ideals_raw.get(label)
        if raw is None or raw == []:
            ideals[t] = Ideal.zero(algebra)
            continue
        if not isinstance(raw, list):
            raise SchemaError(f"action.ideals[{label}]: expected a list of basis vectors")
        basis = _matrix_in(raw, (len(raw), algebra.dim), f"action.ideals[{label}]")
        if label in units_raw:
            unit = _vector_in(
                units_raw[label], algebra.dim, f"action.units[{label}]"
            )
        else:
            unit = _solve_unit(algebra, basis, tol)
        ideals[t] = Ideal(algebra, basis, unit)
    pauts = []
    for t, label in enumerate(sg.labels):
        src = ideals[sg.inv(t)]
        tgt = ideals[t]
        raw = maps_raw.get(label)
        if raw is None:
            if src.dim == 0:
                pauts.append(PartialAut(src, tgt, np.zeros((0, algebra.dim))))
                continue
            raise SchemaError(f"action.maps[{label}]: missing map for nonzero ideal")
        matrix = _matrix_in(raw, (src.dim, algebra.dim), f"action.maps[{label}]")
        pauts.append(PartialAut(src, tgt, matrix))
    return Action(sg, algebra, tuple(pauts))


def _parse_representations(blocks, action, theta, tol, notes):
    if not isinstance(blocks, list):
        raise SchemaError("'representations' must be a list")
    out = {}
    for i, block in enumerate(blocks):
        if not isinstance(block, dict):
            raise SchemaError(f"representations[{i}]: expected an object")
        name = block.get("name", f"rep{i}")
        if not isinstance(name, str):
            raise SchemaError(f"representations[{i}].name: expected a string")
        if block.get("regular"):
            if theta is None:
                raise SchemaError(
                    f"representations[{i}]: regular needs a generated semigroup"
                )
            p = _p_in(block.get("p", 2), f"representations[{i}].p")
            out[name] = regular_rep(theta, p, action=action, tol=tol)
            continue
        space = block.get("space")
        if not isinstance(space, dict):
            raise SchemaError(f"representations[{i}].space: expected an object")
        dim = space.get("dim")
        if not _is_index(dim) or dim < 0:
            raise SchemaError(f"representations[{i}].space.dim: expected a nonnegative integer")
        p = _p_in(space.get("p", 2), f"representations[{i}].space.p")
        pi_raw = block.get("pi")
        v_raw = block.get("v")
        if not isinstance(pi_raw, dict) or not isinstance(v_raw, dict):
            raise SchemaError(f"representations[{i}]: need 'pi' and 'v' mappings")
        A = action.algebra
        # read before anything of size dim is made: a wrong dim fails on the rows
        pi = []
        for lab in A.labels:
            if lab not in pi_raw:
                raise SchemaError(f"representations[{i}].pi: missing basis label {lab!r}")
            pi.append(_matrix_in(pi_raw[lab], (dim, dim), f"representations[{i}].pi[{lab}]"))
        pi = np.array(pi, dtype=complex).reshape(A.dim, dim, dim)
        sg = action.semigroup
        v = np.zeros((len(sg), dim, dim), dtype=complex)
        for lab in v_raw:
            if lab not in sg.labels:
                raise SchemaError(f"representations[{i}].v: unknown element {lab!r}")
        for t, lab in enumerate(sg.labels):
            if lab in v_raw:
                v[t] = _matrix_in(v_raw[lab], (dim, dim), f"representations[{i}].v[{lab}]")
            else:
                notes.append(f"representation {name}: v[{lab}] defaulted to zero")
        out[name] = CovariantRep(action, ReprSpace(dim, p), pi, v)
    return out


def _parse_elements(block, action, tol):
    if not isinstance(block, dict):
        raise SchemaError("'elements' must be a mapping")
    sg = action.semigroup
    out = {}
    for name, pairs in block.items():
        if not isinstance(pairs, list):
            raise SchemaError(f"elements[{name}]: expected a list of [label, vector]")
        total = Ell1Element.zero(action)
        for k, item in enumerate(pairs):
            if not (isinstance(item, list) and len(item) == 2):
                raise SchemaError(f"elements[{name}][{k}]: expected [label, vector]")
            label, vec = item
            if label not in sg.labels:
                raise SchemaError(f"elements[{name}][{k}]: unknown element {label!r}")
            t = sg.index(label)
            v = _vector_in(vec, action.algebra.dim, f"elements[{name}][{k}]")
            try:
                total = total + Ell1Element.monomial(action, t, v, tol)
            except np.linalg.LinAlgError as err:
                raise SchemaError(
                    f"elements[{name}][{k}]: coefficient is not in the ideal at {label}"
                ) from err
        out[name] = total
    return out


# ---------------------------------------------------------------- serializer


def instance_to_dict(inst: ParsedInstance) -> dict:
    """Canonical document for a parsed instance; floats survive a JSON
    round trip bit-for-bit because they are emitted via repr."""
    doc: dict = {}
    sg = inst.semigroup
    if sg.pbijs is not None and inst.theta is not None:
        doc["semigroup"] = {
            "carrier": [str(x) for x in inst.theta.carrier],
            "generators": [
                {str(x): str(y) for x, y in inst.theta.maps[t].pairs}
                for t in _generator_indices(inst)
            ],
        }
    else:
        doc["semigroup"] = {
            "elements": list(sg.labels),
            "table": [[int(x) for x in row] for row in sg.table],
            "star": [int(x) for x in sg.star],
        }
        if sg.zero is not None:
            doc["semigroup"]["zero"] = int(sg.zero)
    A = inst.algebra
    if A.kind == "function":
        doc["algebra"] = {"kind": "function", "points": [str(p) for p in A.points]}
    else:
        doc["algebra"] = {
            "kind": "matrix",
            "blocks": [int(idx.shape[0]) for idx in A.blocks],
            "p": "inf" if A.p == np.inf else int(A.p),
        }
    if inst.theta is not None and A.kind == "function":
        doc["action"] = {"induced": True}
    else:
        ideals, units, maps = {}, {}, {}
        for t, label in enumerate(sg.labels):
            ideal = inst.action.ideal(t)
            if ideal.dim == 0:
                continue
            ideals[label] = _matrix_out(ideal.basis)
            units[label] = _vector_out(ideal.unit)
            maps[label] = _matrix_out(inst.action.paut(t).matrix)
        doc["action"] = {"ideals": ideals, "units": units, "maps": maps}
    if inst.representations:
        reps = []
        for name, rep in inst.representations.items():
            reps.append(
                {
                    "name": name,
                    "space": {
                        "dim": rep.space.dim,
                        "p": "inf" if rep.space.p == np.inf else int(rep.space.p),
                    },
                    "pi": {
                        lab: _matrix_out(rep.pi[j])
                        for j, lab in enumerate(A.labels)
                    },
                    "v": {
                        lab: _matrix_out(rep.v[t])
                        for t, lab in enumerate(sg.labels)
                    },
                }
            )
        doc["representations"] = reps
    if inst.elements:
        doc["elements"] = {
            name: [
                [sg.labels[t], _vector_out(f.value(t))] for t in f.support
            ]
            for name, f in inst.elements.items()
        }
    return doc


def _generator_indices(inst: ParsedInstance) -> list:
    """Indices of a generating set: every stored map that is not reachable
    as a product or inverse of earlier ones would do; we simply keep the
    discovery prefix that regenerates the same closure."""
    sg = inst.semigroup
    for k in range(1, len(sg) + 1):
        gens = [sg.pbijs[i] for i in range(k)]
        if len(generate_semigroup(gens)) == len(sg):
            return list(range(k))
    return list(range(len(sg)))


def serialize_instance(inst: ParsedInstance) -> str:
    return json.dumps(instance_to_dict(inst), indent=2, sort_keys=True)
