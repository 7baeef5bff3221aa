"""Named failure types raised by the validators.

Every axiom or precondition violation has its own class so callers (and the
CLI exit-code logic) can dispatch on the stable ``code`` string, which is
always the class name.
"""

from __future__ import annotations


class CheckError(Exception):
    """Base class for all validation failures."""

    @property
    def code(self) -> str:
        return type(self).__name__


class SchemaError(CheckError):
    """Instance file is malformed (parse or schema problem, exit code 2)."""


# ---------------------------------------------------------------- semigroups


class CarrierMismatch(CheckError):
    pass


class SizeCapExceeded(CheckError):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"semigroup enumeration exceeded the size cap {cap}")


class NotAssociative(CheckError):
    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"table is not associative at {triple}")


class NoGeneralizedInverse(CheckError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element} has no generalized inverse")


class NonUniqueInverse(CheckError):
    def __init__(self, element, candidates):
        self.element = element
        self.candidates = candidates
        super().__init__(
            f"element {element} has {len(candidates)} generalized inverses"
        )


class ZeroNotAbsorbing(CheckError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"designated zero {element} is not an absorbing element")


class NotGeneratedByMaps(CheckError):
    pass


class NotAHomomorphism(CheckError):
    def __init__(self, s, t):
        self.pair = (s, t)
        super().__init__(f"partial bijections do not compose as the semigroup at ({s}, {t})")


# ------------------------------------------------------------------ algebras


class DimensionMismatch(CheckError):
    pass


class NotAnIdeal(CheckError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"subspace is not a two-sided ideal; witness {witness}")


class NoUnit(CheckError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"stored unit does not act as identity; witness {witness}")


class NotBijective(CheckError):
    pass


class NotMultiplicative(CheckError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"map is not multiplicative; witness basis pair {witness}")


class NotSubmultiplicative(CheckError):
    def __init__(self, sample: int):
        self.sample = sample
        super().__init__(f"norm is not submultiplicative on sampled pair {sample}")


class NotAnInvolution(CheckError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"star is not an involution; witness {witness}")


class NotIsometric(CheckError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"map is not isometric; witness vector {witness}")


class NoStarOnAlgebra(CheckError):
    pass


# ------------------------------------------------------------------- actions


class PA1Violation(CheckError):
    def __init__(self, s, t, detail: str):
        self.pair = (s, t)
        super().__init__(f"composition law fails at ({s}, {t}): {detail}")


class PA2SpanDeficit(CheckError):
    def __init__(self, gap: int):
        self.gap = gap
        super().__init__(f"idempotent ideals span a subspace of codimension {gap}")


class NonzeroIdealAtZero(CheckError):
    def __init__(self, dim: int):
        self.dim = dim
        super().__init__(f"zero element carries an ideal of dimension {dim}")


# -------------------------------------------------------------------- ell1


class ActionMismatch(CheckError):
    pass


class ConvolutionEscapesIdeal(CheckError):
    def __init__(self, s, t):
        self.pair = (s, t)
        super().__init__(f"product of monomials at ({s}, {t}) escapes the ideal of st")


class OrderDifferenceNotProduct(CheckError):
    def __init__(self, s, t):
        self.pair = (s, t)
        super().__init__(f"ideal units do not fix the order difference at ({s}, {t})")


class QuotientNormLPFailed(CheckError):
    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(f"quotient norm LP failed with status {status}: {message}")


class QuotientNormNotLP(CheckError):
    pass


# ----------------------------------------------------------- representations


class NotSemigroupHom(CheckError):
    def __init__(self, s, t):
        self.pair = (s, t)
        super().__init__(f"v is not multiplicative at ({s}, {t})")


class SCR1Violation(CheckError):
    def __init__(self, t, basis_index):
        self.element = t
        self.basis_index = basis_index
        super().__init__(f"intertwining fails at element {t}, basis vector {basis_index}")


class SCR2RangeMismatch(CheckError):
    def __init__(self, t):
        self.element = t
        super().__init__(f"range of v at {t} differs from the essential subspace")


class CR1Violation(CheckError):
    def __init__(self, t, basis_index):
        self.element = t
        self.basis_index = basis_index
        super().__init__(f"commutation fails at element {t}, basis vector {basis_index}")


class CR2Violation(CheckError):
    def __init__(self, s, t):
        self.pair = (s, t)
        super().__init__(f"essential multiplicativity fails at ({s}, {t})")


class CR3Violation(CheckError):
    def __init__(self, e):
        self.element = e
        super().__init__(f"unit law fails at idempotent {e}")


class NotContractive(CheckError):
    def __init__(self, what: str, evidence: str):
        self.what = what
        super().__init__(f"{what} is not contractive: {evidence}")


class EmptyFamily(CheckError):
    def __init__(self):
        super().__init__("representation family is empty")


class DegenerateRepresentation(CheckError):
    def __init__(self, which):
        self.which = which
        super().__init__(f"representation {which} is degenerate (span pi(A)E != E)")


class NullNotKilled(CheckError):
    def __init__(self, row: int):
        self.row = row
        super().__init__(f"integrated map does not kill null ideal basis row {row}")


class NotHilbertSpace(CheckError):
    pass


class NotNormalized(CheckError):
    pass


class StarNotPreserved(CheckError):
    def __init__(self, basis_index: int):
        self.basis_index = basis_index
        super().__init__(f"pi does not preserve the involution at basis vector {basis_index}")


class AdjointFormulaViolation(CheckError):
    def __init__(self, t):
        self.element = t
        super().__init__(f"adjoint formula fails at element {t}")


class GradingNotSaturated(CheckError):
    def __init__(self, t):
        self.element = t
        super().__init__(f"grading is not saturated at element {t}")


class NotInvertibleIsometry(CheckError):
    def __init__(self, g):
        self.element = g
        super().__init__(f"v at {g} is not an invertible isometry")


class GroupConvolutionMismatch(CheckError):
    def __init__(self, s, t):
        self.pair = (s, t)
        super().__init__(f"group and semigroup convolutions disagree at ({s}, {t})")


class NotAGroup(CheckError):
    def __init__(self, n_idempotents: int):
        self.n_idempotents = n_idempotents
        super().__init__(f"semigroup has {n_idempotents} idempotents, not a group")


# ----------------------------------------------------------------------- cli


class EvalError(CheckError):
    def __init__(self, message: str, position: int | None = None):
        self.position = position
        where = f" at column {position}" if position is not None else ""
        super().__init__(f"{message}{where}")
