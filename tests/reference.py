"""Reference paths kept as test oracles for the fast kernels in ``semicross``.

``reference_convolve`` is the per-summand convolution that ``ell1.convolve``
replaced with one contraction of the structure tensor: an exact double sum
over the support pairs, with every summand checked to land in the ideal of
the product element.

``reference_structure_tensor`` builds the structure tensor with one
batched solve per pair (s, t) of nonzero elements; ``structure_tensor``
replaced it with one stacked build per s that gives the same entries in the
same order and names the same first failing pair.

``reference_generate_semigroup`` is the breadth-first closure that composes
``PartialBijection`` pairs one at a time, for the closure and again for the
Cayley table, with the pairwise natural order; ``generate_semigroup``
replaced it with a closure over int rows that registers elements in the same
order.  ``reference_wagner_preston`` builds the regular embedding map by map.
``reference_assoc_witness`` scans every triple of a Cayley table one at a
time for the first failure of associativity, which ``validate_inverse`` now
finds by Light's test over a generating cover.  ``reference_check_rows``
checks theta's homomorphism law on int rows at every pair (s, t) in
row-major order, which ``semigroups._check_rows`` now checks over the
semigroup's generating cover only.

``reference_mul`` is the product of ``FinAlgebra.mul`` as the dense
three-operand einsum over the whole structure tensor, which ``mul``
replaced with one gather of its nonzero entries and one matmul.

``reference_from_support`` fills a support ideal with one ``points.index``
lookup per point, which ``Ideal.from_support`` replaced with one position
map per call.

``_is_delta_permutation`` and ``_is_block_permutation`` are the two exact
isometry witnesses, for function algebras and for matrix sums, that
``algebras._is_block_relabeling`` replaced with one witness over blocks
(the points of C(X) are its 1x1 blocks).

The sampled and per-pair certificates (``reference_paut_validate``,
``reference_ideal_validate``, ``reference_certify_contractive``,
``reference_validate_algebra``, ``reference_integrate_contractive``) are the
loops the batched checks replaced: one draw, one norm and one comparison per
sample or pair, raising at the first failure.  They draw the same random
numbers in the same order, so they certify the same points.
``reference_certify_isometry`` normalizes each point x = c B and maps it
through ``apply``, where ``paut_validate`` compares |c M| with |c B| in
coordinates.  The algebra
laws raise the named errors that replaced their ``assert`` statements.

``reference_quotient_lp`` fills the quotient-norm LP one 64-facet row at a
time, each row carrying the 2k coefficients of the coset value, with rows
for coordinates where the coset is identically zero, as a dense matrix.
``quotient_ell1_norm`` solves the dual of the same program by a simplex
that prices the facets in closed form (``ell1._dual_simplex``);
``reference_quotient_norm`` is this program's optimum by HiGHS, which the
tests compare with it.

``reference_quotient_pivots`` is the greedy pivot loop that
``quotient_algebra`` ran with one SVD of the chosen columns per choice; it
now extends orthonormal rows by one residual per choice.

``reference_germ_classes`` is a union-find over partial bijections given as
frozensets of pairs: the germ partition of an induced action's section
coordinates, computed without semicross, as the oracle of ``germs._Germs``.
``reference_block_classes`` is a union-find over the pairs (t, block) of
an action whose ideal bases are identity rows, linked by the natural order
pair by pair: the block classes of ``germs._block_germs``.
``reference_germ_basis`` builds the class contrasts of that partition
through (D, D) masks, as ``_Germs.basis`` did before it built them one
class at a time.  ``reference_germ_quotient_norm`` writes the exact
quotient-norm program, one covering row per class with the block norm of
the class total on its right-hand side, out over the classes of either
union-find and solves it by HiGHS.  ``reference_sim_quotient_norm`` is its
closed form for the full symmetric inverse monoid: the largest row or
column sum of the moduli of the class totals.

``reference_ideal_witness`` runs the ideal check of ``ell1._ideal_witness``
with one (q, rows) product per spanning monomial and side, in index
order; the check now stacks those products over blocks of monomials.

``reference_saturate`` grows the span of ``reference_order_differences``
by rounds of products with the spanning monomials until it stops growing,
as ``null_ideal`` did before it checked once that the span is closed.

``compose_paut``, ``pauts_equal`` and ``intersect_rows`` are the partial-map
composition, equality and subspace intersection that PA1 and the derived
image law alpha_s(I_s* & I_t) = I_st used pair by pair.
``reference_validate_action`` and ``reference_check_derived_identities``
run those |S|^2 loops, which the per-s stacked checks replaced with the
same report lines and the same first failure.

``reference_check_spatial``, ``reference_check_algebraic``,
``reference_is_normalized``, ``reference_normalize``,
``reference_grading_space``, ``reference_integrate_matrix``,
``reference_adjoint_check`` and ``reference_group_isometries`` are the
per-pair and per-basis-vector loops behind the covariant-pair checks, which
now contract stacks of pi-images and essential products.
``reference_integrate_products`` is the multiplicativity check of
``integrate`` as one (D, D, n^2) build of both sides, which ``integrate``
now compares in blocks of i.  ``reference_null_images`` and
``reference_null_not_killed`` are its kills-N check as the dense product of
the null basis, which an induced action's own null ideal replaced with
running sums within its germ classes (``_Germs.contrasts``).
``reference_regular_rep`` builds the regular pair point by point, as
``regular_rep`` did before it scattered theta's int rows.  The
``*_consequences`` functions assert the facts that the checks of a pair, an
inverse semigroup or a partial automorphism force, which ``semicross`` no
longer re-proves on every call: ``inverse_consequences`` (commuting
idempotents and a partial natural order), ``embedding_consequences`` (the
Wagner-Preston embedding is an injective star-compatible homomorphism) and
``paut_consequences`` (phi(1_s) = 1_t).
"""

from __future__ import annotations

import itertools

import numpy as np

from semicross._linalg import (
    DEFAULT_TOL,
    in_rowspace,
    null_rows,
    orth_rows,
    rows_equal,
    rows_leq,
    solve_coords,
)
from semicross.algebras import (
    Ideal,
    PartialAut,
    PautCertificate,
    ideal_validate,
)
from semicross.ell1 import (
    N_FACETS,
    Ell1Element,
    convolve,
    ell1_norm,
    monomials,
    null_ideal,
    structure_tensor,
)
from semicross.errors import (
    ActionMismatch,
    DimensionMismatch,
    AdjointFormulaViolation,
    CarrierMismatch,
    ConvolutionEscapesIdeal,
    CR1Violation,
    CR2Violation,
    CR3Violation,
    DegenerateRepresentation,
    GradingNotSaturated,
    NonzeroIdealAtZero,
    NoStarOnAlgebra,
    NotAHomomorphism,
    NotAnIdeal,
    NotAnInvolution,
    NotAssociative,
    NotBijective,
    NotContractive,
    NotHilbertSpace,
    NotInvertibleIsometry,
    NotIsometric,
    NotMultiplicative,
    NotNormalized,
    NotSemigroupHom,
    NotSubmultiplicative,
    NoUnit,
    NullNotKilled,
    PA1Violation,
    PA2SpanDeficit,
    SCR1Violation,
    SCR2RangeMismatch,
    SizeCapExceeded,
    StarNotPreserved,
)
from semicross.reporting import CheckReport
from semicross.semigroups import DEFAULT_CAP, InvSemigroup, PartialBijection


def reference_convolve(
    f: Ell1Element, g: Ell1Element, tol: float = DEFAULT_TOL
) -> Ell1Element:
    if f.action is not g.action:
        raise ActionMismatch("elements of different section algebras")
    act = f.action
    sg = act.semigroup
    out: dict[int, np.ndarray] = {}
    for s in f.support:
        fs = f.value(s)
        pulled = act.apply(sg.inv(s), fs, tol)
        for t in g.support:
            r = sg.mul(s, t)
            gt = g.value(t)
            summand = act.apply(s, act.algebra.mul(pulled, gt), tol)
            ideal = act.ideal(r)
            scale = max(
                1.0, float(np.linalg.norm(fs)) * float(np.linalg.norm(gt))
            )
            if ideal.dim == 0:
                # the product element carries the zero ideal, so the summand
                # must vanish up to roundoff of the inputs
                assert float(np.linalg.norm(summand)) <= tol * scale, (
                    "convolution summand escapes the ideal of the product element"
                )
                continue
            assert ideal.contains(summand, tol), (
                "convolution summand escapes the ideal of the product element"
            )
            out[r] = out.get(r, 0) + ideal.coords(summand, tol)
    return Ell1Element(act, out)


def reference_structure_tensor(action, tol: float = DEFAULT_TOL) -> tuple:
    """(I, J, K, C) of ``structure_tensor``, one batched solve per pair (s, t)
    of nonzero elements; the first pair whose products leave the source of
    alpha_s or the ideal of st raises ``ConvolutionEscapesIdeal``."""
    sg, A, offs = action.semigroup, action.algebra, action.offsets
    entries = [(np.zeros(0, dtype=np.intp),) * 3 + (np.zeros(0, dtype=complex),)]
    for s, t in itertools.product(action.nonzero_elements, repeat=2):
        r, bs, bt = sg.mul(s, t), action.ideal(s).basis, action.ideal(t).basis
        try:
            pulled = action.apply(sg.inv(s), bs, tol)
            prod = np.einsum("ai,bj,ijk->abk", pulled, bt, A.structure).reshape(-1, A.dim)
            coords = action.ideal(r).coords(action.apply(s, prod, tol), tol)
        except np.linalg.LinAlgError:
            raise ConvolutionEscapesIdeal(sg.labels[s], sg.labels[t]) from None
        ab, k = np.nonzero(coords)
        a, b = divmod(ab, len(bt))
        entries.append((offs[s] + a, offs[t] + b, offs.get(r, 0) + k, coords[ab, k]))
    return tuple(map(np.concatenate, zip(*entries)))


def reference_monomial_products(action, basis, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Rows m * x and x * m over the spanning monomials, one convolution each."""
    mono = monomials(action)
    rows = [np.zeros((0, action.total_dim), dtype=complex)]
    for row in basis:
        x = Ell1Element.from_dense(action, row)
        for m in mono:
            rows.append(reference_convolve(m, x, tol).to_dense()[None, :])
            rows.append(reference_convolve(x, m, tol).to_dense()[None, :])
    return np.vstack(rows)


def reference_order_differences(action, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Dense rows a delta_s - a delta_t, s < t, a over the basis of I_s."""
    rows = [np.zeros((0, action.total_dim), dtype=complex)]
    for s, t in sorted(action.semigroup.order):
        if s != t:
            for a in action.ideal(s).basis:
                d = Ell1Element.monomial(action, s, a, tol) - Ell1Element.monomial(
                    action, t, a, tol
                )
                rows.append(d.to_dense()[None, :])
    return np.vstack(rows)


def reference_saturate(action, seed_rows, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal rows of the smallest subspace containing ``seed_rows`` and
    closed under convolution by the spanning monomials on either side."""
    mono = monomials(action)
    basis = orth_rows(seed_rows, tol)
    while True:
        xs = [Ell1Element.from_dense(action, row) for row in basis]
        products = [convolve(m, x, tol).to_dense() for x in xs for m in mono]
        products += [convolve(x, m, tol).to_dense() for x in xs for m in mono]
        grown = orth_rows(np.vstack([basis, *products]), tol)
        if grown.shape[0] == basis.shape[0]:
            return grown
        basis = grown


def reference_ideal_witness(action, basis: np.ndarray, comp: np.ndarray, tol: float):
    """The ideal check, one spanning monomial m_i and side at a time: the
    first (element label, index in its ideal, side) where comp @ (m_i * x)
    or comp @ (x * m_i) is off zero for some row x of ``basis``, or None."""
    I, J, K, C = structure_tensor(action, tol)
    basis_t = np.ascontiguousarray(basis.T)
    for side, outer, inner in (("left", I, J), ("right", J, I)):
        for i in range(action.total_dim):
            e = np.flatnonzero(outer == i)
            off = (comp[:, K[e]] * C[e]) @ basis_t[inner[e]]
            if np.any(np.linalg.norm(off, axis=0) > tol):
                t = [t for t, o in action.offsets.items() if o <= i][-1]
                return action.semigroup.labels[t], i - action.offsets[t], side
    return None


def reference_quotient_pivots(comp: np.ndarray, tol: float = DEFAULT_TOL) -> list:
    """The complement coordinates ``quotient_algebra`` chooses from the rows
    comp of the orthogonal complement of N: e_j joins unless comp e_j lies
    in the span of the columns chosen so far, which is re-orthonormalized
    after each choice."""
    chosen, cur = [], np.zeros((0, len(comp)), dtype=complex)
    for j, col in enumerate(comp.T):
        if not in_rowspace(cur, col, tol):
            chosen.append(j)
            cur = orth_rows(np.vstack([cur, col]), tol)
    return chosen


def reference_germ_classes(elements) -> dict:
    """The germ class of each (t, y), y in the image of the partial bijection
    ``elements[t]`` (a frozenset of (x, y) pairs, one per element of a
    semigroup of distinct maps), as a representative (s, x): the germs
    [s, x] and [t, x] are equal when s e = t e for some idempotent e whose
    domain holds x (Exel 2008).  A union-find that composes the frozensets
    pair by pair."""
    def compose(f, g):  # f after g
        fd = dict(f)
        return frozenset((x, fd[y]) for x, y in g if y in fd)

    parent = {(t, x): (t, x) for t, m in enumerate(elements) for x, _ in m}

    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    for e in (e for e in elements if all(x == y for x, y in e)):
        for x, _ in e:
            seen = {}
            for t, m in enumerate(elements):
                if x in dict(m):
                    key = compose(m, e)
                    if key in seen:
                        parent[find((t, x))] = find(seen[key])
                    else:
                        seen[key] = (t, x)
    return {(t, dict(m)[x]): find((t, x)) for t, m in enumerate(elements) for x, _ in m}


def reference_germ_basis(label: np.ndarray) -> np.ndarray:
    """The class contrasts of ``germs._Germs.basis`` from the labels of a
    partition, through (D, D) masks: row i, for a coordinate with r >= 1
    earlier coordinates in its class, is their sum less r e_i, over
    sqrt(r (r + 1))."""
    n = len(label)
    earlier = (label[:, None] == label) & np.tri(n, k=-1, dtype=bool)
    rank = earlier.sum(1)
    rows = (earlier - np.diag(rank))[rank > 0]
    return (rows / np.sqrt(rank * (rank + 1.0))[rank > 0, None]).astype(complex)


def reference_block_classes(action) -> dict:
    """The block class of each pair (t, b) with the block b inside I_t, as a
    representative, for an action whose ideal bases are identity rows: a
    union-find that links (s, b) and (t, b) for every s <= t in the
    natural order and every block b of I_s, one pair at a time."""
    A = action.algebra
    block = {int(i): b for b, idx in enumerate(A.blocks) for i in idx.flat}
    held = {t: {block[int(np.flatnonzero(row)[0])] for row in action.ideal(t).basis}
            for t in range(len(action.semigroup))}
    parent = {(t, b): (t, b) for t, bs in held.items() for b in bs}

    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    for s, t in sorted(action.semigroup.order):
        for b in held[s]:
            parent[find((s, b))] = find((t, b))
    return {u: find(u) for u in parent}


def reference_germ_quotient_norm(f: Ell1Element, elements=None) -> float:
    """The exact quotient norm of f over its action's own N, as the covering
    program of ``quotient_ell1_norm`` written out and solved by HiGHS:
    minimize the sum of m_t >= 0 subject to, at each block class C, the sum
    of m_t over the t holding C >= the p-operator norm (``np.linalg.norm``)
    of the class total c_C, a matrix on C's block.  The classes are those of
    ``reference_germ_classes(elements)`` for an induced action of the maps
    ``elements``, else those of ``reference_block_classes``.  The program is
    solved with its right-hand side divided by the norm of f."""
    from scipy.optimize import linprog

    act, A = f.action, f.action.algebra
    scale = ell1_norm(f)
    if not scale:
        return 0.0
    if elements is not None:
        germs = reference_germ_classes(elements)
        key = lambda t, b, i: germs[t, A.points[i]]
    else:
        blocks = reference_block_classes(act)
        key = lambda t, b, i: blocks[t, b]
    index, totals, holders = {}, [], []
    for t in act.offsets:
        for row, c in zip(act.ideal(t).basis, f.coeffs.get(t, np.zeros(act.ideal(t).dim))):
            i = int(np.flatnonzero(row)[0])
            b = next(b for b, idx in enumerate(A.blocks) if i in idx)
            C = index.setdefault(key(t, b, i), len(index))
            if C == len(totals):
                totals.append(np.zeros(A.blocks[b].shape, dtype=complex))
                holders.append(set())
            totals[C][tuple(np.argwhere(A.blocks[b] == i)[0])] += c / scale
            holders[C].add(t)
    rho = [np.linalg.norm(c, ord=A.p) for c in totals]
    hold = np.zeros((len(totals), len(act.semigroup)))
    for C, ts in enumerate(holders):
        hold[C, sorted(ts)] = 1.0
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(c=np.ones(hold.shape[1]), A_ub=-hold, b_ub=-np.array(rho), bounds=(0, None),
                  method="highs", options=tight)
    return scale * res.fun


def reference_sim_quotient_norm(f: Ell1Element) -> float:
    """The quotient norm of f over the action of the full symmetric inverse
    monoid sim_n induced on its n points, in closed form.  The germ of
    (t, y) is the pair (y, x), x = theta_t^-1(y), since the least idempotent
    holding x is id{x}, and every partial bijection is an element.  So the
    class totals c_(y,x) form an n x n matrix and a cover is a nonnegative
    combination of partial permutation matrices that dominates |c|: its
    least total weight is the largest row or column sum of |c|, by
    Birkhoff and von Neumann for doubly substochastic matrices."""
    act = f.action
    pos = {x: i for i, x in enumerate(act.algebra.points)}
    totals = np.zeros((len(pos), len(pos)), dtype=complex)
    for t in act.offsets:
        value = f.value(t)
        for x, y in act._theta.maps[t].pairs:
            totals[pos[y], pos[x]] += value[pos[y]]
    moduli = np.abs(totals)
    return float(max(moduli.sum(0).max(), moduli.sum(1).max()))


def reference_mul(algebra, x, y) -> np.ndarray:
    return np.einsum("...i,...j,ijk->...k", x, y, algebra.structure)


def reference_from_support(parent, points) -> Ideal:
    """``Ideal.from_support`` with one ``points.index`` lookup and one write
    per point, as it was built before it kept a position map."""
    idxs = sorted(parent.points.index(p) for p in points)
    basis = np.zeros((len(idxs), parent.dim), dtype=complex)
    unit = np.zeros(parent.dim, dtype=complex)
    for r, i in enumerate(idxs):
        basis[r, i] = 1.0
        unit[i] = 1.0
    return Ideal(parent, basis, unit)


def reference_natural_order(sg: InvSemigroup) -> frozenset:
    """Pairs (s, t) with t (s* s) = s, one product at a time."""
    pairs = set()
    for s in range(len(sg)):
        ss = sg.mul(sg.inv(s), s)
        for t in range(len(sg)):
            if sg.mul(t, ss) == s:
                pairs.add((s, t))
    return frozenset(pairs)


def reference_generate_semigroup(generators, cap: int = DEFAULT_CAP) -> InvSemigroup:
    """Per-pair closure: inverses of the frontier, then x o y and y o x for
    each frontier x and each y known when the round's products start."""
    gens = list(generators)
    carrier = gens[0].carrier
    if any(g.carrier != carrier for g in gens):
        raise CarrierMismatch("generators live on different carriers")
    elems: list[PartialBijection] = []
    index: dict[tuple, int] = {}

    def register(p: PartialBijection) -> bool:
        if p.pairs in index:
            return False
        if len(elems) >= cap:
            raise SizeCapExceeded(cap)
        index[p.pairs] = len(elems)
        elems.append(p)
        return True

    for g in gens:
        register(g)
    frontier = list(elems)
    while frontier:
        new = [y for x in frontier if register(y := x.invert())]
        known = list(elems)
        for x in frontier:
            for y in known:
                new.extend(p for p in (x.compose(y), y.compose(x)) if register(p))
        frontier = new
    n = len(elems)
    table = np.array(
        [[index[x.compose(y).pairs] for y in elems] for x in elems], dtype=int
    ).reshape(n, n)
    star = np.array([index[x.invert().pairs] for x in elems], dtype=int)
    idem = tuple(i for i in range(n) if table[i, i] == i)
    labels = tuple(x.label for x in elems)
    sg = InvSemigroup(labels, table, star, idem, frozenset(), index.get(()), tuple(elems))
    sg.order = reference_natural_order(sg)
    return sg


def reference_assoc_witness(table) -> tuple | None:
    """First (i, j, k) in row-major order with (ij)k != i(jk), or None."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return (i, j, k)
    return None


def reference_check_rows(sg: InvSemigroup, rows: np.ndarray) -> None:
    """NotAHomomorphism at the first (s, t) in row-major order where the
    int rows fail rows[s] o rows[t] = rows[st] (-1 where undefined)."""
    for s in range(len(sg)):
        for t in range(len(sg)):
            composed = [rows[s][y] if y >= 0 else -1 for y in rows[t]]
            if composed != list(rows[sg.mul(s, t)]):
                raise NotAHomomorphism(sg.labels[s], sg.labels[t])


def reference_wagner_preston(sg: InvSemigroup) -> list[PartialBijection]:
    """t -> (x -> t x) on {x : t* t x = x}, over the element labels."""
    maps = []
    for t in range(len(sg)):
        tt = sg.mul(sg.inv(t), t)
        pairs = tuple(
            (sg.labels[x], sg.labels[sg.mul(t, x)])
            for x in range(len(sg))
            if sg.mul(tt, x) == x
        )
        maps.append(PartialBijection(tuple(sg.labels), pairs))
    return maps


def reference_ideal_validate(ideal, tol: float = DEFAULT_TOL) -> None:
    A = ideal.parent
    eye = np.eye(A.dim, dtype=complex)
    for r, x in enumerate(ideal.basis):
        for b in range(A.dim):
            if not ideal.contains(A.mul(x, eye[b]), tol):
                raise NotAnIdeal((r, A.labels[b], "right"))
            if not ideal.contains(A.mul(eye[b], x), tol):
                raise NotAnIdeal((r, A.labels[b], "left"))
    if ideal.dim and not ideal.contains(ideal.unit, tol):
        raise NoUnit("unit lies outside the subspace")
    for r, x in enumerate(ideal.basis):
        if not np.allclose(A.mul(ideal.unit, x), x, atol=tol, rtol=0.0):
            raise NoUnit(("left", r))
        if not np.allclose(A.mul(x, ideal.unit), x, atol=tol, rtol=0.0):
            raise NoUnit(("right", r))


def _is_delta_permutation(phi: PartialAut, tol: float) -> bool:
    """Exact isometry witness for function algebras: every minimal idempotent
    of the source maps to a single minimal idempotent with coefficient 1."""
    A = phi.parent
    pts = [A.points.index(x) for x in phi.source.support]
    img = phi.apply(np.eye(A.dim, dtype=complex)[pts], tol)
    hot = np.abs(img) > tol
    return bool(np.all(hot.sum(-1) == 1) and np.all(np.abs(img[hot] - 1.0) <= tol))


def _is_block_permutation(phi: PartialAut, tol: float) -> bool:
    """Exact isometry witness for matrix sums: the map relabels whole blocks
    entry-by-entry."""
    A = phi.parent
    eye = np.eye(A.dim, dtype=complex)
    src_blocks = [
        idx for idx in A.blocks if idx.size and phi.source.contains(eye[idx.ravel()], tol)
    ]
    if sum(idx.size for idx in src_blocks) != phi.source.dim:
        return False
    for idx in src_blocks:
        images = [phi.apply(eye[i], tol) for i in idx.flat]
        target_block = None
        for tix, img in zip(idx.flat, images):
            hot = np.flatnonzero(np.abs(img) > tol)
            if hot.size != 1 or not abs(img[hot[0]] - 1.0) <= tol:
                return False
            for bidx in A.blocks:
                if hot[0] in bidx:
                    pos = np.argwhere(bidx == hot[0])[0]
                    src_pos = np.argwhere(idx == tix)[0]
                    if not np.array_equal(pos, src_pos):
                        return False
                    if target_block is None:
                        target_block = bidx[0, 0]
                    elif target_block != bidx[0, 0]:
                        return False
    return True


def reference_certify_isometry(phi, tol=DEFAULT_TOL, seed=0, samples=2000):
    A = phi.parent
    if phi.source.dim == 0:
        return PautCertificate("exact")
    if A.kind == "function" and _is_delta_permutation(phi, tol):
        return PautCertificate("exact")
    if A.kind == "matrix" and _is_block_permutation(phi, tol):
        return PautCertificate("exact")
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        c = rng.standard_normal(phi.source.dim) + 1j * rng.standard_normal(phi.source.dim)
        x = phi.source.to_parent(c)
        nx = A.norm(x)
        if nx < tol:
            continue
        x = x / nx
        ny = A.norm(phi.apply(x, tol))
        if ny > 1.0 + tol or ny < 1.0 - tol:
            raise NotIsometric(np.round(x, 6))
    return PautCertificate("sampled")


def reference_paut_validate(phi, tol=DEFAULT_TOL, seed=0, samples=2000):
    reference_ideal_validate(phi.source, tol)
    reference_ideal_validate(phi.target, tol)
    A = phi.parent
    if phi.source.dim != phi.target.dim:
        raise NotBijective("source and target dimensions differ")
    for row in phi.matrix:
        if not phi.target.contains(row, tol):
            raise NotBijective("image escapes the target subspace")
    if phi.source.dim:
        s = np.linalg.svd(phi.matrix, compute_uv=False)
        if s[-1] <= tol:
            raise NotBijective("map matrix is rank deficient")
        if orth_rows(phi.source.basis, tol).shape[0] < phi.source.dim:
            raise NotBijective("source basis is rank deficient")
    cert = reference_certify_isometry(phi, tol, seed, samples)
    for i, x in enumerate(phi.source.basis):
        for j, y in enumerate(phi.source.basis):
            lhs = phi.apply(A.mul(x, y), tol)
            rhs = A.mul(phi.apply(x, tol), phi.apply(y, tol))
            if not np.allclose(lhs, rhs, atol=tol, rtol=0.0):
                raise NotMultiplicative((i, j))
    return cert


def reference_certify_contractive(rep, tol=DEFAULT_TOL, seed=0, samples=2000) -> str:
    A = rep.action.algebra
    diagonal = all(
        np.allclose(m, np.diag(np.diag(m)), atol=tol, rtol=0.0) for m in rep.pi
    )
    if A.kind == "function" and diagonal:
        rowsums = np.sum(np.abs([np.diag(m) for m in rep.pi]), axis=0)
        if np.any(rowsums > 1.0 + tol):
            raise NotContractive("pi", "a diagonal row sum exceeds 1")
        return "exact"
    trials = []
    if A.kind == "function" and A.dim <= 16:
        for bits in range(2 ** A.dim):
            signs = np.array([1.0 if bits >> i & 1 else -1.0 for i in range(A.dim)])
            trials.append(signs.astype(complex))
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        a = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
        na = A.norm(a)
        if na > tol:
            trials.append(a / na)
    for a in trials:
        if rep.opnorm(rep.pi_of(a)) > A.norm(a) + tol:
            raise NotContractive("pi", "it expands a sampled element")
    return "sampled"


def reference_validate_algebra(algebra, seed=0, tol=DEFAULT_TOL, samples=1000) -> None:
    s = algebra.structure
    lhs = np.einsum("ijm,mkl->ijkl", s, s)
    rhs = np.einsum("jkm,iml->ijkl", s, s)
    for triple in np.ndindex(lhs.shape[:3]):
        if not np.allclose(lhs[triple], rhs[triple], atol=tol, rtol=0.0):
            raise NotAssociative(triple)
    rng = np.random.default_rng(seed)
    d = algebra.dim
    for n in range(samples):
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        if not algebra.norm(algebra.mul(x, y)) <= algebra.norm(x) * algebra.norm(y) + tol:
            raise NotSubmultiplicative(n)
    if algebra.star_mat is not None:
        st = algebra.star_mat
        if not np.allclose(st @ np.conj(st), np.eye(d), atol=tol, rtol=0.0):
            raise NotAnInvolution("star is not involutive")
        eye = np.eye(d, dtype=complex)
        for i in range(d):
            for j in range(d):
                ab = algebra.mul(eye[i], eye[j])
                if not np.allclose(
                    algebra.star(ab),
                    algebra.mul(algebra.star(eye[j]), algebra.star(eye[i])),
                    atol=tol,
                    rtol=0.0,
                ):
                    raise NotAnInvolution((i, j))


def reference_integrate_contractive(integrated, tol=DEFAULT_TOL, seed=0, samples=200) -> None:
    """The sampled contractivity check of ``integrate(check=True)``."""
    rep = integrated.rep
    act = rep.action
    draws = np.random.default_rng(seed).standard_normal((samples, 2, act.total_dim))
    for k, (re, im) in enumerate(draws):
        f = Ell1Element.from_dense(act, re + 1j * im)
        if not rep.opnorm(integrated.apply(f)) <= ell1_norm(f) + tol:
            raise NotContractive("integrated map", f"it expands sampled section {k}")


def reference_quotient_lp(f: Ell1Element, null_basis: np.ndarray) -> tuple:
    """Objective, A_ub, b_ub and bounds over orthonormal rows ``null_basis``."""
    act = f.action
    k = null_basis.shape[0]
    A = act.algebra
    elements = act.nonzero_elements
    n_m = len(elements)
    theta = 2.0 * np.pi * np.arange(N_FACETS) / N_FACETS
    phase = np.exp(-1j * theta)
    null_elems = [Ell1Element.from_dense(act, row) for row in null_basis]
    base = {t: f.value(t) for t in elements}
    dirs = {t: np.array([n.value(t) for n in null_elems]) for t in elements}
    rows, rhs = [], []
    n_aux = 0
    var_m0 = 2 * k
    u_index = {}
    for ti, t in enumerate(elements):
        for idx in A.blocks:
            if idx.size == 1:
                continue
            for pos in idx.flat:
                u_index[(ti, int(pos))] = var_m0 + n_m + n_aux
                n_aux += 1
    n_vars = var_m0 + n_m + n_aux

    def facet_rows(t, coord, bound_col):
        b, w = base[t][coord], dirs[t][:, coord]
        for ph in phase:
            row = np.zeros(n_vars)
            row[0:k] = np.real(w * ph)
            row[k : 2 * k] = -np.imag(w * ph)
            row[bound_col] = -1.0
            rows.append(row)
            rhs.append(-np.real(b * ph))

    for ti, t in enumerate(elements):
        m_col = var_m0 + ti
        for idx in A.blocks:
            if idx.size == 1:
                facet_rows(t, int(idx[0, 0]), m_col)
                continue
            for pos in idx.flat:
                facet_rows(t, int(pos), u_index[(ti, int(pos))])
            lines = idx.T if A.p == 1 else idx
            for line in lines:
                row = np.zeros(n_vars)
                for pos in line:
                    row[u_index[(ti, int(pos))]] = 1.0
                row[m_col] = -1.0
                rows.append(row)
                rhs.append(0.0)

    objective = np.zeros(n_vars)
    objective[var_m0 : var_m0 + n_m] = 1.0
    bounds = [(None, None)] * var_m0 + [(0, None)] * (n_m + n_aux)
    return objective, np.array(rows).reshape(-1, n_vars), np.array(rhs), bounds


def reference_quotient_norm(f: Ell1Element, null_basis: np.ndarray) -> float:
    """The optimum of ``reference_quotient_lp``, solved by HiGHS's
    interior-point method (with its crossover to a vertex) at feasibility
    tolerances of 1e-10.  The optimum is positively homogeneous in f and the
    right-hand side is linear in f, so the program is solved with that side
    divided by the norm of f.  HiGHS's simplex at its default tolerances
    (1e-7, absolute) read 1.1749e-7 for a section of norm 1.1921e-7 whose
    optimum is that norm, and up to 1.5e-9 relative low on sections with
    entries near 1e-7 even at 1e-9; at 1e-10 it ends some of these programs
    without a solution.  The interior-point method, too, ends a few programs
    with status 4 and no solution (M_2 blocks with p = 1 over the closure of
    {1>2, 2>3}, {1>2} and the identity of {1, 2, 3}); only then is the dual
    simplex at the same tolerances asked instead."""
    from scipy.optimize import linprog

    scale = ell1_norm(f)
    if not scale:
        return 0.0
    c, a_ub, b_ub, bounds = reference_quotient_lp(f, null_basis)
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    for method in ("highs-ipm", "highs-ds"):
        res = linprog(c=c, A_ub=a_ub, b_ub=b_ub / scale, bounds=bounds, method=method,
                      options=tight)
        if res.status == 0:
            return scale * res.fun
    raise RuntimeError(f"HiGHS found no optimum: {res.message}")


# ----------------------------------------------------------- covariant pairs
#
# The per-pair, per-basis-vector loops that the stacked checks in
# ``semicross.reps`` replaced, raising the same classes with the same
# first-failure payloads, and below them the facts that ``reps`` no longer
# re-proves at run time because they follow from the checks that passed.


def reference_check_intertwining(rep, tol, errcls) -> None:
    sg = rep.action.semigroup
    for t in range(len(sg)):
        src = rep.action.paut(t).source
        for i, a in enumerate(src.basis):
            lhs = rep.v[t] @ rep.pi_of(a)
            rhs = rep.pi_of(rep.action.apply(t, a, tol)) @ rep.v[t]
            if not np.allclose(lhs, rhs, atol=tol, rtol=0.0):
                raise errcls(sg.labels[t], i)


def reference_essential_space(rep, t, tol=DEFAULT_TOL) -> np.ndarray:
    """Row-space description of span(pi(I_t) E)."""
    basis = rep.action.ideal(t).basis
    if basis.shape[0] == 0:
        return np.zeros((0, rep.space.dim), dtype=complex)
    cols = np.hstack([rep.pi_of(a) for a in basis])
    return orth_rows(cols.T, tol)


def reference_check_spatial(rep, tol=DEFAULT_TOL) -> None:
    sg = rep.action.semigroup
    reference_check_intertwining(rep, tol, SCR1Violation)
    for t in range(len(sg)):
        vrange = orth_rows(rep.v[t].T, tol)
        if not rows_equal(vrange, reference_essential_space(rep, t, tol), tol):
            raise SCR2RangeMismatch(sg.labels[t])
    for s in range(len(sg)):
        for t in range(len(sg)):
            if not np.allclose(rep.v[s] @ rep.v[t], rep.v[sg.mul(s, t)], atol=tol, rtol=0.0):
                raise NotSemigroupHom(sg.labels[s], sg.labels[t])


def reference_check_algebraic(rep, tol=DEFAULT_TOL) -> None:
    sg, act = rep.action.semigroup, rep.action
    reference_check_intertwining(rep, tol, CR1Violation)
    for s in range(len(sg)):
        for t in range(len(sg)):
            st = sg.mul(s, t)
            for a in act.ideal(st).basis:
                pa = rep.pi_of(a)
                if not np.allclose(pa @ rep.v[s] @ rep.v[t], pa @ rep.v[st], atol=tol, rtol=0.0):
                    raise CR2Violation(sg.labels[s], sg.labels[t])
    for e in sg.idempotents:
        for a in act.ideal(e).basis:
            pa = rep.pi_of(a)
            if not np.allclose(pa @ rep.v[e], pa, atol=tol, rtol=0.0):
                raise CR3Violation(sg.labels[e])


def reference_is_normalized(rep, tol=DEFAULT_TOL) -> bool:
    sg = rep.action.semigroup
    for t in range(len(sg)):
        unit = rep.action.ideal(t).unit
        if not np.allclose(rep.pi_of(unit) @ rep.v[t], rep.v[t], atol=tol, rtol=0.0):
            return False
        unit_star = rep.action.ideal(sg.inv(t)).unit
        if not np.allclose(rep.v[t] @ rep.pi_of(unit_star), rep.v[t], atol=tol, rtol=0.0):
            return False
    return True


def reference_normalize(rep, tol=DEFAULT_TOL):
    reference_check_algebraic(rep, tol)
    act = rep.action
    return rep.with_v(
        np.array([rep.pi_of(act.ideal(t).unit) @ rep.v[t] for t in range(len(act.semigroup))])
    )


def reference_grading_space(rep, t, tol=DEFAULT_TOL) -> np.ndarray:
    """Flattened span of {pi(a) v_t : a in I_t}."""
    basis = rep.action.ideal(t).basis
    if basis.shape[0] == 0:
        return np.zeros((0, rep.space.dim ** 2), dtype=complex)
    return orth_rows(np.array([(rep.pi_of(a) @ rep.v[t]).ravel() for a in basis]), tol)


def reference_range_space(rep, tol=DEFAULT_TOL) -> np.ndarray:
    """Flattened span of all the grading subspaces."""
    sg = rep.action.semigroup
    rows = np.vstack([reference_grading_space(rep, t, tol) for t in range(len(sg))])
    return orth_rows(rows, tol)


def reference_integrate_matrix(rep) -> np.ndarray:
    """Columns pi(a) v_t, t over the nonzero elements and a over the basis of I_t."""
    act, n = rep.action, rep.space.dim
    cols = []
    for t in act.nonzero_elements:
        for a in act.ideal(t).basis:
            cols.append((rep.pi_of(a) @ rep.v[t]).ravel())
    return np.array(cols).T.reshape(n * n, act.total_dim)


def reference_null_images(rep, basis: np.ndarray) -> np.ndarray:
    """psi of every row of a null basis, ``basis @ matrix.T`` as (rows, n, n):
    the dense product that ``integrate``'s kills-N check takes on the
    numeric path, and took on the germ path before it summed within classes."""
    n = rep.space.dim
    return (basis @ reference_integrate_matrix(rep).T).reshape(-1, n, n)


def reference_null_not_killed(rep, basis: np.ndarray, tol=DEFAULT_TOL) -> None:
    """NullNotKilled at the first basis row whose image has norm above tol."""
    alive = ~(rep.opnorm(reference_null_images(rep, basis)) <= tol)
    if alive.any():
        raise NullNotKilled(int(np.argmax(alive)))


def reference_regular_rep(theta, action) -> tuple:
    """pi and v of ``regular_rep`` by the per-point loop it replaced with one
    scatter from theta's int rows: v_t moves e_x to e_{theta_t x}."""
    points = action.algebra.points
    n = len(points)
    pi = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        pi[i, i, i] = 1.0
    v = np.zeros((len(theta.maps), n, n), dtype=complex)
    for t, m in enumerate(theta.maps):
        inv = m.invert()
        for x in inv.domain:  # x ranges over the image set of theta_t
            v[t, points.index(x), points.index(inv(x))] = 1.0
    return pi, v


def reference_integrate_products(rep, tol=DEFAULT_TOL) -> None:
    """NotMultiplicative at the first (i, j) where psi(m_i) psi(m_j) differs
    from psi(m_i * m_j), with every pair built at once."""
    I, J, K, C = structure_tensor(rep.action, tol)
    matrix = reference_integrate_matrix(rep)
    D, n = matrix.shape[1], rep.space.dim
    images = matrix.T.reshape(D, n, n)
    got = np.zeros((D, D, n * n), dtype=complex)
    np.add.at(got, (I, J), C[:, None] * matrix[:, K].T)
    want = np.einsum("iab,jbc->ijac", images, images).reshape(got.shape)
    far = ~np.all(np.abs(got - want) <= tol, axis=-1)
    if far.any():
        raise NotMultiplicative(tuple(int(x) for x in np.argwhere(far)[0]))


def reference_adjoint_check(rep, tol=DEFAULT_TOL) -> None:
    act = rep.action
    sg, A, n = act.semigroup, act.algebra, rep.space.dim
    if rep.space.p != 2:
        raise NotHilbertSpace(f"adjoints need the 2-norm, not p = {rep.space.p}")
    if A.star_mat is None:
        raise NoStarOnAlgebra("adjoints need an involution")
    if not reference_is_normalized(rep, tol):
        raise NotNormalized("the adjoint formula is stated for normalized pairs")
    eye = np.eye(A.dim, dtype=complex)
    for i in range(A.dim):
        if not np.allclose(rep.pi_of(A.star(eye[i])), rep.pi[i].conj().T, atol=tol, rtol=0.0):
            raise StarNotPreserved(i)
    for t in range(len(sg)):
        ts = sg.inv(t)
        for a in act.ideal(t).basis:
            lhs = (rep.pi_of(a) @ rep.v[t]).conj().T
            rhs = rep.pi_of(act.apply(ts, A.star(a), tol)) @ rep.v[ts]
            if not np.allclose(lhs, rhs, atol=tol, rtol=0.0):
                raise AdjointFormulaViolation(sg.labels[t])
        lhs_space = reference_grading_space(rep, t, tol).conj()
        lhs_space = lhs_space.reshape(-1, n, n).transpose(0, 2, 1).reshape(-1, n * n)
        if not rows_equal(lhs_space, reference_grading_space(rep, ts, tol), tol):
            raise GradingNotSaturated(sg.labels[t])


def reference_group_isometries(rep, tol=DEFAULT_TOL) -> None:
    """The pair checks of ``group_case_check(action, rep)``."""
    sg = rep.action.semigroup
    if not rep.is_nondegenerate(tol):
        raise DegenerateRepresentation("given to the group check")
    if not reference_is_normalized(rep, tol):
        raise NotNormalized("the group check is stated for normalized pairs")
    for g in range(len(sg)):
        m = rep.v[g]
        try:
            inverse_norm = rep.opnorm(np.linalg.inv(m))
        except np.linalg.LinAlgError:
            inverse_norm = np.inf
        if not (rep.opnorm(m) <= 1.0 + tol and inverse_norm <= 1.0 + tol):
            raise NotInvertibleIsometry(sg.labels[g])


def spatial_consequences(rep, tol=DEFAULT_TOL) -> None:
    """Forced for a pair that passed ``check_spatial``: v_t v_t* v_t = v_t,
    from the homomorphism check since t t* t = t."""
    sg = rep.action.semigroup
    for t in range(len(sg)):
        ts = sg.inv(t)
        assert np.allclose(
            rep.v[t] @ rep.v[ts] @ rep.v[t], rep.v[t], atol=tol, rtol=0.0
        ), f"partial isometry identity fails at {t}"


def algebraic_consequences(rep, tol=DEFAULT_TOL) -> None:
    """Forced for a pair that passed ``check_algebraic``, by CR1-CR3 with
    I_t = I_tt* and alpha_e = id: alternate covariance, and the co-unit and
    left-unit laws."""
    sg, act = rep.action.semigroup, rep.action
    for t in range(len(sg)):
        ts = sg.inv(t)
        for a in act.paut(t).source.basis:
            lhs = rep.v[t] @ rep.pi_of(a) @ rep.v[ts]
            rhs = rep.pi_of(act.apply(t, a, tol))
            assert np.allclose(lhs, rhs, atol=tol, rtol=0.0), f"alternate covariance fails at {t}"
        for a in act.ideal(t).basis:
            pa = rep.pi_of(a)
            assert np.allclose(pa @ rep.v[t] @ rep.v[ts], pa, atol=tol, rtol=0.0), (
                f"co-unit law fails at {t}"
            )
    for e in sg.idempotents:
        for a in act.ideal(e).basis:
            pa = rep.pi_of(a)
            assert np.allclose(rep.v[e] @ pa, pa, atol=tol, rtol=0.0), (
                f"left unit law fails at {e}"
            )


def normalization_consequences(rep, out, tol=DEFAULT_TOL) -> None:
    """Forced for ``out = normalize(rep)`` of an algebraic pair: out.v is a
    homomorphism with out.v_e = pi(1_e), the essential products and the range
    are unchanged, the right unit law holds, and normalizing is idempotent."""
    sg, act = rep.action.semigroup, rep.action
    for s in range(len(sg)):
        for t in range(len(sg)):
            assert np.allclose(
                out.v[s] @ out.v[t], out.v[sg.mul(s, t)], atol=tol, rtol=0.0
            ), "normalized v is not a semigroup homomorphism"
    for e in sg.idempotents:
        assert np.allclose(
            out.v[e], rep.pi_of(act.ideal(e).unit), atol=tol, rtol=0.0
        ), "normalized v_e differs from pi(1_e)"
    for t in range(len(sg)):
        for a in act.ideal(t).basis:
            pa = rep.pi_of(a)
            assert np.allclose(pa @ rep.v[t], pa @ out.v[t], atol=tol, rtol=0.0), (
                "normalization changed an essential product"
            )
        unit_star = act.ideal(sg.inv(t)).unit
        assert np.allclose(
            out.v[t] @ rep.pi_of(unit_star), out.v[t], atol=tol, rtol=0.0
        ), "right unit law fails after normalization"
    assert rows_equal(reference_range_space(rep, tol), reference_range_space(out, tol), tol), (
        "normalization changed the range"
    )
    again = np.array([out.pi_of(act.ideal(t).unit) @ out.v[t] for t in range(len(sg))])
    assert np.allclose(again, out.v, atol=tol, rtol=0.0), "normalization is not idempotent"


def kernel_consequences(family, kernel, tol=DEFAULT_TOL) -> None:
    """Forced for the kernel of a family of algebraic pairs: every order
    difference a delta_s - a delta_t dies, since CR1-CR3 give
    pi(a) v_t = pi(a) v_t v_{s*s} = pi(a) v_s for s <= t and a in I_s."""
    null = null_ideal(family[0].action, tol).basis
    assert rows_leq(null, kernel, tol), "kernel does not contain the order differences"


def tensor_consequences(action, tol=DEFAULT_TOL) -> None:
    """Forced by the way ``structure_tensor`` is built: the product of
    monomials at s and t lands in the block of st."""
    I, J, K, _ = structure_tensor(action, tol)
    owner = np.repeat(list(action.offsets), [action.ideal(t).dim for t in action.offsets])
    assert np.all(action.semigroup.table[owner[I], owner[J]] == owner[K]), "a product lands off st"



def inverse_consequences(sg: InvSemigroup) -> None:
    """Forced for a semigroup from ``from_table`` or ``generate_semigroup``:
    its idempotents commute, and its natural order is a partial order (the
    checks ``validate_inverse`` and ``natural_order`` once ran)."""
    for e, f in itertools.product(sg.idempotents, repeat=2):
        assert sg.mul(e, f) == sg.mul(f, e), f"idempotents {(e, f)} do not commute"
    leq = np.zeros((len(sg), len(sg)), dtype=int)  # [s, t]: s <= t
    leq[tuple(zip(*sg.order))] = 1
    assert leq.diagonal().all(), "natural order is not reflexive"
    assert (leq * leq.T == np.eye(len(sg))).all(), "natural order is not antisymmetric"
    assert ((leq @ leq > 0) <= leq).all(), "natural order is not transitive"


def embedding_consequences(sg: InvSemigroup, maps) -> None:
    """Forced for ``maps = wagner_preston_embed(sg)`` (the Wagner-Preston
    theorem, which the embedding once asserted): the maps are distinct, they
    compose as the semigroup, and the map of t* is the inverse of that of t."""
    assert len({m.pairs for m in maps}) == len(sg), "embedding is not injective"
    carrier = maps[0].carrier
    pos = {x: i for i, x in enumerate(carrier)}
    rows = np.full((len(maps), len(carrier)), -1, dtype=np.intp)
    for r, m in enumerate(maps):
        for x, y in m.pairs:
            rows[r, pos[x]] = pos[y]
    reference_check_rows(sg, rows)
    for t, m in enumerate(maps):
        assert maps[sg.inv(t)].pairs == m.invert().pairs, "embedding does not commute with star"


def paut_consequences(phi, tol=DEFAULT_TOL) -> None:
    """Forced for a partial automorphism that passed ``paut_validate``: a
    multiplicative bijection maps the unit of its source to that of its
    target, which ``paut_validate`` once asserted."""
    assert np.allclose(
        phi.apply(phi.source.unit, tol), phi.target.unit, atol=tol, rtol=0.0
    ), "unit does not map to the target unit"


def intersect_rows(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal row basis of rowspace(a) & rowspace(b)."""
    a = orth_rows(a, tol)
    b = orth_rows(b, tol)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((0, a.shape[1]), dtype=complex)
    # x in both spaces iff x is orthogonal to both orthogonal complements.
    d = a.shape[1]
    perp = np.vstack([null_rows(a.conj(), tol), null_rows(b.conj(), tol)])
    return null_rows(perp.conj(), tol) if perp.shape[0] else np.eye(d, dtype=complex)


def pauts_equal(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Equality as partial maps: same source subspace and same values on it."""
    if not rows_equal(a.source.basis, b.source.basis, tol):
        return False
    x = a.source.basis
    return np.allclose(a.apply(x, tol), b.apply(x, tol), atol=tol, rtol=0.0)


def compose_paut(phi, psi, tol: float = DEFAULT_TOL):
    """phi after psi on psi^{-1}(source(phi) & target(psi)).

    The new source is re-equipped with a unit: the product of the two units
    is the unit of the intersection, pulled back through psi.  For validated
    ideals of a function or matrix-block algebra the units are central
    idempotents, so the unit facts are asserted, not checked.
    """
    if phi.parent is not psi.parent:
        raise DimensionMismatch("partial automorphisms of different algebras")
    A = phi.parent
    inter = intersect_rows(phi.source.basis, psi.target.basis, tol)
    u_inter = A.mul(phi.source.unit, psi.target.unit)
    if inter.shape[0] == 0:
        src = Ideal.zero(A)
        return PartialAut(src, Ideal.zero(A), np.zeros((0, A.dim)))
    assert in_rowspace(inter, u_inter, tol), "product of units escapes the intersection"
    assert np.allclose(A.mul(u_inter, inter), inter, atol=tol, rtol=0.0) and np.allclose(
        A.mul(inter, u_inter), inter, atol=tol, rtol=0.0
    ), "product of units is not an identity there"
    # coefficients c (over source(psi)) with psi(c) inside span(source(phi))
    sphi = orth_rows(phi.source.basis, tol)
    resid = psi.matrix - (psi.matrix @ sphi.conj().T) @ sphi
    coeff = null_rows(resid.T, tol)
    src_basis = coeff @ psi.source.basis
    psi_of_src = coeff @ psi.matrix
    assert rows_equal(psi_of_src, inter, tol), "preimage does not hit the intersection"
    u_src = solve_coords(psi_of_src, u_inter, tol) @ src_basis
    src = Ideal(A, src_basis, u_src)
    img_rows = phi.apply(psi_of_src, tol)
    tgt = Ideal(A, img_rows, phi.apply(u_inter, tol))
    return PartialAut(src, tgt, img_rows)


def reference_validate_action(action, tol: float = DEFAULT_TOL) -> CheckReport:
    """``validate_action`` with PA1 checked pair by pair by ``compose_paut``."""
    sg = action.semigroup
    report = CheckReport("action axioms")
    if sg.zero is not None:
        if action.ideal(sg.zero).dim != 0:
            raise NonzeroIdealAtZero(action.ideal(sg.zero).dim)
        report.add("zero", "I_0 = {0}", True)
    for t in range(len(sg)):
        ideal_validate(action.ideal(t), tol)
        report.add("units", f"I_{sg.labels[t]} unital", True)
    idem_rows = np.vstack(
        [action.ideal(e).basis for e in sg.idempotents] + [np.zeros((0, action.algebra.dim))]
    )
    span = orth_rows(idem_rows, tol).shape[0]
    if span < action.algebra.dim:
        raise PA2SpanDeficit(action.algebra.dim - span)
    report.add("PA2", "idempotent ideals span the algebra", True)
    for s in range(len(sg)):
        for t in range(len(sg)):
            got = compose_paut(action.paut(s), action.paut(t), tol)
            want = action.paut(sg.mul(s, t))
            if not rows_equal(got.source.basis, want.source.basis, tol):
                raise PA1Violation(sg.labels[s], sg.labels[t], "source subspaces differ")
            if not pauts_equal(got, want, tol):
                raise PA1Violation(sg.labels[s], sg.labels[t], "maps differ on the source")
            report.add("PA1", f"({sg.labels[s]}, {sg.labels[t]})", True)
    for t in range(len(sg)):
        if not rows_equal(action.paut(t).source.basis, action.ideal(sg.inv(t)).basis, tol):
            raise PA1Violation(sg.labels[t], sg.labels[sg.inv(t)], "source is not I_{t*}")
    report.add("sources", "every alpha_t starts at I_{t*}", True)
    return report


def reference_check_derived_identities(action, tol: float = DEFAULT_TOL) -> CheckReport:
    """``check_derived_identities`` with alpha_s(I_s* & I_t) = I_st checked
    pair by pair on ``intersect_rows``."""
    sg = action.semigroup
    report = CheckReport("derived identities")
    for s in range(len(sg)):
        for t in range(len(sg)):
            inter = intersect_rows(action.ideal(sg.inv(s)).basis, action.ideal(t).basis, tol)
            image = action.apply(s, inter, tol)
            ok = rows_equal(image, action.ideal(sg.mul(s, t)).basis, tol)
            assert ok, f"alpha_s(I_s* & I_t) != I_st at ({s}, {t})"
            report.add("alpha_s(I_s* & I_t) = I_st", f"({sg.labels[s]}, {sg.labels[t]})", ok)
    for t in range(len(sg)):
        tt = sg.mul(t, sg.inv(t))
        ok = rows_equal(action.ideal(t).basis, action.ideal(tt).basis, tol)
        ok = ok and np.allclose(action.ideal(t).unit, action.ideal(tt).unit, atol=tol, rtol=0.0)
        assert ok, f"I_t != I_tt* at {t}"
        report.add("I_t = I_tt*", sg.labels[t], ok)
    for e in sg.idempotents:
        rows = action.ideal(e).basis
        ok = np.allclose(action.apply(e, rows, tol), rows, atol=tol, rtol=0.0)
        assert ok, f"alpha_e is not the identity at {e}"
        report.add("alpha_e = id", sg.labels[e], ok)
    for t in range(len(sg)):
        rows = action.paut(t).source.basis
        back = action.apply(sg.inv(t), action.apply(t, rows, tol), tol)
        ok = np.allclose(back, rows, atol=tol, rtol=0.0)
        assert ok, f"alpha_t* is not the inverse of alpha_t at {t}"
        report.add("alpha_t* = alpha_t^-1", sg.labels[t], ok)
    for s, t in sorted(sg.order):
        ok = rows_leq(action.ideal(s).basis, action.ideal(t).basis, tol)
        assert ok, f"I_s not inside I_t for {s} <= {t}"
        report.add("s <= t implies I_s <= I_t", f"({sg.labels[s]}, {sg.labels[t]})", ok)
    return report
