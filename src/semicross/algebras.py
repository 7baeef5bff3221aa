"""Finite-dimensional complex normed algebras given by structure constants.

Two families are supported, covering every instance this package builds:
function algebras C(X) on a finite point set with the sup norm, and finite
direct sums of full matrix blocks with the p-operator norm (p in {1, 2, inf},
overall norm the max over blocks).  A function algebra is stored in the same
block layout with 1x1 blocks, so the norm code is shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._linalg import (
    DEFAULT_TOL,
    as_complex,
    first_far,
    in_rowspace,
    off_rows,
    off_rowspace,
    operator_norm,
    orth_rows,
    solve_coords,
)
from .errors import (
    DimensionMismatch,
    NoStarOnAlgebra,
    NotAnIdeal,
    NotAnInvolution,
    NotAssociative,
    NotBijective,
    NotIsometric,
    NotMultiplicative,
    NotSubmultiplicative,
    NoUnit,
)


@dataclass(eq=False)
class FinAlgebra:
    """Normed algebra with product e_i e_j = sum_k structure[i,j,k] e_k.

    ``blocks`` lists integer index matrices mapping block entries to
    coordinates; the norm of a coefficient vector is the max over blocks of
    the p-operator norm of the corresponding matrix.  ``star_mat`` encodes
    the antilinear involution x -> star_mat @ conj(x) when present.
    """

    labels: tuple
    structure: np.ndarray
    blocks: tuple
    p: object
    star_mat: np.ndarray | None
    kind: str
    points: tuple | None = None

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def _terms(self) -> tuple:
        """i, j, c = structure[i, j, k] over the nonzero entries, and the
        (nnz, dim) 0/1 matrix that adds each term into its k."""
        i, j, k = np.nonzero(self.structure)
        scatter = np.zeros((len(k), self.dim), dtype=complex)
        scatter[np.arange(len(k)), k] = 1.0
        return i, j, self.structure[i, j, k], scatter

    def mul(self, x, y) -> np.ndarray:
        """x y, or the products of broadcast stacks (..., dim) row by row: the
        terms x_i y_j c over the nonzero entries of ``structure``, read once
        per algebra, summed into place by one matmul."""
        x, y = as_complex(x), as_complex(y)
        if x.shape[-1:] != (self.dim,) or y.shape[-1:] != (self.dim,):
            raise DimensionMismatch(f"expected vectors of length {self.dim}")
        i, j, c, scatter = self._terms
        return (x[..., i] * y[..., j] * c) @ scatter

    def norm(self, x):
        """The norm of a vector, or an array of the norms of a stack (..., dim)."""
        x = as_complex(x)
        if x.shape[-1:] != (self.dim,):
            raise DimensionMismatch(f"expected a vector of length {self.dim}")
        if not hasattr(self, "_stacks"):
            sizes = sorted({idx.shape[0] for idx in self.blocks})
            self._stacks = [
                np.stack([idx for idx in self.blocks if idx.shape[0] == n]) for n in sizes
            ]
        out = np.max([operator_norm(x[..., idx], self.p).max(-1) for idx in self._stacks], axis=0)
        return float(out) if x.ndim == 1 else out

    @cached_property
    def _place(self) -> np.ndarray:
        """(4, dim): the block, row, column and block size of each coordinate."""
        place = np.empty((4, self.dim), dtype=np.intp)
        for b, idx in enumerate(self.blocks):
            place[:, idx] = np.broadcast_arrays(b, *np.indices(idx.shape), len(idx))
        return place

    def star(self, x) -> np.ndarray:
        """x*, or the star of each row of a 2-d x."""
        if self.star_mat is None:
            raise NoStarOnAlgebra("algebra carries no involution")
        return (self.star_mat @ np.conj(as_complex(x)).T).T

    def one(self) -> np.ndarray:
        """Coefficients of the global unit (indicator / sum of E_ii)."""
        u = np.zeros(self.dim, dtype=complex)
        for idx in self.blocks:
            u[np.diag(idx)] = 1.0
        return u

    def __repr__(self):
        return f"FinAlgebra<{self.kind}, dim {self.dim}>"


def function_algebra(points) -> FinAlgebra:
    """C(X) on a finite set with pointwise product and sup norm."""
    points = tuple(points)
    d = len(points)
    structure = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        structure[i, i, i] = 1.0
    blocks = tuple(np.array([[i]]) for i in range(d))
    return FinAlgebra(
        labels=tuple(str(p) for p in points),
        structure=structure,
        blocks=blocks,
        p=2,
        star_mat=np.eye(d),
        kind="function",
        points=points,
    )


def matrix_algebra(sizes, p) -> FinAlgebra:
    """Direct sum of full matrix blocks M_{n_1} + ... with the p-operator norm."""
    sizes = tuple(int(n) for n in sizes)
    if p not in (1, 2, np.inf, "inf"):
        raise ValueError("p must be 1, 2 or inf")
    p = np.inf if p == "inf" else p
    d = sum(n * n for n in sizes)
    labels = []
    blocks = []
    offset = 0
    for b, n in enumerate(sizes):
        idx = offset + np.arange(n * n).reshape(n, n)
        blocks.append(idx)
        labels.extend(f"b{b}:{i},{j}" for i in range(n) for j in range(n))
        offset += n * n
    structure = np.zeros((d, d, d), dtype=complex)
    star_mat = np.zeros((d, d))
    for idx in blocks:
        n = idx.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        if j == k:
                            structure[idx[i, j], idx[k, l], idx[i, l]] = 1.0
                star_mat[idx[j, i], idx[i, j]] = 1.0
    return FinAlgebra(tuple(labels), structure, tuple(blocks), p, star_mat, "matrix")


def validate_algebra(
    algebra: FinAlgebra, seed: int = 0, tol: float = DEFAULT_TOL, samples: int = 1000
) -> None:
    """Associativity on all basis triples, sampled submultiplicativity,
    and the involution laws when a star is present."""
    s, d = algebra.structure, algebra.dim
    lhs = np.einsum("ijm,mkl->ijkl", s, s)
    rhs = np.einsum("jkm,iml->ijkl", s, s)
    if bad := first_far(lhs, rhs, tol):
        raise NotAssociative(bad)
    draws = np.random.default_rng(seed).standard_normal((samples, 4, d))
    x, y = draws[:, 0] + 1j * draws[:, 1], draws[:, 2] + 1j * draws[:, 3]
    grow = ~(algebra.norm(algebra.mul(x, y)) <= algebra.norm(x) * algebra.norm(y) + tol)
    if grow.any():
        raise NotSubmultiplicative(int(np.argmax(grow)))
    if algebra.star_mat is not None:
        st = algebra.star_mat
        if not np.allclose(st @ np.conj(st), np.eye(d), atol=tol, rtol=0.0):
            raise NotAnInvolution("star is not involutive")
        # (e_i e_j)* against e_j* e_i*, for every basis pair (i, j)
        stars = algebra.star(np.eye(d, dtype=complex))
        lhs = algebra.star(s.reshape(d * d, d)).reshape(s.shape)
        if bad := first_far(lhs, algebra.mul(stars[None, :], stars[:, None]), tol):
            raise NotAnInvolution(bad)


@dataclass(eq=False)
class Ideal:
    """Two-sided ideal subspace with its unit element.

    ``basis`` rows are coefficient vectors in the parent algebra; ``unit``
    acts as the identity on the subspace (the finite-dimensional stand-in
    for an approximate unit).
    """

    parent: FinAlgebra
    basis: np.ndarray
    unit: np.ndarray

    def __post_init__(self):
        self.basis = np.atleast_2d(as_complex(self.basis))
        if self.basis.size == 0:
            self.basis = self.basis.reshape(0, self.parent.dim)
        self.unit = as_complex(self.unit)

    def orth(self, tol: float = DEFAULT_TOL) -> np.ndarray:
        """``orth_rows(basis, tol)``, once per tol (membership reads the default)."""
        memo = vars(self).setdefault("_orths", {})
        if tol not in memo:
            memo[tol] = orth_rows(self.basis, tol)
        return memo[tol]

    def leq(self, other: "Ideal", tol: float = DEFAULT_TOL) -> bool:
        """``rows_leq`` of the bases."""
        if other is self:
            return True
        return in_rowspace(other.orth(tol), self.basis, tol)

    def same(self, other: "Ideal", tol: float = DEFAULT_TOL) -> bool:
        """``rows_equal`` of the bases."""
        return self.leq(other, tol) and other.leq(self, tol)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        return in_rowspace(self.orth(), x, tol)

    @cached_property
    def pinv(self) -> np.ndarray:
        """The pseudo-inverse of ``basis``, computed once: x @ pinv are the
        coordinates of x when x lies in the subspace."""
        return np.linalg.pinv(self.basis)

    @cached_property
    def _resid(self) -> np.ndarray:
        """I - pinv @ basis: x @ _resid is x less the image of its coordinates."""
        return np.eye(self.parent.dim) - self.pinv @ self.basis

    def coords(self, x, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Basis coefficients (of each row, if 2-d); rejects vectors off the subspace."""
        x = as_complex(x)
        c = x @ self.pinv
        off = off_rows(x @ self._resid, x, tol)
        if off if x.ndim == 1 else off.any():
            raise np.linalg.LinAlgError("vector not in the ideal subspace")
        return c

    def to_parent(self, c) -> np.ndarray:
        if self.dim == 0:
            return np.zeros(self.parent.dim, dtype=complex)
        return as_complex(c) @ self.basis

    @classmethod
    def zero(cls, parent: FinAlgebra) -> "Ideal":
        return cls(parent, np.zeros((0, parent.dim)), np.zeros(parent.dim))

    @classmethod
    def from_support(cls, parent: FinAlgebra, points) -> "Ideal":
        """span{delta_x : x in points} inside a function algebra.  Its basis
        rows are distinct unit vectors, so its pseudo-inverse is the transpose."""
        assert parent.kind == "function"
        pos = {x: i for i, x in enumerate(parent.points)}
        # an unknown point raises the ValueError of tuple.index
        idxs = sorted(pos[p] if p in pos else parent.points.index(p) for p in points)
        basis = np.zeros((len(idxs), parent.dim), dtype=complex)
        unit = np.zeros(parent.dim, dtype=complex)
        for r, i in enumerate(idxs):
            basis[r, i] = unit[i] = 1.0
        ideal = cls(parent, basis, unit)
        ideal.pinv = ideal.basis.T.copy()
        return ideal

    @property
    def support(self) -> tuple:
        """Points where some element of a function-algebra ideal is nonzero."""
        assert self.parent.kind == "function"
        mask = np.any(np.abs(self.basis) > DEFAULT_TOL, axis=0)
        return tuple(p for p, m in zip(self.parent.points, mask) if m)

    def __repr__(self):
        return f"Ideal<dim {self.dim} of {self.parent!r}>"


def ideal_validate(ideal: Ideal, tol: float = DEFAULT_TOL) -> None:
    """Check the two-sided ideal property and that the unit works, once per
    ideal and tol: the ideal records the tols it passed at (its arrays do
    not change, as its cached ``pinv`` and ``orth`` assume)."""
    if tol not in vars(ideal).get("_valid", ()):
        _check_ideal(ideal, tol)
        vars(ideal).setdefault("_valid", set()).add(tol)


def _check_ideal(ideal: Ideal, tol: float) -> None:
    A, B = ideal.parent, ideal.basis
    # [r, b, side]: basis row r times basis vector b on the right, then on the left
    prods = np.stack(
        [np.tensordot(B, A.structure, 1), np.tensordot(B, A.structure, (1, 1))], axis=2
    )
    off = off_rowspace(ideal.orth(), prods, tol)
    if off.any():
        r, b, side = np.argwhere(off)[0]
        raise NotAnIdeal((int(r), A.labels[b], ("right", "left")[side]))
    if ideal.dim and not ideal.contains(ideal.unit, tol):
        raise NoUnit("unit lies outside the subspace")
    units = np.stack([A.mul(ideal.unit, B), A.mul(B, ideal.unit)], axis=1)
    if bad := first_far(units, B[:, None], tol):
        raise NoUnit((("left", "right")[bad[1]], bad[0]))


@dataclass(eq=False)
class PartialAut:
    """Isometric algebra isomorphism between two ideals of one algebra.

    ``matrix`` row i is the image of ``source.basis[i]`` in parent
    coordinates.
    """

    source: Ideal
    target: Ideal
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.atleast_2d(as_complex(self.matrix))
        if self.matrix.size == 0:
            self.matrix = self.matrix.reshape(0, self.source.parent.dim)

    @property
    def parent(self) -> FinAlgebra:
        return self.source.parent

    def apply(self, x, tol: float = DEFAULT_TOL) -> np.ndarray:
        if self.source.dim == 0:
            return np.zeros(np.shape(x)[:-1] + (self.parent.dim,), dtype=complex)
        return self.source.coords(x, tol) @ self.matrix

    def inverse(self, tol: float = DEFAULT_TOL) -> "PartialAut":
        mat = solve_coords(self.matrix, self.target.basis, tol) @ self.source.basis
        return PartialAut(self.target, self.source, mat)

    @classmethod
    def identity(cls, ideal: Ideal) -> "PartialAut":
        return cls(ideal, ideal, ideal.basis.copy())

    def __repr__(self):
        return f"PartialAut<{self.source.dim} -> {self.target.dim}>"


def _is_block_relabeling(phi: PartialAut, tol: float) -> bool:
    """Exact isometry witness: the source is a sum of whole blocks, and each
    entry of a source block maps with coefficient 1 to the same (row, column)
    of one target block of its size.  A bijective such map relabels blocks,
    so it keeps every block norm.  The blocks of C(X) are 1x1, and there the
    witness says that phi permutes the points of its source."""
    A = phi.parent
    place = A._place  # block, row, column, block size
    eye = np.eye(A.dim, dtype=complex)
    src = np.flatnonzero(~off_rowspace(phi.source.orth(), eye, tol))
    block = place[0, src]
    # the source holds these coordinates only, and with each one its whole block
    if len(src) != phi.source.dim or (np.bincount(block)[block] != place[3, src] ** 2).any():
        return False
    img = phi.apply(eye[src], tol)
    hot = np.abs(img) > tol
    to = hot.argmax(-1)  # each entry's image, if it has exactly one
    if (hot.sum(-1) != 1).any() or not (np.abs(img[hot] - 1.0) <= tol).all():
        return False
    target = np.zeros(len(A.blocks), dtype=np.intp)
    target[block] = place[0, to]  # some target of each source block: all must be it
    return bool((place[1:, to] == place[1:, src]).all() and (target[block] == place[0, to]).all())


@dataclass
class PautCertificate:
    """How isometry was certified: "exact" or "sampled" (2000 unit vectors)."""

    isometry_level: str


def paut_validate(
    phi: PartialAut, tol: float = DEFAULT_TOL, seed: int = 0, samples: int = 2000
) -> PautCertificate:
    """Bijectivity, isometry and multiplicativity, which force phi(1_s) = 1_t
    (the test suite proves it rather than this function).  Each ideal is
    checked once per tol (``ideal_validate``).  Dependent source rows B are
    ``NotBijective``: the rows of M = ``matrix`` would define no map.  On
    independent rows phi(c B) = c M, so isometry is sampled in coordinates:
    |c M| within (1 +- tol) |c B| for ``samples`` seeded complex c (skipping
    |c B| < tol), unless phi is a block relabeling, an exact isometry."""
    ideal_validate(phi.source, tol)
    ideal_validate(phi.target, tol)
    A = phi.parent
    if phi.source.dim != phi.target.dim:
        raise NotBijective("source and target dimensions differ")
    if not phi.target.contains(phi.matrix, tol):
        raise NotBijective("image escapes the target subspace")
    if phi.source.dim:
        s = np.linalg.svd(phi.matrix, compute_uv=False)
        if s[-1] <= tol:
            raise NotBijective("map matrix is rank deficient")
        if phi.source.orth(tol).shape[0] < phi.source.dim:
            raise NotBijective("source basis is rank deficient")
    cert = _certify_isometry(phi, tol, seed, samples)
    # [i, j]: phi(x_i x_j) against phi(x_i) phi(x_j) over the source basis
    B, img = phi.source.basis, phi.apply(phi.source.basis, tol)
    if bad := first_far(phi.apply(A.mul(B[:, None], B), tol), A.mul(img[:, None], img), tol):
        raise NotMultiplicative(bad)
    return cert


@lru_cache(maxsize=8)
def _draws(seed: int, samples: int, dim: int) -> np.ndarray:
    """The read-only draws c of the isometry sample, shared by the maps of
    one source dimension."""
    z = np.random.default_rng(seed).standard_normal((samples, 2, dim))
    c = z[:, 0] + 1j * z[:, 1]
    c.flags.writeable = False
    return c


def _certify_isometry(phi: PartialAut, tol, seed, samples) -> PautCertificate:
    """Exact for a block relabeling (``_is_block_relabeling``; the zero map is
    one), randomized sampling (both inequality directions) otherwise; the
    witness is the first moved x = c B, scaled to norm 1."""
    A = phi.parent
    if _is_block_relabeling(phi, tol):
        return PautCertificate("exact")
    c = _draws(seed, samples, phi.source.dim)
    x = c @ phi.source.basis
    nx, ny = A.norm(x), A.norm(c @ phi.matrix)
    # points too close to 0 to normalize are skipped
    moved = ~(nx < tol) & ((ny > (1.0 + tol) * nx) | (ny < (1.0 - tol) * nx))
    if moved.any():
        i = np.argmax(moved)
        raise NotIsometric(np.round(x[i] / nx[i], 6))
    return PautCertificate("sampled")
