"""Small numeric helpers shared by the algebra and representation layers.

Subspaces of C^d are represented as 2-d arrays whose *rows* span the space.
All tolerances are absolute; the data in this package is O(1) scaled.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9
BLOCK_ENTRIES = 2**20  # entries of one temporary in a blocked check


def blocks(count: int, width: int, budget: int = BLOCK_ENTRIES) -> list:
    """Slices of range(count) of at most budget // width items each (at
    least one), so that a temporary of ``width`` entries per item stays
    within about ``budget`` entries."""
    step = max(1, budget // max(1, width))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def classes_by_first(keys: np.ndarray) -> tuple:
    """The class of each entry of the 1-d ``keys`` (entries with equal keys
    share one), classes numbered in the order of their first entries, and
    the index of each class's first entry.  Sort-based: ``np.unique`` would
    import ``numpy.ma``."""
    order = np.argsort(keys, kind="stable")
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[order[1:]] != keys[order[:-1]]
    first = order[new]  # in key order; stable, so each is its class's first entry
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    labels = np.empty(len(keys), dtype=np.intp)
    labels[order] = rank[np.cumsum(new) - 1]
    return labels, np.sort(first)


def _kept(s: np.ndarray, tol: float) -> np.ndarray:
    """The rank rule: which singular values (descending along the last axis,
    one row per matrix of a stack) exceed tol * max(1, the largest)."""
    return s > tol * np.maximum(1.0, s[..., :1])


def orth_rows(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal row basis of the row space of ``m``."""
    m = np.atleast_2d(as_complex(m))
    if m.size == 0 or m.shape[0] == 0:
        return np.zeros((0, m.shape[1] if m.ndim == 2 else 0), dtype=complex)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return vh[: int(_kept(s, tol).sum())]


def null_rows(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal row basis of {x : m @ x = 0} for ``m`` of shape (k, d)."""
    return split_rows(m, tol)[1]


def split_rows(m: np.ndarray, tol: float = DEFAULT_TOL) -> tuple:
    """Orthonormal rows spanning the row space of ``m`` (k, d), and those of
    ``null_rows``, from one SVD under the same rank rule."""
    m = np.atleast_2d(as_complex(m))
    if m.shape[0] == 0:
        return np.zeros((0, m.shape[1]), dtype=complex), np.eye(m.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(m)
    rank = int(_kept(s, tol).sum())
    return vh[:rank], vh[rank:].conj()


def off_rows(resid: np.ndarray, v: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per row, whether |resid| > tol * max(1, |v|), compared squared; one
    vector takes one dot product, and a second only if |resid| > tol."""
    if resid.ndim == 1:
        far = np.vdot(resid, resid).real
        return far > tol**2 and far > tol**2 * np.vdot(v, v).real
    return (abs(resid) ** 2).sum(-1) > tol**2 * np.maximum(1.0, (abs(v) ** 2).sum(-1))


def first_far(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> tuple | None:
    """Index of the first row (over all but the last axis) where a and b
    differ by more than tol in some entry, or None when all are close."""
    far = ~np.all(np.abs(a - b) <= tol, axis=-1)
    return tuple(int(i) for i in np.argwhere(far)[0]) if far.any() else None


def in_rowspace(basis: np.ndarray, v: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True when ``v`` (each row of a 2-d ``v``) lies in the span of orthonormal rows."""
    return not off_rowspace(basis, v, tol).any()


def off_rowspace(basis: np.ndarray, v: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per row of ``v``, whether it lies off the span of orthonormal rows."""
    v = as_complex(v)
    return off_rows(v - (v @ basis.conj().T) @ basis, v, tol)


def rows_leq(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True when row space of ``a`` is contained in row space of ``b``."""
    return in_rowspace(orth_rows(b, tol), np.atleast_2d(as_complex(a)), tol)


def rows_equal(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return rows_leq(a, b, tol) and rows_leq(b, a, tol)


def span_basis(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per matrix of a stack (..., N, k), orthonormal columns up to its rank, then zeros."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u * _kept(s, tol)[..., None, :]


def same_spans(qa: np.ndarray, qb: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per matrix of two ``span_basis`` stacks, whether their column spans
    agree: ``rows_equal`` of the transposes, by the same rules."""
    def inside(x, y):  # every column of x lies in the column span of y
        resid = x - y @ (y.conj().swapaxes(-1, -2) @ x)
        return ~off_rows(resid.swapaxes(-1, -2), x.swapaxes(-1, -2), tol).any(-1)

    return inside(qa, qb) & inside(qb, qa)


def solve_coords(basis: np.ndarray, v: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Coefficients c with c @ basis = v (each row of a 2-d v); raises if v
    is not in the row space."""
    basis = np.atleast_2d(as_complex(basis))
    v = as_complex(v)
    if basis.shape[0] == 0:
        c = np.zeros(v.shape[:-1] + (0,), dtype=complex)
    else:
        c = np.linalg.lstsq(basis.T, v.T, rcond=None)[0].T
    if off_rows(v - c @ basis, v, tol).any():
        raise np.linalg.LinAlgError("vector not in the subspace")
    return c


def operator_norm(m: np.ndarray, p):
    """Operator norm on l^p, p in {1, 2, inf}: a float for one matrix, an
    array of norms for a stack (..., n, n) of matrices."""
    m = np.atleast_2d(as_complex(m))
    if 0 in m.shape[-2:]:
        out = np.zeros(m.shape[:-2])
    elif p == 1:
        out = np.abs(m).sum(-2).max(-1)
    elif p == 2:
        two = m.shape[-2:] != (1, 1)
        out = np.linalg.svd(m, compute_uv=False)[..., 0] if two else np.abs(m[..., 0, 0])
    elif p in (np.inf, "inf"):
        out = np.abs(m).sum(-1).max(-1)
    else:
        raise ValueError(f"unsupported p: {p!r}")
    return float(out) if m.ndim == 2 else out
