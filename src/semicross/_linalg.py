"""Small numeric helpers shared by the algebra and representation layers.

Subspaces of C^d are represented as 2-d arrays whose *rows* span the space.
All tolerances are absolute; the data in this package is O(1) scaled.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def orth_rows(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal row basis of the row space of ``m``."""
    m = np.atleast_2d(as_complex(m))
    if m.size == 0 or m.shape[0] == 0:
        return np.zeros((0, m.shape[1] if m.ndim == 2 else 0), dtype=complex)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    return vh[:rank]


def rank_rows(m: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    return orth_rows(m, tol).shape[0]


def null_rows(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal row basis of {x : m @ x = 0} for ``m`` of shape (k, d)."""
    m = np.atleast_2d(as_complex(m))
    d = m.shape[1]
    if m.shape[0] == 0:
        return np.eye(d, dtype=complex)
    u, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    return vh[rank:].conj()


def off_rows(resid: np.ndarray, v: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per row, whether |resid| > tol * max(1, |v|) (compared squared: cheap on 1-d)."""
    return (abs(resid) ** 2).sum(-1) > tol**2 * np.maximum(1.0, (abs(v) ** 2).sum(-1))


def in_rowspace(basis: np.ndarray, v: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True when ``v`` (each row of a 2-d ``v``) lies in the span of orthonormal rows."""
    v = as_complex(v)
    return not off_rows(v - (v @ basis.conj().T) @ basis, v, tol).any()


def rows_leq(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True when row space of ``a`` is contained in row space of ``b``."""
    return in_rowspace(orth_rows(b, tol), np.atleast_2d(as_complex(a)), tol)


def rows_equal(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return rows_leq(a, b, tol) and rows_leq(b, a, tol)


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


def solve_coords(basis: np.ndarray, v: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Coefficients c with c @ basis = v; raises if v is not in the row space."""
    basis = np.atleast_2d(as_complex(basis))
    v = as_complex(v)
    if basis.shape[0] == 0:
        if float(np.linalg.norm(v)) > tol:
            raise np.linalg.LinAlgError("vector not in the zero subspace")
        return np.zeros(0, dtype=complex)
    c, *_ = np.linalg.lstsq(basis.T, v, rcond=None)
    resid = v - c @ basis
    if float(np.linalg.norm(resid)) > tol * max(1.0, float(np.linalg.norm(v))):
        raise np.linalg.LinAlgError("vector not in the subspace")
    return c


def operator_norm(m: np.ndarray, p) -> float:
    """Operator norm of a matrix acting on l^p, p in {1, 2, inf}; for a stack
    (..., n, n) of matrices, the largest of their norms."""
    m = np.atleast_2d(as_complex(m))
    if m.size == 0:
        return 0.0
    if p == 1:
        return float(np.max(np.sum(np.abs(m), axis=-2)))
    if p == 2:
        if m.shape[-2:] == (1, 1):
            return float(np.max(np.abs(m)))
        return float(np.max(np.linalg.svd(m, compute_uv=False)[..., 0]))
    if p in (np.inf, "inf"):
        return float(np.max(np.sum(np.abs(m), axis=-1)))
    raise ValueError(f"unsupported p: {p!r}")
