"""Reference paths kept as test oracles for the fast kernels in ``semicross``.

``reference_convolve`` is the per-summand convolution that ``ell1.convolve``
replaced with one contraction of the structure tensor: an exact double sum
over the support pairs, with every summand checked to land in the ideal of
the product element.
"""

from __future__ import annotations

import numpy as np

from semicross._linalg import DEFAULT_TOL
from semicross.ell1 import Ell1Element, monomials
from semicross.errors import ActionMismatch


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
