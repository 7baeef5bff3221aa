"""CLI output against the snapshots in tests/golden/.

Non-float fields must be equal, floats agree within 1e-9, and ``null_basis``
is compared by its row space, since any basis of the null ideal is correct.
``regenerate_golden.py`` rewrites the snapshots.
"""

import json

import numpy as np
import pytest

from regenerate_golden import GOLDEN, commands, snapshot
from semicross._linalg import rows_equal

FLOAT_TOL = 1e-9


def as_rows(rows) -> np.ndarray:
    """Rows of [re, im] pairs as a complex array; no rows gives shape (0, 0)."""
    a = np.array(rows, dtype=float).reshape(len(rows), -1 if rows else 0, 2)
    return a[..., 0] + 1j * a[..., 1]


def compare(got, want, where: str = "$") -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            if key == "null_basis":
                g, w = as_rows(got[key]), as_rows(want[key])
                assert g.shape == w.shape, f"{where}.{key}"
                assert rows_equal(g, w, FLOAT_TOL), f"{where}.{key}"
            else:
                compare(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            compare(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= FLOAT_TOL, where
    else:
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("name, argv", commands(), ids=[name for name, _ in commands()])
def test_cli_output_matches_snapshot(name, argv):
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    compare(snapshot(argv), want)


def test_every_sample_has_snapshots():
    assert {p.stem for p in GOLDEN.glob("*.json")} == {name for name, _ in commands()}
