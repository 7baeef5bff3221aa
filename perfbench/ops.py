"""What a workload is made of: ops, each a timed call into semicross and an
untimed check of its output against an answer semicross did not compute."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


class OracleMismatch(Exception):
    """An op returned, but its output disagrees with the oracle."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise OracleMismatch(message)


@dataclass
class Op:
    """``run(tracer)`` makes the calls and returns their output;
    ``check(output)`` raises OracleMismatch when it is wrong."""

    name: str
    run: Callable
    check: Callable
