"""Numerical tolerances: one immutable set in effect per thread and task.

``current()`` returns the set in effect.  ``override(**changes)`` replaces
fields for the length of one ``with`` block and restores the previous set on
exit, exceptions included.  The set lives in a context variable (PEP 567), so
an override is seen only by the thread or asyncio task that made it, and a
new thread starts from the defaults.  The CLI flags enter the same way.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    """The three tolerances of the whole toolkit; each lies in (0, 1).

    eps_norm   -- normalization / Hermiticity checks of states, channels and
                  box conditionals (double-precision SVD error with headroom).
    tau_rank   -- rank cutoff separating genuine zeros from eigensolver noise
                  at total dimension <= 64.
    eps_match  -- multiset matching tolerance for spectrum factorization.
    """

    eps_norm: float = 1e-9
    tau_rank: float = 1e-10
    eps_match: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # False for nan and for infinities as well.
            if not 0.0 < value < 1.0:
                raise ValueError(f"{f.name} must be a finite number in (0, 1), got {value!r}")


_current: ContextVar[Tolerances] = ContextVar("losrkit_tolerances", default=Tolerances())


def current() -> Tolerances:
    """The tolerances in effect in this thread or task."""
    return _current.get()


@contextmanager
def override(**changes: float):
    """Replace the named tolerance fields inside one ``with`` block."""
    token = _current.set(replace(current(), **changes))
    try:
        yield current()
    finally:
        _current.reset(token)
