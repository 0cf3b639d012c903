"""Global numerical tolerances, overridable per call or via the CLI flags."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Tolerances:
    """Default tolerances for the whole toolkit.

    eps_norm   -- normalization / Hermiticity checks (double-precision SVD
                  error with headroom).
    tau_rank   -- rank cutoff separating genuine zeros from eigensolver noise
                  at total dimension <= 64.
    eps_match  -- multiset matching tolerance for spectrum factorization.
    eps_hardy  -- slack allowed on the Hardy zero constraints when scoring a
                  box.  Optimized measurements meet them exactly up to
                  rounding; the slack is for boxes read from files and for
                  near-pure mixed states, where it decides the score.
    """

    eps_norm: float = 1e-9
    tau_rank: float = 1e-10
    eps_match: float = 1e-8
    eps_hardy: float = 1e-7


tolerances = Tolerances()


def _resolve(value: float | None, default: float) -> float:
    return default if value is None else value
