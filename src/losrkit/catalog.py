"""Builtin states, boxes, and measurement families used throughout.

Every entry matches its defining formula exactly, so demos and tests run with
zero setup.  ``resolve`` parses the CLI-facing names, including parameterized
ones like ``partial(0.3927)`` and ``max_entangled(4)``.
"""

from __future__ import annotations

import math
import re
from itertools import product

import numpy as np

from .boxes import Box
from .monotones import MeasurementFamily
from .states import PureState, group_parties, permute_parties, tensor_product


def phi_plus() -> PureState:
    """(|00> + |11>) / sqrt(2)."""
    return PureState((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))


def ghz() -> PureState:
    """(|000> + |111>) / sqrt(2)."""
    amp = np.zeros(8)
    amp[0] = amp[7] = 1 / np.sqrt(2)
    return PureState((2, 2, 2), amp)


def two_bell() -> PureState:
    """phi+ between (A1, B) times phi+ between (A2, C), grouped as
    parties ((A1 A2), B, C) with dims (4, 2, 2)."""
    joint = tensor_product(phi_plus(), phi_plus())  # parties (A1, B, A2, C)
    joint = permute_parties(joint, (0, 2, 1, 3))  # (A1, A2, B, C)
    return group_parties(joint, [(0, 1), (2,), (3,)])


def partial(theta: float) -> PureState:
    """cos(theta)|00> + sin(theta)|11>, for finite theta."""
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    return PureState((2, 2), np.array([np.cos(theta), 0, 0, np.sin(theta)]))


# The working range of dense arrays: at most 4096 total dimensions.
_MAX_TOTAL_DIM = 4096


def max_entangled(d: int) -> PureState:
    """Uniform Schmidt spectrum of rank d on a d x d system; d * d must lie
    in the 4096-dimension working range, checked before allocating."""
    if d < 1 or d * d > _MAX_TOTAL_DIM:
        raise ValueError(f"d must be in 1..{math.isqrt(_MAX_TOTAL_DIM)} (d * d within {_MAX_TOTAL_DIM}), got {d}")
    amp = np.eye(d).reshape(-1) / np.sqrt(d)
    return PureState((d, d), amp)


def chiral() -> PureState:
    """Three-qubit chiral state |+++> + (i-1)/(2 sqrt 2) |111>, which is not
    locally unitarily equivalent to its complex conjugate although all their
    bipartition spectra coincide."""
    amp = np.full(8, 1 / (2 * np.sqrt(2)), dtype=complex)
    amp[7] += (1j - 1) / (2 * np.sqrt(2))
    return PureState((2, 2, 2), amp)


def pr_box() -> Box:
    """a xor b = x and y with uniform marginals."""
    table = np.zeros((2, 2, 2, 2))
    for x, y, a, b in product(range(2), repeat=4):
        if a ^ b == x & y:
            table[x, y, a, b] = 0.5
    return Box(table)


def tsirelson_box() -> Box:
    """Correlators (1, 1, 1, -1)/sqrt(2) with uniform marginals: CHSH 2 sqrt 2."""
    table = np.empty((2, 2, 2, 2))
    for x, y, a, b in product(range(2), repeat=4):
        e = (1 if (x, y) != (1, 1) else -1) / np.sqrt(2)
        table[x, y, a, b] = 0.25 * (1 + (1 - 2 * a) * (1 - 2 * b) * e)
    return Box(table)


def xy_measurements(n_parties: int = 3) -> MeasurementFamily:
    """Setting 0 measures Pauli X, setting 1 measures Pauli Y, every party."""
    vecs = np.zeros((n_parties, 2, 3))
    vecs[:, 0, 0] = 1.0
    vecs[:, 1, 1] = 1.0
    return MeasurementFamily(vecs)


_PARAM_RE = re.compile(r"^([a-z_]+)\(([^)]*)\)$")

_PLAIN_STATES = {
    "phi_plus": phi_plus,
    "ghz": ghz,
    "two_bell": two_bell,
    "chiral": chiral,
    "chiral_appendix_d": chiral,
}

_PLAIN_BOXES = {
    "pr_box": pr_box,
    "tsirelson_box": tsirelson_box,
}


def resolve(name: str) -> PureState | Box:
    """Look up a catalog entry by name; raises KeyError for unknown names and
    a ValueError naming the entry for a bad argument."""
    key = name.strip().lower()
    if key in _PLAIN_STATES:
        return _PLAIN_STATES[key]()
    if key in _PLAIN_BOXES:
        return _PLAIN_BOXES[key]()
    m = _PARAM_RE.match(key)
    head, arg = m.groups() if m else (None, None)
    try:
        if head == "partial":
            return partial(float(arg))
        if head == "max_entangled":
            return max_entangled(int(arg))
    except ValueError as exc:
        raise ValueError(f"bad catalog entry {name!r}: {exc}") from exc
    raise KeyError(f"unknown catalog entry: {name!r}")


def names() -> list[str]:
    return sorted(_PLAIN_STATES) + sorted(_PLAIN_BOXES) + ["partial(theta)", "max_entangled(d)"]
