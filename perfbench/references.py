"""Independent references for checking losrkit answers.

Everything here is plain numpy written for the benchmark: closed forms,
singular values and brute enumeration.  None of it calls losrkit, so a
defect in the program cannot hide in its own reference.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# Hardy's maximum over all two-qubit states, (5 sqrt 5 - 11) / 2.
HARDY_MAX = (5 * np.sqrt(5) - 11) / 2


def hardy_closed_form(theta: float) -> float:
    """Hardy probability of cos(t)|00> + sin(t)|11>: ((cs(c - s)) / (1 - cs))^2."""
    c, s = np.cos(theta), np.sin(theta)
    return float((c * s * (c - s) / (1 - c * s)) ** 2)


def tilted_bound(alpha: float) -> float:
    """Quantum maximum of alpha <A0> + CHSH, sqrt(8 + 2 alpha^2), for alpha < 2."""
    return float(np.sqrt(8 + 2 * alpha**2))


def tilted_optimal_theta(alpha: float) -> float:
    """The partial(theta) state that attains ``tilted_bound(alpha)``."""
    return float(0.5 * np.arcsin(np.sqrt((4 - alpha**2) / (4 + alpha**2))))


def horodecki_chsh(rho: np.ndarray) -> float:
    """2 sqrt(m1 + m2) from the two largest eigenvalues of T^T T."""
    T = np.array([[np.trace(rho @ np.kron(a, b)).real for b in PAULI] for a in PAULI])
    w = np.linalg.eigvalsh(T.T @ T)
    return 2.0 * float(np.sqrt(max(w[-1] + w[-2], 0.0)))


def schmidt_values(amplitudes: np.ndarray, dims, left) -> np.ndarray:
    """Squared singular values across ``left`` | rest, descending, padded
    with zeros to the left side's dimension."""
    n = len(dims)
    right = [i for i in range(n) if i not in left]
    t = amplitudes.reshape(dims).transpose(list(left) + right)
    d_left = int(np.prod([dims[i] for i in left]))
    s = np.linalg.svd(t.reshape(d_left, -1), compute_uv=False) ** 2
    out = np.zeros(d_left)
    out[: s.size] = s
    return np.sort(out)[::-1] / out.sum()


def factors_over(psi: np.ndarray, phi: np.ndarray, tol: float = 1e-7) -> np.ndarray | None:
    """zeta with sorted(phi kron zeta) = psi on the positive entries, by brute
    force over the orderings of psi's columns, or None.  Ranks <= 6."""
    psi = np.sort(psi[psi > 1e-10])[::-1]
    phi = np.sort(phi[phi > 1e-10])[::-1]
    if psi.size % phi.size:
        return None
    k = psi.size // phi.size
    if psi.size > 6:
        raise ValueError("brute-force factorization limited to rank 6")
    for cols in _partitions(list(range(psi.size)), phi.size):
        if len(cols) != k:
            continue
        zeta = []
        for col in cols:
            vals = np.sort(psi[list(col)])[::-1]
            z = vals / phi
            if float(np.max(np.abs(z - z[0]))) > tol:
                break
            zeta.append(z[0])
        else:
            return np.sort(np.array(zeta))[::-1]
    return None


def _partitions(items, size):
    """Every split of ``items`` into unordered groups of ``size``."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for others in combinations(rest, size - 1):
        remaining = [i for i in rest if i not in others]
        for tail in _partitions(remaining, size):
            yield [(first,) + others] + tail


# ---------------------------------------------------------------------------
# Boxes, as numpy tables indexed [x_1..x_n, a_1..a_n].


def vertex_tables(settings, outcomes) -> np.ndarray:
    """Every deterministic local strategy of the scenario, one table per row."""
    n = len(settings)
    per_party = [list(product(range(o), repeat=s)) for s, o in zip(settings, outcomes)]
    out = []
    for strat in product(*per_party):
        t = np.zeros(tuple(settings) + tuple(outcomes))
        for xs in product(*[range(s) for s in settings]):
            t[xs + tuple(strat[p][xs[p]] for p in range(n))] = 1.0
        out.append(t)
    return np.array(out)


def chsh_value(table: np.ndarray) -> float:
    """E00 + E01 + E10 - E11 on settings 0, 1 and outcomes 0, 1."""
    total = 0.0
    for x, y in product(range(2), repeat=2):
        e = sum((1 - 2 * a) * (1 - 2 * b) * table[x, y, a, b] for a, b in product(range(2), repeat=2))
        total += -e if (x, y) == (1, 1) else e
    return float(total)


def tilted_value(table: np.ndarray, alpha: float) -> float:
    """alpha <A0> + CHSH, with <A0> averaged over Bob's two settings."""
    a0 = sum((1 - 2 * a) * table[0, y, a, b] for y, a, b in product(range(2), repeat=3)) / 2
    return chsh_value(table) + alpha * float(a0)


def mermin_value(table: np.ndarray) -> float:
    """Mean win probability of the parity game over the even-parity settings."""
    total = 0.0
    for x, y, z in product(range(2), repeat=3):
        if (x + y + z) % 2:
            continue
        for a, b, c in product(range(2), repeat=3):
            if (a + b + c) % 2 == (x | y | z):
                total += table[x, y, z, a, b, c]
    return float(total / 4)


def local_max(value_fn, settings, outcomes) -> float:
    """Largest value of a functional over the scenario's deterministic vertices."""
    return max(value_fn(t) for t in vertex_tables(settings, outcomes))


def pr_table() -> np.ndarray:
    t = np.zeros((2, 2, 2, 2))
    for x, y, a, b in product(range(2), repeat=4):
        t[x, y, a, b] = 0.5 if a ^ b == x & y else 0.0
    return t


def tsirelson_table() -> np.ndarray:
    t = np.zeros((2, 2, 2, 2))
    for x, y, a, b in product(range(2), repeat=4):
        e = (1 if (x, y) != (1, 1) else -1) / np.sqrt(2)
        t[x, y, a, b] = 0.25 * (1 + (1 - 2 * a) * (1 - 2 * b) * e)
    return t


def ghz_xy_table() -> np.ndarray:
    """GHZ measured in X (setting 0) or Y (setting 1) by every party:
    p(abc|xyz) = (1 + (-1)^(a+b+c) cos(pi (x+y+z) / 2)) / 8."""
    t = np.zeros((2,) * 6)
    for x, y, z, a, b, c in product(range(2), repeat=6):
        e = np.cos(np.pi * (x + y + z) / 2)
        t[x, y, z, a, b, c] = (1 + (-1) ** (a + b + c) * e) / 8
    return np.round(t, 15)


def uniform_table(settings, outcomes) -> np.ndarray:
    return np.full(tuple(settings) + tuple(outcomes), 1.0 / int(np.prod(outcomes)))


def repeat_settings(table: np.ndarray, n_parties: int, settings: int) -> np.ndarray:
    """Extend a two-setting box to ``settings`` settings per party; the extra
    settings repeat setting 0, so the box stays no-signaling."""
    idx = [0, 1] + [0] * (settings - 2)
    for p in range(n_parties):
        table = np.take(table, idx, axis=p)
    return table
