"""Independent oracles that the suite checks the library against.

Each oracle answers the same question as a library routine by exhaustive
enumeration, so it is slow and capped to small inputs.
"""

from __future__ import annotations

from itertools import permutations, product

import numpy as np

from losrkit import Box, FactorizationResult, Reason, SchmidtSpectrum, config, rank_ratio_admissible
from losrkit.preorder import _finish


def factor_spectrum_bruteforce(l_psi: SchmidtSpectrum, l_phi: SchmidtSpectrum) -> FactorizationResult:
    """Exhaustive oracle for ``factor_spectrum``: try every assignment of
    source entries to the rank(phi) x k grid.  Factorial in rank(psi); keep
    ranks <= 8."""
    eps = config.current().eps_match
    psi = l_psi.truncated()
    phi = l_phi.truncated()
    k = rank_ratio_admissible(psi.size, phi.size)
    if k is None:
        return FactorizationResult(False, None, np.inf, Reason.RANK_RATIO_NON_INTEGER)
    if psi.size > 8:
        raise ValueError("brute-force oracle limited to rank <= 8")
    m = phi.size
    best_gap = np.inf
    for perm in permutations(range(psi.size)):
        ok = True
        zeta = []
        gap_here = 0.0
        for col in range(k):
            z = psi[perm[col * m]] / phi[0]
            for i in range(m):
                gap = abs(psi[perm[col * m + i]] - phi[i] * z)
                gap_here = max(gap_here, gap)
                if gap > eps:
                    ok = False
                    break
            if not ok:
                break
            zeta.append(z)
        if ok:
            res = _finish(sorted(zeta, reverse=True), psi, phi)
            if res.found:
                return res
        best_gap = min(best_gap, gap_here)
    return FactorizationResult(
        False, None, best_gap, Reason.FACTORIZATION_FAILED, borderline=best_gap <= 10 * eps
    )


def deterministic_vertices(settings, outcomes) -> list[Box]:
    """All deterministic local strategies of the scenario, as boxes.

    Party p's strategy is its tuple of outcomes, one per setting.  Strategies
    run in lexicographic order with party 0 most significant, the order in
    which ``local_membership`` reports its weights.
    """
    settings, outcomes = tuple(settings), tuple(outcomes)
    n = len(settings)
    per_party = [product(range(o), repeat=s) for s, o in zip(settings, outcomes)]
    vertices = []
    for strategy in product(*per_party):
        table = np.zeros(settings + outcomes)
        for xs in product(*(range(s) for s in settings)):
            table[xs + tuple(strategy[p][xs[p]] for p in range(n))] = 1.0
        vertices.append(Box(table))
    return vertices
