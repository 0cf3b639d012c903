"""Convertibility of pure states under local operations with shared randomness.

Everything here runs on squared-Schmidt-coefficient vectors.  Two pure states
are equivalent iff their spectra agree (up to permutation) on every
bipartition; one converts to the other only if, for every bipartition, the
source spectrum factors as the tensor of the target spectrum with a common
auxiliary spectrum.  One direction check runs that test for every party
count, over ``all_bipartitions(n)``.  For two parties the list is the single
split A|B and the test is exact, so a passing direction is Decided; for three
or more parties it is necessary only, so a passing direction reports
NecessaryPassedOnly and verdicts stay Inconclusive.

The factorization itself replaces the factorial permutation search with greedy
multiset peeling: the largest unconsumed source entry must equal the largest
target entry times the next auxiliary entry, which pins that auxiliary entry
and removes one scaled copy of the target multiset.  Each removal finds the
closest unconsumed entry by bisection, so a rank-r source costs O(r log r)
comparisons rather than a scan of the r entries per removal.  The test suite
checks it against an exhaustive search over all assignments, and against the
scan it replaces.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import config
from .states import Bipartition, PureState, SchmidtSpectrum, all_bipartitions, schmidt_spectrum


class Direction(enum.Enum):
    EQUIVALENT = "Equivalent"
    PSI_TO_PHI_ONLY = "PsiToPhiOnly"
    PHI_TO_PSI_ONLY = "PhiToPsiOnly"
    INCOMPARABLE = "Incomparable"
    INCONCLUSIVE = "Inconclusive"


class Reason(enum.Enum):
    RANK_RATIO_NON_INTEGER = "RankRatioNonInteger"
    FACTORIZATION_FAILED = "FactorizationFailed"
    MARGINAL_CONTRADICTION = "MarginalContradiction"
    NECESSARY_PASSED_ONLY = "NecessaryPassedOnly"
    DECIDED = "Decided"


@dataclass(frozen=True, eq=False)
class FactorizationResult:
    """Outcome of factoring one spectrum over another.

    When ``found``, the descending tensor of the target spectrum with
    ``lambda_zeta`` matches the source spectrum as a multiset within
    ``residual`` (<= the matching tolerance).  ``borderline`` marks decisions
    within 10x of the tolerance either way.
    """

    found: bool
    lambda_zeta: SchmidtSpectrum | None
    residual: float
    reason: Reason | None = None
    borderline: bool = False


@dataclass(frozen=True, eq=False)
class DirectionReport:
    """Per-direction detail behind a ConversionVerdict; ``blocked_at`` is
    the bipartition ruling the direction out, None when it passes."""

    reason: Reason
    blocked_at: Bipartition | None = None
    zetas: tuple[tuple[Bipartition, SchmidtSpectrum], ...] | None = None
    borderline: bool = False

    @property
    def ruled_out(self) -> bool:
        return self.blocked_at is not None


@dataclass(frozen=True, eq=False)
class ConversionVerdict:
    """Decision record for a pair of states (psi = first, phi = second)."""

    direction: Direction
    reason: Reason
    witness: tuple[tuple[Bipartition, SchmidtSpectrum], ...] | None
    forward: DirectionReport
    backward: DirectionReport

    @property
    def borderline(self) -> bool:
        """True iff either direction decided within 10x of the matching tolerance."""
        return self.forward.borderline or self.backward.borderline

    def allows_forward(self) -> bool:
        """True iff the verdict certifies psi converts to phi."""
        return self.direction in (Direction.EQUIVALENT, Direction.PSI_TO_PHI_ONLY)


def spectra_equal(l1: SchmidtSpectrum, l2: SchmidtSpectrum) -> bool:
    """Equality of spectra up to permutation, after dropping rank-cutoff zeros."""
    eps = config.current().eps_match
    a = l1.truncated()
    b = l2.truncated()
    return a.size == b.size and (a.size == 0 or float(np.max(np.abs(a - b))) <= eps)


def rank_ratio_admissible(sr_psi: int, sr_phi: int) -> int | None:
    """The integer ratio sr_psi / sr_phi, or None when it is not an integer."""
    if sr_psi < 1 or sr_phi < 1:
        raise ValueError("Schmidt ranks must be positive")
    k, rem = divmod(sr_psi, sr_phi)
    return k if rem == 0 else None


def _tensor_sorted(phi: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    return np.sort(np.multiply.outer(phi, zeta).ravel())[::-1]


def _cut_product(*spectra: SchmidtSpectrum) -> np.ndarray:
    """The descending tensor product of the spectra, each cut at ``tau_rank``
    and the product not: a product of kept entries is never solver noise."""
    return reduce(_tensor_sorted, (s.truncated() for s in spectra))


def _finish(zeta, psi, phi) -> FactorizationResult:
    """Validate a candidate auxiliary spectrum and classify tolerance margin."""
    tol = config.current()
    eps = tol.eps_match
    zeta = np.asarray(zeta, dtype=float)
    if abs(zeta.sum() - 1.0) > max(eps * zeta.size, tol.eps_norm):
        return FactorizationResult(False, None, np.inf, Reason.FACTORIZATION_FAILED)
    zeta = zeta / zeta.sum()
    residual = float(np.max(np.abs(_tensor_sorted(phi, zeta) - psi)))
    if residual > eps:
        return FactorizationResult(
            False, None, residual, Reason.FACTORIZATION_FAILED, borderline=residual <= 10 * eps
        )
    return FactorizationResult(
        True, SchmidtSpectrum(zeta), residual, None, borderline=residual >= eps / 10
    )


def _closest(asc: list[float], x: float) -> int:
    """Index of the entry of ascending ``asc`` nearest to x, the lowest such
    index on a tie: the choice of ``np.argmin(np.abs(asc - x))``.

    Rounded distances never shrink away from the bisection point, so the
    nearest entry is one of its two neighbours, the lower one on a tie.
    Entries below it may lie at the same rounded distance (equal entries, or
    distinct ones whose differences round alike), so the search steps back
    over them.
    """
    i = bisect_left(asc, x)
    if i and (i == len(asc) or abs(asc[i - 1] - x) <= abs(asc[i] - x)):
        gap = abs(asc[i - 1] - x)
        i = bisect_left(asc, asc[i - 1])
        while i and abs(asc[i - 1] - x) == gap:
            i = bisect_left(asc, asc[i - 1])
    return i


def factor_spectrum(l_psi: SchmidtSpectrum, l_phi: SchmidtSpectrum) -> FactorizationResult:
    """Find lambda_zeta with (l_phi tensor lambda_zeta) sorted = l_psi, if any.

    Greedy multiset peeling, k = rank(psi)/rank(phi) rounds.  Ties among equal
    source entries are consumed in sorted order, and each removal picks the
    closest available entry, so degenerate spectra match deterministically.
    The unconsumed entries are kept negated, hence ascending, in a list of
    floats, and each closest entry is found by bisection: O(r log r)
    comparisons for a rank-r source, against O(r^2) for a scan per removal,
    with the scan's choice on every tie and the same bits in every result.
    """
    return _factor(l_psi.truncated(), l_phi.truncated())


def _factor(psi: np.ndarray, phi: np.ndarray) -> FactorizationResult:
    """``factor_spectrum`` on descending spectra already cut at ``tau_rank``."""
    eps = config.current().eps_match
    k = rank_ratio_admissible(psi.size, phi.size)
    if k is None:
        return FactorizationResult(False, None, np.inf, Reason.RANK_RATIO_NON_INTEGER)
    remaining = (-psi).tolist()  # ascending
    targets = phi.tolist()
    zeta = []
    for _ in range(k):
        z = -remaining[0] / targets[0]
        for t in targets:
            target = t * z
            j = _closest(remaining, -target)
            gap = abs(-remaining[j] - target)
            if gap > eps:
                return FactorizationResult(
                    False, None, gap, Reason.FACTORIZATION_FAILED, borderline=gap <= 10 * eps
                )
            del remaining[j]
        zeta.append(z)
    return _finish(zeta, psi, phi)


def _spectra(state: PureState) -> dict[Bipartition, SchmidtSpectrum]:
    return {beta: schmidt_spectrum(state, beta) for beta in all_bipartitions(state.n_parties)}


def _check_direction(
    spectra_src: dict[Bipartition, SchmidtSpectrum],
    spectra_dst: dict[Bipartition, SchmidtSpectrum],
    n: int,
) -> DirectionReport:
    """The factorization test for one conversion direction on every
    bipartition: exact for n = 2, necessary only for n >= 3."""
    zetas = []
    borderline = False
    for beta, src in spectra_src.items():
        res = factor_spectrum(src, spectra_dst[beta])
        borderline = borderline or res.borderline
        if not res.found:
            return DirectionReport(res.reason, blocked_at=beta, borderline=borderline)
        zetas.append((beta, res.lambda_zeta))
    if n == 3:
        # A rank-1 auxiliary spectrum on a bipartition with singleton side s
        # forces the auxiliary state to factor off party s.  Two distinct
        # factored-off parties force a fully product auxiliary state, which
        # contradicts any remaining rank > 1 requirement.
        ranks = {beta.singleton(): z.rank() for beta, z in zetas}
        if sum(1 for r in ranks.values() if r == 1) == 2 and max(ranks.values()) > 1:
            blocked = next(beta for beta, z in zetas if z.rank() > 1)
            return DirectionReport(
                Reason.MARGINAL_CONTRADICTION,
                blocked_at=blocked,
                zetas=tuple(zetas),
                borderline=borderline,
            )
    passed = Reason.DECIDED if n == 2 else Reason.NECESSARY_PASSED_ONLY
    return DirectionReport(passed, zetas=tuple(zetas), borderline=borderline)


def compare(psi: PureState, phi: PureState) -> ConversionVerdict:
    """Convertibility verdict for two pure states with the same n >= 2 parties.

    Each direction runs the factorization test on every bipartition.  For
    n = 2 it is exact: equal spectra are Equivalent and a surviving direction
    is Decided.  For n >= 3 it is necessary only, and surviving directions are
    never promoted to convertibility: matching spectra do not decide
    local-unitary equivalence, so the best positive verdict is Inconclusive.
    """
    n = psi.n_parties
    if n != phi.n_parties:
        raise ValueError("states must have the same number of parties")
    if n < 2:
        raise ValueError("compare needs states of at least 2 parties")
    sp_psi, sp_phi = _spectra(psi), _spectra(phi)
    fwd = _check_direction(sp_psi, sp_phi, n)
    bwd = _check_direction(sp_phi, sp_psi, n)
    if n == 2:
        (beta,) = sp_psi
        if spectra_equal(sp_psi[beta], sp_phi[beta]):
            witness = ((beta, SchmidtSpectrum(np.array([1.0]))),)
            return ConversionVerdict(Direction.EQUIVALENT, Reason.DECIDED, witness, fwd, bwd)
        # Both directions cannot pass here: that forces equal ranks, so zeta
        # = [1.0] and the residual max|phi - psi| <= eps_match is the test
        # spectra_equal has just failed.
    if fwd.ruled_out and bwd.ruled_out:
        reason = Reason.DECIDED if n == 2 else fwd.reason
        return ConversionVerdict(Direction.INCOMPARABLE, reason, None, fwd, bwd)
    passed = bwd if fwd.ruled_out else fwd
    if n > 2:
        direction = Direction.INCONCLUSIVE
    else:
        direction = Direction.PHI_TO_PSI_ONLY if fwd.ruled_out else Direction.PSI_TO_PHI_ONLY
    return ConversionVerdict(direction, passed.reason, passed.zetas, fwd, bwd)


def catalytic_convertible(psi: PureState, phi: PureState, chi: PureState) -> bool:
    """Whether psi (x) chi converts to phi (x) chi, decided on the products
    of the three spectra, each cut at ``tau_rank`` (``_cut_product``)."""
    for s, name in ((psi, "psi"), (phi, "phi"), (chi, "chi")):
        if s.n_parties != 2:
            raise ValueError(f"{name} must be bipartite")
    (beta,) = all_bipartitions(2)
    l_chi = schmidt_spectrum(chi, beta)
    src = _cut_product(schmidt_spectrum(psi, beta), l_chi)
    return _factor(src, _cut_product(schmidt_spectrum(phi, beta), l_chi)).found
