"""Flagged mixed states and desk-scale self-testing scans.

The flag construction attaches classical flag registers and locally
controlled unitaries to a bipartite pure state, producing a mixed state in
the same LOSR-equivalence class: the forward channel prepares the flags and
applies the controlled unitaries, the backward channel applies the controlled
inverses and traces the flags out.  When the flag distribution factorizes, no
shared randomness is needed at all.

Self-testing is evaluated only relative to an explicit finite candidate set
(the universal quantifier is not decidable numerically); the scan report
holds, per candidate, whether it reaches the box's value and, for a reacher,
whether it converts to the target, None where that is undecided.  The CLI
writes the report's text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import BellFunctional
from .monotones import optimize_yield
from .preorder import Direction, compare
from .states import DensityMatrix, LocalChannelFamily, PureState, apply_channel

_UNITARY_EPS = 1e-12
_ROUNDTRIP_EPS = 1e-9
_FACTORIZE_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class FlagConstruction:
    """Ingredients for a flagged mixed state over a bipartite base state.

    ``dist[i, j]`` is the joint flag distribution, ``unitaries_a[i]`` /
    ``unitaries_b[j]`` the locally controlled unitaries.  The constructor
    takes each side's unitaries as a sequence of d x d matrices and stores
    them as one read-only ``(flags, d, d)`` stack; flag dimensions are the
    stack lengths.
    """

    base_state: PureState
    dist: np.ndarray
    unitaries_a: np.ndarray
    unitaries_b: np.ndarray

    def __post_init__(self):
        if self.base_state.n_parties != 2:
            raise ValueError("flag construction needs a bipartite base state")
        sides = [[np.asarray(u, dtype=complex) for u in us] for us in (self.unitaries_a, self.unitaries_b)]
        p = np.asarray(self.dist, dtype=float)
        if p.shape != tuple(map(len, sides)):
            raise ValueError(f"dist shape {p.shape} must be ({len(sides[0])}, {len(sides[1])})")
        if float(p.min()) < 0 or abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError("dist must be a probability table")
        for ops, d, side in zip(sides, self.base_state.party_dims, "AB"):
            if any(u.shape != (d, d) for u in ops):
                raise ValueError(f"unitary on side {side} must be {d}x{d}")
            stack = np.stack(ops)
            gram = stack.conj().transpose(0, 2, 1) @ stack if np.all(np.isfinite(stack)) else np.inf
            if float(np.max(np.abs(gram - np.eye(d)))) > _UNITARY_EPS:
                raise ValueError(f"non-unitary operator on side {side}")
            stack.setflags(write=False)
            object.__setattr__(self, f"unitaries_{side.lower()}", stack)
        p.setflags(write=False)
        object.__setattr__(self, "dist", p)

    @property
    def flag_dims(self) -> tuple[int, int]:
        return len(self.unitaries_a), len(self.unitaries_b)

    def dist_factorizes(self) -> bool:
        """Whether p(ij) = p(i) p(j), in which case no shared randomness is
        needed to prepare the flags."""
        pi = self.dist.sum(axis=1)
        pj = self.dist.sum(axis=0)
        return float(np.max(np.abs(self.dist - np.outer(pi, pj)))) <= _FACTORIZE_EPS


def flag_mixed_state(fc: FlagConstruction) -> DensityMatrix:
    """The flagged mixed state sum_ij p(ij) |w_ij><w_ij| (x) |ij><ij| with
    w_ij = (U_i (x) V_j) psi, grouped as A = (A, flag_A), B = (B, flag_B)."""
    da, db = fc.base_state.party_dims
    fa, fb = fc.flag_dims
    w = np.einsum("iac,jbd,cd->ijab", fc.unitaries_a, fc.unitaries_b, fc.base_state.tensor(), optimize=True)
    # [A, flag_A, B, flag_B] rows then columns; only flag-diagonal blocks are nonzero
    rho = np.zeros((da, fa, db, fb) * 2, dtype=complex)
    i, j = np.ogrid[:fa, :fb]
    rho[:, i, :, j, :, i, :, j] = np.einsum("ij,ijab,ijcd->ijabcd", fc.dist, w, w.conj())
    d = da * fa * db * fb
    return DensityMatrix((da * fa, db * fb), rho.reshape(d, d))


def _isometries(fc: FlagConstruction) -> tuple[np.ndarray, np.ndarray]:
    """Each side's controlled isometries U_i (x) |i> as one ``(f, d*f, d)``
    stack: apply U_i and append flag i to the party."""
    return tuple(
        (us[:, :, None, :] * np.eye(len(us))[:, None, :, None]).reshape(len(us), -1, us.shape[2])
        for us in (fc.unitaries_a, fc.unitaries_b)
    )


def forward_channel(fc: FlagConstruction) -> tuple[LocalChannelFamily, bool]:
    """LOSR channel taking the base state to the flagged mixed state.

    Returns (family, needs_shared_randomness).  A factorized flag
    distribution yields a single product channel.  Otherwise the family
    mixes one component per Alice flag i with p(i) > 0, weighted p(i): Alice
    applies U_i (x) |i> and Bob the Kraus operators sqrt(p(j|i)) V_j (x) |j>.
    """
    iso_a, iso_b = _isometries(fc)
    pi = fc.dist.sum(axis=1)
    if fc.dist_factorizes():
        pj = fc.dist.sum(axis=0)
        kraus = (np.sqrt(pi)[:, None, None] * iso_a, np.sqrt(pj)[:, None, None] * iso_b)
        return LocalChannelFamily.from_local_kraus(kraus), False
    return LocalChannelFamily(tuple(
        (float(pi[i]), ((iso_a[i],), np.sqrt(fc.dist[i] / pi[i])[:, None, None] * iso_b))
        for i in np.flatnonzero(pi)
    )), True


def backward_channel(fc: FlagConstruction) -> LocalChannelFamily:
    """LOSR channel recovering the base state: its Kraus operators are the
    adjoints of the forward isometries, (U_i^dagger) (x) <i|, which undo the
    controlled unitary and trace the local flag out."""
    return LocalChannelFamily.from_local_kraus(tuple(k.conj().transpose(0, 2, 1) for k in _isometries(fc)))


def flag_roundtrip_check(fc: FlagConstruction) -> bool:
    """Verify both conversion directions in max-entry distance.

    forward(|psi><psi|) must equal the flagged state and backward(flagged)
    must equal |psi><psi| -- the operational equivalence witness.
    """
    rho = flag_mixed_state(fc)
    fwd, _ = forward_channel(fc)
    got = apply_channel(fc.base_state.density(), fwd)
    if float(np.max(np.abs(got.matrix - rho.matrix))) > _ROUNDTRIP_EPS:
        return False
    back = apply_channel(rho, backward_channel(fc))
    target = fc.base_state.density()
    return float(np.max(np.abs(back.matrix - target.matrix))) <= _ROUNDTRIP_EPS


def conjugate_state(psi: PureState) -> PureState:
    """Entrywise complex conjugation in the computational basis."""
    return PureState(psi.party_dims, np.conj(psi.amplitudes))


@dataclass(frozen=True)
class CandidateReport:
    index: int
    yield_value: float
    is_reacher: bool
    converts: bool | None  # None = conversion undecided
    direction: Direction | None  # compare(candidate, target), for a reacher compared with it


@dataclass(frozen=True)
class ClosureScanReport:
    """Outcome of scanning a candidate set against a box's defining value.

    ``satisfied`` means every reacher provably converts to the target state
    on this candidate set -- a finite-set surrogate for the self-testing
    condition, not a universal claim.
    """

    functional_name: str
    target_value: float
    tol: float
    entries: tuple[CandidateReport, ...]

    @property
    def satisfied(self) -> bool:
        return all(e.converts is True for e in self.entries if e.is_reacher)

    @property
    def box_unreachable(self) -> bool:
        return not any(e.is_reacher for e in self.entries)


def closure_scan(
    box_functional: BellFunctional,
    target_value: float,
    target_state: PureState,
    candidates,
    tol: float = 1e-6,
    restarts: int = 32,
    seed: int = 0,
) -> ClosureScanReport:
    """Mark candidates whose optimized yield reaches the box's defining value
    and decide (where possible) whether each reacher converts to the target.

    The reacher threshold is one-sided (>= target - tol): the optimizer can
    undershoot a quantum value but not exceed it.  A reacher's conversion is
    undecided when ``compare`` is Inconclusive (the spectrum test is
    necessary only for three or more parties) or when its party count differs
    from the target's.  ``target_value`` must be finite and ``tol`` finite
    and >= 0; a NaN threshold would make every candidate a non-reacher.
    """
    if not np.isfinite(target_value):
        raise ValueError(f"target_value must be finite, got {target_value}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    entries = []
    for idx, cand in enumerate(candidates):
        result = optimize_yield(cand, box_functional, restarts=restarts, seed=seed)
        reacher = result.value >= target_value - tol
        converts = direction = None
        if reacher and cand.n_parties == target_state.n_parties:
            verdict = compare(cand, target_state)
            direction = verdict.direction
            if direction != Direction.INCONCLUSIVE:
                converts = verdict.allows_forward()
        entries.append(CandidateReport(idx, result.value, reacher, converts, direction))
    return ClosureScanReport(
        type(box_functional).__name__, float(target_value), float(tol), tuple(entries)
    )
