"""Flagged mixed states and desk-scale self-testing scans.

The flag construction attaches classical flag registers and locally
controlled unitaries to a bipartite pure state, producing a mixed state in
the same LOSR-equivalence class: the forward channel prepares the flags and
applies the controlled unitaries, the backward channel applies the controlled
inverses and traces the flags out.  When the flag distribution factorizes, no
shared randomness is needed at all.

Self-testing is evaluated only relative to an explicit finite candidate set
(the universal quantifier is not decidable numerically); the scan report says
so and marks reachers whose conversion it cannot decide as
conversion-undecided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import BellFunctional
from .monotones import optimize_yield
from .preorder import Direction, compare
from .states import (
    DensityMatrix,
    LocalChannelFamily,
    PureState,
    apply_channel,
    group_parties,
    permute_parties,
)

_UNITARY_EPS = 1e-12
_ROUNDTRIP_EPS = 1e-9
_FACTORIZE_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class FlagConstruction:
    """Ingredients for a flagged mixed state over a bipartite base state.

    ``dist[i, j]`` is the joint flag distribution, ``unitaries_a[i]`` /
    ``unitaries_b[j]`` the locally controlled unitaries; flag dimensions are
    the list lengths.
    """

    base_state: PureState
    dist: np.ndarray
    unitaries_a: tuple[np.ndarray, ...]
    unitaries_b: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.base_state.n_parties != 2:
            raise ValueError("flag construction needs a bipartite base state")
        ua = tuple(np.asarray(u, dtype=complex) for u in self.unitaries_a)
        ub = tuple(np.asarray(u, dtype=complex) for u in self.unitaries_b)
        p = np.asarray(self.dist, dtype=float)
        if p.shape != (len(ua), len(ub)):
            raise ValueError(f"dist shape {p.shape} must be ({len(ua)}, {len(ub)})")
        if float(p.min()) < 0 or abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError("dist must be a probability table")
        da, db = self.base_state.party_dims
        for u, d, side in [(u, da, "A") for u in ua] + [(u, db, "B") for u in ub]:
            if u.shape != (d, d):
                raise ValueError(f"unitary on side {side} must be {d}x{d}")
            if float(np.max(np.abs(u.conj().T @ u - np.eye(d)))) > _UNITARY_EPS:
                raise ValueError(f"non-unitary operator on side {side}")
        for u in ua + ub:
            u.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "dist", p)
        object.__setattr__(self, "unitaries_a", ua)
        object.__setattr__(self, "unitaries_b", ub)

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
    """The flagged mixed state, grouped as A = (A, flag_A), B = (B, flag_B)."""
    da, db = fc.base_state.party_dims
    fa, fb = fc.flag_dims
    psi = fc.base_state.amplitudes
    # sum_ij block_ij (x) |ij><ij| as [base row, flag, base col, flag]
    rho = np.zeros((da * db, fa * fb, da * db, fa * fb), dtype=complex)
    for i in range(fa):
        for j in range(fb):
            v = np.kron(fc.unitaries_a[i], fc.unitaries_b[j]) @ psi
            rho[:, i * fb + j, :, i * fb + j] = fc.dist[i, j] * np.outer(v, v.conj())
    out = DensityMatrix((da, db, fa, fb), rho.reshape(da * db * fa * fb, -1))
    out = permute_parties(out, (0, 2, 1, 3))  # (A, flag_A, B, flag_B)
    return group_parties(out, [(0, 1), (2, 3)])


def _isometries(fc: FlagConstruction) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Each side's controlled isometries U_i (x) |i>: apply U_i and append
    flag i to the party."""
    return tuple(
        tuple(np.kron(u, flag) for u, flag in zip(us, np.eye(len(us), dtype=complex)[:, :, None]))
        for us in (fc.unitaries_a, fc.unitaries_b)
    )


def forward_channel(fc: FlagConstruction) -> tuple[LocalChannelFamily, bool]:
    """LOSR channel taking the base state to the flagged mixed state.

    Returns (family, needs_shared_randomness).  A factorized flag
    distribution yields a single product channel; otherwise the family mixes
    one product component per flag pair (i, j) with weight p(ij).
    """
    iso_a, iso_b = _isometries(fc)
    if fc.dist_factorizes():
        pi = fc.dist.sum(axis=1)
        pj = fc.dist.sum(axis=0)
        kraus_a = tuple(np.sqrt(p) * k for p, k in zip(pi, iso_a))
        kraus_b = tuple(np.sqrt(p) * k for p, k in zip(pj, iso_b))
        return LocalChannelFamily.from_local_kraus((kraus_a, kraus_b)), False
    components = []
    for i, ka in enumerate(iso_a):
        for j, kb in enumerate(iso_b):
            if fc.dist[i, j] != 0.0:
                components.append((float(fc.dist[i, j]), ((ka,), (kb,))))
    return LocalChannelFamily(tuple(components)), True


def backward_channel(fc: FlagConstruction) -> LocalChannelFamily:
    """LOSR channel recovering the base state: its Kraus operators are the
    adjoints of the forward isometries, (U_i^dagger) (x) <i|, which undo the
    controlled unitary and trace the local flag out."""
    return LocalChannelFamily.from_local_kraus(tuple(tuple(k.conj().T for k in side) for side in _isometries(fc)))


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
    verdict_label: str


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

    def to_text(self) -> str:
        lines = ["id yield reacher verdict"]
        for e in self.entries:
            lines.append(
                f"{e.index} {e.yield_value:.10g} {int(e.is_reacher)} {e.verdict_label}"
            )
        if self.box_unreachable:
            lines.append("box unreachable in candidate set (condition vacuously satisfied)")
        lines.append(f"selftest condition satisfied on candidate set: {self.satisfied}")
        return "\n".join(lines)


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
        converts: bool | None = None
        label = "not_reacher"
        if reacher:
            if cand.n_parties == target_state.n_parties:
                verdict = compare(cand, target_state)
                if verdict.direction != Direction.INCONCLUSIVE:
                    converts = verdict.allows_forward()
            if converts is None:
                label = "conversion_undecided"
            else:
                label = "converts" if converts else f"no_conversion({verdict.direction.value})"
        entries.append(CandidateReport(idx, result.value, reacher, converts, label))
    return ClosureScanReport(
        type(box_functional).__name__, float(target_value), float(tol), tuple(entries)
    )
