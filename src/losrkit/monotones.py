"""Yield monotones: maximize a Bell functional over local measurements.

The monotone of a state is the best functional value among boxes the state
can generate.  Shared randomness never helps here, so plain local strategies
suffice: for convex-linear functionals (CHSH, tilted CHSH, the parity game)
the optimum over mixtures of strategies is attained at a pure strategy, and
for the Hardy score mixing can only violate the zero constraints.  The
optimization domain is projective qubit measurements, each stored as a unit
Bloch vector.  The search holds the rank-1 projectors only, not the
deterministic settings +I and -I, so a linear yield can read below the
functional's local bound (CHSH 0 on I/4).  Angles appear only in the CLI's text.

Linear functionals are optimized by a coordinate-ascent see-saw over parties
(closed-form Bloch updates), and the best restart is the answer.  The state's
Pauli tensor (``states.pauli_expectations``, one step per party) and the
functional form one tensor with an axis per party, so a party's field is a
chain of matrix products, and every restart is swept in one batch until it
stalls on its own.  The Born vectors of the running restarts stay in
one array that each update writes in place, party 0's field both scores a sweep
and starts the next one, and the batch is compacted only on a sweep where some
restart stalls.  The Hardy score needs no search: the three zero constraints
fix every direction once A's setting-1 ket is chosen, and Hardy's closed-form
argmax gives that ket from the SVD of the state's amplitude matrix.  The
see-saw's score and the reported box come from one Born-rule map of the Bloch
vectors.  Each restart's value is reported with the result.  Results are
deterministic given (state, functional, restarts, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .boxes import BellFunctional, HardyScore
from .states import PAULI, DensityMatrix, LocalChannelFamily, PureState, born_box, pauli_expectations

_SET, _OUT, _PAU = "ijk", "abc", "uvw"

_SEESAW_MAX_SWEEPS = 500
_SEESAW_FTOL = 1e-10
# Most restarts ``optimize_yield`` accepts.  A three-party see-saw holds a
# few KB per running restart, so the cap bounds its working set to tens of
# megabytes; larger requests are refused before anything is allocated.
_MAX_RESTARTS = 10_000


@dataclass(frozen=True, eq=False)
class MeasurementFamily:
    """Projective qubit measurements, one unit Bloch vector n per (party, setting).

    ``vectors[p, x]`` is n; outcome 0 projects onto +n, outcome 1 onto -n.
    ``angles`` gives the same directions as (polar, azimuthal) radians for
    the CLI's text.  Higher-dimensional measurements can be passed to
    ``born_box`` directly as ``[party][setting][outcome]`` POVM array-likes;
    this class only covers the qubit optimization domain.
    """

    vectors: np.ndarray  # (n_parties, n_settings, 3)

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float)
        if v.ndim != 3 or v.shape[2] != 3:
            raise ValueError("vectors must have shape (n_parties, n_settings, 3)")
        # Written so that NaN and inf fail the comparison.
        if not np.all(np.abs(np.linalg.norm(v, axis=-1) - 1.0) <= 1e-12):
            raise ValueError("Bloch vectors must be finite and unit norm within 1e-12")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def angles(self) -> np.ndarray:
        """(polar, azimuthal) in radians, shape ``(n_parties, n_settings, 2)``."""
        x, y, z = np.moveaxis(self.vectors, -1, 0)
        return np.stack([np.arccos(np.clip(z, -1.0, 1.0)), np.arctan2(y, x)], axis=-1)

    def povms(self) -> np.ndarray:
        """``[party][setting][outcome]`` 2x2 projectors (1 +/- n.sigma)/2, as one
        array of shape ``(n_parties, n_settings, 2, 2, 2)``; the see-saw
        scores the same Born-rule vectors."""
        n, s = self.vectors.shape[:2]
        u = _u_arrays(self.vectors).reshape(-1, 4)
        return (u @ PAULI.reshape(4, 4)).reshape(n, s, 2, 2, 2) / 2


@dataclass(frozen=True, eq=False)
class YieldResult:
    """``restart_values`` holds the see-saw value each restart reached, in
    restart order, for linear functionals.  For Hardy it holds one entry,
    the closed-form family's score on the amplitude matrix it was built
    from: a pure state's own, or the top eigenvector of rho (before the
    zero-constraint gate on rho itself)."""

    value: float
    argmax: MeasurementFamily
    restarts_used: int
    seed: int
    restart_values: tuple[float, ...]


def _u_arrays(vecs: np.ndarray) -> np.ndarray:
    """u[..., p, :] = (1, sign(a) * n_x) over (x, a), flattened: party p's
    Born-rule vector, from ``vecs`` of shape ``(..., n_parties, n_settings, 3)``."""
    u = np.ones(vecs.shape[:-1] + (2, 4))
    u[..., 0, 1:] = vecs
    u[..., 1, 1:] = -vecs
    return u.reshape(vecs.shape[:-2] + (-1,))


def _functional_tensor(coeffs: np.ndarray, E: np.ndarray) -> np.ndarray:
    """K with one axis per party, indexed by its flattened (x, a, Pauli)
    label: coeffs * E / 2**n.  The functional's value is K contracted with
    every party's u-vector."""
    n = E.ndim
    labels = "".join(_SET[p] + _OUT[p] + _PAU[p] for p in range(n))
    K = np.einsum(f"{_SET[:n]}{_OUT[:n]},{_PAU[:n]}->{labels}", coeffs, E) / 2**n
    return K.reshape([coeffs.shape[p] * coeffs.shape[n + p] * 4 for p in range(n)])


def _seesaw_linear(K: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin closed-form Bloch updates of every restart at once.

    ``vecs`` is ``(restarts, n_parties, n_settings, 3)`` and is updated in
    place.  Each restart stops at its own stall (a sweep that gains less
    than ``_SEESAW_FTOL``) or after ``_SEESAW_MAX_SWEEPS``; only the
    restarts still running are swept.  A setting whose field vanishes keeps
    its direction.  Returns the per-restart values and ``vecs``.

    Party q's field is K contracted with every other party's Born vector,
    one stacked matrix product per party, from K transposed once per call
    to put q's axis first.  The running restarts' Born vectors live in one
    array that each update writes in place, and the batch is compacted only
    on a sweep where some restart stalls.  Party 0's field at the end of a
    sweep both scores it and drives the next sweep's first update.  A
    restart's arithmetic does not depend on which others share its batch.
    """
    n, s = K.ndim, vecs.shape[2]
    chains = []
    for q in range(n):
        order = list(range(n))
        order[0], order[q] = q, 0
        chains.append((K.transpose(order).reshape(-1), order[:0:-1]))

    def field(q, u):
        w, parties = chains[q]
        for p in parties:
            w = (w.reshape(w.shape[:-1] + (-1, K.shape[p])) @ u[:, p, :, None])[..., 0]
        return w

    u = _u_arrays(vecs)
    born = u.reshape(len(u), n, s, 2, 4)
    w0 = field(0, u)
    value = np.sum(w0 * u[:, 0], axis=-1)
    current = value
    run = np.arange(len(vecs))
    for _ in range(_SEESAW_MAX_SWEEPS):
        for q in range(n):
            W = (w0 if q == 0 else field(q, u)).reshape(len(run), s, 2, 4)
            g = W[..., 0, 1:] - W[..., 1, 1:]
            nrm = np.sqrt(np.add.reduce(g * g, axis=-1, keepdims=True))
            np.divide(g, nrm, out=born[:, q, :, 0, 1:], where=nrm > 1e-15)
            np.negative(born[:, q, :, 0, 1:], out=born[:, q, :, 1, 1:])
        w0 = field(0, u)
        new = np.sum(w0 * u[:, 0], axis=-1)
        stalled = new - current < _SEESAW_FTOL
        if stalled.any():
            value[run[stalled]] = np.maximum(current[stalled], new[stalled])
            vecs[run[stalled]] = born[stalled, ..., 0, 1:]
            keep = ~stalled
            run, u, w0, new = run[keep], u[keep], w0[keep], new[keep]
            born = u.reshape(len(run), n, s, 2, 4)
        current = new
        if run.size == 0:
            break
    value[run] = current
    vecs[run] = born[..., 0, 1:]
    return value, vecs


def _perp(v: np.ndarray) -> np.ndarray:
    """The qubit ket orthogonal to ``v``, of the same norm."""
    return np.array([-v[1].conjugate(), v[0].conjugate()])


def _hardy_kets(M: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """Unit kets [a0, a1, b0, b1], one per row, that meet the three Hardy
    zero constraints exactly on the state with amplitude matrix ``M``, given
    the ket a1.  Outcome 0 projects on the ket, outcome 1 on the orthogonal
    one, and the amplitude of kets (a, b) is a^dag M conj(b)."""
    b1 = M.T @ _perp(a1).conj()  # p(11|11) = 0
    a0 = _perp(M @ b1.conj())  # p(00|01) = 0
    b0 = _perp(M.T @ a1.conj())  # p(00|10) = 0
    kets = np.array([a0, a1, b0, b1])
    return kets / np.linalg.norm(kets, axis=1, keepdims=True)


def _optimize_hardy(state: DensityMatrix | PureState) -> tuple[MeasurementFamily, list[float]]:
    """The maximum of p(00|00) = |a0^dag M conj(b0)|^2 over the exact
    feasible set, in closed form, and the Hardy score of that family on
    ``M`` as a one-entry list.

    ``M`` is the amplitude matrix of a pure state, or of the top eigenvector
    of a density matrix, with SVD U diag(c, s) V^dag.  Setting
    a1 = U (sqrt c, sqrt s) and letting ``_hardy_kets`` fix the rest attains
    Hardy's maximum ((cs(c - s)) / (1 - cs))^2 (Hardy, PRL 71, 1665 (1993);
    Goldstein, PRL 72, 1951 (1994)).  Every ket is built to meet the zero
    constraints, so on a pure state no value passes the gate of
    ``HardyScore.evaluate`` by a tolerance.  An ``M`` of Schmidt rank 1
    (s^2 <= tau_rank) has yield 0 and would make b1 vanish; every setting
    then measures along the Schmidt vectors, which breaks the zero
    constraints by c^2, and the gate scores the family 0.

    A state of rank >= 2 needs no repair step, because its Hardy yield is 0.
    The product vectors a0 x b1, a1 x b0 and a1' x b1' (' the orthogonal ket)
    must all lie in ker rho, of dimension <= 2.  Such a kernel holds at most
    two product directions unless it is a x C^2 or C^2 x b, which would make
    a0, a1 and a1' (or b0, b1 and b1') all parallel.  With two directions,
    a1' x b1' differs from both others, so a0 x b1 ~ a1 x b0; then a0 ~ a1,
    b0 ~ b1 and p(00|00) = p(00|01) = 0.  Scored on rho itself, the returned
    family violates the constraints by about the weight outside the top
    eigenvector, and the gate turns that into 0.
    """
    if isinstance(state, PureState):
        M = state.amplitudes.reshape(2, 2)
    else:
        M = np.linalg.eigh(state.matrix)[1][:, -1].reshape(2, 2)
    U, (c, s), Vh = np.linalg.svd(M)
    if s * s <= config.current().tau_rank:
        kets, value = np.array([U[:, 0], U[:, 0], Vh[0], Vh[0]]), 0.0
    else:
        kets = _hardy_kets(M, U @ np.sqrt([c, s]))
        value = abs(np.vdot(kets[0], M @ kets[2].conj())) ** 2
    # n_k = <k| sigma |k> for sigma = X, Y, Z
    bloch = np.einsum("ki,pij,kj->kp", kets.conj(), PAULI[1:], kets).real
    return MeasurementFamily(bloch.reshape(2, 2, 3)), [value]


def optimize_yield(
    state: DensityMatrix | PureState,
    f: BellFunctional,
    restarts: int = 32,
    seed: int = 0,
) -> YieldResult:
    """Best functional value over qubit measurements.

    Linear functionals take the best of ``restarts`` see-saw runs from
    seeded random starts; ties resolve to the lowest index.  The Hardy yield
    is built in closed form and uses neither ``restarts`` nor ``seed``; both
    are still echoed in the result, and ``restarts`` must lie in
    [1, ``_MAX_RESTARTS``] for every functional.  The reported value is
    recomputed from the Born-rule box of the returned measurement family, so
    it matches ``f.evaluate(born_box(state, argmax))`` by construction.
    """
    if not 1 <= restarts <= _MAX_RESTARTS:
        raise ValueError(f"restarts must be in [1, {_MAX_RESTARTS}], got {restarts}")
    coeffs = None if isinstance(f, HardyScore) else f.coefficients()
    n = 2 if coeffs is None else coeffs.ndim // 2
    # Checked before the Pauli tensor, whose outer product of a pure state
    # takes 256 MiB at 4096 dimensions.
    if state.n_parties != n or any(d != 2 for d in state.party_dims):
        raise ValueError(
            f"{type(f).__name__} needs {n} qubit parties, state has dims {state.party_dims}"
        )
    if coeffs is None:
        family, restart_values = _optimize_hardy(state)
    else:
        K = _functional_tensor(coeffs, pauli_expectations(state))
        v0 = np.random.default_rng(seed).standard_normal((restarts, n, 2, 3))
        v0 /= np.linalg.norm(v0, axis=-1, keepdims=True)
        restart_values, vecs = _seesaw_linear(K, v0)
        family = MeasurementFamily(vecs[int(np.argmax(restart_values))])

    value = f.evaluate(born_box(state, family))
    return YieldResult(value, family, restarts, seed, tuple(float(v) for v in restart_values))


def horodecki_chsh(state: DensityMatrix | PureState) -> float:
    """Closed-form CHSH maximum 2 sqrt(m1 + m2) for a two-qubit state,
    m1 >= m2 the largest eigenvalues of T^T T with T the Pauli correlation
    matrix.  Independent of the see-saw path."""
    if state.party_dims != (2, 2):
        raise ValueError("horodecki_chsh needs a two-qubit state")
    T = pauli_expectations(state)[1:, 1:]
    w = np.linalg.eigvalsh(T.T @ T)
    return 2.0 * float(np.sqrt(max(w[-1] + w[-2], 0.0)))


def _random_qubit_channel(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, ...]:
    """A random CPTP map as a Kraus pair, via a Haar-ish random isometry."""
    if dim == 1:
        return (np.ones((1, 1), dtype=complex),)
    g = rng.standard_normal((2 * dim, dim)) + 1j * rng.standard_normal((2 * dim, dim))
    q, _ = np.linalg.qr(g)
    return (q[:dim, :], q[dim:, :])


def sample_losr_channel(dims, seed: int) -> LocalChannelFamily:
    """Seeded random mixture (<= 4 components) of products of local CPTP maps."""
    rng = np.random.default_rng(seed)
    n_comp = int(rng.integers(1, 5))
    weights = rng.dirichlet(np.ones(n_comp))
    components = []
    for c in range(n_comp):
        per_party = tuple(_random_qubit_channel(rng, int(d)) for d in dims)
        components.append((float(weights[c]), per_party))
    return LocalChannelFamily(tuple(components))


# ---------------------------------------------------------------------------
# Independent Hardy oracle: exhaustive grid over the state angle and A's
# setting-0 angle, with all three zero constraints solved in closed form.
# Real-plane measurements suffice for states with real Schmidt coefficients;
# agreement with the closed-form yield is checked by the test suite.


def hardy_grid_maximum(theta_grid, a0_points: int = 120) -> tuple[float, tuple[float, float, float]]:
    """Max Hardy probability over states cos(t)|00> + sin(t)|11>, t in the grid.

    For each (t, a0) the constraints p(00|01) = 0 and p(00|10) = 0 fix b1 and
    a1 in closed form, and p(11|11) = 0 then has the one root
    b0 = arctan(cot(t)^2 tan(b1)) in (-pi/2, pi/2).  It counts only strictly
    inside (-pi/2 + 1e-3, pi/2 - 1e-3), the span of the a0 grid, and
    p(00|00) is scored there.  Within one t the maxima come in mirrored
    pairs (a0, b0) and (-a0, -b0) on the symmetric a0 grid, and last-bit
    rounding, not grid order, picks the one returned: callers must not rely
    on the sign of the returned angles.
    """
    edge = np.pi / 2 - 1e-3
    a0_grid = np.linspace(-edge, edge, a0_points)
    best = 0.0
    arg = (0.0, 0.0, 0.0)
    for t in np.asarray(theta_grid, dtype=float):
        ct, st = np.cos(t), np.sin(t)
        if abs(st) < 1e-12 or abs(ct) < 1e-12:
            continue
        b1 = np.arctan2(-ct * np.cos(a0_grid), st * np.sin(a0_grid))
        b0 = np.arctan((ct / st) ** 2 * np.tan(b1))
        val = (ct * np.cos(a0_grid) * np.cos(b0) + st * np.sin(a0_grid) * np.sin(b0)) ** 2
        val[np.abs(b0) >= edge] = 0.0  # never beats best, which starts at 0
        i = int(np.argmax(val))
        if val[i] > best:
            best, arg = float(val[i]), (float(t), float(a0_grid[i]), float(b0[i]))
    return best, arg
