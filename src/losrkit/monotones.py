"""Yield monotones: maximize a Bell functional over local measurements.

The monotone of a state is the best functional value among boxes the state
can generate.  Shared randomness never helps here, so plain local strategies
suffice: for convex-linear functionals (CHSH, tilted CHSH, the parity game)
the optimum over mixtures of strategies is attained at a pure strategy, and
for the Hardy score mixing can only violate the zero constraints.  The
optimization domain is projective qubit measurements parameterized by Bloch
angles; every two-outcome qubit POVM is a mixture of projective ones, so
nothing is lost for these functionals at qubit dimensions.

The optimizer is a coordinate-ascent see-saw over parties (closed-form Bloch
updates for linear functionals, a quadratic-penalty ramp for the Hardy score)
followed by a gradient-free polish of the best restart.  Results are
deterministic given (state, functional, restarts, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .boxes import CHSH, BellFunctional, HardyScore, MerminGHZ, TiltedCHSH
from .states import DensityMatrix, LocalChannelFamily, PureState, _local_expectations, born_box

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_SET, _OUT, _PAU = "ijk", "abc", "uvw"

# Penalty weights for the Hardy zero constraints.  The ramp ends at 1e11 so
# that residual violations (~ mu^(-2/3)) land safely below the feasibility
# gate used when scoring the final box.
_HARDY_MU_RAMP = (1e3, 1e5, 1e7, 1e9, 1e11)

_SEESAW_MAX_SWEEPS = 500
_SEESAW_FTOL = 1e-10


@dataclass(frozen=True)
class MeasurementFamily:
    """Projective qubit measurements, one Bloch direction per (party, setting).

    ``angles[p, x]`` holds (polar, azimuthal) in radians; outcome 0 projects
    onto +n, outcome 1 onto -n.  Higher-dimensional measurements can be
    passed to ``born_box`` directly as ``[party][setting][outcome]`` POVM
    array-likes; this class only covers the qubit optimization domain.
    """

    angles: np.ndarray  # (n_parties, n_settings, 2)

    def __post_init__(self):
        ang = np.asarray(self.angles, dtype=float)
        if ang.ndim != 3 or ang.shape[2] != 2:
            raise ValueError("angles must have shape (n_parties, n_settings, 2)")
        ang.setflags(write=False)
        object.__setattr__(self, "angles", ang)

    @property
    def n_parties(self) -> int:
        return self.angles.shape[0]

    @property
    def n_settings(self) -> int:
        return self.angles.shape[1]

    def bloch_vectors(self) -> np.ndarray:
        return _angles_to_vecs(self.angles)

    def povms(self) -> np.ndarray:
        """``[party][setting][outcome]`` 2x2 projectors, as one array of shape
        ``(n_parties, n_settings, 2, 2, 2)``."""
        op = np.tensordot(self.bloch_vectors(), np.stack(PAULI[1:]), axes=1)
        return (PAULI[0] + np.array([1, -1])[:, None, None] * op[:, :, None]) / 2

    @classmethod
    def from_bloch(cls, vectors) -> MeasurementFamily:
        v = np.asarray(vectors, dtype=float)
        norms = np.linalg.norm(v, axis=-1)
        if float(np.max(np.abs(norms - 1.0))) > 1e-12:
            raise ValueError("Bloch vectors must be unit norm within 1e-12")
        return cls(_vecs_to_angles(v))


@dataclass(frozen=True)
class YieldResult:
    value: float
    argmax: MeasurementFamily
    restarts_used: int
    seed: int

    def to_text(self) -> str:
        lines = [f"{self.value:.10g} {self.restarts_used} {self.seed}"]
        for p in range(self.argmax.n_parties):
            row = " ".join(f"{v:.10g}" for v in self.argmax.angles[p].reshape(-1))
            lines.append(f"party {p}: {row}")
        return "\n".join(lines)


def pauli_expectations(state: DensityMatrix) -> np.ndarray:
    """Real tensor E[i1..in] = Tr[rho sigma_i1 x ... x sigma_in] (qubits only)."""
    if any(d != 2 for d in state.party_dims):
        raise ValueError("Pauli expectations need qubit parties")
    return _local_expectations(state, [np.stack(PAULI)] * state.n_parties).real.copy()


def _u_arrays(vecs: np.ndarray) -> list[np.ndarray]:
    """Per party: u[x, a, :] = (1, sign(a) * n_x) for the Born-rule contraction."""
    n_parties, n_settings = vecs.shape[:2]
    out = []
    for p in range(n_parties):
        u = np.empty((n_settings, 2, 4))
        u[:, :, 0] = 1.0
        u[:, 0, 1:] = vecs[p]
        u[:, 1, 1:] = -vecs[p]
        out.append(u)
    return out


def _box_table(E: np.ndarray, us: list[np.ndarray]) -> np.ndarray:
    n = len(us)
    terms = [_PAU[:n]] + [_SET[p] + _OUT[p] + _PAU[p] for p in range(n)]
    return np.einsum(",".join(terms) + "->" + _SET[:n] + _OUT[:n], E, *us) / 2**n


def _party_field(coeffs: np.ndarray, E: np.ndarray, us: list[np.ndarray], q: int) -> np.ndarray:
    """W[x, a, u]: the functional's linear coefficients on party q's u-vector."""
    n = len(us)
    terms = [_SET[:n] + _OUT[:n], _PAU[:n]]
    args = [coeffs, E]
    for p in range(n):
        if p != q:
            terms.append(_SET[p] + _OUT[p] + _PAU[p])
            args.append(us[p])
    sub = ",".join(terms) + "->" + _SET[q] + _OUT[q] + _PAU[q]
    return np.einsum(sub, *args) / 2**n


def _seesaw_linear(coeffs: np.ndarray, E: np.ndarray, vecs: np.ndarray) -> tuple[float, np.ndarray]:
    """Round-robin closed-form Bloch updates until the value stalls."""
    n_parties = vecs.shape[0]
    us = _u_arrays(vecs)
    value = float(np.sum(coeffs * _box_table(E, us)))
    for _ in range(_SEESAW_MAX_SWEEPS):
        for q in range(n_parties):
            W = _party_field(coeffs, E, us, q)
            for x in range(vecs.shape[1]):
                g = W[x, 0, 1:] - W[x, 1, 1:]
                nrm = float(np.linalg.norm(g))
                if nrm > 1e-15:
                    vecs[q, x] = g / nrm
            us[q] = _u_arrays(vecs)[q]
        new = float(np.sum(coeffs * _box_table(E, us)))
        if new - value < _SEESAW_FTOL:
            value = max(value, new)
            break
        value = new
    return value, vecs


def _angles_to_vecs(angles: np.ndarray) -> np.ndarray:
    th, ph = angles[..., 0], angles[..., 1]
    return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)


def _vecs_to_angles(vecs: np.ndarray) -> np.ndarray:
    theta = np.arccos(np.clip(vecs[..., 2], -1.0, 1.0))
    phi = np.arctan2(vecs[..., 1], vecs[..., 0])
    return np.stack([theta, phi], axis=-1)


def _hardy_flat_probs(E: np.ndarray, x: np.ndarray) -> np.ndarray:
    """16 probabilities as P[2x+a, 2y+b] from the 8 raw angles (fast path)."""
    th = x[0::2]
    ph = x[1::2]
    st = np.sin(th)
    nx = st * np.cos(ph)
    ny = st * np.sin(ph)
    nz = np.cos(th)
    u = np.empty((4, 2, 4))
    u[:, :, 0] = 1.0
    u[:, 0, 1] = nx
    u[:, 0, 2] = ny
    u[:, 0, 3] = nz
    u[:, 1, 1:] = -u[:, 0, 1:]
    return u[:2].reshape(4, 4) @ E @ u[2:].reshape(4, 4).T * 0.25


def _hardy_penalty(E: np.ndarray, x: np.ndarray, mu: float) -> float:
    P = _hardy_flat_probs(E, x)
    viol = P[0, 2] ** 2 + P[2, 0] ** 2 + P[3, 3] ** 2
    return -(P[0, 0] - mu * viol)


_HARDY_STAGE_MAXFEV = 400
_HARDY_POLISH_MAXFEV = 1500


def _optimize_hardy_once(E: np.ndarray, x0: np.ndarray) -> np.ndarray:
    # Joint simplex search per penalty stage: party-wise sweeps stall on the
    # strongly coupled constraint terms, so all eight angles move together.
    x = x0
    for mu in _HARDY_MU_RAMP:
        res = minimize(
            lambda v: _hardy_penalty(E, v, mu),
            x,
            method="Nelder-Mead",
            options={"maxfev": _HARDY_STAGE_MAXFEV, "xatol": 1e-11, "fatol": 1e-13},
        )
        x = res.x
    return x


def _functional_parties(f: BellFunctional) -> int:
    if isinstance(f, (CHSH, TiltedCHSH, HardyScore)):
        return 2
    if isinstance(f, MerminGHZ):
        return 3
    raise ValueError(f"unsupported functional {f!r}")


def optimize_yield(
    state: DensityMatrix | PureState,
    f: BellFunctional,
    restarts: int = 32,
    seed: int = 0,
) -> YieldResult:
    """Best functional value over seeded random measurement initializations.

    The reported value is recomputed from the Born-rule box of the returned
    measurement family, so it matches ``f.evaluate(born_box(state, argmax))``
    by construction.  Ties between restarts resolve to the lowest index.
    """
    if isinstance(state, PureState):
        state = state.density()
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    n = _functional_parties(f)
    if state.n_parties != n or any(d != 2 for d in state.party_dims):
        raise ValueError(
            f"{type(f).__name__} needs {n} qubit parties, state has dims {state.party_dims}"
        )
    E = pauli_expectations(state)
    rng = np.random.default_rng(seed)
    best_score = -np.inf
    best_angles = None

    if isinstance(f, HardyScore):
        for _ in range(restarts):
            x0 = rng.uniform(0.0, np.pi, 8)
            x0[1::2] *= 2.0
            x = _optimize_hardy_once(E, x0)
            score = -_hardy_penalty(E, x, _HARDY_MU_RAMP[-1])
            if score > best_score:
                best_score = score
                best_angles = x
        res = minimize(
            lambda v: _hardy_penalty(E, v, _HARDY_MU_RAMP[-1]),
            best_angles,
            method="Nelder-Mead",
            options={"maxfev": _HARDY_POLISH_MAXFEV, "xatol": 1e-12, "fatol": 1e-14},
        )
        if -res.fun > best_score:
            best_angles = res.x
        family = MeasurementFamily(best_angles.reshape(2, 2, 2))
    else:
        coeffs = f.coefficients()
        for _ in range(restarts):
            v0 = rng.standard_normal((n, 2, 3))
            v0 /= np.linalg.norm(v0, axis=-1, keepdims=True)
            score, vecs = _seesaw_linear(coeffs, E, v0)
            if score > best_score:
                best_score = score
                best_angles = _vecs_to_angles(vecs)

        def neg_value(flat: np.ndarray) -> float:
            vv = _angles_to_vecs(flat.reshape(n, 2, 2))
            return -float(np.sum(coeffs * _box_table(E, _u_arrays(vv))))

        res = minimize(
            neg_value,
            best_angles.reshape(-1),
            method="Nelder-Mead",
            options={"maxfev": 800, "xatol": 1e-12, "fatol": 1e-13},
        )
        if -res.fun > best_score:
            best_angles = res.x.reshape(n, 2, 2)
        family = MeasurementFamily(best_angles)

    value = f.evaluate(born_box(state, family))
    return YieldResult(value, family, restarts, seed)


def horodecki_chsh(state: DensityMatrix | PureState) -> float:
    """Closed-form CHSH maximum 2 sqrt(m1 + m2) for a two-qubit state,
    m1 >= m2 the largest eigenvalues of T^T T with T the Pauli correlation
    matrix.  Independent of the see-saw path."""
    if isinstance(state, PureState):
        state = state.density()
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
# Independent Hardy oracle: exhaustive grid over the state angle and the two
# free measurement angles, with the three zero constraints solved exactly
# (two in closed form, the third by bisection).  Real-plane measurements
# suffice for states with real Schmidt coefficients; agreement with the
# unconstrained optimizer is checked by the test suite.


def _hardy_third_constraint(ct: float, st: float, b0: np.ndarray, b1: float) -> np.ndarray:
    a1 = np.arctan2(-ct * np.cos(b0), st * np.sin(b0))
    return ct * np.sin(a1) * np.sin(b1) + st * np.cos(a1) * np.cos(b1)


def hardy_grid_maximum(
    theta_grid, a0_points: int = 120, b0_points: int = 241
) -> tuple[float, tuple[float, float, float]]:
    """Max Hardy probability over states cos(t)|00> + sin(t)|11>, t in the grid.

    For each (t, a0) the constraints p(00|01) = 0 and p(00|10) = 0 fix the
    remaining directions in closed form; roots of p(11|11) = 0 in b0 are then
    bracketed on a grid and refined by bisection before scoring p(00|00).
    """
    a0_grid = np.linspace(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, a0_points)
    b0_grid = np.linspace(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, b0_points)
    best = 0.0
    arg = (0.0, 0.0, 0.0)
    for t in np.asarray(theta_grid, dtype=float):
        ct, st = np.cos(t), np.sin(t)
        if abs(st) < 1e-12 or abs(ct) < 1e-12:
            continue
        for a0 in a0_grid:
            b1 = float(np.arctan2(-ct * np.cos(a0), st * np.sin(a0)))
            g = _hardy_third_constraint(ct, st, b0_grid, b1)
            sign_flips = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]
            for i in sign_flips:
                lo, hi = float(b0_grid[i]), float(b0_grid[i + 1])
                glo = float(g[i])
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    gm = float(_hardy_third_constraint(ct, st, np.array([mid]), b1)[0])
                    if (gm > 0) == (glo > 0):
                        lo, glo = mid, gm
                    else:
                        hi = mid
                b0 = 0.5 * (lo + hi)
                val = (ct * np.cos(a0) * np.cos(b0) + st * np.sin(a0) * np.sin(b0)) ** 2
                if val > best:
                    best, arg = float(val), (float(t), float(a0), float(b0))
    return best, arg
