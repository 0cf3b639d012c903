"""Independent oracles that the suite checks the library against.

Each oracle answers the same question as a library routine by a slower,
simpler method: exhaustive enumeration, capped to small inputs, explicit
Kronecker products, or the plain scan that a faster library search must
reproduce bit for bit.
``state_with_spectrum`` builds the bipartite states that these tests share.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import permutations, product

import numpy as np

from losrkit import (
    Box,
    FactorizationResult,
    FlagConstruction,
    HardyScore,
    LocalModel,
    MeasurementFamily,
    NonlocalCertificate,
    PureState,
    Reason,
    SchmidtSpectrum,
    catalytic_convertible,
    compare,
    config,
    is_no_signaling,
    rank_ratio_admissible,
)
from losrkit.boxes import _MARGIN_EPS, linprog
from losrkit.demos import _CATALYSIS_TRIALS, _Report
from losrkit.preorder import _finish


def factor_spectrum_scan(l_psi: SchmidtSpectrum, l_phi: SchmidtSpectrum) -> FactorizationResult:
    """Reference for ``factor_spectrum``: the same greedy peeling with each
    closest entry found by ``np.argmin`` over every unconsumed entry, kept
    descending.  Quadratic in rank(psi); the library's bisection must return
    the same bits."""
    eps = config.current().eps_match
    psi = l_psi.truncated()
    phi = l_phi.truncated()
    k = rank_ratio_admissible(psi.size, phi.size)
    if k is None:
        return FactorizationResult(False, None, np.inf, Reason.RANK_RATIO_NON_INTEGER)
    remaining = list(psi)  # descending
    zeta = []
    for _ in range(k):
        z = remaining[0] / phi[0]
        for t in phi:
            target = t * z
            j = int(np.argmin([abs(v - target) for v in remaining]))
            gap = abs(remaining[j] - target)
            if gap > eps:
                return FactorizationResult(
                    False, None, gap, Reason.FACTORIZATION_FAILED, borderline=gap <= 10 * eps
                )
            del remaining[j]
        zeta.append(z)
    return _finish(zeta, psi, phi)


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


def dense_vertex_matrix(settings, outcomes) -> np.ndarray:
    """The separation LP's constraint rows, one per deterministic strategy,
    in lexicographic order: each strategy's flattened table followed by -1."""
    n_verts = math.prod(o**s for s, o in zip(settings, outcomes))
    dim = math.prod(settings + outcomes)
    if n_verts * (dim + 1) > 2**22:
        raise ValueError("dense oracle limited to 2**22 LP entries")
    # One-hot [strategy, setting, outcome] per party on axes (p, n+p, 2n+p)
    # of the [k..., x..., a...] layout; the last party's product is written
    # straight into the result, seen in that layout.
    n = len(settings)
    mat = np.empty((n_verts, dim + 1))
    mat[:, dim] = -1.0
    layout = mat[:, :dim].reshape(tuple(o**s for s, o in zip(settings, outcomes)) + settings + outcomes)
    joint = np.ones((1,) * 3 * n)
    for p, (s, o) in enumerate(zip(settings, outcomes)):
        shape = [1] * 3 * n
        shape[p], shape[n + p], shape[2 * n + p] = o**s, s, o
        onehot = np.indices((o,) * s).reshape(s, -1).T[:, :, None] == np.arange(o)
        joint = np.multiply(joint, onehot.reshape(shape), out=layout if p == n - 1 else None)
    return mat


def local_membership_dense(b: Box) -> LocalModel | NonlocalCertificate:
    """Oracle for ``local_membership``: the separation LP with every vertex
    constraint written out, solved once.  A local box's weights are the LP's
    duals on the vertex constraints."""
    if not is_no_signaling(b):
        raise ValueError("local_membership requires a no-signaling box")
    a_ub = dense_vertex_matrix(b.settings_per_party, b.outcomes_per_party)
    p_flat = b.table.reshape(-1)
    n_verts, dim = len(a_ub), p_flat.size
    v_mat = a_ub[:, :dim]
    res = linprog(
        np.concatenate([-p_flat, [1.0]]),
        A_ub=a_ub,
        b_ub=np.zeros(n_verts),
        bounds=[(-1, 1)] * dim + [(None, None)],
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"separation LP failed: {res.message}")
    if -res.fun > _MARGIN_EPS:
        f = res.x[:dim]
        return NonlocalCertificate(f, float(np.max(v_mat @ f)), float(f @ p_flat), 1, n_verts)
    w = np.clip(-res.ineqlin.marginals, 0.0, None)
    w /= w.sum()
    return LocalModel(w, float(np.max(np.abs(v_mat.T @ w - p_flat))), 1, n_verts)


def backward_kraus_kron(fc: FlagConstruction) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Reference for ``backward_channel``'s Kraus operators: each side's
    U_i^dagger (x) <i| written out with ``np.kron`` and an explicit flag bra."""

    def bra(dim: int, i: int) -> np.ndarray:
        e = np.zeros((1, dim), dtype=complex)
        e[0, i] = 1.0
        return e

    return tuple(
        tuple(np.kron(u.conj().T, bra(len(us), i)) for i, u in enumerate(us))
        for us in (fc.unitaries_a, fc.unitaries_b)
    )


def state_with_spectrum(values) -> PureState:
    """A bipartite state in Schmidt form with the given squared coefficients."""
    lam = np.asarray(values, dtype=float)
    r = lam.size
    amp = np.zeros((r, r))
    amp[np.arange(r), np.arange(r)] = np.sqrt(lam)
    return PureState((r, r), amp.reshape(-1))


def demo_catalysis_states(seed: int = 0) -> tuple[list[str], bool]:
    """Reference for ``demo_catalysis``: the same draws, with every spectrum
    turned into a state and both conversions decided on the states by
    ``compare`` and ``catalytic_convertible``, which take the spectra again."""
    rep = _Report()
    rng = np.random.default_rng(seed)
    counterexamples = 0
    convertible_cases = 0
    for t in range(_CATALYSIS_TRIALS):
        ranks = rng.integers(1, 5, size=3)
        if t % 2 == 0:
            lam_phi = np.sort(rng.dirichlet(np.ones(ranks[0])))[::-1]
            lam_z = np.sort(rng.dirichlet(np.ones(ranks[1])))[::-1]
            psi = state_with_spectrum(np.sort(np.kron(lam_phi, lam_z))[::-1])
            phi = state_with_spectrum(lam_phi)
        else:
            psi = state_with_spectrum(rng.dirichlet(np.ones(ranks[0])))
            phi = state_with_spectrum(rng.dirichlet(np.ones(ranks[1])))
        chi = state_with_spectrum(rng.dirichlet(np.ones(max(2, ranks[2]))))
        plain = compare(psi, phi).allows_forward()
        cat = catalytic_convertible(psi, phi, chi)
        convertible_cases += int(plain)
        if cat != plain:
            counterexamples += 1
            rep.say(f"counterexample at trial {t}")
    rep.say(f"trials {_CATALYSIS_TRIALS}, plainly convertible cases {convertible_cases}")
    rep.check(counterexamples == 0, "catalytic convertibility always equals plain convertibility")
    rep.check(convertible_cases > 0, "the sweep exercised genuinely convertible pairs")
    return rep.lines, rep.ok


def born_box_kron(state, meas) -> Box:
    """Reference for ``born_box``: each joint POVM element written out with
    ``np.kron`` and its probability taken as Tr[rho E], one entry at a time."""
    rho = state.density().matrix if isinstance(state, PureState) else state.matrix
    elements = [np.asarray(povm, dtype=complex) for povm in (meas.povms() if hasattr(meas, "povms") else meas)]
    settings = tuple(povm.shape[0] for povm in elements)
    outcomes = tuple(povm.shape[1] for povm in elements)
    table = np.zeros(settings + outcomes)
    for xs in product(*map(range, settings)):
        for outs in product(*map(range, outcomes)):
            op = reduce(np.kron, [povm[x, a] for povm, x, a in zip(elements, xs, outs)])
            table[xs + outs] = np.trace(rho @ op).real
    return Box(table)


def hardy_yield_eigh(state) -> tuple[float, np.ndarray]:
    """Reference for the Hardy yield: the closed-form construction on the
    top eigenvector of the density matrix (of psi psi^dag for a pure state),
    each ket normalized on its own and each Bloch component taken as its own
    ``np.vdot``, scored by ``HardyScore`` on the Kronecker-product Born box.
    Returns the value and the ``(2, 2, 3)`` Bloch vectors.

    The Schmidt-rank-1 decision (s^2 <= tau_rank) reads the singular values
    of a pure state's own amplitude matrix, the cutoff's documented input:
    the eigenvector's can differ from them in the last bits, and so decide
    an s^2 that sits on the cutoff the other way."""
    rho = state.density() if isinstance(state, PureState) else state
    M = np.linalg.eigh(rho.matrix)[1][:, -1].reshape(2, 2)
    U, (c, s), Vh = np.linalg.svd(M)
    s_cut = s
    if isinstance(state, PureState):
        s_cut = np.linalg.svd(state.amplitudes.reshape(2, 2), compute_uv=False)[1]

    def perp(v):
        return np.array([-v[1].conjugate(), v[0].conjugate()])

    if s_cut * s_cut <= config.current().tau_rank:
        kets = [U[:, 0], U[:, 0], Vh[0], Vh[0]]
    else:
        a1 = U @ np.sqrt([c, s])
        b1 = M.T @ perp(a1).conj()
        a0 = perp(M @ b1.conj())
        b0 = perp(M.T @ a1.conj())
        kets = [k / np.linalg.norm(k) for k in (a0, a1, b0, b1)]
    paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
    bloch = np.reshape([[np.vdot(k, p @ k).real for p in paulis] for k in kets], (2, 2, 3))
    return HardyScore().evaluate(born_box_kron(rho, MeasurementFamily(bloch))), bloch


# Entries per row block of the Hardy sign grid.  Each block's float64
# temporaries stay under 128 KiB, glibc's initial mmap threshold, so they
# reuse heap pages instead of being mapped and faulted in afresh each pass.
_HARDY_BLOCK_ENTRIES = 2**14 - 1


def _hardy_third_constraint(ct: float, st: float, b0: np.ndarray, b1: np.ndarray) -> np.ndarray:
    a1 = np.arctan2(-ct * np.cos(b0), st * np.sin(b0))
    return ct * np.sin(a1) * np.sin(b1) + st * np.cos(a1) * np.cos(b1)


def hardy_grid_bisection(
    theta_grid, a0_points: int = 120, b0_points: int = 241
) -> tuple[float, tuple[float, float, float]]:
    """Reference for ``hardy_grid_maximum``: the sign-grid-and-bisection
    method that the library's closed-form root replaced.

    For each (t, a0) the constraints p(00|01) = 0 and p(00|10) = 0 fix the
    remaining directions in closed form; roots of p(11|11) = 0 in b0 are then
    bracketed on a ``b0_points`` grid over (-pi/2 + 1e-3, pi/2 - 1e-3), in row
    blocks, and refined by 60 bisection steps before scoring p(00|00).
    Every a0 and bracketed root of one t is bisected at once; ties resolve
    to the first t, then the first a0, then the first root.
    """
    a0_grid = np.linspace(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, a0_points)
    b0_grid = np.linspace(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, b0_points)
    rows = max(1, _HARDY_BLOCK_ENTRIES // max(b0_points, 1))
    best = 0.0
    arg = (0.0, 0.0, 0.0)
    for t in np.asarray(theta_grid, dtype=float):
        ct, st = np.cos(t), np.sin(t)
        if abs(st) < 1e-12 or abs(ct) < 1e-12:
            continue
        b1_grid = np.arctan2(-ct * np.cos(a0_grid), st * np.sin(a0_grid))
        blocks = []
        for r in range(0, max(a0_points, 1), rows):
            g = _hardy_third_constraint(ct, st, b0_grid, b1_grid[r : r + rows, None])
            a, b = np.nonzero(np.sign(g[:, :-1]) * np.sign(g[:, 1:]) < 0)
            blocks.append((a + r, b, g[a, b]))
        ia, ib, glo = (np.concatenate(x) for x in zip(*blocks))
        if ia.size == 0:
            continue
        a0, b1 = a0_grid[ia], b1_grid[ia]
        lo, hi = b0_grid[ib], b0_grid[ib + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            gm = _hardy_third_constraint(ct, st, mid, b1)
            keep = (gm > 0) == (glo > 0)
            lo, glo, hi = np.where(keep, mid, lo), np.where(keep, gm, glo), np.where(keep, hi, mid)
        b0 = 0.5 * (lo + hi)
        val = (ct * np.cos(a0) * np.cos(b0) + st * np.sin(a0) * np.sin(b0)) ** 2
        i = int(np.argmax(val))
        if val[i] > best:
            best, arg = float(val[i]), (float(t), float(a0[i]), float(b0[i]))
    return best, arg
