import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from losrkit import (
    CHSH,
    DensityMatrix,
    HardyScore,
    MeasurementFamily,
    MerminGHZ,
    PureState,
    TiltedCHSH,
    apply_channel,
    born_box,
    catalog,
    hardy_grid_maximum,
    horodecki_chsh,
    optimize_yield,
    pauli_expectations,
    sample_losr_channel,
)
from losrkit.cli import yield_text
from losrkit.monotones import _MAX_RESTARTS, _functional_tensor, _seesaw_linear
from conftest import random_density, random_unitary
from oracles import hardy_grid_bisection, hardy_yield_eigh

TSIRELSON = 2 * np.sqrt(2)
HARDY_MAX = (5 * np.sqrt(5) - 11) / 2


def hardy_closed_form(amplitudes) -> float:
    """Hardy's maximum ((cs(c - s)) / (1 - cs))^2 for a two-qubit pure state
    with Schmidt coefficients c and s."""
    c, s = np.linalg.svd(np.reshape(amplitudes, (2, 2)), compute_uv=False)
    return float((c * s * (c - s) / (1 - c * s)) ** 2)


def seesaw_reference(coeffs, E, vecs, ftol=1e-10, max_sweeps=500):
    """One restart at a time: the functional on the Born-rule table built
    from the Pauli tensor, and each setting's Bloch vector set to its field
    in turn.  Returns (value, vecs, sweeps run)."""
    n = E.ndim
    sets, outs, paus = "ijk"[:n], "abc"[:n], "uvw"[:n]

    def u_vectors(v):
        us = []
        for p in range(n):
            u = np.empty((v.shape[1], 2, 4))
            u[:, :, 0] = 1.0
            u[:, 0, 1:] = v[p]
            u[:, 1, 1:] = -v[p]
            us.append(u)
        return us

    def value(v):
        terms = ",".join([paus] + [sets[p] + outs[p] + paus[p] for p in range(n)])
        table = np.einsum(terms + "->" + sets + outs, E, *u_vectors(v)) / 2**n
        return float(np.sum(coeffs * table))

    vecs = vecs.copy()
    current = value(vecs)
    for sweep in range(1, max_sweeps + 1):
        for q in range(n):
            us = u_vectors(vecs)
            terms = [sets + outs, paus] + [sets[p] + outs[p] + paus[p] for p in range(n) if p != q]
            args = [coeffs, E] + [us[p] for p in range(n) if p != q]
            W = np.einsum(",".join(terms) + "->" + sets[q] + outs[q] + paus[q], *args) / 2**n
            for x in range(vecs.shape[1]):
                g = W[x, 0, 1:] - W[x, 1, 1:]
                if np.linalg.norm(g) > 1e-15:
                    vecs[q, x] = g / np.linalg.norm(g)
        new = value(vecs)
        if new - current < ftol:
            return max(current, new), vecs, sweep
        current = new
    return current, vecs, max_sweeps


def random_starts(seed, restarts, n):
    v = np.random.default_rng(seed).standard_normal((restarts, n, 2, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class TestMeasurementFamily:
    def test_from_bloch_requires_unit_vectors(self):
        vecs = np.zeros((1, 1, 3))
        vecs[0, 0] = [0.9, 0.0, 0.0]
        with pytest.raises(ValueError):
            MeasurementFamily(vecs)

    def test_non_finite_vectors_rejected(self):
        vecs = np.zeros((2, 2, 3))
        vecs[..., 2] = 1.0
        vecs[1, 0] = [np.nan, 0.0, 1.0]
        with pytest.raises(ValueError, match="finite"):
            MeasurementFamily(vecs)

    def test_povms_complete_and_projective(self, rng):
        vecs = rng.standard_normal((2, 2, 3))
        vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
        fam = MeasurementFamily(vecs)
        for party in fam.povms():
            for setting in party:
                total = sum(setting)
                assert np.max(np.abs(total - np.eye(2))) < 1e-12
                for e in setting:
                    assert np.max(np.abs(e @ e - e)) < 1e-12

    def test_bloch_roundtrip(self, rng):
        vecs = rng.standard_normal((3, 2, 3))
        vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
        fam = MeasurementFamily(vecs)
        th, ph = np.moveaxis(fam.angles, -1, 0)
        rebuilt = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)
        assert np.max(np.abs(rebuilt - fam.vectors)) < 1e-12
        assert np.max(np.abs(fam.vectors - vecs)) < 1e-12


class TestHorodecki:
    def test_phi_plus(self):
        assert horodecki_chsh(catalog.phi_plus()) == pytest.approx(TSIRELSON, abs=1e-12)

    def test_product_state(self):
        assert horodecki_chsh(catalog.partial(0.0)) == pytest.approx(2.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        assert horodecki_chsh(rho) == pytest.approx(0.0, abs=1e-12)

    def test_partial_closed_form(self):
        for theta in (0.2, np.pi / 8, 0.6):
            expect = 2 * np.sqrt(1 + np.sin(2 * theta) ** 2)
            assert horodecki_chsh(catalog.partial(theta)) == pytest.approx(expect, abs=1e-12)

    def test_wrong_dims(self):
        with pytest.raises(ValueError):
            horodecki_chsh(catalog.ghz())

    def test_wrong_dims_refused_before_density(self):
        # The density matrix of max_entangled(64) would take 256 MiB.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="two-qubit"):
                horodecki_chsh(catalog.max_entangled(64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestOptimizeYield:
    def test_chsh_phi_plus(self):
        res = optimize_yield(catalog.phi_plus(), CHSH(), restarts=16, seed=7)
        assert res.value == pytest.approx(TSIRELSON, abs=1e-6)

    def test_chsh_partial_closed_form(self):
        for theta in (0.3, np.pi / 8):
            res = optimize_yield(catalog.partial(theta), CHSH(), restarts=16, seed=7)
            assert res.value == pytest.approx(2 * np.sqrt(1 + np.sin(2 * theta) ** 2), abs=1e-6)

    def test_agrees_with_horodecki_on_random_states(self, rng):
        for _ in range(10):
            rho = random_density(rng, (2, 2))
            res = optimize_yield(rho, CHSH(), restarts=12, seed=3)
            assert res.value == pytest.approx(horodecki_chsh(rho), abs=1e-5)

    def test_value_matches_reported_measurements(self):
        res = optimize_yield(catalog.partial(0.5), TiltedCHSH(0.5), restarts=8, seed=1)
        box = born_box(catalog.partial(0.5).density(), res.argmax)
        assert res.value == pytest.approx(TiltedCHSH(0.5).evaluate(box), abs=1e-9)

    def test_hardy_phi_plus_zero(self):
        res = optimize_yield(catalog.phi_plus(), HardyScore(), restarts=8, seed=5)
        assert res.value <= 1e-6

    def test_hardy_best_state_value(self):
        res = optimize_yield(catalog.partial(0.4387), HardyScore(), restarts=6, seed=5)
        assert res.value == pytest.approx(0.09017, abs=2e-4)

    def test_mermin_ghz(self):
        res = optimize_yield(catalog.ghz(), MerminGHZ(), restarts=8, seed=5)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_deterministic_bitwise(self):
        a = optimize_yield(catalog.partial(0.4), HardyScore(), restarts=4, seed=11)
        b = optimize_yield(catalog.partial(0.4), HardyScore(), restarts=4, seed=11)
        assert a.value == b.value
        assert np.array_equal(a.argmax.angles, b.argmax.angles)
        c = optimize_yield(catalog.phi_plus(), CHSH(), restarts=8, seed=11)
        d = optimize_yield(catalog.phi_plus(), CHSH(), restarts=8, seed=11)
        assert c.value == d.value

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            optimize_yield(catalog.ghz(), CHSH(), restarts=2, seed=0)
        with pytest.raises(ValueError):
            optimize_yield(catalog.phi_plus(), MerminGHZ(), restarts=2, seed=0)
        with pytest.raises(ValueError):
            optimize_yield(catalog.phi_plus(), CHSH(), restarts=0, seed=0)

    def test_restarts_cap(self):
        # Refused before the starts are drawn: 10**12 restarts would need
        # terabytes.
        for f in (CHSH(), HardyScore()):
            for restarts in (_MAX_RESTARTS + 1, 10**12):
                with pytest.raises(ValueError, match=f"restarts must be in \\[1, {_MAX_RESTARTS}\\]"):
                    optimize_yield(catalog.phi_plus(), f, restarts=restarts, seed=0)

    def test_yield_text_format(self):
        res = optimize_yield(catalog.phi_plus(), CHSH(), restarts=4, seed=2)
        lines = yield_text(res)
        head = lines[0].split()
        assert float(head[0]) == pytest.approx(TSIRELSON, abs=1e-6)
        assert head[1] == "4" and head[2] == "2"
        assert len(lines) == 3

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 11")
    @pytest.mark.parametrize(
        "n, functional, local_bound",
        [(2, CHSH(), 2.0), (2, TiltedCHSH(0.5), 2.5), (3, MerminGHZ(), 0.75)],
        ids=["chsh", "tilted", "mermin"],
    )
    def test_maximally_mixed_meets_local_bound(self, n, functional, local_bound):
        # Under LOSR a party can ignore its system and answer a fixed outcome,
        # so every state reaches the local bound.  The search holds rank-1
        # projectors only, and reads 0, 0 and 0.5 here.
        rho = DensityMatrix((2,) * n, np.eye(2**n) / 2**n)
        assert optimize_yield(rho, functional).value >= local_bound - 1e-9


class TestHardyFeasibleSet:
    def test_pure_states_meet_closed_form(self, rng):
        states = [catalog.partial(float(t)) for t in np.linspace(0.05, np.pi / 2 - 0.05, 15)]
        for _ in range(10):
            c = np.sqrt(rng.uniform(0.5, 1.0))
            amp = np.kron(random_unitary(rng, 2), random_unitary(rng, 2)) @ [c, 0, 0, np.sqrt(1 - c**2)]
            states.append(PureState((2, 2), amp))
        for psi in states:
            res = optimize_yield(psi, HardyScore(), restarts=4, seed=9)
            assert abs(res.value - hardy_closed_form(psi.amplitudes)) <= 1e-9
            box = born_box(psi.density(), res.argmax)
            assert HardyScore().constraint_violation(box) <= 1e-12

    def test_near_pure_state_stays_below_hardy_maximum(self):
        rho = catalog.partial(0.4387).density().matrix
        noisy = DensityMatrix((2, 2), (1 - 4e-9) * rho + 4e-9 * np.eye(4) / 4)
        res = optimize_yield(noisy, HardyScore(), restarts=6, seed=5)
        assert 0.09 <= res.value <= HARDY_MAX + 1e-9

    def test_full_rank_mixed_state_is_zero(self, rng):
        res = optimize_yield(random_density(rng, (2, 2)), HardyScore(), restarts=6, seed=5)
        assert res.value == 0.0

    def test_phi_plus_never_negative(self):
        for seed in range(20):
            assert optimize_yield(catalog.phi_plus(), HardyScore(), restarts=4, seed=seed).value >= 0.0

    def test_schmidt_rank_one_is_exactly_zero(self, rng):
        product = np.kron(random_unitary(rng, 2), random_unitary(rng, 2)) @ [1, 0, 0, 0]
        for amp in ([1, 0, 0, 0], product):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = optimize_yield(PureState((2, 2), amp), HardyScore(), restarts=4, seed=9)
            assert res.value == 0.0
            assert np.all(np.isfinite(res.argmax.angles))


    @settings(max_examples=200, deadline=None)
    @given(theta=st.floats(0.0, np.pi / 2), seed=st.integers(0, 2**32 - 1))
    @example(theta=0.0, seed=0)  # partial(0.0): the Schmidt-rank-1 branch
    @example(theta=1e-05, seed=1)  # s^2 = 1.0e-10 sits on tau_rank
    def test_pure_state_matches_eigh_route(self, theta, seed):
        # The yield reads a pure state's amplitudes; the oracle takes the top
        # eigenvector of psi psi^dag, as the mixed-state route does.
        rng = np.random.default_rng(seed)
        local = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        for psi in (catalog.partial(theta), PureState((2, 2), local @ catalog.partial(theta).amplitudes)):
            res = optimize_yield(psi, HardyScore())
            value, _ = hardy_yield_eigh(psi)
            assert abs(res.value - value) <= 1e-14
            assert abs(res.restart_values[0] - value) <= 1e-14


class TestSeesawBatch:
    """The batched see-saw against one restart at a time."""

    @staticmethod
    def check_batch(state, f, starts):
        rho = state.density() if isinstance(state, PureState) else state
        E, coeffs = pauli_expectations(rho), f.coefficients()
        values, vecs = _seesaw_linear(_functional_tensor(coeffs, E), starts.copy())
        sweeps = []
        for r, start in enumerate(starts):
            ref_value, ref_vecs, ref_sweeps = seesaw_reference(coeffs, E, start)
            assert abs(values[r] - ref_value) <= 1e-12
            assert np.max(np.abs(vecs[r] - ref_vecs)) <= 1e-12
            sweeps.append(ref_sweeps)
        return E, coeffs, vecs, sweeps

    def test_restarts_match_sequential_reference(self, rng):
        cases = [
            (catalog.partial(0.3), CHSH()),
            (catalog.partial(0.3), TiltedCHSH(0.25)),
            (catalog.ghz(), MerminGHZ()),
            (random_density(rng, (2, 2, 2)), MerminGHZ()),
        ]
        for state, f in cases:
            self.check_batch(state, f, random_starts(4, 6, state.n_parties))

    @staticmethod
    def near_maximal_starts():
        # Near maximal entanglement most restarts reach the sweep cap, the
        # all-z and z/x starts stall after one and two sweeps, and the rest
        # stall in between.
        lam = 0.45
        state = PureState((2, 2), [np.sqrt(1 - lam), 0, 0, np.sqrt(lam)])
        zx = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        starts = np.concatenate([random_starts(1, 8, 2), [np.tile([0.0, 0.0, 1.0], (2, 2, 1)), [zx, zx]]])
        return state, starts

    def test_stopped_restarts_stay_frozen(self):
        # Restarts that stall before the sweep cap would still move if they
        # were swept on.
        state, starts = self.near_maximal_starts()
        E, coeffs, vecs, sweeps = self.check_batch(state, CHSH(), starts)
        assert sweeps[-2:] == [1, 2] and max(sweeps) == 500
        early = [r for r, k in enumerate(sweeps) if 2 < k < 500]
        assert early
        for r in early:
            _, swept_on, _ = seesaw_reference(coeffs, E, starts[r], ftol=-np.inf)
            assert np.max(np.abs(swept_on - vecs[r])) > 1e-12

    def test_restart_alone_matches_its_batch_row(self, rng):
        # Restarts that stall on different sweeps leave the batch at
        # different times; none of that may change another restart's bits.
        cases = [
            (*self.near_maximal_starts(), CHSH()),
            (catalog.partial(0.3), random_starts(4, 8, 2), TiltedCHSH(0.25)),
            (catalog.chiral(), random_starts(5, 8, 3), MerminGHZ()),
            (random_density(rng, (2, 2, 2)), random_starts(6, 8, 3), MerminGHZ()),
        ]
        for state, starts, f in cases:
            rho = state.density() if isinstance(state, PureState) else state
            E, coeffs = pauli_expectations(rho), f.coefficients()
            K = _functional_tensor(coeffs, E)
            values, vecs = _seesaw_linear(K, starts.copy())
            sweeps = {seesaw_reference(coeffs, E, start)[2] for start in starts}
            assert len(sweeps) > 1
            for r in range(len(starts)):
                alone_value, alone_vecs = _seesaw_linear(K, starts[r : r + 1].copy())
                assert np.array_equal(alone_value, values[r : r + 1])
                assert np.array_equal(alone_vecs, vecs[r : r + 1])

    def test_restart_values_in_result(self):
        cases = [
            (catalog.partial(0.3), TiltedCHSH(0.25)),
            (catalog.phi_plus(), CHSH()),
            (catalog.ghz(), MerminGHZ()),
        ]
        for state, f in cases:
            res = optimize_yield(state, f, restarts=6, seed=2)
            starts = random_starts(2, 6, state.n_parties)
            K = _functional_tensor(f.coefficients(), pauli_expectations(state.density()))
            values, _ = _seesaw_linear(K, starts)
            assert res.restart_values == tuple(values)
            assert max(res.restart_values) <= res.value + 1e-12
        # the Hardy yield is built in closed form: one value, on the top eigenvector
        res = optimize_yield(catalog.partial(0.4387), HardyScore(), restarts=5, seed=1)
        assert len(res.restart_values) == 1
        assert abs(max(res.restart_values) - res.value) <= 1e-12


class TestPauliExpectations:
    def test_phi_plus_correlations(self):
        E = pauli_expectations(catalog.phi_plus().density())
        assert E[0, 0] == pytest.approx(1.0)
        assert E[1, 1] == pytest.approx(1.0)
        assert E[2, 2] == pytest.approx(-1.0)
        assert E[3, 3] == pytest.approx(1.0)
        assert E[1, 0] == pytest.approx(0.0)

    def test_pure_state_reads_as_its_density(self):
        for psi in (catalog.partial(0.4), catalog.ghz()):
            assert np.array_equal(pauli_expectations(psi), pauli_expectations(psi.density()))

    @pytest.mark.parametrize("pure", [False, True])
    def test_memory_on_ten_qubits(self, rng, pure):
        # The state in [row_0, col_0, ...] order and one party's output: twice
        # the density matrix's bytes, for a pure state too.
        amp = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        psi = PureState((2,) * 10, amp / np.linalg.norm(amp))
        rho = psi.density()
        tracemalloc.start()
        try:
            pauli_expectations(psi if pure else rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * rho.matrix.nbytes + 2**16

    def test_four_qubits_match_kronecker_reference(self, rng):
        paulis = [
            np.eye(2),
            np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]),
            np.array([[1, 0], [0, -1]]),
        ]
        rho = random_density(rng, (2, 2, 2, 2))
        E = pauli_expectations(rho)
        assert E.shape == (4, 4, 4, 4)
        for idx in np.ndindex(E.shape):
            op = reduce(np.kron, [paulis[i] for i in idx])
            assert abs(E[idx] - np.trace(rho.matrix @ op).real) < 1e-12


class TestSampleChannel:
    def test_trivial_dims_identity(self):
        fam = sample_losr_channel((1, 1), seed=3)
        assert fam.input_dims == (1, 1)
        for _, per_party in fam.components:
            for ops in per_party:
                for k in ops:
                    assert np.allclose(np.abs(k), 1.0)

    def test_valid_output_on_phi_plus(self):
        fam = sample_losr_channel((2, 2), seed=4)
        out = apply_channel(catalog.phi_plus().density(), fam)  # invariants checked
        assert out.party_dims == (2, 2)

    def test_product_inputs_stay_unentangled(self, rng):
        # each component maps a product state to a product state, so mixtures
        # stay separable; for two qubits the partial transpose certifies it
        psi = catalog.partial(0.0)  # |00>
        for seed in range(6):
            fam = sample_losr_channel((2, 2), seed=100 + seed)
            out = apply_channel(psi.density(), fam)
            pt = out.matrix.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
            assert np.linalg.eigvalsh(pt).min() >= -1e-10

    def test_deterministic_in_seed(self):
        a = sample_losr_channel((2, 2), seed=9)
        b = sample_losr_channel((2, 2), seed=9)
        for (wa, pa), (wb, pb) in zip(a.components, b.components):
            assert wa == wb
            for ka, kb in zip(pa, pb):
                for ma, mb in zip(ka, kb):
                    assert np.array_equal(ma, mb)


class TestMonotonicitySmoke:
    def test_chsh_never_increases_under_sampled_channels(self):
        base = optimize_yield(catalog.phi_plus(), CHSH(), restarts=16, seed=0)
        for seed in range(5):
            fam = sample_losr_channel((2, 2), seed=200 + seed)
            out = apply_channel(catalog.phi_plus().density(), fam)
            res = optimize_yield(out, CHSH(), restarts=8, seed=0)
            assert res.value <= base.value + 5e-4
            # independent closed-form check of the same inequality
            assert horodecki_chsh(out) <= horodecki_chsh(catalog.phi_plus()) + 1e-9


class TestHardyGridOracle:
    def test_coarse_grid_reaches_known_region(self):
        best, (theta, a0, b0) = hardy_grid_maximum(np.linspace(0.38, 0.50, 7), a0_points=40)
        assert 0.085 <= best <= 0.0902
        assert 0.38 <= theta <= 0.50

    @pytest.mark.parametrize("a0_points", [1, 2, 40, 120])
    def test_matches_the_bisection_reference(self, a0_points):
        edges = np.linspace(0.05, np.pi / 2 - 0.05, 65)
        thetas = edges[:-1] + np.random.default_rng(47).uniform(size=64) * np.diff(edges)
        for t in [*thetas, 0.2, 0.4387, 0.9]:
            best, (theta, a0, b0) = hardy_grid_maximum([t], a0_points=a0_points)
            ref_best, (ref_theta, ref_a0, ref_b0) = hardy_grid_bisection([t], a0_points, 241)
            assert abs(best - ref_best) <= 1e-12
            assert theta == ref_theta
            # (a0, b0) -> (-a0, -b0) keeps every probability, so the first of
            # two mirrored grid points is picked by rounding in either method
            if a0 != ref_a0:
                a0, b0 = -a0, -b0
            assert abs(a0 - ref_a0) <= 1e-12
            assert abs(b0 - ref_b0) <= 1e-12

    def test_returned_angles_meet_the_constraints(self):
        best, (t, a0, b0) = hardy_grid_maximum([0.4387])
        ct, st = np.cos(t), np.sin(t)
        b1 = np.arctan2(-ct * np.cos(a0), st * np.sin(a0))
        a1 = np.arctan2(-ct * np.cos(b0), st * np.sin(b0))
        # the real-plane ket (cos a, sin a) has Bloch vector (sin 2a, 0, cos 2a)
        angles = np.array([[a0, a1], [b0, b1]])
        bloch = np.stack([np.sin(2 * angles), np.zeros_like(angles), np.cos(2 * angles)], axis=-1)
        p = born_box(catalog.partial(t).density(), MeasurementFamily(bloch)).table
        assert abs(p[0, 0, 0, 0] - best) <= 1e-12
        assert max(p[0, 1, 0, 0], p[1, 0, 0, 0], p[1, 1, 1, 1]) <= 1e-12


class TestAnomalyOrdering:
    def test_partial_beats_max_on_hardy_but_not_on_chsh(self):
        # the incomparability signature: one monotone orders the pair one
        # way, another orders it the other way
        theta = 0.4387
        hardy_partial = optimize_yield(catalog.partial(theta), HardyScore(), restarts=6, seed=1).value
        hardy_max = optimize_yield(catalog.phi_plus(), HardyScore(), restarts=6, seed=1).value
        chsh_partial = optimize_yield(catalog.partial(theta), CHSH(), restarts=8, seed=1).value
        chsh_max = optimize_yield(catalog.phi_plus(), CHSH(), restarts=8, seed=1).value
        assert hardy_partial > 0.05
        assert hardy_max < 1e-6
        assert chsh_partial < chsh_max
