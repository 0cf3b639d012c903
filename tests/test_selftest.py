import numpy as np
import pytest

from losrkit import (
    CHSH,
    Direction,
    FlagConstruction,
    HardyScore,
    all_bipartitions,
    apply_channel,
    backward_channel,
    catalog,
    closure_scan,
    conjugate_state,
    flag_mixed_state,
    flag_roundtrip_check,
    forward_channel,
    schmidt_spectrum,
)
from losrkit.cli import scan_text
from conftest import random_pure, random_unitary
from oracles import backward_kraus_kron

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_fc(rng, base, fa=2, fb=2, factorized=False):
    if factorized:
        dist = np.outer(rng.dirichlet(np.ones(fa)), rng.dirichlet(np.ones(fb)))
    else:
        dist = rng.dirichlet(np.ones(fa * fb)).reshape(fa, fb)
    ua = tuple(random_unitary(rng, base.party_dims[0]) for _ in range(fa))
    ub = tuple(random_unitary(rng, base.party_dims[1]) for _ in range(fb))
    return FlagConstruction(base, dist, ua, ub)


class TestFlagConstruction:
    def test_validates_unitaries(self):
        bad = np.array([[1, 0], [0, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            FlagConstruction(catalog.phi_plus(), np.array([[1.0]]), (bad,), (I2,))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_unitary_refused(self, entry):
        # NaN made the unitarity deviation NaN, which passed a "> eps" test
        bad = np.array([[1, 0], [0, entry]], dtype=complex)
        with pytest.raises(ValueError, match="non-unitary operator on side B"):
            FlagConstruction(catalog.phi_plus(), np.array([[1.0]]), (I2,), (bad,))

    def test_validates_distribution(self):
        with pytest.raises(ValueError):
            FlagConstruction(catalog.phi_plus(), np.array([[0.7]]), (I2,), (I2,))

    def test_needs_bipartite_base(self):
        with pytest.raises(ValueError):
            FlagConstruction(catalog.ghz(), np.array([[1.0]]), (I2,), (I2,))

    def test_unitaries_stored_as_read_only_stacks(self, rng):
        ua = [random_unitary(rng, 3) for _ in range(2)]
        fc = FlagConstruction(random_pure(rng, (3, 2)), np.full((2, 1), 0.5), ua, (I2,))
        assert fc.unitaries_a.shape == (2, 3, 3) and fc.unitaries_b.shape == (1, 2, 2)
        assert np.array_equal(fc.unitaries_a, np.stack(ua))
        for stack in (fc.unitaries_a, fc.unitaries_b):
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 0.0
        assert all(u.flags.writeable for u in ua)  # the caller's matrices are copied

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_ragged_unitaries_name_their_side(self, side):
        ragged = (I2, np.eye(3, dtype=complex))
        sides = (ragged, (I2,)) if side == "A" else ((I2,), ragged)
        dist = np.full((len(sides[0]), len(sides[1])), 0.5)
        with pytest.raises(ValueError, match=f"unitary on side {side} must be 2x2"):
            FlagConstruction(catalog.phi_plus(), dist, *sides)

    def test_dist_factorizes(self, rng):
        fc = random_fc(rng, catalog.phi_plus(), factorized=True)
        assert fc.dist_factorizes()
        fc2 = FlagConstruction(
            catalog.phi_plus(),
            np.array([[0.5, 0.0], [0.0, 0.5]]),
            (I2, X),
            (I2, Z),
        )
        assert not fc2.dist_factorizes()


class TestFlagMixedState:
    def test_point_distribution_identity_flags(self):
        fc = FlagConstruction(catalog.phi_plus(), np.array([[1.0]]), (I2,), (I2,))
        rho = flag_mixed_state(fc)
        assert rho.party_dims == (2, 2)  # flag registers are trivial here
        assert np.allclose(rho.matrix, catalog.phi_plus().density().matrix, atol=1e-12)

    def test_uniform_ix_iz_structure(self):
        fc = FlagConstruction(catalog.phi_plus(), np.full((2, 2), 0.25), (I2, X), (I2, Z))
        rho = flag_mixed_state(fc)
        assert rho.party_dims == (4, 4)
        evals = np.linalg.eigvalsh(rho.matrix)
        nonzero = evals[evals > 1e-12]
        # rank 4 with flat weights: four orthogonal pure blocks of weight 1/4
        assert len(nonzero) == 4
        assert np.allclose(nonzero, 0.25, atol=1e-12)
        purity = float(np.trace(rho.matrix @ rho.matrix).real)
        assert purity == pytest.approx(0.25, abs=1e-12)
        # flag registers alone are maximally mixed
        t = rho.matrix.reshape((2, 2, 2, 2) * 2)
        flag_marg = np.einsum("aibjakbl->ijkl", t).reshape(4, 4)
        assert np.allclose(flag_marg, np.eye(4) / 4, atol=1e-12)

    def test_each_flag_block_is_pure(self):
        fc = FlagConstruction(catalog.phi_plus(), np.full((2, 2), 0.25), (I2, X), (I2, Z))
        rho = flag_mixed_state(fc)
        # party layout (A, fA, B, fB); extract the conditional (A, B) block
        t = rho.matrix.reshape((2, 2, 2, 2) * 2)
        for i in range(2):
            for j in range(2):
                block = t[:, i, :, j, :, i, :, j].reshape(4, 4)
                w = float(np.trace(block).real)
                assert w == pytest.approx(0.25, abs=1e-12)
                sub = block / w
                assert float(np.trace(sub @ sub).real) == pytest.approx(1.0, abs=1e-10)

    def test_matches_kronecker_reference(self, rng):
        # sum_ij p_ij w_ij w_ij^dag with w_ij = ((U_i (x) |i>) (x) (V_j (x) |j>)) psi,
        # on a qubit-qutrit base with 3 x 2 flags and one zero-weight pair
        base = random_pure(rng, (2, 3))
        fc = random_fc(rng, base, fa=3, fb=2)
        dist = np.array(fc.dist)
        dist[1, 0] = 0.0
        fc = FlagConstruction(base, dist / dist.sum(), fc.unitaries_a, fc.unitaries_b)
        ref = np.zeros((36, 36), dtype=complex)
        for i in range(3):
            for j in range(2):
                iso_a = np.kron(fc.unitaries_a[i], np.eye(3)[:, [i]])
                iso_b = np.kron(fc.unitaries_b[j], np.eye(2)[:, [j]])
                w = np.kron(iso_a, iso_b) @ base.amplitudes
                ref += fc.dist[i, j] * np.outer(w, w.conj())
        rho = flag_mixed_state(fc)
        assert rho.party_dims == (6, 6)
        assert np.max(np.abs(rho.matrix - ref)) <= 1e-12

    def test_product_base_gives_separable_output(self, rng):
        base = catalog.partial(0.0)  # |00>, product across A|B
        fc = random_fc(rng, base)
        rho = flag_mixed_state(fc)
        d = rho.total_dim
        da = rho.party_dims[0]
        pt = (
            rho.matrix.reshape(da, d // da, da, d // da)
            .transpose(0, 3, 2, 1)
            .reshape(d, d)
        )
        assert np.linalg.eigvalsh(pt).min() >= -1e-10


class TestFlagChannels:
    def test_forward_channel_matches_direct_construction(self, rng):
        # dual route: channel application vs the explicit sum formula
        fc = random_fc(rng, catalog.phi_plus())
        fam, needs_sr = forward_channel(fc)
        assert needs_sr
        via_channel = apply_channel(fc.base_state.density(), fam)
        direct = flag_mixed_state(fc)
        assert np.max(np.abs(via_channel.matrix - direct.matrix)) <= 1e-12

    def test_joint_channel_has_one_component_per_alice_flag(self, rng):
        # flag 1 of Alice never occurs, and flag pairs (0, 2) and (2, 0) neither
        dist = np.array([[0.3, 0.1, 0.0], [0.0, 0.0, 0.0], [0.0, 0.2, 0.4]])
        fc = random_fc(rng, random_pure(rng, (2, 3)), fa=3, fb=3)
        fc = FlagConstruction(fc.base_state, dist, fc.unitaries_a, fc.unitaries_b)
        fam, needs_sr = forward_channel(fc)
        assert needs_sr
        assert [w for w, _ in fam.components] == pytest.approx([0.4, 0.6], abs=1e-15)
        via_channel = apply_channel(fc.base_state.density(), fam)
        assert np.max(np.abs(via_channel.matrix - flag_mixed_state(fc).matrix)) <= 1e-12
        assert flag_roundtrip_check(fc)

    def test_roundtrip_randomized(self, rng):
        for base in (catalog.phi_plus(), catalog.partial(np.pi / 8)):
            for _ in range(3):
                assert flag_roundtrip_check(random_fc(rng, base))

    def test_factorized_distribution_needs_no_shared_randomness(self, rng):
        fc = random_fc(rng, catalog.phi_plus(), factorized=True)
        fam, needs_sr = forward_channel(fc)
        assert not needs_sr
        assert len(fam.components) == 1
        assert flag_roundtrip_check(fc)

    def test_corrupted_backward_unitaries_fail(self, rng):
        fc = random_fc(rng, catalog.phi_plus())
        wrong = FlagConstruction(
            fc.base_state,
            fc.dist,
            tuple(random_unitary(rng, 2) for _ in range(2)),
            fc.unitaries_b,
        )
        rho = flag_mixed_state(fc)
        recovered = apply_channel(rho, backward_channel(wrong))
        target = fc.base_state.density().matrix
        assert np.max(np.abs(recovered.matrix - target)) > 1e-3

    def test_roundtrip_nontrivial_flag_sizes(self, rng):
        fc = random_fc(rng, catalog.partial(0.6), fa=3, fb=2)
        assert flag_roundtrip_check(fc)

    @pytest.mark.parametrize("factorized", [False, True], ids=["joint", "factorized"])
    @pytest.mark.parametrize("d, flags", [(2, 2), (3, 2), (3, 4), (3, 6)])
    def test_benchmark_flag_shapes_match_the_direct_construction(self, rng, d, flags, factorized):
        # the flag shapes of the decide benchmark, each way round
        fc = random_fc(rng, random_pure(rng, (d, d)), flags, flags, factorized)
        fam, needs_sr = forward_channel(fc)
        assert needs_sr is not factorized
        rho = flag_mixed_state(fc)
        assert np.max(np.abs(apply_channel(fc.base_state.density(), fam).matrix - rho.matrix)) <= 1e-12
        back = apply_channel(rho, backward_channel(fc))
        assert np.max(np.abs(back.matrix - fc.base_state.density().matrix)) <= 1e-12

    @pytest.mark.parametrize("fa, fb, factorized", [(2, 2, False), (2, 2, True), (3, 1, False), (1, 4, True)])
    def test_backward_kraus_are_the_explicit_adjoints(self, rng, fa, fb, factorized):
        fc = random_fc(rng, random_pure(rng, (3, 2)), fa, fb, factorized)
        ((weight, stacks),) = backward_channel(fc).components
        assert weight == 1.0
        for stack, oracle in zip(stacks, backward_kraus_kron(fc), strict=True):
            assert np.array_equal(stack, np.stack(oracle))


class TestConjugateState:
    def test_real_state_fixed(self):
        psi = catalog.phi_plus()
        assert np.allclose(conjugate_state(psi).amplitudes, psi.amplitudes)

    def test_involution(self, rng):
        psi = random_pure(rng, (2, 2, 2))
        assert np.allclose(conjugate_state(conjugate_state(psi)).amplitudes, psi.amplitudes)

    def test_preserves_all_schmidt_spectra(self, rng):
        for dims in [(2, 2), (2, 2, 2), (2, 3, 2)]:
            psi = random_pure(rng, dims)
            conj = conjugate_state(psi)
            for beta in all_bipartitions(len(dims)):
                a = schmidt_spectrum(psi, beta).values
                b = schmidt_spectrum(conj, beta).values
                assert np.max(np.abs(a - b)) <= 1e-10

    def test_chiral_spectra_match(self):
        psi = catalog.chiral()
        conj = conjugate_state(psi)
        for beta in all_bipartitions(3):
            assert np.allclose(
                schmidt_spectrum(psi, beta).values,
                schmidt_spectrum(conj, beta).values,
                atol=1e-10,
            )


class TestClosureScan:
    def test_chsh_scan_identifies_phi_plus(self):
        report = closure_scan(
            CHSH(),
            2 * np.sqrt(2),
            catalog.phi_plus(),
            [catalog.phi_plus(), catalog.partial(np.pi / 8), catalog.partial(0.0)],
            tol=1e-6,
            restarts=8,
            seed=3,
        )
        assert [e.is_reacher for e in report.entries] == [True, False, False]
        assert report.entries[0].converts is True
        assert report.satisfied and not report.box_unreachable

    def test_hardy_scan(self):
        hardy_state = catalog.partial(0.4387)
        report = closure_scan(
            HardyScore(),
            0.09,
            hardy_state,
            [catalog.phi_plus(), hardy_state],
            tol=1e-3,
            restarts=6,
            seed=3,
        )
        assert [e.is_reacher for e in report.entries] == [False, True]
        assert report.satisfied

    def test_unreachable_box_vacuously_satisfied(self):
        report = closure_scan(
            CHSH(),
            3.9,  # beyond any quantum box
            catalog.phi_plus(),
            [catalog.phi_plus(), catalog.partial(0.3)],
            tol=1e-6,
            restarts=6,
            seed=3,
        )
        assert report.box_unreachable and report.satisfied
        assert "unreachable" in "\n".join(scan_text(report))

    @pytest.mark.parametrize(
        "target_value, tol, named",
        [
            (np.nan, 1e-6, "target_value"),
            (np.inf, 1e-6, "target_value"),
            (-np.inf, 1e-6, "target_value"),
            (2.8, np.nan, "tol"),
            (2.8, np.inf, "tol"),
            (2.8, -1e-6, "tol"),
        ],
    )
    def test_threshold_must_be_finite(self, target_value, tol, named):
        # A NaN threshold would mark no candidate a reacher and report the
        # condition vacuously satisfied.
        with pytest.raises(ValueError, match=named):
            closure_scan(CHSH(), target_value, catalog.phi_plus(), [catalog.phi_plus()], tol=tol, restarts=2)

    def test_zero_tol_accepted(self):
        report = closure_scan(CHSH(), 2.0, catalog.phi_plus(), [catalog.phi_plus()], tol=0.0, restarts=4)
        assert report.entries[0].is_reacher and report.satisfied

    def test_tol_monotonicity(self):
        candidates = [catalog.phi_plus(), catalog.partial(np.pi / 8), catalog.partial(0.9 * np.pi / 4)]
        small = closure_scan(CHSH(), 2 * np.sqrt(2), catalog.phi_plus(), candidates,
                             tol=1e-6, restarts=8, seed=3)
        large = closure_scan(CHSH(), 2 * np.sqrt(2), catalog.phi_plus(), candidates,
                             tol=0.5, restarts=8, seed=3)
        small_set = {e.index for e in small.entries if e.is_reacher}
        large_set = {e.index for e in large.entries if e.is_reacher}
        assert small_set <= large_set

    def test_failing_condition_detected(self):
        # target strictly below phi+ in no direction: partial reaches its own
        # CHSH value but does not convert to an incomparable target
        theta = np.pi / 8
        target = catalog.partial(0.3)
        value = 2 * np.sqrt(1 + np.sin(2 * theta) ** 2)
        report = closure_scan(
            CHSH(), value, target, [catalog.partial(theta)], tol=1e-4, restarts=8, seed=3
        )
        assert report.entries[0].is_reacher
        assert report.entries[0].converts is False
        assert not report.satisfied

    def test_multipartite_reacher_is_undecided(self):
        from losrkit import MerminGHZ, PureState

        product = PureState((2, 2, 2), np.eye(8)[0])
        report = closure_scan(
            MerminGHZ(), 1.0, catalog.ghz(), [catalog.ghz(), product],
            tol=1e-6, restarts=6, seed=3,
        )
        assert report.entries[0].is_reacher
        assert report.entries[0].converts is None
        assert report.entries[0].direction == Direction.INCONCLUSIVE
        assert scan_text(report)[1].endswith(" 1 conversion_undecided")
        assert not report.entries[1].is_reacher
        # the necessary-condition check cannot certify conversion, so the
        # finite-set condition is honestly not satisfied
        assert not report.satisfied

    def test_multipartite_incomparable_reacher_pinned(self):
        from losrkit import MerminGHZ, PureState

        w_state = PureState((2, 2, 2), np.array([0, 1, 1, 0, 1, 0, 0, 0]) / np.sqrt(3))
        report = closure_scan(MerminGHZ(), 1.0, w_state, [catalog.ghz()], restarts=6, seed=3)
        assert scan_text(report)[1] == "0 1 1 no_conversion(Incomparable)"
        assert report.entries[0].converts is False
        assert not report.satisfied

    def test_party_count_mismatch_is_undecided(self):
        report = closure_scan(
            CHSH(), 2 * np.sqrt(2), catalog.ghz(), [catalog.phi_plus()], restarts=6, seed=3
        )
        assert scan_text(report)[1].endswith(" 1 conversion_undecided")
        assert report.entries[0].direction is None
        assert report.entries[0].converts is None
        assert not report.satisfied

    def test_report_text_table(self):
        report = closure_scan(
            CHSH(), 2 * np.sqrt(2), catalog.phi_plus(), [catalog.phi_plus()],
            tol=1e-6, restarts=6, seed=3,
        )
        lines = scan_text(report)
        assert lines[0] == "id yield reacher verdict"
        assert lines[1].startswith("0 2.8284271") and lines[1].endswith("1 converts")
