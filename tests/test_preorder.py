from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losrkit import (
    Bipartition,
    Direction,
    PureState,
    Reason,
    SchmidtSpectrum,
    catalog,
    catalytic_convertible,
    compare,
    factor_spectrum,
    rank_ratio_admissible,
    schmidt_spectrum,
    spectra_equal,
    verdict_to_text,
)
from losrkit.selftest import conjugate_state
from conftest import majorizes, random_pure, random_unitary
from oracles import factor_spectrum_bruteforce

AB = Bipartition(frozenset({0}), 2)


def spec(*vals):
    return SchmidtSpectrum(np.array(vals, dtype=float))


def random_spectrum(rng, rank):
    return np.sort(rng.dirichlet(np.ones(rank)))[::-1]


class TestSpectraEqual:
    def test_equal(self):
        assert spectra_equal(spec(0.5, 0.5), spec(0.5, 0.5))

    def test_same_rank_different_coefficients(self):
        assert not spectra_equal(spec(0.5, 0.5), spec(0.8, 0.2))

    def test_zero_padding_irrelevant(self):
        assert spectra_equal(spec(0.5, 0.5, 0.0), spec(0.5, 0.5))


class TestRankRatio:
    def test_examples(self):
        assert rank_ratio_admissible(4, 2) == 2
        assert rank_ratio_admissible(2, 4) is None
        assert rank_ratio_admissible(6, 2) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rank_ratio_admissible(0, 2)


class TestFactorSpectrum:
    def test_uniform_four_over_bell(self):
        res = factor_spectrum(spec(0.25, 0.25, 0.25, 0.25), spec(0.5, 0.5))
        assert res.found
        assert np.allclose(res.lambda_zeta.values, [0.5, 0.5], atol=1e-12)

    def test_identity_case(self, rng):
        lam = random_spectrum(rng, 4)
        res = factor_spectrum(spec(*lam), spec(*lam))
        assert res.found
        assert np.allclose(res.lambda_zeta.values, [1.0])

    def test_equal_rank_unequal_spectra(self):
        res = factor_spectrum(spec(0.5, 0.5), spec(0.8, 0.2))
        assert not res.found
        assert res.reason == Reason.FACTORIZATION_FAILED

    def test_constructed_tensor_recovers_factor(self):
        res = factor_spectrum(spec(0.64, 0.16, 0.16, 0.04), spec(0.8, 0.2))
        assert res.found
        assert np.allclose(res.lambda_zeta.values, [0.8, 0.2], atol=1e-12)

    def test_rank_ratio_failure_reason(self):
        res = factor_spectrum(spec(0.5, 0.5), spec(0.25, 0.25, 0.25, 0.25))
        assert not res.found
        assert res.reason == Reason.RANK_RATIO_NON_INTEGER

    def test_borderline_flag_near_tolerance(self):
        # a mismatch between eps_match and 10x eps_match is rejected but
        # flagged as a near-tolerance decision
        res = factor_spectrum(spec(0.5 + 2e-8, 0.5 - 2e-8), spec(0.5, 0.5))
        assert not res.found
        assert res.borderline
        far = factor_spectrum(spec(0.7, 0.3), spec(0.5, 0.5))
        assert not far.found and not far.borderline

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_soundness_on_constructed_instances(self, seed):
        rng = np.random.default_rng(seed)
        phi = random_spectrum(rng, int(rng.integers(1, 5)))
        zeta = random_spectrum(rng, int(rng.integers(1, 4)))
        psi = np.sort(np.kron(phi, zeta))[::-1]
        res = factor_spectrum(spec(*psi), spec(*phi))
        assert res.found
        recon = np.sort(np.kron(phi, res.lambda_zeta.values))[::-1]
        assert np.max(np.abs(recon - psi)) <= 1e-8

    def test_agrees_with_bruteforce(self, rng):
        # compressed version of the acceptance sweep (ranks capped at 6)
        for trial in range(60):
            if trial % 3 == 2:
                phi = random_spectrum(rng, int(rng.integers(1, 4)))
                psi = random_spectrum(rng, int(rng.integers(1, 7)))
            else:
                r_phi = int(rng.integers(1, 4))
                r_zeta = int(rng.integers(1, 6 // r_phi + 1))
                phi = random_spectrum(rng, r_phi)
                zeta = random_spectrum(rng, r_zeta)
                psi = np.sort(np.kron(phi, zeta))[::-1]
                if trial % 3 == 1:
                    psi = psi + rng.normal(0, 1e-4, psi.size)
                    psi = np.sort(np.abs(psi) / np.abs(psi).sum())[::-1]
            g = factor_spectrum(spec(*psi), spec(*phi))
            b = factor_spectrum_bruteforce(spec(*psi), spec(*phi))
            assert g.found == b.found
            if g.found:
                assert np.max(np.abs(g.lambda_zeta.values - b.lambda_zeta.values)) <= 1e-8


class TestCompareBipartite:
    def test_max_vs_partial_incomparable(self):
        v = compare(catalog.phi_plus(), catalog.partial(np.pi / 8))
        assert v.direction == Direction.INCOMPARABLE
        assert v.reason == Reason.DECIDED
        assert v.witness is None

    def test_max4_to_bell(self):
        v = compare(catalog.max_entangled(4), catalog.phi_plus())
        assert v.direction == Direction.PSI_TO_PHI_ONLY
        assert v.allows_forward()
        (beta, zeta), = v.witness
        assert np.allclose(zeta.values, [0.5, 0.5], atol=1e-9)

    def test_global_phase_equivalent(self, rng):
        psi = random_pure(rng, (2, 2))
        phase = PureState((2, 2), np.exp(1j * 0.7) * psi.amplitudes)
        assert compare(psi, phase).direction == Direction.EQUIVALENT

    def test_rejects_multipartite(self):
        # a bipartite state is never compared with a multipartite one
        for phi in (catalog.ghz(), catalog.two_bell()):
            with pytest.raises(ValueError, match="same number of parties"):
                compare(catalog.phi_plus(), phi)

    def test_equal_rank_trichotomy(self, rng):
        # states of equal Schmidt rank are equivalent or incomparable, never
        # strictly ordered
        for _ in range(40):
            r = int(rng.integers(2, 5))
            psi = catalog.state_with_spectrum(random_spectrum(rng, r))
            phi = catalog.state_with_spectrum(random_spectrum(rng, r))
            v = compare(psi, phi)
            assert v.direction in (Direction.EQUIVALENT, Direction.INCOMPARABLE)

    def test_losr_implies_locc_majorization(self, rng):
        # whenever the verdict allows psi -> phi, the classical-communication
        # order must allow it too (cumulative-sum dominance)
        seen_convertible = 0
        for _ in range(40):
            phi_s = random_spectrum(rng, int(rng.integers(1, 4)))
            zeta_s = random_spectrum(rng, int(rng.integers(1, 4)))
            psi = catalog.state_with_spectrum(np.sort(np.kron(phi_s, zeta_s))[::-1])
            phi = catalog.state_with_spectrum(phi_s)
            v = compare(psi, phi)
            if v.allows_forward():
                seen_convertible += 1
                l_psi = schmidt_spectrum(psi, AB).truncated()
                l_phi = schmidt_spectrum(phi, AB).truncated()
                assert majorizes(l_phi, l_psi)
        assert seen_convertible > 10


class TestMultipartite:
    def test_ghz_vs_two_bell(self):
        v = compare(catalog.ghz(), catalog.two_bell())
        assert v.direction == Direction.INCOMPARABLE
        assert v.forward.reason == Reason.RANK_RATIO_NON_INTEGER
        assert v.forward.blocked_at.label() == "A|BC"
        assert v.backward.reason == Reason.MARGINAL_CONTRADICTION

    def test_two_bell_vs_ghz_symmetric(self):
        v = compare(catalog.two_bell(), catalog.ghz())
        assert v.direction == Direction.INCOMPARABLE
        assert v.forward.reason == Reason.MARGINAL_CONTRADICTION
        assert v.backward.reason == Reason.RANK_RATIO_NON_INTEGER
        # the contradiction stems from required auxiliary ranks ((1/2,1/2),(1),(1))
        ranks = [z.rank() for _, z in v.forward.zetas]
        assert sorted(ranks) == [1, 1, 2]

    def test_same_state_necessary_passed_only(self):
        v = compare(catalog.ghz(), catalog.ghz())
        assert v.direction == Direction.INCONCLUSIVE
        assert v.reason == Reason.NECESSARY_PASSED_ONLY
        assert all(np.allclose(z.values, [1.0]) for _, z in v.witness)

    def test_chiral_vs_conjugate_inconclusive(self):
        psi = catalog.chiral()
        v = compare(psi, conjugate_state(psi))
        assert v.direction == Direction.INCONCLUSIVE
        assert v.reason == Reason.NECESSARY_PASSED_ONLY

    def test_party_count_mismatch(self):
        with pytest.raises(ValueError):
            compare(catalog.ghz(), catalog.phi_plus())

    def test_bipartite_rejected(self):
        # a multipartite state is never compared with a bipartite one
        for phi in (catalog.phi_plus(), catalog.partial(np.pi / 8), catalog.max_entangled(4)):
            with pytest.raises(ValueError, match="same number of parties"):
                compare(catalog.ghz(), phi)

    def test_rejects_single_party(self):
        single = PureState((2,), np.array([0.6, 0.8]))
        with pytest.raises(ValueError, match="at least 2 parties"):
            compare(single, single)

    def test_never_equivalent(self, rng):
        psi = random_pure(rng, (2, 2, 2))
        v = compare(psi, psi)
        assert v.direction != Direction.EQUIVALENT

    def test_four_parties_local_unitary_copy_inconclusive(self, rng):
        psi = random_pure(rng, (2, 2, 2, 2))
        u = reduce(np.kron, [random_unitary(rng, 2) for _ in range(4)])
        v = compare(psi, PureState((2, 2, 2, 2), u @ psi.amplitudes))
        assert (v.direction, v.reason) == (Direction.INCONCLUSIVE, Reason.NECESSARY_PASSED_ONLY)
        assert len(v.witness) == 7
        assert v.forward.reason == v.backward.reason == Reason.NECESSARY_PASSED_ONLY

    def test_four_parties_independent_states_incomparable(self, rng):
        psi = random_pure(rng, (2, 2, 2, 2))
        phi = random_pure(rng, (2, 2, 2, 2))
        v = compare(psi, phi)
        assert v.direction == Direction.INCOMPARABLE
        assert v.forward.ruled_out and v.backward.ruled_out


class TestCatalysis:
    def test_convertible_stays_convertible(self, rng):
        phi_s = random_spectrum(rng, 2)
        zeta_s = random_spectrum(rng, 2)
        psi = catalog.state_with_spectrum(np.sort(np.kron(phi_s, zeta_s))[::-1])
        phi = catalog.state_with_spectrum(phi_s)
        chi = catalog.state_with_spectrum(random_spectrum(rng, 3))
        assert compare(psi, phi).allows_forward()
        assert catalytic_convertible(psi, phi, chi)

    def test_max_vs_partial_never_catalyzed(self, rng):
        psi = catalog.phi_plus()
        phi = catalog.partial(np.pi / 8)
        for _ in range(10):
            chi = catalog.state_with_spectrum(random_spectrum(rng, int(rng.integers(2, 5))))
            assert not catalytic_convertible(psi, phi, chi)
            assert not catalytic_convertible(phi, psi, chi)

    def test_identity_conversion(self, rng):
        psi = catalog.state_with_spectrum(random_spectrum(rng, 3))
        chi = catalog.state_with_spectrum(random_spectrum(rng, 2))
        assert catalytic_convertible(psi, psi, chi)

    def test_sweep_matches_plain_convertibility(self, rng):
        for t in range(100):
            ranks = rng.integers(1, 5, size=3)
            if t % 2 == 0:
                phi_s = random_spectrum(rng, ranks[0])
                zeta_s = random_spectrum(rng, ranks[1])
                psi = catalog.state_with_spectrum(np.sort(np.kron(phi_s, zeta_s))[::-1])
                phi = catalog.state_with_spectrum(phi_s)
            else:
                psi = catalog.state_with_spectrum(random_spectrum(rng, ranks[0]))
                phi = catalog.state_with_spectrum(random_spectrum(rng, ranks[1]))
            chi = catalog.state_with_spectrum(random_spectrum(rng, max(2, ranks[2])))
            assert catalytic_convertible(psi, phi, chi) == compare(psi, phi).allows_forward()

    def test_rejects_multipartite(self):
        with pytest.raises(ValueError):
            catalytic_convertible(catalog.ghz(), catalog.ghz(), catalog.phi_plus())


class TestSerialization:
    def test_directional_verdict(self):
        v = compare(catalog.max_entangled(4), catalog.phi_plus())
        text = verdict_to_text(v)
        lines = text.splitlines()
        assert lines[0] == "PsiToPhiOnly Decided"
        assert lines[1].startswith("A|B: 0.5 0.5")

    def test_incomparable_with_reason(self):
        v = compare(catalog.ghz(), catalog.two_bell())
        text = verdict_to_text(v, long=True)
        assert text.splitlines()[0] == "Incomparable RankRatioNonInteger"
        assert "MarginalContradiction" in text

    def test_equivalent(self):
        v = compare(catalog.phi_plus(), catalog.phi_plus())
        assert verdict_to_text(v).splitlines()[0] == "Equivalent Decided"
