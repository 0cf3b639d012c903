import time
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    config,
    factor_spectrum,
    rank_ratio_admissible,
    schmidt_spectrum,
    spectra_equal,
    verdict_to_text,
)
from losrkit.preorder import _closest, _cut_product, _factor, _tensor_sorted
from losrkit.selftest import conjugate_state
from conftest import majorizes, random_pure, random_unitary
from oracles import factor_spectrum_bruteforce, factor_spectrum_scan, state_with_spectrum

AB = Bipartition(frozenset({0}), 2)


def spec(*vals):
    return SchmidtSpectrum(np.array(vals, dtype=float))


def random_spectrum(rng, rank):
    return np.sort(rng.dirichlet(np.ones(rank)))[::-1]


# A spectrum weight m * 10^-e, and lists of one to three of them.
_WEIGHT = st.builds(lambda m, e: m * 10.0**-e, st.integers(1, 9), st.integers(0, 6))
_WEIGHTS = st.lists(_WEIGHT, min_size=1, max_size=3)


def _normalized(weights) -> np.ndarray:
    """The descending spectrum proportional to ``weights``."""
    w = np.asarray(weights, dtype=float)
    return np.sort(w / w.sum())[::-1]


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


def _factor_pair(kind, perturbation, rng):
    """A (psi, phi) spectrum pair of the given kind, psi optionally perturbed
    by about eps_match: by uniform noise of 0.3 to 30 eps_match, or by
    dyadic steps moved between entries, which make exact ties."""
    if kind == "random":
        return random_spectrum(rng, int(rng.integers(1, 25))), random_spectrum(rng, int(rng.integers(1, 9)))
    factors = []
    for _ in range(2):
        r = int(rng.integers(1, 9))
        if kind == "random_tensor":
            w = random_spectrum(rng, r)
        elif kind == "uniform":
            w = np.ones(2 ** int(rng.integers(0, 4)))
        elif kind == "degenerate":
            w = np.repeat(rng.random(r) + 0.1, rng.integers(1, 4, size=r))
        else:  # integer ratios: many equal entries and equal products
            w = rng.integers(1, 5, size=r).astype(float)
        factors.append(w / w.sum())
    phi, zeta = factors
    psi = np.sort(np.kron(phi, zeta))[::-1]
    eps = config.current().eps_match
    if perturbation == "noise":
        psi = np.abs(psi + rng.uniform(-1, 1, psi.size) * eps * 10 ** rng.uniform(np.log10(0.3), np.log10(30)))
        psi /= psi.sum()
    elif perturbation == "dyadic" and psi.size > 1:
        step = 2.0 ** -int(rng.integers(24, 30))  # 1.9e-9 to 6e-8
        for _ in range(int(rng.integers(1, psi.size))):
            i, j = rng.choice(psi.size, size=2, replace=False)
            s = int(rng.integers(1, 3)) * step
            psi[i] += s
            psi[j] -= s
        psi = np.abs(psi)
    return psi, phi


class TestFactorSpectrumMatchesScan:
    """The bisection must return the scan's bits: same decision, reason,
    flag, residual and auxiliary spectrum."""

    @settings(max_examples=400, deadline=None)
    @given(
        kind=st.sampled_from(["random", "random_tensor", "uniform", "degenerate", "integer"]),
        perturbation=st.sampled_from([None, "noise", "dyadic"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_result_as_scan(self, kind, perturbation, seed):
        psi, phi = _factor_pair(kind, perturbation, np.random.default_rng(seed))
        for src, dst in ((psi, phi), (phi, psi)):
            new = factor_spectrum(spec(*src), spec(*dst))
            old = factor_spectrum_scan(spec(*src), spec(*dst))
            assert (new.found, new.reason, new.borderline) == (old.found, old.reason, old.borderline)
            assert np.array_equal(new.residual, old.residual)
            if old.lambda_zeta is None:
                assert new.lambda_zeta is None
            else:
                assert np.array_equal(new.lambda_zeta.values, old.lambda_zeta.values)

    def test_closest_is_argmin(self, rng):
        # Dyadic entries and targets make exact ties between neighbours and
        # runs of equal entries.  In the last case two distinct entries lie
        # at distances that round to the same float (ties to even).
        cases = []
        for _ in range(2000):
            asc = np.sort(rng.integers(-8, 9, size=int(rng.integers(1, 12))) / 8.0).tolist()
            cases.append((asc, float(rng.integers(-20, 21)) / 16.0))
        cases.append(([-(0.4375 + 2.0**-54), -0.4375], -(0.0625 + 2.0**-55)))
        for asc, x in cases:
            assert _closest(asc, x) == int(np.argmin(np.abs(np.array(asc) - x)))

    def test_spectrum_products_equal_kron(self, rng):
        for ra, rb in ((1, 1), (1, 5), (4, 3), (64, 64)):
            a, b = spec(*random_spectrum(rng, ra)), spec(*random_spectrum(rng, rb))
            assert np.array_equal(a.tensor(b).values, SchmidtSpectrum(np.kron(a.values, b.values)).values)
            assert np.array_equal(_tensor_sorted(a.values, b.values), np.sort(np.kron(a.values, b.values))[::-1])

    def test_catalysis_at_soft_cap_within_budget(self, rng):
        # (64, 64) states give tensored spectra of 4096 entries, the soft cap
        # on total dimension.  Entries stay within 2x of uniform, far above
        # the rank cutoff.
        def spectrum(r):
            w = 1.0 + rng.random(r)
            return np.sort(w / w.sum())[::-1]

        def state(lam):
            amp = np.zeros((64, 64))
            amp[np.arange(lam.size), np.arange(lam.size)] = np.sqrt(lam)
            return PureState((64, 64), amp.reshape(-1))

        phi_s = spectrum(32)
        psi = state(np.sort(np.kron(phi_s, spectrum(2)))[::-1])
        phi, chi = state(phi_s), state(spectrum(64))
        start = time.perf_counter()
        assert catalytic_convertible(psi, phi, chi)
        elapsed = time.perf_counter() - start
        assert elapsed <= 0.1, f"catalytic_convertible at 4096 entries took {elapsed:.3f} s"
        assert not catalytic_convertible(phi, psi, chi)


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
            psi = state_with_spectrum(random_spectrum(rng, r))
            phi = state_with_spectrum(random_spectrum(rng, r))
            v = compare(psi, phi)
            assert v.direction in (Direction.EQUIVALENT, Direction.INCOMPARABLE)

    def test_losr_implies_locc_majorization(self, rng):
        # whenever the verdict allows psi -> phi, the classical-communication
        # order must allow it too (cumulative-sum dominance)
        seen_convertible = 0
        for _ in range(40):
            phi_s = random_spectrum(rng, int(rng.integers(1, 4)))
            zeta_s = random_spectrum(rng, int(rng.integers(1, 4)))
            psi = state_with_spectrum(np.sort(np.kron(phi_s, zeta_s))[::-1])
            phi = state_with_spectrum(phi_s)
            v = compare(psi, phi)
            if v.allows_forward():
                seen_convertible += 1
                l_psi = schmidt_spectrum(psi, AB).truncated()
                l_phi = schmidt_spectrum(phi, AB).truncated()
                assert majorizes(l_phi, l_psi)
        assert seen_convertible > 10

    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).filter(lambda w: sum(w) > 0),
        shifts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
    )
    def test_pair_with_no_direction_ruled_out_is_equivalent(self, weights, shifts):
        # Spectra within 2 eps_match of each other, straddling the matching
        # tolerance: when both directions factor, the spectra match.
        lam = np.array(weights) / sum(weights)
        delta = np.array(shifts[: lam.size]) * config.current().eps_match
        mu = np.abs(lam + delta - delta.mean())
        v = compare(state_with_spectrum(lam), state_with_spectrum(mu / mu.sum()))
        if not (v.forward.ruled_out or v.backward.ruled_out):
            assert v.direction == Direction.EQUIVALENT


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
        psi = state_with_spectrum(np.sort(np.kron(phi_s, zeta_s))[::-1])
        phi = state_with_spectrum(phi_s)
        chi = state_with_spectrum(random_spectrum(rng, 3))
        assert compare(psi, phi).allows_forward()
        assert catalytic_convertible(psi, phi, chi)

    def test_max_vs_partial_never_catalyzed(self, rng):
        psi = catalog.phi_plus()
        phi = catalog.partial(np.pi / 8)
        for _ in range(10):
            chi = state_with_spectrum(random_spectrum(rng, int(rng.integers(2, 5))))
            assert not catalytic_convertible(psi, phi, chi)
            assert not catalytic_convertible(phi, psi, chi)

    def test_identity_conversion(self, rng):
        psi = state_with_spectrum(random_spectrum(rng, 3))
        chi = state_with_spectrum(random_spectrum(rng, 2))
        assert catalytic_convertible(psi, psi, chi)

    def test_sweep_matches_plain_convertibility(self, rng):
        for t in range(100):
            ranks = rng.integers(1, 5, size=3)
            if t % 2 == 0:
                phi_s = random_spectrum(rng, ranks[0])
                zeta_s = random_spectrum(rng, ranks[1])
                psi = state_with_spectrum(np.sort(np.kron(phi_s, zeta_s))[::-1])
                phi = state_with_spectrum(phi_s)
            else:
                psi = state_with_spectrum(random_spectrum(rng, ranks[0]))
                phi = state_with_spectrum(random_spectrum(rng, ranks[1]))
            chi = state_with_spectrum(random_spectrum(rng, max(2, ranks[2])))
            assert catalytic_convertible(psi, phi, chi) == compare(psi, phi).allows_forward()

    def test_rejects_multipartite(self):
        with pytest.raises(ValueError):
            catalytic_convertible(catalog.ghz(), catalog.ghz(), catalog.phi_plus())

    def test_small_products_are_not_cut(self):
        # Every entry of psi = phi (x) zeta and of chi is at least 1e-7, but
        # products of them fall below tau_rank; cutting the products made the
        # source keep 7 of its 8 entries and the target all 4.
        lam_phi, lam_zeta, lam_chi = (_normalized([1, x]) for x in (1e-4, 1e-3, 1e-4))
        lam_psi = np.sort(np.kron(lam_phi, lam_zeta))[::-1]
        psi, phi, chi = map(state_with_spectrum, (lam_psi, lam_phi, lam_chi))
        v = compare(psi, phi)
        assert (v.direction, v.reason) == (Direction.PSI_TO_PHI_ONLY, Reason.DECIDED)
        assert catalytic_convertible(psi, phi, chi)
        assert not catalytic_convertible(phi, psi, chi)
        # Two copies convert, since one does: 16 entries against 4.
        l_psi, l_phi = spec(*lam_psi), spec(*lam_phi)
        assert _factor(_cut_product(l_psi, l_psi), _cut_product(l_phi, l_phi)).found

    @settings(max_examples=150, deadline=None)
    @given(
        phi=_WEIGHTS, zeta=_WEIGHTS, other=_WEIGHTS,
        chi=st.lists(_WEIGHT, min_size=2, max_size=3), convertible=st.booleans(),
    )
    def test_catalysts_with_small_entries_never_change_the_verdict(self, phi, zeta, other, chi, convertible):
        # Entries m * 10^-e, so catalyst entries go down to about 1e-6 and
        # products of entries far below tau_rank.
        lam_phi = _normalized(phi)
        lam_psi = np.sort(np.kron(lam_phi if convertible else _normalized(other), _normalized(zeta)))[::-1]
        psi, phi_state = state_with_spectrum(lam_psi), state_with_spectrum(lam_phi)
        plain = compare(psi, phi_state)
        assume(not plain.borderline)
        assert catalytic_convertible(psi, phi_state, state_with_spectrum(_normalized(chi))) == plain.allows_forward()


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
