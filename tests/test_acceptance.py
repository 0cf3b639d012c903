"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned here
and nowhere else; expected values marked as derived are recomputed by the
independent oracles in this file and in `oracles.py` rather than trusted.
"""

import time
from contextlib import contextmanager

import numpy as np

from losrkit import (
    CHSH,
    Bipartition,
    FlagConstruction,
    HardyScore,
    MerminGHZ,
    NonlocalCertificate,
    LocalModel,
    TiltedCHSH,
    all_bipartitions,
    apply_channel,
    born_box,
    catalog,
    catalytic_convertible,
    compare,
    factor_spectrum,
    flag_roundtrip_check,
    forward_channel,
    hardy_grid_maximum,
    horodecki_chsh,
    local_membership,
    optimize_yield,
    sample_losr_channel,
    schmidt_spectrum,
    uniform_box,
)
from losrkit.preorder import Direction, Reason, SchmidtSpectrum
from losrkit.selftest import conjugate_state
from conftest import random_density, random_unitary
from oracles import deterministic_vertices, factor_spectrum_bruteforce, state_with_spectrum


@contextmanager
def criterion(number: int, summary: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {summary}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {summary} ({elapsed:.2f}s)")


def bip(left, n):
    return Bipartition(frozenset(left), n)


def spec(vals):
    return SchmidtSpectrum(np.asarray(vals, dtype=float))


def random_spectrum(rng, rank):
    return np.sort(rng.dirichlet(np.ones(int(rank))))[::-1]


def test_criterion_01_schmidt_regression():
    with criterion(1, "2Bell and GHZ spectra match the three-bipartition table"):
        start = time.perf_counter()
        tb, g = catalog.two_bell(), catalog.ghz()
        expected_tb = {
            frozenset({0}): [0.25, 0.25, 0.25, 0.25],
            frozenset({0, 2}): [0.5, 0.5],  # B|AC
            frozenset({0, 1}): [0.5, 0.5],  # C|AB
        }
        for left, vals in expected_tb.items():
            got = schmidt_spectrum(tb, bip(left, 3)).truncated()
            assert np.max(np.abs(got - np.array(vals))) <= 1e-9
        for beta in all_bipartitions(3):
            got = schmidt_spectrum(g, beta).truncated()
            assert np.max(np.abs(got - np.array([0.5, 0.5]))) <= 1e-9
        assert time.perf_counter() - start < 1.0


def test_criterion_02_chiral_spectra_and_insufficiency():
    with criterion(2, "chiral-state spectra and Inconclusive verdict against its conjugate"):
        psi = catalog.chiral()
        hi, lo = 0.5 + np.sqrt(5 / 32), 0.5 - np.sqrt(5 / 32)
        for beta in all_bipartitions(3):
            got = schmidt_spectrum(psi, beta).truncated()
            assert np.max(np.abs(got - np.array([hi, lo]))) <= 1e-9
        verdict = compare(psi, conjugate_state(psi))
        assert verdict.direction == Direction.INCONCLUSIVE
        assert verdict.reason == Reason.NECESSARY_PASSED_ONLY


def test_criterion_03_bipartite_incomparability():
    with criterion(3, "phi+ vs partial(theta) incomparable; max(4) -> phi+ with witness (1/2,1/2)"):
        phi = catalog.phi_plus()
        for theta in np.linspace(0.03, np.pi / 4 - 0.03, 20):
            v = compare(phi, catalog.partial(float(theta)))
            assert v.direction == Direction.INCOMPARABLE
        v = compare(catalog.max_entangled(4), phi)
        assert v.direction == Direction.PSI_TO_PHI_ONLY
        (beta, zeta), = v.witness
        assert np.max(np.abs(zeta.values - np.array([0.5, 0.5]))) <= 1e-9


def test_criterion_04_ghz_two_bell_incomparability():
    with criterion(4, "GHZ/2Bell incomparable: rank-ratio and marginal-contradiction blocks"):
        start = time.perf_counter()
        v = compare(catalog.ghz(), catalog.two_bell())
        assert v.direction == Direction.INCOMPARABLE
        assert v.forward.reason == Reason.RANK_RATIO_NON_INTEGER
        assert v.forward.blocked_at.label() == "A|BC"
        assert v.backward.reason == Reason.MARGINAL_CONTRADICTION
        ranks = sorted(z.rank() for _, z in v.backward.zetas)
        assert ranks == [1, 1, 2]
        assert time.perf_counter() - start < 1.0


def test_criterion_05_factorization_oracle_equivalence():
    with criterion(5, "greedy peeling equals brute-force enumeration on 200 random pairs"):
        start = time.perf_counter()
        rng = np.random.default_rng(5005)
        found_cases = not_found_cases = 0
        for trial in range(200):
            kind = trial % 4
            if kind in (0, 1):
                r_phi = int(rng.integers(1, 4))
                r_zeta = int(rng.integers(1, 6 // r_phi + 1))
                phi = random_spectrum(rng, r_phi)
                psi = np.sort(np.kron(phi, random_spectrum(rng, r_zeta)))[::-1]
                if kind == 1:  # perturb off the solvable manifold
                    psi = np.abs(psi + rng.normal(0, 1e-4, psi.size))
                    psi = np.sort(psi / psi.sum())[::-1]
            else:
                phi = random_spectrum(rng, int(rng.integers(1, 4)))
                psi = random_spectrum(rng, int(rng.integers(1, 7)))
            g = factor_spectrum(spec(psi), spec(phi))
            b = factor_spectrum_bruteforce(spec(psi), spec(phi))
            assert g.found == b.found, f"disagreement at trial {trial}"
            if g.found:
                found_cases += 1
                assert np.max(np.abs(g.lambda_zeta.values - b.lambda_zeta.values)) <= 1e-8
            else:
                not_found_cases += 1
        assert found_cases >= 40 and not_found_cases >= 40
        assert time.perf_counter() - start < 60.0


def test_criterion_06_catalysis_no_go():
    with criterion(6, "catalytic convertibility equals plain convertibility on 500 triples"):
        rng = np.random.default_rng(6006)
        convertible = 0
        for t in range(500):
            ranks = rng.integers(1, 5, size=3)
            if t % 2 == 0:
                phi_s = random_spectrum(rng, ranks[0])
                zeta_s = random_spectrum(rng, ranks[1])
                psi = state_with_spectrum(np.sort(np.kron(phi_s, zeta_s))[::-1])
                phi = state_with_spectrum(phi_s)
            else:
                psi = state_with_spectrum(random_spectrum(rng, ranks[0]))
                phi = state_with_spectrum(random_spectrum(rng, ranks[1]))
            chi = state_with_spectrum(random_spectrum(rng, max(2, int(ranks[2]))))
            plain = compare(psi, phi).allows_forward()
            assert catalytic_convertible(psi, phi, chi) == plain, f"counterexample at {t}"
            convertible += int(plain)
        assert convertible > 100


def test_criterion_07_chsh_yield():
    with criterion(7, "CHSH yield: Tsirelson on phi+, closed-form agreement on 50 states"):
        start = time.perf_counter()
        res = optimize_yield(catalog.phi_plus(), CHSH(), restarts=32, seed=777)
        assert abs(res.value - 2 * np.sqrt(2)) <= 1e-6
        rng = np.random.default_rng(7007)
        worst = 0.0
        for i in range(50):
            if i % 2 == 0:
                rho = random_density(rng, (2, 2))
            else:
                amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                from losrkit import PureState

                rho = PureState((2, 2), amp / np.linalg.norm(amp)).density()
            got = optimize_yield(rho, CHSH(), restarts=12, seed=777).value
            worst = max(worst, abs(got - horodecki_chsh(rho)))
        assert worst <= 1e-5
        assert time.perf_counter() - start < 120.0


def test_criterion_08_hardy_anomaly():
    with criterion(8, "Hardy: zero on phi+, grid max near 0.09017 via independent oracle"):
        res = optimize_yield(catalog.phi_plus(), HardyScore(), restarts=32, seed=888)
        assert res.value <= 1e-6

        theta_grid = np.linspace(0.05, np.pi / 4 - 0.02, 200)
        best_opt = 0.0
        for theta in theta_grid:
            v = optimize_yield(catalog.partial(float(theta)), HardyScore(), restarts=6, seed=888)
            best_opt = max(best_opt, v.value)
        # independent oracle: exact constraint solving on a measurement grid
        oracle_best, _ = hardy_grid_maximum(theta_grid, a0_points=120)
        assert abs(best_opt - 0.09017) <= 1e-3
        assert abs(oracle_best - 0.09017) <= 1e-3
        assert abs(best_opt - oracle_best) <= 1e-3


def test_criterion_09_mermin_realization():
    with criterion(9, "GHZ with X/Y measurements wins the parity game; box is nonlocal"):
        box = born_box(catalog.ghz().density(), catalog.xy_measurements(3))
        wins = MerminGHZ().setting_win_probabilities(box)
        assert set(wins) == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
        for p in wins.values():
            assert abs(p - 1.0) <= 1e-10
        assert isinstance(local_membership(box), NonlocalCertificate)


def test_criterion_10_flag_selftesting():
    with criterion(10, "flag construction round-trips for 10 randomized instances"):
        rng = np.random.default_rng(1010)
        bases = [catalog.phi_plus()] * 5 + [catalog.partial(np.pi / 8)] * 5
        saw_factorized = False
        for i, base in enumerate(bases):
            factorized = i % 5 == 4
            if factorized:
                dist = np.outer(rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2)))
            else:
                dist = rng.dirichlet(np.ones(4)).reshape(2, 2)
            fc = FlagConstruction(
                base,
                dist,
                (random_unitary(rng, 2), random_unitary(rng, 2)),
                (random_unitary(rng, 2), random_unitary(rng, 2)),
            )
            assert flag_roundtrip_check(fc)
            _, needs_sr = forward_channel(fc)
            if factorized:
                saw_factorized = True
                assert not needs_sr
        assert saw_factorized


def test_criterion_11_monotonicity():
    with criterion(11, "no monotonicity violation beyond 5e-4 over 100 channels x 3 states x 3 functionals"):
        start = time.perf_counter()
        rng = np.random.default_rng(1111)
        states = {
            "phi_plus": catalog.phi_plus().density(),
            "partial_pi8": catalog.partial(np.pi / 8).density(),
            "random_mixed": random_density(rng, (2, 2)),
        }
        functionals = {
            "chsh": (CHSH(), 32),
            "tilted_0.5": (TiltedCHSH(0.5), 32),
            "hardy": (HardyScore(), 24),
        }
        baselines = {
            (sname, fname): optimize_yield(rho, f, restarts=r, seed=1111).value
            for sname, rho in states.items()
            for fname, (f, r) in functionals.items()
        }
        worst = -np.inf
        for i in range(100):
            channel = sample_losr_channel((2, 2), seed=20000 + i)
            for sname, rho in states.items():
                out = apply_channel(rho, channel)
                for fname, (f, _) in functionals.items():
                    val = optimize_yield(out, f, restarts=6, seed=1111).value
                    excess = val - baselines[(sname, fname)]
                    worst = max(worst, excess)
                    assert excess <= 5e-4, (
                        f"monotonicity violation {excess:.2e} for {fname} on {sname}, channel {i}"
                    )
        elapsed = time.perf_counter() - start
        print(f"  worst monotonicity excess {worst:.2e}, {elapsed:.0f}s")
        assert elapsed < 600.0


def test_criterion_12_local_polytope():
    with criterion(12, "vertex CHSH bound, PR/Tsirelson nonlocal certificates, uniform local weights"):
        verts = deterministic_vertices((2, 2), (2, 2))
        assert len(verts) == 16
        assert max(CHSH().evaluate(v) for v in verts) <= 2 + 1e-8
        for box in (catalog.pr_box(), catalog.tsirelson_box()):
            cert = local_membership(box)
            assert isinstance(cert, NonlocalCertificate)
            f = cert.functional
            for v in verts:
                assert float(f @ v.table.reshape(-1)) <= cert.local_bound + 1e-9
            assert cert.value > cert.local_bound + 1e-9
        uni = uniform_box((2, 2), (2, 2))
        model = local_membership(uni)
        assert isinstance(model, LocalModel)
        recon = sum(w * v.table for w, v in zip(model.weights, verts))
        assert np.max(np.abs(recon - uni.table)) <= 1e-8
