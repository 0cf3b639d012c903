import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from functools import reduce
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from losrkit import (
    Bipartition,
    DensityMatrix,
    LocalChannelFamily,
    MeasurementFamily,
    PureState,
    SchmidtSpectrum,
    all_bipartitions,
    apply_channel,
    born_box,
    catalog,
    config,
    group_parties,
    is_no_signaling,
    load_state,
    partial_trace,
    permute_parties,
    save_state,
    schmidt_spectrum,
    tensor_product,
)
from losrkit import states
from conftest import random_density, random_pure, random_unitary, run_fresh
from oracles import born_box_kron, state_with_spectrum

ROOT = Path(__file__).resolve().parents[1]

AB = Bipartition(frozenset({0}), 2)


def kron_all(ops):
    return reduce(np.kron, ops)


def bip(left, n):
    return Bipartition(frozenset(left), n)


class TestConstruction:
    def test_norm_repair_warns(self):
        with pytest.warns(UserWarning):
            psi = PureState((2,), np.array([1.0 + 5e-4, 0.0]))
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_density_of_state_just_inside_eps_norm_has_unit_trace(self):
        # A norm of 1 + 0.9 eps_norm is within eps_norm, but its square is not.
        eps = config.current().eps_norm
        with pytest.warns(UserWarning, match="renormalizing"):
            psi = PureState((2, 2), np.array([1, 0, 0, 1]) * (1 + 0.9 * eps) / np.sqrt(2))
        rho = psi.density()
        assert abs(np.trace(rho.matrix) - 1.0) <= eps
        DensityMatrix(rho.party_dims, rho.matrix)

    def test_norm_too_far_raises(self):
        with pytest.raises(ValueError):
            PureState((2,), np.array([1.1, 0.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PureState((2, 2), np.array([1.0, 0.0]))

    # 65536**4 = 2**64, which int64 arithmetic wraps to 0.
    def test_length_beyond_int64(self):
        with pytest.raises(ValueError, match="amplitude length 0 does not match"):
            PureState((65536,) * 4, [])

    def test_matrix_shape_beyond_int64(self):
        with pytest.raises(ValueError, match="matrix shape"):
            DensityMatrix((65536,) * 4, np.zeros((0, 0)))

    def test_empty_dims(self):
        with pytest.raises(ValueError):
            PureState((), np.array([1.0]))

    def test_density_invariants(self, rng):
        with pytest.raises(ValueError):
            DensityMatrix((2,), np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix((2,), np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix((2,), np.diag([1.5, -0.5]))  # negative eigenvalue

    def test_non_finite_amplitude_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PureState((2, 2), np.array([np.nan, 0.0, 0.0, 0.5]))

    def test_non_finite_density_entry_rejected(self):
        m = np.eye(4, dtype=complex) / 4
        m[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix((2, 2), m)

    def test_negative_eigenvalue_rejected_above_256(self):
        m = np.eye(512) / 512
        m[0, 1] = m[1, 0] = 0.01  # smallest eigenvalue about -0.008
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix((512,), m)

    @pytest.mark.parametrize("where", ["last_block", "block_boundary"])
    def test_asymmetric_entry_rejected_in_any_row_block(self, where):
        n = 500
        rows = states._HERM_BLOCK_ENTRIES // n
        assert 1 < rows < n and n % rows  # several row blocks, the last one short
        m = np.eye(n, dtype=complex) / n
        i, j = (n - 1, n - 2) if where == "last_block" else (rows, rows - 1)
        m[i, j] = 1e-3  # the mirror entry m[j, i] stays 0
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix((n,), m)

    # The PSD check factors with numpy up to _NUMPY_CHOLESKY_ENTRIES entries
    # and with scipy's zpotrf above; a verdict must not depend on the side.
    @pytest.mark.parametrize("side", [0, 1], ids=["numpy", "zpotrf"])
    def test_psd_verdicts_on_both_sides_of_the_size_rule(self, rng, side):
        n = math.isqrt(states._NUMPY_CHOLESKY_ENTRIES) + side
        eps = config.current().eps_norm
        u = random_unitary(rng, n)

        def rotated(spectrum):
            m = (u * spectrum) @ u.conj().T
            return (m + m.conj().T) / 2

        rest = np.linspace(1.0, 2.0, n - 1)
        with pytest.raises(ValueError, match=r"negative eigenvalue -2e-09"):
            DensityMatrix((n,), rotated(np.append(-2 * eps, rest * (1 + 2 * eps) / rest.sum())))
        DensityMatrix((n,), rotated(np.append(-eps / 2, rest * (1 + eps / 2) / rest.sum())))
        half = np.arange(n) % 2 * rest[0]
        DensityMatrix((n,), rotated(half / half.sum()))  # rank n // 2
        psi = u[:, 0]
        DensityMatrix((n,), np.outer(psi, psi.conj()))  # rank 1

    @pytest.mark.parametrize("n", [16, 257])
    def test_cholesky_reads_the_lower_triangle_on_both_paths(self, rng, n):
        # I + X is positive definite and I - X is not, for X = (J - I)/2 under
        # a diagonal unitary: eigenvalues -1/2 and (n - 1)/2.  A matrix whose
        # two triangles come from one each gets the lower one's verdict.
        assert (n * n <= states._NUMPY_CHOLESKY_ENTRIES) == (n == 16)
        phases = np.exp(2j * np.pi * rng.random(n))
        x = np.outer(phases, phases.conj()) * (np.ones((n, n)) - np.eye(n)) / 2
        definite, indefinite = np.eye(n) + x, np.eye(n) - x
        for lower, upper, verdict in [(definite, indefinite, True), (indefinite, definite, False)]:
            shifted = np.asfortranarray(np.tril(lower) + np.triu(upper, 1))
            assert states._cholesky_succeeds(shifted) == verdict

    def test_hermiticity_check_memory_bounded(self):
        # ru_maxrss is a high-water mark: the input is built without
        # temporaries and every page is written before the baseline reading.
        script = textwrap.dedent(
            """
            import math, resource
            import numpy as np
            from losrkit import DensityMatrix, states

            # Above the numpy size rule, as the check measured below, so that
            # scipy.linalg is imported before the baseline reading.
            w = math.isqrt(states._NUMPY_CHOLESKY_ENTRIES) + 1
            DensityMatrix((w,), np.eye(w) / w)
            n = 2048
            m = np.empty((n, n), dtype=complex)
            m.fill(0)
            m[np.diag_indices(n)] = 1 / n
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            DensityMatrix((n,), m)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print((after - before) * 1024 / m.nbytes)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) <= 1.3

    def test_spectrum_invariants(self):
        spec = SchmidtSpectrum(np.array([0.25, 0.5, 0.25]))
        assert list(spec.values) == [0.5, 0.25, 0.25]
        with pytest.raises(ValueError):
            SchmidtSpectrum(np.array([0.9, 0.2]))


class TestBipartition:
    def test_parse_and_label(self):
        beta = Bipartition.parse("A|BC", 3)
        assert beta.left == frozenset({0})
        assert beta.label() == "A|BC"
        assert Bipartition.parse("CA|B", 3).left == frozenset({0, 2})

    def test_parse_rejects_bad_partitions(self):
        with pytest.raises(ValueError):
            Bipartition.parse("A|B", 3)
        with pytest.raises(ValueError):
            Bipartition.parse("AB|BC", 3)
        with pytest.raises(ValueError):
            Bipartition.parse("ABC", 3)

    def test_all_bipartitions_count(self):
        assert len(all_bipartitions(2)) == 1
        assert len(all_bipartitions(3)) == 3
        assert len(all_bipartitions(4)) == 7

    def test_singleton(self):
        assert bip({0}, 3).singleton() == 0
        assert bip({0, 1}, 3).singleton() == 2
        assert bip({0, 1}, 4).singleton() is None


class TestTensorAndPermute:
    def test_basis_product(self):
        zero = PureState((2,), np.array([1.0, 0.0]))
        prod = tensor_product(zero, zero)
        assert prod.party_dims == (2, 2)
        assert np.allclose(prod.amplitudes, [1, 0, 0, 0])

    def test_trivial_party_is_identity(self, rng):
        psi = random_pure(rng, (2, 2))
        triv = PureState((1,), np.array([1.0]))
        out = tensor_product(psi, triv)
        assert out.party_dims == (2, 2, 1)
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_two_bell_from_phi_plus_pair(self):
        # phi+ (A1,B) x phi+ (A2,C), reordered to (A1,A2,B,C), grouped (A1A2|B|C)
        joint = tensor_product(catalog.phi_plus(), catalog.phi_plus())
        regrouped = group_parties(permute_parties(joint, (0, 2, 1, 3)), [(0, 1), (2,), (3,)])
        assert regrouped.party_dims == (4, 2, 2)
        assert np.allclose(regrouped.amplitudes, catalog.two_bell().amplitudes)

    def test_permute_roundtrip(self, rng):
        psi = random_pure(rng, (2, 3, 2))
        back = permute_parties(permute_parties(psi, (2, 0, 1)), (1, 2, 0))
        assert np.allclose(back.amplitudes, psi.amplitudes)

    def test_permute_density_matches_pure(self, rng):
        psi = random_pure(rng, (2, 3))
        swapped = permute_parties(psi, (1, 0))
        assert np.allclose(
            permute_parties(psi.density(), (1, 0)).matrix, swapped.density().matrix
        )


@st.composite
def rearranged_states(draw):
    """A seed, up to 3 party dims (total <= 64), a permutation and a grouping."""
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    n = len(dims)
    perm = tuple(draw(st.permutations(range(n))))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    bounds = [0, *cuts, n]
    groups = [tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    return draw(st.integers(0, 2**32 - 1)), dims, perm, groups


class TestDerivedStates:
    """density(), permute_parties and group_parties skip the constructor
    checks; each result must be one the constructor accepts unchanged."""

    @settings(max_examples=40, deadline=None)
    @given(case=rearranged_states())
    def test_constructor_accepts_derived_state_unchanged(self, case):
        seed, dims, perm, groups = case
        rng = np.random.default_rng(seed)
        psi = random_pure(rng, dims)
        derived = [psi.density()]
        for state in (psi, random_density(rng, dims)):
            derived += [permute_parties(state, perm), group_parties(state, groups)]
        for out in derived:
            if isinstance(out, PureState):
                data = out.amplitudes
                rebuilt = PureState(out.party_dims, data.copy()).amplitudes
            else:
                data = out.matrix
                rebuilt = DensityMatrix(out.party_dims, data.copy()).matrix
            assert np.array_equal(rebuilt, data)
            assert not data.flags.writeable


class TestPartialTrace:
    def test_phi_plus_marginal_maximally_mixed(self):
        red = partial_trace(catalog.phi_plus().density(), [0])
        assert np.allclose(red.matrix, np.eye(2) / 2)

    def test_product_state_reduces_pure(self, rng):
        psi = random_pure(rng, (2,))
        chi = random_pure(rng, (3,))
        rho = tensor_product(psi, chi).density()
        red = partial_trace(rho, [0])
        assert np.allclose(red.matrix, psi.density().matrix, atol=1e-12)

    def test_ghz_keep_first(self):
        red = partial_trace(catalog.ghz().density(), [0])
        assert np.allclose(red.matrix, np.diag([0.5, 0.5]))

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(catalog.ghz().density(), [])

    def test_matches_explicit_reference(self, rng):
        rho = random_density(rng, (2, 3, 2))
        expect = np.zeros((4, 4), dtype=complex)
        for j in range(3):
            bra = kron_all([np.eye(2), np.eye(3)[j:j + 1], np.eye(2)])
            expect += bra @ rho.matrix @ bra.conj().T
        red = partial_trace(rho, [0, 2])
        assert red.party_dims == (2, 2)
        assert np.max(np.abs(red.matrix - expect)) < 1e-12

    def test_trace_and_hermiticity_preserved(self, rng):
        for dims in [(2, 2), (2, 4, 2), (4, 4, 4)]:
            rho = random_density(rng, dims)
            keep = [0, len(dims) - 1] if len(dims) > 1 else [0]
            red = partial_trace(rho, keep)
            assert abs(np.trace(red.matrix) - 1.0) < 1e-12
            assert np.max(np.abs(red.matrix - red.matrix.conj().T)) < 1e-12


class TestSchmidtSpectrum:
    def test_phi_plus(self):
        spec = schmidt_spectrum(catalog.phi_plus(), AB)
        assert np.allclose(spec.values, [0.5, 0.5], atol=1e-12)

    def test_two_bell_regression(self):
        tb = catalog.two_bell()
        assert np.allclose(schmidt_spectrum(tb, bip({0}, 3)).values, [0.25] * 4, atol=1e-9)
        for left in ({0, 1}, {0, 2}):
            vals = schmidt_spectrum(tb, bip(left, 3)).truncated()
            assert np.allclose(vals, [0.5, 0.5], atol=1e-9)

    def test_chiral_all_bipartitions(self):
        psi = catalog.chiral()
        hi = 0.5 + np.sqrt(5 / 32)
        lo = 0.5 - np.sqrt(5 / 32)
        for beta in all_bipartitions(3):
            vals = schmidt_spectrum(psi, beta).truncated()
            assert np.allclose(vals, [hi, lo], atol=1e-9)

    def test_left_side_length_with_padding(self, rng):
        # left side dim 4, right dim 2: two genuine zeros retained
        psi = random_pure(rng, (4, 2))
        spec = schmidt_spectrum(psi, AB)
        assert len(spec) == 4
        assert spec.rank() <= 2

    def test_rank_examples(self):
        assert SchmidtSpectrum(np.array([0.5, 0.5])).rank() == 2
        assert SchmidtSpectrum(np.array([1.0])).rank() == 1
        assert SchmidtSpectrum(np.array([0.25] * 4)).rank() == 4
        with pytest.raises(ValueError):
            with config.override(tau_rank=0.0):
                SchmidtSpectrum(np.array([1.0])).rank()

    def test_rank_raises_when_cutoff_removes_every_entry(self):
        spec = schmidt_spectrum(catalog.two_bell(), bip({0}, 3))
        with config.override(tau_rank=0.3):
            with pytest.raises(ValueError, match="removes every Schmidt coefficient"):
                spec.rank()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3))
    def test_complement_spectra_agree(self, seed, n):
        rng = np.random.default_rng(seed)
        dims = tuple(int(rng.integers(2, 4)) for _ in range(n))
        psi = random_pure(rng, dims)
        for beta in all_bipartitions(n):
            comp = Bipartition(beta.right, n)
            with config.override(tau_rank=1e-12):
                left = schmidt_spectrum(psi, beta).truncated()
                right = schmidt_spectrum(psi, comp).truncated()
            assert abs(left.sum() - 1.0) < 1e-9
            assert len(left) == len(right)
            assert np.allclose(left, right, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_tensor_spectrum_is_tensor_of_spectra(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_pure(rng, (int(rng.integers(2, 5)), int(rng.integers(2, 5))))
        chi = random_pure(rng, (2, 2))
        joint = tensor_product(psi, chi)  # parties (A1, B1, A2, B2)
        beta = Bipartition(frozenset({0, 2}), 4)
        with config.override(tau_rank=1e-12):
            got = schmidt_spectrum(joint, beta).truncated()
        expect = np.sort(
            np.kron(
                schmidt_spectrum(psi, AB).values, schmidt_spectrum(chi, AB).values
            )
        )[::-1]
        expect = expect[expect > 1e-12]
        assert np.allclose(got, expect, atol=1e-9)


def random_kraus(rng, n_ops, d_out, d_in):
    """A Kraus stack from the blocks of a random isometry (n_ops * d_out >= d_in)."""
    g = rng.standard_normal((n_ops * d_out, d_in)) + 1j * rng.standard_normal((n_ops * d_out, d_in))
    q, _ = np.linalg.qr(g)
    return tuple(q[k * d_out : (k + 1) * d_out] for k in range(n_ops))


@st.composite
def channel_specs(draw):
    """Party dims in and out (1-4), Kraus counts per component and party
    (1-6, enough for an isometry), and a seed for the operators and state."""
    n = draw(st.integers(1, 3))
    dims_in = tuple(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    dims_out = tuple(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    n_ops = draw(st.lists(
        st.tuples(*[st.integers(-(-d_in // d_out), 6) for d_in, d_out in zip(dims_in, dims_out)]).map(list),
        min_size=1, max_size=4,
    ))
    return dims_in, dims_out, n_ops, draw(st.integers(0, 2**32 - 1))


def depolarizing_kraus(d: int = 2):
    paulis = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    return tuple(p / 2 for p in paulis)


class TestChannels:
    def test_non_finite_weight_or_kraus_rejected(self):
        ident = ((np.eye(2),), (np.eye(2),))
        with pytest.raises(ValueError, match="finite"):
            LocalChannelFamily(((np.nan, ident), (1.0, ident)))
        with pytest.raises(ValueError, match="finite"):
            LocalChannelFamily.from_local_kraus(((np.diag([1.0, np.nan]),), (np.eye(2),)))

    def test_identity(self, rng):
        rho = random_density(rng, (2, 2))
        out = apply_channel(rho, LocalChannelFamily.identity((2, 2)))
        assert np.allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_full_depolarizing_on_phi_plus(self):
        ch = LocalChannelFamily.from_local_kraus((depolarizing_kraus(), depolarizing_kraus()))
        out = apply_channel(catalog.phi_plus().density(), ch)
        assert np.allclose(out.matrix, np.eye(4) / 4, atol=1e-12)

    def test_matches_kronecker_reference(self, rng):
        def random_kraus(n_ops, d_out, d_in):
            g = rng.standard_normal((n_ops * d_out, d_in)) + 1j * rng.standard_normal((n_ops * d_out, d_in))
            q, _ = np.linalg.qr(g)
            return tuple(q[k * d_out:(k + 1) * d_out] for k in range(n_ops))

        rho = random_density(rng, (2, 3, 2))
        # Party 1 is mapped from a qutrit to a qubit, party 2 to a qutrit.
        components = tuple(
            (w, (random_kraus(2, 2, 2), random_kraus(3, 2, 3), random_kraus(1, 3, 2)))
            for w in (0.3, 0.7)
        )
        expect = np.zeros((12, 12), dtype=complex)
        for w, per_party in components:
            for ka in per_party[0]:
                for kb in per_party[1]:
                    for kc in per_party[2]:
                        k = kron_all([ka, kb, kc])
                        expect += w * (k @ rho.matrix @ k.conj().T)
        out = apply_channel(rho, LocalChannelFamily(components))
        assert out.party_dims == (2, 2, 3)
        assert np.max(np.abs(out.matrix - expect)) < 1e-12

    def test_dimension_mismatch(self):
        ch = LocalChannelFamily.identity((2, 2))
        with pytest.raises(ValueError):
            apply_channel(catalog.ghz().density(), ch)

    def test_ragged_or_empty_kraus_list_rejected(self):
        with pytest.raises(ValueError, match="must share a shape"):
            LocalChannelFamily.from_local_kraus(((np.eye(2), np.eye(3)), (np.eye(2),)))
        with pytest.raises(ValueError, match="at least one Kraus operator"):
            LocalChannelFamily.from_local_kraus(((), (np.eye(2),)))

    def test_dims_read_from_kraus_stacks(self):
        iso = np.eye(3, 2)  # qubit into a qutrit
        ch = LocalChannelFamily(((0.5, ((iso,), (np.eye(2),))), (0.5, ((iso,), (np.eye(2),)))))
        assert (ch.input_dims, ch.output_dims) == ((2, 2), (3, 2))
        stack = ch.components[0][1][0]
        assert stack.shape == (1, 3, 2) and not stack.flags.writeable

    def test_incomplete_kraus_rejected(self):
        half = (np.eye(2, dtype=complex) / 2,)
        with pytest.raises(ValueError):
            LocalChannelFamily.from_local_kraus((half, (np.eye(2, dtype=complex),)))

    def test_weights_must_sum_to_one(self):
        eye = (np.eye(2, dtype=complex),)
        with pytest.raises(ValueError):
            LocalChannelFamily(((0.5, (eye,)),))

    @pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
    def test_trace_preservation_tolerance(self, factor, accepted):
        # sum_k K_k^dagger K_k = (1 + delta) I, so the deviation is delta
        delta = factor * config.current().eps_norm
        ops = (np.sqrt((1 + delta) / 2) * np.eye(2), np.sqrt((1 + delta) / 2) * np.diag([1.0, -1.0]))
        make = lambda: LocalChannelFamily.from_local_kraus((ops, (np.eye(2),)))  # noqa: E731
        if accepted:
            make()
        else:
            with pytest.raises(ValueError, match="Kraus operators are not trace preserving"):
                make()

    @settings(max_examples=100, deadline=None)
    @given(channel_specs())
    # Which path each party takes, by the rule in the docstring of apply_channel:
    # both parties by superoperator (two qubits, 2-Kraus channels, 2 components)
    @example(((2, 2), (2, 2), [[2, 2], [2, 2]], 1))
    # Kraus products only: one qutrit, so three components go one at a time
    @example(((3,), (3,), [[1], [2], [3]], 2))
    # superoperator on party 0, Kraus products on party 1; rectangular stacks,
    # and party 0's stacks padded from 2 to 3 operators
    @example(((2, 4), (3, 4), [[2, 1], [3, 2]], 3))
    def test_matches_kronecker_sum_on_both_paths(self, spec):
        dims_in, dims_out, n_ops, seed = spec
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(len(n_ops)))
        components = tuple(
            (w, tuple(random_kraus(rng, k, d_out, d_in) for k, d_out, d_in in zip(ks, dims_out, dims_in)))
            for w, ks in zip(weights, n_ops)
        )
        rho = random_density(rng, dims_in)
        sides = []
        for p, (d_out, d_in) in enumerate(zip(dims_out, dims_in)):
            k = max(ks[p] for ks in n_ops)
            rest = np.prod(dims_out[:p], dtype=int) ** 2 * np.prod(dims_in[p + 1 :], dtype=int) ** 2
            sides.append("superoperator" if d_out * d_in * (k + rest) < k * (d_out + d_in) * rest else "kraus")
        event(" ".join(sides))
        expect = sum(
            w * (op @ rho.matrix @ op.conj().T)
            for w, per_party in components
            for op in map(kron_all, product(*per_party))
        )
        out = apply_channel(rho, LocalChannelFamily(components))
        assert out.party_dims == dims_out
        assert np.max(np.abs(out.matrix - expect)) < 1e-12

    def test_memory_bounded_on_a_large_state(self, rng):
        # (2, 256) under two components with a 2-Kraus channel on party 1:
        # the one-component-at-a-time Kraus contraction peaked at 8 times the
        # state's bytes, and batching components must not add to that.
        rho = DensityMatrix((2, 256), np.eye(512) / 512)
        ch = LocalChannelFamily(tuple((0.5, ((np.eye(2),), random_kraus(rng, 2, 256, 256))) for _ in range(2)))
        tracemalloc.start()
        try:
            out = apply_channel(rho, ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.party_dims == (2, 256)
        assert peak <= 8 * rho.matrix.nbytes

    @pytest.mark.slow
    def test_memory_at_the_cap(self):
        # (64, 64), one 2-Kraus component per party, so both parties take the
        # Kraus path.  Each product's input is freed once read, so at most the
        # step input and the 2-Kraus row product, or the row product and its
        # output, are alive: 3 times the state.
        seen = run_fresh("""
            import json, tracemalloc
            import numpy as np
            from losrkit import LocalChannelFamily, PureState, apply_channel

            rng = np.random.default_rng(5)
            amp = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
            rho = PureState((64, 64), amp / np.linalg.norm(amp)).density()
            kraus = []
            for _ in range(2):
                q = np.linalg.qr(rng.standard_normal((128, 64)) + 1j * rng.standard_normal((128, 64)))[0]
                kraus.append((q[:64], q[64:]))
            ch = LocalChannelFamily.from_local_kraus(kraus)
            tracemalloc.start()
            out = apply_channel(rho, ch)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            print(json.dumps({"ratio": peak / rho.matrix.nbytes, "trace": float(np.trace(out.matrix).real)}))
        """)
        assert abs(seen["trace"] - 1.0) < 1e-9
        assert seen["ratio"] <= 3.1


class TestBornBox:
    def test_phi_plus_computational(self):
        z0 = np.diag([1.0, 0.0]).astype(complex)
        z1 = np.diag([0.0, 1.0]).astype(complex)
        meas = [[[z0, z1], [z0, z1]], [[z0, z1], [z0, z1]]]
        box = born_box(catalog.phi_plus().density(), meas)
        for x in range(2):
            for y in range(2):
                for a in range(2):
                    for b in range(2):
                        expect = 0.5 if a == b else 0.0
                        assert abs(box.table[x, y, a, b] - expect) < 1e-12

    def test_product_state_box_factorizes(self, rng):
        psi = tensor_product(random_pure(rng, (2,)), random_pure(rng, (2,)))
        box = born_box(psi.density(), catalog.xy_measurements(2))
        for x in range(2):
            for y in range(2):
                joint = box.table[x, y]
                pa = joint.sum(axis=1)
                pb = joint.sum(axis=0)
                assert np.allclose(joint, np.outer(pa, pb), atol=1e-10)

    def test_random_boxes_no_signaling(self, rng):
        for _ in range(8):
            rho = random_density(rng, (2, 2))
            vecs = rng.standard_normal((2, 2, 3))
            vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
            box = born_box(rho, MeasurementFamily(vecs))
            assert is_no_signaling(box, 1e-10)

    def test_matches_kronecker_reference(self, rng):
        # Qutrit pair: three projective measurements with three outcomes each.
        qutrit_povm = []
        for _ in range(2):
            us = [random_unitary(rng, 3) for _ in range(3)]
            qutrit_povm.append([[np.outer(u[:, a], u[:, a].conj()) for a in range(3)] for u in us])
        vecs = rng.standard_normal((3, 2, 3))
        vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
        qubit_povm = MeasurementFamily(vecs).povms()
        cases = [((3, 3), qutrit_povm), ((2, 2, 2), qubit_povm), ((2, 3), [qubit_povm[0], qutrit_povm[1]])]
        for dims, meas in cases:
            rho = random_density(rng, dims)
            box = born_box(rho, meas)
            n = len(dims)
            for xs in np.ndindex(*(len(m) for m in meas)):
                for outs in np.ndindex(*(len(m[0]) for m in meas)):
                    op = kron_all([meas[p][xs[p]][outs[p]] for p in range(n)])
                    expect = np.trace(rho.matrix @ op).real
                    assert abs(box.table[xs + outs] - expect) < 1e-12

    def test_pure_state_reads_as_its_density(self):
        vecs = np.random.default_rng(3).standard_normal((2, 2, 3))
        fam = MeasurementFamily(vecs / np.linalg.norm(vecs, axis=-1, keepdims=True))
        psi = catalog.partial(0.4)
        assert np.array_equal(born_box(psi, fam).table, born_box(psi.density(), fam).table)

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(["two_qubits", "three_qubits", "qutrits"]), pure=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_kron_oracle(self, case, pure, seed):
        rng = np.random.default_rng(seed)
        if case == "qutrits":
            # Three projective measurements with three outcomes per party.
            dims = (3, 3)
            meas = []
            for _ in dims:
                us = [random_unitary(rng, 3) for _ in range(3)]
                meas.append([[np.outer(u[:, a], u[:, a].conj()) for a in range(3)] for u in us])
        else:
            dims = (2,) * (2 if case == "two_qubits" else 3)
            vecs = rng.standard_normal((len(dims), int(rng.integers(1, 4)), 3))
            meas = MeasurementFamily(vecs / np.linalg.norm(vecs, axis=-1, keepdims=True))
        state = random_pure(rng, dims) if pure else random_density(rng, dims)
        assert np.max(np.abs(born_box(state, meas).table - born_box_kron(state, meas).table)) <= 1e-14

    @pytest.mark.parametrize("pure", [False, True])
    def test_memory_on_ten_qubits(self, rng, pure):
        # The state in [row_0, col_0, ...] order and one party's output: twice
        # the density matrix's bytes, for a pure state too.
        psi = random_pure(rng, (2,) * 10)
        rho = psi.density()
        vecs = rng.standard_normal((10, 2, 3))
        meas = MeasurementFamily(vecs / np.linalg.norm(vecs, axis=-1, keepdims=True))
        tracemalloc.start()
        try:
            born_box(psi if pure else rho, meas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * rho.matrix.nbytes + 2**16

    def test_non_complete_povm_rejected(self):
        z0 = np.diag([1.0, 0.0]).astype(complex)
        meas = [[[z0, z0]], [[z0, z0]]]
        with pytest.raises(ValueError):
            born_box(catalog.phi_plus().density(), meas)


class TestCatalog:
    def test_defining_formulas_exact(self):
        r = 1 / np.sqrt(2)
        assert np.array_equal(catalog.phi_plus().amplitudes, np.array([r, 0, 0, r]))
        g = catalog.ghz().amplitudes
        assert g[0] == r and g[7] == r and np.all(g[1:7] == 0)
        th = 0.3
        assert np.allclose(
            catalog.partial(th).amplitudes, [np.cos(th), 0, 0, np.sin(th)], atol=0
        )
        assert abs(np.linalg.norm(catalog.chiral().amplitudes) - 1.0) < 1e-15

    def test_resolve_names_and_aliases(self):
        assert catalog.resolve("phi_plus").party_dims == (2, 2)
        assert catalog.resolve("partial(0.25)").party_dims == (2, 2)
        assert catalog.resolve("max_entangled(3)").party_dims == (3, 3)
        chi = catalog.resolve("chiral_appendix_d")
        assert np.array_equal(chi.amplitudes, catalog.chiral().amplitudes)
        from losrkit.boxes import Box

        assert isinstance(catalog.resolve("pr_box"), Box)
        with pytest.raises(KeyError):
            catalog.resolve("does_not_exist")

    def test_max_entangled_within_working_range(self):
        psi = catalog.resolve("max_entangled(64)")
        assert psi.party_dims == (64, 64)
        assert np.allclose(schmidt_spectrum(psi, Bipartition(frozenset({0}), 2)).values, 1 / 64, atol=1e-12)

    def test_max_entangled_beyond_working_range_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="'max_entangled\\(100000\\)'"):
                catalog.resolve("max_entangled(100000)")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_state_with_spectrum(self):
        psi = state_with_spectrum([0.7, 0.2, 0.1])
        spec = schmidt_spectrum(psi, Bipartition(frozenset({0}), 2))
        assert np.allclose(spec.values, [0.7, 0.2, 0.1], atol=1e-12)


class TestStateFiles:
    def test_pure_roundtrip(self, tmp_path, rng):
        psi = random_pure(rng, (2, 3))
        path = tmp_path / "state.txt"
        save_state(path, psi)
        back = load_state(path)
        assert isinstance(back, PureState)
        assert back.party_dims == psi.party_dims
        assert np.allclose(back.amplitudes, psi.amplitudes, atol=1e-15)

    def test_density_roundtrip(self, tmp_path, rng):
        rho = random_density(rng, (2, 2))
        path = tmp_path / "rho.txt"
        save_state(path, rho)
        back = load_state(path)
        assert isinstance(back, DensityMatrix)
        assert np.allclose(back.matrix, rho.matrix, atol=1e-15)

    def test_literal_file(self, tmp_path):
        path = tmp_path / "bell.txt"
        r = float(1 / np.sqrt(2))
        path.write_text(f"2 2\n{r!r} 0.0\n0.0 0.0\n0.0 0.0\n{r!r} 0.0\n")
        psi = load_state(path)
        assert np.allclose(psi.amplitudes, catalog.phi_plus().amplitudes)

    def test_bad_entry_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1.0 0.0\n0.0 0.0\n")
        with pytest.raises(ValueError):
            load_state(path)

    def test_density_load_memory_bounded(self, tmp_path):
        # (I + J) / 2048 over (32, 32): 2**20 entries in 19 MB of text, a 16 MiB
        # matrix.  Holding every line as a string and then a Python complex
        # raised ru_maxrss by about 160 MB; the block reader stays near the
        # matrix and the one copy the PSD check makes.
        n = 1024
        diag, off = f"{1 / n!r} 0.0\n", f"{0.5 / n!r} 0.0\n"
        path = tmp_path / "rho.txt"
        path.write_text("32 32\n" + "".join(off * i + diag + off * (n - 1 - i) for i in range(n)))
        seen = run_fresh(f"""
        import json, math, resource
        import numpy as np
        from losrkit import DensityMatrix, load_state, states

        # Above the numpy size rule, as the (32, 32) matrix, so that
        # scipy.linalg is imported before the baseline reading.
        w = math.isqrt(states._NUMPY_CHOLESKY_ENTRIES) + 1
        DensityMatrix((w,), np.eye(w) / w)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rho = load_state({str(path)!r})
        rise_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
        expect = (np.eye({n}) + np.ones(({n}, {n}))) / {2 * n}
        exact = bool(np.array_equal(rho.matrix, expect))
        print(json.dumps({{"rise_mb": rise_mb, "dims": rho.party_dims, "exact": exact}}))
        """)
        assert seen["dims"] == [32, 32] and seen["exact"]
        assert seen["rise_mb"] < 64

    @pytest.mark.parametrize(
        "body, named",
        [
            ("0.5 0.0 0.0\n0.5\n0.5 0.0\n0.5 0.0\n", "too many values to unpack"),
            ("0.5 0.0\n0.5\n0.5 0.0 0.0\n0.5 0.0\n", "not enough values to unpack"),
            ("0.5 0.0\n0.5 ;\n0.5 0.0\n0.5 0.0\n", "could not convert string to float: ';'"),
        ],
    )
    def test_row_lengths_checked_line_by_line(self, tmp_path, body, named):
        # Each file holds the 8 numbers a (2, 2) state needs, in rows of the wrong length
        path = tmp_path / "ragged.txt"
        path.write_text("2 2\n" + body)
        with pytest.raises(ValueError, match=named):
            load_state(path)


# The exact text the writer puts out, and its reload bit for bit.
_GOLDEN_STATES = [
    (catalog.phi_plus, "2 2\n0.7071067811865475 0.0\n0.0 0.0\n0.0 0.0\n0.7071067811865475 0.0\n"),
    (
        lambda: catalog.phi_plus().density(),
        "2 2\n0.4999999999999999 0.0\n0.0 0.0\n0.0 0.0\n0.4999999999999999 0.0\n"
        "0.0 0.0\n0.0 0.0\n0.0 0.0\n0.0 0.0\n0.0 0.0\n0.0 0.0\n0.0 0.0\n0.0 0.0\n"
        "0.4999999999999999 0.0\n0.0 0.0\n0.0 0.0\n0.4999999999999999 0.0\n",
    ),
]


@pytest.mark.parametrize("make, text", _GOLDEN_STATES, ids=["pure", "density"])
def test_saved_state_text_pinned(tmp_path, make, text):
    state = make()
    path = tmp_path / "state.txt"
    save_state(path, state)
    assert path.read_bytes() == text.encode()
    back = load_state(path)
    assert type(back) is type(state) and back.party_dims == state.party_dims
    data = (lambda s: s.amplitudes) if isinstance(state, PureState) else (lambda s: s.matrix)
    assert data(back).tobytes() == data(state).tobytes()
