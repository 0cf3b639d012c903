"""Complex linear algebra for labeled multipartite states.

Pure states and density matrices carry an explicit tuple of local dimensions;
every operation (tensor products, partial traces, local channels, Schmidt
spectra, Born-rule boxes) is a pure function of its inputs.  All values are
immutable after construction and safe to share across threads.  Constructors
and rank cutoffs read ``config.current()``: a tolerance override holds for
the thread or task that made it, and a new thread starts from the defaults.

States derived from a validated state by arithmetic that keeps them valid --
``PureState.density()`` (the outer product of a unit vector is Hermitian, PSD
and of trace ||psi||^2) and both branches of ``permute_parties`` and
``group_parties`` (exact rearrangements of the entries) -- are built without
re-running the constructor checks.  Every other result (channel outputs,
partial traces, tensor products, file and literal input) is validated, since
its validity holds only within tolerances that add up.

Dense eigendecompositions cap the practical total dimension at a few thousand;
everything here is meant for desk-scale checks, not bulk simulation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import config
from .boxes import Box, _read_text, _write_text

# Auto-normalization threshold: small drifts are repaired with a warning,
# anything larger is treated as a malformed input rather than rescaled away.
NORM_REPAIR_LIMIT = 1e-3
# Entries per row block of the Hermiticity check, which holds three
# temporaries of one block's size (2**16 complex entries are 1 MiB).
_HERM_BLOCK_ENTRIES = 2**16


def _as_party_dims(party_dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in party_dims)
    if not dims:
        raise ValueError("party_dims must be nonempty")
    if any(d < 1 for d in dims):
        raise ValueError(f"party_dims must be positive, got {dims}")
    return dims


def _hermitian_deviation(mat: np.ndarray) -> float:
    """max |m_ij - conj(m_ji)|, compared in row blocks of bounded size."""
    n = mat.shape[0]
    rows = max(1, _HERM_BLOCK_ENTRIES // n)
    dev = 0.0
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        dev = max(dev, float(np.max(np.abs(mat[block] - mat[:, block].conj().T))))
    return dev


@dataclass(frozen=True, eq=False)
class PureState:
    """A pure state as a flat complex amplitude vector over labeled parties.

    Amplitudes are row-major over the computational basis of the party
    dimensions.  A squared norm off 1 by more than ``eps_norm`` is repaired
    (with a warning), so ``density()`` has unit trace within ``eps_norm``;
    a norm off 1 by more than ``NORM_REPAIR_LIMIT`` raises.
    """

    party_dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = _as_party_dims(self.party_dims)
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size != math.prod(dims):
            raise ValueError(f"amplitude length {amp.size} does not match dims {dims}")
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes must be finite")
        with np.errstate(over="ignore"):  # an overflowing norm is inf, refused below
            nrm = float(np.linalg.norm(amp))
        dev = abs(nrm - 1.0)
        if dev > NORM_REPAIR_LIMIT:
            raise ValueError(f"state norm {nrm:.6g} too far from 1 to repair")
        if abs(nrm * nrm - 1.0) > config.current().eps_norm:
            warnings.warn(f"renormalizing state (norm deviation {dev:.3g})")
            amp = amp / nrm
        amp.setflags(write=False)
        object.__setattr__(self, "party_dims", dims)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def n_parties(self) -> int:
        return len(self.party_dims)

    @property
    def total_dim(self) -> int:
        return self.amplitudes.size

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per party."""
        return self.amplitudes.reshape(self.party_dims)

    def density(self) -> DensityMatrix:
        return _derived(DensityMatrix, self.party_dims, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A density operator over labeled parties (Hermitian, unit trace, PSD)."""

    party_dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = _as_party_dims(self.party_dims)
        total = math.prod(dims)
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (total, total):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix entries must be finite")
        eps = config.current().eps_norm
        herm_dev = _hermitian_deviation(mat)
        if herm_dev > eps:
            raise ValueError(f"matrix not Hermitian (deviation {herm_dev:.3g})")
        tr_dev = abs(complex(np.trace(mat)) - 1.0)
        if tr_dev > eps:
            raise ValueError(f"trace deviates from 1 by {tr_dev:.3g}")
        # PSD within eps at every size: Cholesky of one shifted copy, factored in
        # place (the transpose is Fortran-ordered and, for a Hermitian matrix,
        # the conjugate, of equal spectrum); eigvalsh only names a failure.
        # scipy.linalg is imported here, so pure-state paths never load it.
        from scipy.linalg import lapack

        shifted = mat.T.copy(order="F")
        shifted[np.diag_indices(total)] += eps
        if lapack.zpotrf(shifted, lower=True, overwrite_a=True, clean=False)[1] != 0:
            lo = float(np.linalg.eigvalsh(mat)[0])
            if lo < -eps:
                raise ValueError(f"matrix has negative eigenvalue {lo:.3g}")
        mat.setflags(write=False)
        object.__setattr__(self, "party_dims", dims)
        object.__setattr__(self, "matrix", mat)

    @property
    def n_parties(self) -> int:
        return len(self.party_dims)

    @property
    def total_dim(self) -> int:
        return self.matrix.shape[0]


def _derived(cls, party_dims: tuple[int, ...], data: np.ndarray):
    """A ``PureState`` or ``DensityMatrix`` over ``data`` that is valid by
    construction, frozen like the constructor's output but not re-checked."""
    state = object.__new__(cls)
    data.setflags(write=False)
    object.__setattr__(state, "party_dims", party_dims)
    object.__setattr__(state, fields(cls)[1].name, data)
    return state


@dataclass(frozen=True)
class Bipartition:
    """A split of the parties into a nonempty proper subset and its complement."""

    left: frozenset[int]
    n_parties: int

    def __post_init__(self):
        left = frozenset(int(i) for i in self.left)
        n = int(self.n_parties)
        if not left or len(left) >= n:
            raise ValueError("left side must be a nonempty proper subset")
        if any(i < 0 or i >= n for i in left):
            raise ValueError(f"party index out of range for n={n}: {sorted(left)}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "n_parties", n)

    @property
    def right(self) -> frozenset[int]:
        return frozenset(range(self.n_parties)) - self.left

    def singleton(self) -> int | None:
        """The lone party index if either side is a singleton, else None."""
        if len(self.left) == 1:
            return next(iter(self.left))
        if len(self.right) == 1:
            return next(iter(self.right))
        return None

    def label(self) -> str:
        letters = lambda s: "".join(chr(ord("A") + i) for i in sorted(s))
        return f"{letters(self.left)}|{letters(self.right)}"

    @classmethod
    def parse(cls, text: str, n_parties: int) -> Bipartition:
        """Parse a label like ``A|BC`` (letters name parties, A = party 0)."""
        parts = text.strip().upper().split("|")
        if len(parts) != 2:
            raise ValueError(f"bipartition must contain exactly one '|': {text!r}")
        sides = []
        for side in parts:
            idx = set()
            for ch in side:
                i = ord(ch) - ord("A")
                if i < 0 or i >= n_parties:
                    raise ValueError(f"unknown party letter {ch!r} for n={n_parties}")
                idx.add(i)
            sides.append(idx)
        if sides[0] | sides[1] != set(range(n_parties)) or sides[0] & sides[1]:
            raise ValueError(f"{text!r} is not a partition of {n_parties} parties")
        return cls(frozenset(sides[0]), n_parties)


def all_bipartitions(n_parties: int) -> list[Bipartition]:
    """Every bipartition of n parties, one representative per complement pair.

    The canonical representative is the side containing party 0.
    """
    if n_parties < 2:
        raise ValueError("need at least 2 parties")
    out = []
    rest = list(range(1, n_parties))
    for mask in range(2 ** (n_parties - 1)):
        left = {0} | {rest[i] for i in range(n_parties - 1) if mask >> i & 1}
        if len(left) < n_parties:
            out.append(Bipartition(frozenset(left), n_parties))
    return out


@dataclass(frozen=True, eq=False)
class SchmidtSpectrum:
    """Descending vector of squared Schmidt coefficients across a bipartition."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.sort(np.asarray(self.values, dtype=float))[::-1].copy()
        eps = config.current().eps_norm
        if vals.size and vals[-1] < -eps:
            raise ValueError(f"spectrum entry {vals[-1]:.3g} below zero")
        np.clip(vals, 0.0, None, out=vals)
        if abs(vals.sum() - 1.0) > eps:
            raise ValueError(f"spectrum sums to {vals.sum():.9g}, not 1")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def rank(self) -> int:
        """Number of entries above the rank cutoff; there must be one."""
        return self.truncated().size

    def truncated(self) -> np.ndarray:
        """Entries above the rank cutoff, still descending; there must be one."""
        tau = config.current().tau_rank
        kept = self.values[self.values > tau]
        if not kept.size:
            raise ValueError(f"tau_rank {tau:g} removes every Schmidt coefficient (largest {self.values[0]:.10g})")
        return kept

    def tensor(self, other: SchmidtSpectrum) -> SchmidtSpectrum:
        return SchmidtSpectrum(np.multiply.outer(self.values, other.values).ravel())

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class LocalChannelFamily:
    """A classical mixture of tensor products of per-party CPTP maps.

    ``components`` is a tuple of ``(weight, per_party_kraus)`` pairs.  The
    constructor takes ``per_party_kraus[p]`` as a sequence of (possibly
    rectangular) Kraus operators for party p and stores it as one read-only
    ``(k, d_out, d_in)`` stack.  Rectangular operators change that party's
    local dimension; all components must agree on the dimensions.
    """

    components: tuple[tuple[float, tuple[np.ndarray, ...]], ...]

    def __post_init__(self):
        eps = config.current().eps_norm
        comps = []
        for weight, per_party in self.components:
            w = float(weight)
            if not np.isfinite(w):
                raise ValueError(f"mixing weight {w} is not finite")
            if w < -eps:
                raise ValueError(f"negative mixing weight {w}")
            stacks = []
            for kraus_list in per_party:
                ops = [np.asarray(k, dtype=complex) for k in kraus_list]
                if not ops:
                    raise ValueError("each party needs at least one Kraus operator")
                if ops[0].ndim != 2 or any(k.shape != ops[0].shape for k in ops):
                    raise ValueError("Kraus operators of one party must share a shape (d_out, d_in)")
                stack = np.stack(ops)
                if not np.all(np.isfinite(stack)):
                    raise ValueError("Kraus operators must be finite")
                flat = stack.reshape(-1, stack.shape[2])  # sum_k K_k^dagger K_k in one product
                if float(np.max(np.abs(flat.conj().T @ flat - np.eye(stack.shape[2])))) > eps:
                    raise ValueError("Kraus operators are not trace preserving")
                stack.setflags(write=False)
                stacks.append(stack)
            comps.append((w, tuple(stacks)))
            if [k.shape[1:] for k in stacks] != [k.shape[1:] for k in comps[0][1]]:
                raise ValueError("components disagree on channel dimensions")
        total = sum(w for w, _ in comps)
        if abs(total - 1.0) > eps:
            raise ValueError(f"mixing weights sum to {total:.9g}, not 1")
        object.__setattr__(self, "components", tuple(comps))

    @property
    def input_dims(self) -> tuple[int, ...]:
        return tuple(k.shape[2] for k in self.components[0][1])

    @property
    def output_dims(self) -> tuple[int, ...]:
        return tuple(k.shape[1] for k in self.components[0][1])

    @classmethod
    def identity(cls, dims) -> LocalChannelFamily:
        per_party = tuple((np.eye(int(d), dtype=complex),) for d in dims)
        return cls(((1.0, per_party),))

    @classmethod
    def from_local_kraus(cls, per_party_kraus) -> LocalChannelFamily:
        """A single tensor-product channel (no classical mixing)."""
        return cls(((1.0, tuple(tuple(ops) for ops in per_party_kraus)),))


def tensor_product(a: PureState, b: PureState) -> PureState:
    """Concatenate party lists and Kronecker the amplitudes."""
    return PureState(a.party_dims + b.party_dims, np.kron(a.amplitudes, b.amplitudes))


def permute_parties(state, perm) -> PureState | DensityMatrix:
    """Reorder parties so that new party i is old party ``perm[i]``."""
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(state.n_parties)):
        raise ValueError(f"perm {perm} is not a permutation of {state.n_parties} parties")
    new_dims = tuple(state.party_dims[p] for p in perm)
    if isinstance(state, PureState):
        t = state.tensor().transpose(perm)
        return _derived(PureState, new_dims, t.reshape(-1))
    n = state.n_parties
    t = state.matrix.reshape(state.party_dims * 2)
    t = t.transpose(tuple(perm) + tuple(n + p for p in perm))
    total = math.prod(new_dims)
    return _derived(DensityMatrix, new_dims, t.reshape(total, total))


def group_parties(state, groups) -> PureState | DensityMatrix:
    """Merge consecutive parties into composite parties.

    ``groups`` must list every current party index exactly once, in order;
    each group becomes one party whose dimension is the product of its
    members.  Amplitudes/matrix entries are unchanged.
    """
    flat = [i for g in groups for i in g]
    if flat != list(range(state.n_parties)):
        raise ValueError("groups must partition the parties in their current order")
    new_dims = tuple(math.prod(state.party_dims[i] for i in g) for g in groups)
    if isinstance(state, PureState):
        return _derived(PureState, new_dims, state.amplitudes)
    return _derived(DensityMatrix, new_dims, state.matrix)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every party not in ``keep`` (kept parties stay in order)."""
    keep = sorted({int(i) for i in keep})
    if not keep:
        raise ValueError("keep must be nonempty")
    if any(i < 0 or i >= rho.n_parties for i in keep):
        raise ValueError(f"keep indices out of range: {keep}")
    n = rho.n_parties
    # Column label n + i for a kept party, the row label i for a traced one.
    cols = [n + i if i in keep else i for i in range(n)]
    t = np.einsum(rho.matrix.reshape(rho.party_dims * 2), list(range(n)) + cols,
                  keep + [n + i for i in keep])
    new_dims = tuple(rho.party_dims[i] for i in keep)
    d = math.prod(new_dims)
    return DensityMatrix(new_dims, t.reshape(d, d))


def schmidt_spectrum(psi: PureState, beta: Bipartition) -> SchmidtSpectrum:
    """Squared Schmidt coefficients of ``psi`` across ``beta``, descending.

    The returned vector has one entry per dimension of the left side
    (trailing zeros included); the eigendecomposition itself runs on the
    smaller side of the split.
    """
    if beta.n_parties != psi.n_parties:
        raise ValueError("bipartition does not match the state's party count")
    left = sorted(beta.left)
    right = sorted(beta.right)
    t = psi.tensor().transpose(left + right)
    d_left = math.prod(psi.party_dims[i] for i in left)
    d_right = psi.total_dim // d_left
    m = t.reshape(d_left, d_right)
    if d_left <= d_right:
        evals = np.linalg.eigvalsh(m @ m.conj().T)
    else:
        evals = np.linalg.eigvalsh(m.conj().T @ m)
        evals = np.concatenate([np.zeros(d_left - d_right), evals])
    np.clip(evals, 0.0, None, out=evals)
    return SchmidtSpectrum(evals / evals.sum())


def _local_expectations(rho: DensityMatrix, stacks) -> np.ndarray:
    """T[k_1..k_n] = Tr[rho (stacks_1[k_1] x ... x stacks_n[k_n])] for
    ``(k_p, d_p, d_p)`` operator stacks, contracted one party at a time."""
    t = rho.matrix.reshape(rho.party_dims * 2)
    for m, ops in zip(range(rho.n_parties, 0, -1), stacks):
        t = np.tensordot(t, ops, axes=([0, m], [2, 1]))
    return t


def _stack_group(stacks) -> np.ndarray:
    """The Kraus stacks of a group of components as one ``(g, k, d_out, d_in)``
    array; shorter stacks are padded with zero operators, which add nothing."""
    if len(stacks) == 1:
        return stacks[0][None]
    out = np.zeros((len(stacks), max(map(len, stacks)), *stacks[0].shape[1:]), dtype=complex)
    for c, stack in enumerate(stacks):
        out[c, : len(stack)] = stack
    return out


def apply_channel(rho: DensityMatrix, ch: LocalChannelFamily) -> DensityMatrix:
    """Convex mixture over the family of the tensor-product channel action.

    The state is held as ``[row_0, col_0, row_1, col_1, ...]`` behind a batch
    axis over components.  Party by party, one step contracts the row/column
    pair at the front and appends the output pair at the back, so each step
    is a matrix product on contiguous data: the first step creates the batch
    axis and the last one sums it, with the mixing weights.

    One size rule picks each party's path.  With ``rest`` the number of
    entries over the other parties' axes, a ``(k, d_out, d_in)`` Kraus stack
    is applied as its superoperator sum_k K_k (x) conj(K_k) when
    ``d_out*d_in*(k + rest) < k*(d_out + d_in)*rest``, that is, when building
    it (k d_out^2 d_in^2 multiply-adds) and applying it (d_out^2 d_in^2 rest)
    costs less than the two Kraus products (k d_out d_in (d_out + d_in) rest).
    Otherwise the Kraus products are applied.

    Components go through in groups whose tensors, added up, are no larger
    than the largest tensor the Kraus products need for one component.  So
    batching never costs memory, and a family whose parties all take the
    Kraus path runs one component at a time.
    """
    if ch.input_dims != rho.party_dims:
        raise ValueError(
            f"channel input dims {ch.input_dims} do not match state dims {rho.party_dims}"
        )
    n, dims_in, dims_out = rho.n_parties, rho.party_dims, ch.output_dims
    weights = np.array([w for w, _ in ch.components])
    by_superop, kraus_need, need = [], 1, 1
    for p in range(n):
        k = max(len(per_party[p]) for _, per_party in ch.components)
        d_out, d_in = dims_out[p], dims_in[p]
        rest = math.prod(dims_out[:p]) ** 2 * math.prod(dims_in[p + 1 :]) ** 2
        by_superop.append(d_out * d_in * (k + rest) < k * (d_out + d_in) * rest)
        # Entries per component: the Kraus path's product and output, against
        # the chosen path's operator or product and its output (the last
        # party's output is summed over the group, not held per component).
        kraus_need = max(kraus_need, max(k * d_out * d_in, d_out * d_out) * rest)
        need = max(need, d_in * d_in * d_out * d_out if by_superop[p] else k * d_out * d_in * rest)
        if p < n - 1:
            need = max(need, d_out * d_out * rest)
    group = max(1, kraus_need // need)
    # [row_0, col_0, row_1, col_1, ...] as one batch entry
    x = rho.matrix.reshape(dims_in * 2).transpose([a for p in range(n) for a in (p, n + p)]).reshape(1, -1)
    out = None
    for start in range(0, len(weights), group):
        t, members = x, ch.components[start : start + group]
        for p in range(n):
            kraus = _stack_group([per_party[p] for _, per_party in members])
            # conj[g, k, d_in, d_out] = conj(K[g, k, d_out, d_in]), weighted on the first party
            conj = np.conjugate(kraus.transpose(0, 1, 3, 2), order="C")
            if p == 0:
                conj *= weights[start : start + group, None, None, None]
            (b, _), (g, k, d_out, d_in) = t.shape, kraus.shape
            if by_superop[p]:
                # sum_k K[a, c] conj(K[b, d]) as [(a, c), (d, b)], reordered to [(c, d), (a, b)]
                sup = kraus.reshape(g, k, -1).transpose(0, 2, 1) @ conj.reshape(g, k, -1)
                sup = sup.reshape(g, d_out, d_in, d_in, d_out).transpose(0, 2, 3, 1, 4).reshape(g, d_in * d_in, -1)
                t = t.reshape(b, d_in * d_in, -1)
                if p < n - 1:  # [g, rest, (c, d)] @ [g, (c, d), (a, b)]
                    t = (t.transpose(0, 2, 1) @ sup).reshape(g, -1)
                else:  # [rest, (g, c, d)] @ [(g, c, d), (a, b)]
                    if b < g:  # a single party: no batch axis was made, so sum the operators
                        sup = sup.sum(axis=0, keepdims=True)
                    t = t.reshape(-1, t.shape[2]).T @ sup.reshape(-1, d_out * d_out)
            else:
                # [g, k, row out, col in, rest]: the row's product, then the column's
                t = (kraus.reshape(g, k * d_out, d_in) @ t.reshape(b, d_in, -1)).reshape(g, k, d_out, d_in, -1)
                if p < n - 1:  # [g, rest, row out, (k, col in)] @ [g, (k, col in), col out]
                    t = t.transpose(0, 4, 2, 1, 3).reshape(g, -1, k * d_in) @ conj.reshape(g, -1, d_out)
                    t = t.reshape(g, -1)
                else:  # [rest, row out, (g, k, col in)] @ [(g, k, col in), col out]
                    t = t.transpose(4, 2, 0, 1, 3).reshape(-1, g * k * d_in) @ conj.reshape(-1, d_out)
        if out is None:
            out = t
        else:
            out += t
    del x, t
    d = math.prod(dims_out)
    out = out.reshape([e for q in dims_out for e in (q, q)]).transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])
    return DensityMatrix(dims_out, out.reshape(d, d))


def born_box(state: DensityMatrix, meas):
    """Born-rule box p(outcomes|settings) = Tr[rho (tensor of POVM elements)].

    ``meas`` is either an object exposing ``povms()`` or an array-like
    ``[party][setting][outcome]`` of POVM element matrices (one
    ``(settings, outcomes, d, d)`` array per party).
    """
    elements = meas.povms() if hasattr(meas, "povms") else meas
    if len(elements) != state.n_parties:
        raise ValueError("measurement party count does not match the state")
    stacks = []
    for p, povm in enumerate(elements):
        d = state.party_dims[p]
        povm = np.asarray(povm, dtype=complex)
        if povm.ndim != 4 or povm.shape[2:] != (d, d):
            raise ValueError(f"POVM element shape {povm.shape[2:]} != ({d},{d}) for party {p}")
        if float(np.max(np.abs(povm.sum(axis=1) - np.eye(d)))) > 1e-8:
            raise ValueError(f"POVM for party {p} does not sum to identity")
        stacks.append(povm)
    n = state.n_parties
    table = _local_expectations(state, [povm.reshape(-1, *povm.shape[2:]) for povm in stacks]).real
    # [x_1 a_1, ..., x_n a_n] -> [x_1, ..., x_n, a_1, ..., a_n]
    table = table.reshape([k for povm in stacks for k in povm.shape[:2]])
    table = table.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))
    return Box(table)


# ---------------------------------------------------------------------------
# Text file format, in the container of ``boxes._read_text``: the header holds
# the party dims, then one `re im` row per entry, row-major (amplitudes for pure
# states, matrix entries for density matrices -- told apart by the entry count).

def save_state(path, state: PureState | DensityMatrix) -> None:
    data = state.amplitudes if isinstance(state, PureState) else state.matrix.reshape(-1)
    _write_text(path, state.party_dims, zip(data.real, data.imag))


def load_state(path) -> PureState | DensityMatrix:
    def layout(head, n_rows):
        total = math.prod(_as_party_dims(head))
        if n_rows not in (total, total * total):
            raise ValueError(
                f"{path}: {n_rows} entries match neither a pure state ({total}) "
                f"nor a density matrix ({total * total})"
            )
        return 2, _re_im

    head, rows = _read_text(path, layout)
    dims = _as_party_dims(head)
    entries = rows.view(complex).reshape(-1)
    total = math.prod(dims)
    if entries.size == total:
        return PureState(dims, entries)
    return DensityMatrix(dims, entries.reshape(total, total))


def _re_im(i: int, tokens: list[str]) -> None:
    """A state row is ``re im``: unpacking names any other count."""
    re_s, im_s = tokens
