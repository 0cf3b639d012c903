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

The PSD check of a checked density matrix is one Cholesky factorization:
numpy's up to 64 dimensions, so the mixed states of the monotones and
their channel outputs load no scipy module, and LAPACK's in-place zpotrf
from scipy.linalg, imported on first use, above.

Local operators meet a state in one layout, ``[row_0, col_0, row_1, col_1,
...]``, and one step, ``_party_step``: ``born_box``, ``apply_channel`` and
``monotones.pauli_expectations`` are each one step per party.

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
# Entries per row block of the Hermiticity check, which holds two temporaries
# of one block's size (2**14 complex entries are 256 KiB, so they stay in cache).
_HERM_BLOCK_ENTRIES = 2**14
# Entries of the largest matrix whose PSD check runs in numpy (n <= 64): its
# Cholesky makes two working copies of the matrix, 64 KiB each at most.
# numpy's factorization is slower than zpotrf at every size (1.6 to 3.6 times
# as long at n = 144), so it is kept to the monotones' mixed states and small
# flagged states.
_NUMPY_CHOLESKY_ENTRIES = 2**12


def _as_party_dims(party_dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in party_dims)
    if not dims:
        raise ValueError("party_dims must be nonempty")
    if any(d < 1 for d in dims):
        raise ValueError(f"party_dims must be positive, got {dims}")
    return dims


def _hermitian_deviation(mat: np.ndarray) -> float:
    """max |m_ij - conj(m_ji)|, compared in row blocks of bounded size.

    A row block is compared with its mirror only from its diagonal block on,
    so each pair outside the diagonal blocks is compared once."""
    n = mat.shape[0]
    rows = max(1, _HERM_BLOCK_ENTRIES // n)
    dev = 0.0
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        diff = mat[start:, block].conj()  # conj(m_ji) for j >= start, i in the block
        diff -= mat[block, start:].T  # minus m_ij
        dev = max(dev, float(np.max(np.abs(diff))))
    return dev


def _cholesky_succeeds(shifted: np.ndarray) -> bool:
    """Whether the Cholesky factorization of the lower triangle of the
    Fortran-ordered ``shifted`` succeeds (it may overwrite ``shifted``).

    A matrix of at most ``_NUMPY_CHOLESKY_ENTRIES`` entries is factored by
    numpy, so the mixed-state paths of small states load no scipy module.
    A larger one is factored in place by LAPACK's zpotrf, from scipy.linalg
    imported here on first use: numpy would make two more copies of the
    matrix and take 1.5 to 3 times as long.
    """
    if shifted.size <= _NUMPY_CHOLESKY_ENTRIES:
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return False
        return True
    from scipy.linalg import lapack

    return lapack.zpotrf(shifted, lower=True, overwrite_a=True, clean=False)[1] == 0


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
        # PSD within eps at every size: Cholesky of one shifted copy (the
        # transpose is Fortran-ordered and, for a Hermitian matrix, the
        # conjugate, of equal spectrum); eigvalsh only names a failure.
        shifted = mat.T.copy(order="F")
        shifted[np.diag_indices(total)] += eps
        if not _cholesky_succeeds(shifted):
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
        bad = [ch for ch in "".join(parts) if not 0 <= ord(ch) - ord("A") < n_parties]
        if bad:
            raise ValueError(f"unknown party letter {bad[0]!r} for n={n_parties}")
        left, right = ({ord(ch) - ord("A") for ch in side} for side in parts)
        if left | right != set(range(n_parties)) or left & right:
            raise ValueError(f"{text!r} is not a partition of {n_parties} parties")
        return cls(frozenset(left), n_parties)


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


def _interleaved(state: DensityMatrix | PureState) -> np.ndarray:
    """The density tensor as one batch entry ``[row_0, col_0, row_1, col_1,
    ...]``: one copy of a density matrix, or a pure state's outer product."""
    dims, n = state.party_dims, state.n_parties
    if isinstance(state, PureState):
        amp = state.amplitudes
        return (amp.reshape([e for d in dims for e in (d, 1)]) * amp.conj().reshape([e for d in dims for e in (1, d)])).reshape(1, -1)
    return state.matrix.reshape(dims * 2).transpose([a for p in range(n) for a in (p, n + p)]).reshape(1, -1)


def _party_step(t: np.ndarray, op: np.ndarray, right: np.ndarray | None = None, fold: bool = False) -> np.ndarray:
    """Contract the (row, col) pair at the front of ``t``, ``[b, row, col,
    rest]`` with b a batch over channel components, and append the output at
    the back: ``[g, rest, out]``, or with ``fold`` its sum over components.

    Without ``right``, ``op`` is ``(g, d*d, m)`` and output j sums
    t[row, col] op[(row, col), j].  With it, ``op`` is a ``(g, k, d_out, d)``
    Kraus stack and the output pair is sum_k K_k t right_k: row products
    written as ``[d_out, g, k, col, rest]``, then one column product per
    output row.  Each product reads through a transposed view and writes in
    place, so no step copies a rearranged tensor.
    """
    b = t.shape[0]
    if right is None:
        if fold and b < len(op):  # a single party: no batch axis was made, so sum the operators
            op = op.sum(axis=0, keepdims=True)
        t = t.reshape(b, op.shape[1], -1)
        if fold:
            t, op = t.reshape(1, -1, t.shape[2]), op.reshape(1, -1, op.shape[2])
        return t.transpose(0, 2, 1) @ op
    g, k, d_out, d = op.shape
    t = t.reshape(b, 1, d, -1)
    rest = t.shape[3] // d
    rows = np.empty((d_out, g, k, d * rest), dtype=complex)
    np.matmul(op, t, out=rows.transpose(1, 2, 0, 3))
    g = 1 if fold else g
    out = np.empty((g, rest, d_out, right.shape[3]), dtype=complex)
    rows = rows.reshape(d_out, g, -1, rest).transpose(0, 1, 3, 2)  # [row out, g, rest, (k, col)]
    np.matmul(rows, right.reshape(g, -1, right.shape[3]), out=out.transpose(2, 0, 1, 3))
    return out.reshape(g, rest, -1)


def apply_channel(rho: DensityMatrix, ch: LocalChannelFamily) -> DensityMatrix:
    """Convex mixture over the family of the tensor-product channel action,
    one ``_party_step`` per party: the first makes the batch axis over
    components and the last sums it, with the mixing weights.

    One size rule picks each party's path.  With ``rest`` the number of
    entries over the other parties' axes, a ``(k, d_out, d_in)`` Kraus stack
    is applied as its superoperator sum_k K_k (x) conj(K_k) when
    ``d_out*d_in*(k + rest) < k*(d_out + d_in)*rest``, that is, when building
    it (k d_out^2 d_in^2 multiply-adds) and applying it (d_out^2 d_in^2 rest)
    costs less than the two Kraus products (k d_out d_in (d_out + d_in) rest).

    Components go through in groups whose tensors, added up, are no larger
    than the largest tensor the Kraus products need for one component.  So
    batching never costs memory, and a family whose parties all take the
    Kraus path runs one component at a time.
    """
    if ch.input_dims != rho.party_dims:
        raise ValueError(f"channel input dims {ch.input_dims} do not match state dims {rho.party_dims}")
    n, dims_in, dims_out = rho.n_parties, rho.party_dims, ch.output_dims
    steps, kraus_need, need = [], 1, 1
    for p in range(n):
        # [component, k, d_out, d_in]: shorter stacks padded with zero operators, which add nothing
        stacks = [per_party[p] for _, per_party in ch.components]
        op = np.zeros((len(stacks), max(map(len, stacks)), *stacks[0].shape[1:]), dtype=complex)
        for c, stack in enumerate(stacks):
            op[c, : len(stack)] = stack
        # right[c, k, d_in, d_out] = conj(K[c, k, d_out, d_in]), weighted on the first party
        right = np.conjugate(op.transpose(0, 1, 3, 2), order="C")
        if p == 0:
            right *= np.array([w for w, _ in ch.components])[:, None, None, None]
        g, k, d_out, d_in = op.shape
        rest = math.prod(dims_out[:p]) ** 2 * math.prod(dims_in[p + 1 :]) ** 2
        if d_out * d_in * (k + rest) < k * (d_out + d_in) * rest:
            # sum_k K[a, c] conj(K[b, d]) as [(a, c), (d, b)], reordered to [(c, d), (a, b)]
            sup = (op.reshape(g, k, -1).transpose(0, 2, 1) @ right.reshape(g, k, -1)).reshape(g, d_out, d_in, d_in, d_out)
            steps.append((sup.transpose(0, 2, 3, 1, 4).reshape(g, d_in * d_in, -1), None))
            need = max(need, d_in * d_in * d_out * d_out)
        else:
            steps.append((op, right))
            need = max(need, k * d_out * d_in * rest)
        # Entries per component: the Kraus path's product and output, against
        # the chosen path's operator or product and its output (the last
        # party's output is summed over the group, not held per component).
        kraus_need = max(kraus_need, max(k * d_out * d_in, d_out * d_out) * rest)
        if p < n - 1:
            need = max(need, d_out * d_out * rest)
    group = max(1, kraus_need // need)
    out = None
    for start in range(0, len(ch.components), group):
        t, members = _interleaved(rho), slice(start, start + group)
        for p, (op, right) in enumerate(steps):
            t = _party_step(t, op[members], None if right is None else right[members], fold=p == n - 1)
        out = t if out is None else np.add(out, t, out=out)
    d = math.prod(dims_out)
    out = out.reshape([e for q in dims_out for e in (q, q)]).transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])
    return DensityMatrix(dims_out, out.reshape(d, d))


def born_box(state: DensityMatrix | PureState, meas) -> Box:
    """Born-rule box p(outcomes|settings) = Tr[rho (tensor of POVM elements)].

    ``state`` is a density matrix or a pure state, read as its density
    matrix.  ``meas`` is either an object exposing ``povms()`` or an
    array-like ``[party][setting][outcome]`` of POVM element matrices (one
    ``(settings, outcomes, d, d)`` array per party).

    Each party's POVM stack is one ``_party_step``, so no Kronecker product
    of the elements is built.
    """
    elements = meas.povms() if hasattr(meas, "povms") else meas
    if len(elements) != state.n_parties:
        raise ValueError("measurement party count does not match the state")
    shape, ops = [], []
    for p, povm in enumerate(elements):
        d = state.party_dims[p]
        povm = np.asarray(povm, dtype=complex)
        if povm.ndim != 4 or povm.shape[2:] != (d, d):
            raise ValueError(f"POVM element shape {povm.shape[2:]} != ({d},{d}) for party {p}")
        if np.abs(povm.sum(axis=1) - np.eye(d)).max() > 1e-8:
            raise ValueError(f"POVM for party {p} does not sum to identity")
        shape += povm.shape[:2]
        # [(row, col), (x, a)] = E_xa[col, row], so the step sums rho[row, col] E_xa[col, row]
        ops.append(povm.swapaxes(2, 3).reshape(-1, d * d).T[None])
    t = _interleaved(state)
    for op in ops:
        t = _party_step(t, op)
    n, table = len(ops), t.real.reshape(shape)
    # [x_1, a_1, ..., x_n, a_n] -> [x_1, ..., x_n, a_1, ..., a_n]
    return Box(table.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]))


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
