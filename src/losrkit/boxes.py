"""Multipartite boxes, the local polytope, and the Bell functionals.

A box is a dense conditional-probability table p(outcomes|settings).
Membership in the local polytope is decided by linear programming over the
deterministic-strategy vertices, by exact column generation, returning a
convex-weight certificate for local boxes and a separating hyperplane for
nonlocal ones.
"""

from __future__ import annotations

import functools
import io
import math
import operator
import os
from dataclasses import dataclass
from itertools import filterfalse, islice, product

import numpy as np

from . import config

# Outcome encoding used by every correlator: outcome 0 -> +1, outcome 1 -> -1.
def outcome_sign(a: int) -> int:
    return 1 - 2 * a


_PROB_FLOOR = -1e-12
# Slack on the Hardy zero constraints when scoring a box.  Optimized
# measurements meet them exactly up to rounding; the slack is for boxes read
# from files and for near-pure mixed states, where it decides the score.
_HARDY_SLACK = 1e-7
# Smallest separation-LP gap reported as nonlocal.  HiGHS's default primal
# and dual feasibility tolerances, 1e-7, would set the LP's resolution above
# it and report gaps up to about 3e-7 as local, so the LP solves at a tenth
# of the margin.
_MARGIN_EPS = 1e-9
_LP_TOL = _MARGIN_EPS / 10
# Entries of each array local_membership allocates per scenario: the pricing
# matrix, the LP matrix and the weights over all strategies.  2**25 float64
# entries are 256 MiB.
MAX_LP_ENTRIES = 2**25
# Largest |alpha| of TiltedCHSH.  Its coefficients add the CHSH part onto
# alpha/2, so the value's rounding error grows with |alpha|: 2.2e-11 at this
# cap on the Tsirelson box, 0.11 at 1e15, and by 1e17 the CHSH part is gone.
MAX_TILT = 1e6
# Entries parsed per block of a state or box file: a block's tokens live as
# Python strings, about 60 bytes each, only until its ``np.array`` call.
_TEXT_BLOCK_ENTRIES = 2**13


@dataclass(frozen=True, eq=False)
class Box:
    """p(outcomes|settings) for n parties as a dense real table.

    ``table`` has 2n axes indexed ``[x_1, ..., x_n, a_1, ..., a_n]``
    (settings first); the scenario is read from its shape.
    """

    table: np.ndarray

    def __post_init__(self):
        # A view, not a copy: freezing it leaves the caller's array writable.
        table = np.asarray(self.table, dtype=float).view()
        if table.ndim == 0 or table.ndim % 2 or 0 in table.shape:
            raise ValueError(f"box table needs 2n nonempty axes, settings first; got shape {table.shape}")
        if not np.all(np.isfinite(table)):
            raise ValueError("box table entries must be finite")
        if float(table.min()) < _PROB_FLOOR:
            raise ValueError(f"negative probability {table.min():.3g}")
        n = table.ndim // 2
        sums = table.sum(axis=tuple(range(n, 2 * n)))
        if float(np.max(np.abs(sums - 1.0))) > config.current().eps_norm:
            raise ValueError("some conditional distribution does not sum to 1")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @property
    def n_parties(self) -> int:
        return self.table.ndim // 2

    @property
    def settings_per_party(self) -> tuple[int, ...]:
        return self.table.shape[: self.n_parties]

    @property
    def outcomes_per_party(self) -> tuple[int, ...]:
        return self.table.shape[self.n_parties :]

    @property
    def shape(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self.settings_per_party, self.outcomes_per_party


def is_no_signaling(b: Box, eps: float = 1e-9) -> bool:
    """True iff every party's marginal is independent of the others' settings."""
    n = b.n_parties
    outcome_axes = tuple(range(n, 2 * n))
    for p in range(n):
        # marginal of party p's outcome: sum out all other outcomes
        other_out = tuple(ax for ax in outcome_axes if ax != n + p)
        marg = b.table.sum(axis=other_out)  # [x_1..x_n, a_p]
        # must not vary with any other party's setting
        other_set = tuple(q for q in range(n) if q != p)
        hi = marg.max(axis=other_set)
        lo = marg.min(axis=other_set)
        if float(np.max(hi - lo)) > eps:
            return False
    return True


def _strategy_onehot(index: np.ndarray, settings: int, outcomes: int) -> np.ndarray:
    """``(len(index), settings, outcomes)`` one-hot tables of one party's
    strategies: strategy k's outcome tuple over settings is the base-
    ``outcomes`` digits of k, first setting most significant."""
    digits = index[:, None] // outcomes ** np.arange(settings - 1, -1, -1) % outcomes
    return (digits[:, :, None] == np.arange(outcomes)).astype(float)


def _strategy_layout(settings: tuple[int, ...], outcomes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The one strategy layout of pricing and the LP rows: ``prefix``, the
    one-hot (strategies, settings x outcomes) Kronecker product of all parties
    but the last, so that a strategy's table in the interleaved order
    ``[x_1, a_1, ..., x_n, a_n]`` is a prefix row times the last party's
    one-hot; and ``perm``, the settings-first flat index of each interleaved
    entry."""
    n = len(settings)
    order = [ax for p in range(n) for ax in (p, n + p)]
    perm = np.arange(math.prod(settings + outcomes)).reshape(settings + outcomes).transpose(order).reshape(-1)
    prefix = functools.reduce(
        np.kron,
        (_strategy_onehot(np.arange(o**s), s, o).reshape(o**s, s * o) for s, o in zip(settings[:-1], outcomes[:-1])),
        np.ones((1, 1)),
    )
    return prefix, perm


def _lp_rows(prefix: np.ndarray, perm: np.ndarray, s: int, o: int, index: np.ndarray) -> np.ndarray:
    """The separation LP's constraint rows for the strategies numbered ``index``.

    Strategies run in lexicographic order, party 0 most significant: index
    k * o**s + j is prefix row k with strategy j of the last party (``s``
    settings, ``o`` outcomes), whose one-hot is built for the requested j
    only.  A row is the strategy's table, scattered settings-first through
    ``perm``, followed by -1, the coefficient of the LP's bound variable.
    """
    k, j = np.divmod(index, o**s)
    tables = prefix[k][:, :, None] * _strategy_onehot(j, s, o).reshape(len(index), 1, s * o)
    rows = np.empty((len(index), perm.size + 1))
    rows[:, -1] = -1.0
    rows[:, perm] = tables.reshape(len(index), -1)
    return rows


def _best_responses(
    f: np.ndarray, prefix: np.ndarray, perm: np.ndarray, s: int, o: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact pricing of every deterministic strategy against ``f``: for each
    prefix row the last party plays its best response to ``f[perm]`` (f in
    the interleaved order), one argmax per setting, giving the largest f.V
    over the vertices V sharing that prefix.  Returns those values and the
    vertices' indices."""
    g = (prefix @ f[perm].reshape(prefix.shape[1], s * o)).reshape(-1, s, o)
    last = g.argmax(axis=2) @ o ** np.arange(s - 1, -1, -1)
    return g.max(axis=2).sum(axis=1), np.arange(len(g)) * o**s + last


def _require_within_cap(b: Box, what: str, entries: int) -> None:
    if entries > MAX_LP_ENTRIES:
        raise ValueError(
            f"scenario {b.settings_per_party}/{b.outcomes_per_party}: the membership {what} "
            f"would hold {entries} entries (cap {MAX_LP_ENTRIES})"
        )


@dataclass(frozen=True, eq=False)
class LocalModel:
    """Convex weights over the deterministic strategies reproducing the box table.

    ``weights`` are the duals of the separation LP, a basic (sparse)
    solution indexed over all strategies; ``reconstruction_error`` is the
    verified max |V^T w - p|.  ``rounds`` counts the LP solves and
    ``columns`` the strategies the last LP held.
    """

    weights: np.ndarray
    reconstruction_error: float
    rounds: int
    columns: int


@dataclass(frozen=True, eq=False)
class NonlocalCertificate:
    """Hyperplane separating the box from the local polytope.

    ``functional . table <= local_bound`` holds on every deterministic
    vertex while ``functional . table = value > local_bound`` on the box.
    ``rounds`` and ``columns`` are as in ``LocalModel``.
    """

    functional: np.ndarray
    local_bound: float
    value: float
    rounds: int
    columns: int

    @property
    def margin(self) -> float:
        return self.value - self.local_bound


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call: only
    ``local_membership`` solves an LP, so no other path loads scipy.optimize."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def local_membership(b: Box) -> LocalModel | NonlocalCertificate:
    """Decide membership of ``b`` in the local polytope, with a certificate.

    The separation LP over (f, c): maximize the gap f.p - c subject to
    f.V_j <= c on every deterministic vertex V_j and -1 <= f <= 1.  It is
    solved by exact column generation: an LP over a subset of the vertex
    constraints, then pricing of every vertex (``_best_responses``), adding
    each best response that beats c, until none does.  Pricing and the LP
    rows read one strategy layout (``_strategy_layout``), built once per
    call.  The first LP holds every vertex when there are no more vertices
    than LP variables, and otherwise each prefix strategy's best response to
    f = p.

    ``local_bound`` is the exact maximum of f.V over all vertices, so a
    margin f.p - local_bound above ``_MARGIN_EPS`` is a NonlocalCertificate.
    Otherwise the last LP's duals on its vertex constraints are the convex
    weights: by strong duality they minimize ||V^T w - p||_1 over the
    simplex.  They form a basic solution, so few weights are nonzero.

    Refuses a scenario whose pricing matrix, LP matrix or weights would hold
    more than ``MAX_LP_ENTRIES`` entries, before allocating them.
    """
    if not is_no_signaling(b):
        raise ValueError("local_membership requires a no-signaling box")
    settings, outcomes = b.shape
    p_flat = b.table.reshape(-1)
    dim = p_flat.size
    n_verts = math.prod(o**s for s, o in zip(settings, outcomes))
    s, o = settings[-1], outcomes[-1]  # the party that pricing gives a best response
    n_prefix = n_verts // o**s
    all_at_once = n_verts <= dim + 1
    _require_within_cap(b, "pricing matrix", n_prefix * dim // (s * o))
    _require_within_cap(b, "LP matrix", (n_verts if all_at_once else n_prefix) * (dim + 1))
    _require_within_cap(b, "weight vector", n_verts)

    prefix, perm = _strategy_layout(settings, outcomes)
    kept = np.arange(n_verts) if all_at_once else _best_responses(p_flat, prefix, perm, s, o)[1]
    a_ub = _lp_rows(prefix, perm, s, o, kept)
    cost = np.concatenate([-p_flat, [1.0]])
    rounds = 0
    while True:
        res = linprog(
            cost,
            A_ub=a_ub,
            b_ub=np.zeros(len(a_ub)),
            bounds=[(-1, 1)] * dim + [(None, None)],
            method="highs",
            options={"primal_feasibility_tolerance": _LP_TOL, "dual_feasibility_tolerance": _LP_TOL},
        )
        rounds += 1
        if res.status != 0:
            raise RuntimeError(f"separation LP failed: {res.message}")
        f, c = res.x[:dim], res.x[dim]
        value, vertex = _best_responses(f, prefix, perm, s, o)
        # Kept vertices may exceed c within the solver's feasibility
        # tolerance; only a vertex not yet in the LP is a new column.
        new = vertex[(value > c + _MARGIN_EPS) & ~np.isin(vertex, kept)]
        if not new.size:
            break
        _require_within_cap(b, "LP matrix", (len(kept) + len(new)) * (dim + 1))
        kept = np.concatenate([kept, new])
        a_ub = np.vstack([a_ub, _lp_rows(prefix, perm, s, o, new)])

    bound, at_box = float(value.max()), float(f @ p_flat)
    if at_box - bound > _MARGIN_EPS:
        return NonlocalCertificate(f, bound, at_box, rounds, len(kept))
    w = np.clip(-res.ineqlin.marginals, 0.0, None)
    w /= w.sum()
    weights = np.zeros(n_verts)
    weights[kept] = w
    err = float(np.max(np.abs(a_ub[:, :dim].T @ w - p_flat)))
    return LocalModel(weights, err, rounds, len(kept))


# ---------------------------------------------------------------------------
# Bell functionals


def _require_shape(b: Box, shape: tuple[int, ...], name: str) -> None:
    if b.table.shape != shape:
        n = len(shape) // 2
        raise ValueError(f"{name} expects scenario {shape[:n]}/{shape[n:]}, got {b.shape}")


class _LinearFunctional:
    """A functional linear in the box table, given by ``coefficients()``, a
    tensor of the table's shape; its scenario is read from that shape."""

    def _weighted(self, box: Box) -> np.ndarray:
        c = self.coefficients()
        _require_shape(box, c.shape, type(self).__name__)
        return c * box.table

    def evaluate(self, box: Box) -> float:
        return float(np.sum(self._weighted(box)))


@dataclass(frozen=True)
class CHSH(_LinearFunctional):
    """E00 + E01 + E10 - E11 with +/-1 outcome correlators."""

    def coefficients(self) -> np.ndarray:
        c = np.zeros((2, 2, 2, 2))
        for x, y, a, b in product(range(2), repeat=4):
            sign = -1 if (x, y) == (1, 1) else 1
            c[x, y, a, b] = sign * outcome_sign(a) * outcome_sign(b)
        return c


@dataclass(frozen=True)
class TiltedCHSH(_LinearFunctional):
    """alpha <A0> + CHSH; the marginal term is averaged over Bob's settings."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if abs(self.alpha) > MAX_TILT:
            raise ValueError(f"|alpha| must be at most {MAX_TILT:g}, got {self.alpha}")

    def coefficients(self) -> np.ndarray:
        c = CHSH().coefficients()
        for y, a, b in product(range(2), repeat=3):
            c[0, y, a, b] += self.alpha * outcome_sign(a) / 2.0
        return c


@dataclass(frozen=True)
class HardyScore:
    """Success probability of Hardy's argument, gated by its zero constraints.

    Convention: constraints p(0,0|0,1) = p(0,0|1,0) = p(1,1|1,1) = 0, the
    objective is p(0,0|0,0).  Labelings differ across the literature; all
    results here are internal to this convention, which the closed-form
    Hardy yield also builds its measurements for, so it is fixed.
    """

    ZERO_ENTRIES = ((0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1))
    OBJECTIVE_ENTRY = (0, 0, 0, 0)

    def constraint_violation(self, box: Box) -> float:
        _require_shape(box, (2, 2, 2, 2), "HardyScore")
        return float(max(box.table[e] for e in self.ZERO_ENTRIES))

    def evaluate(self, box: Box) -> float:
        """The objective probability if all zero constraints hold, else 0.
        Rounding can leave the entry slightly below 0; it is reported as 0."""
        if self.constraint_violation(box) > _HARDY_SLACK:
            return 0.0
        return max(0.0, float(box.table[self.OBJECTIVE_ENTRY]))


@dataclass(frozen=True)
class MerminGHZ(_LinearFunctional):
    """Mean probability, over the four even-parity settings, that the
    outcome parity matches the OR of the settings (a+b+c = x|y|z mod 2)."""

    def coefficients(self) -> np.ndarray:
        c = np.zeros((2,) * 6)
        for x, y, z in product(range(2), repeat=3):
            if (x + y + z) % 2:
                continue
            for a, b, o in product(range(2), repeat=3):
                if (a + b + o) % 2 == (x | y | z):
                    c[x, y, z, a, b, o] = 0.25
        return c

    def setting_win_probabilities(self, box: Box) -> dict[tuple[int, int, int], float]:
        """Per-setting success probabilities on the four even-parity settings."""
        wins = 4 * np.sum(self._weighted(box), axis=(3, 4, 5))
        return {xyz: float(wins[xyz]) for xyz in product(range(2), repeat=3) if sum(xyz) % 2 == 0}


BellFunctional = CHSH | TiltedCHSH | HardyScore | MerminGHZ


def mix_boxes(b1: Box, b2: Box, t: float) -> Box:
    """(1-t) b1 + t b2 for boxes of the same scenario."""
    if b1.table.shape != b2.table.shape:
        raise ValueError("boxes live in different scenarios")
    return Box((1.0 - t) * b1.table + t * b2.table)


def uniform_box(settings_per_party, outcomes_per_party) -> Box:
    settings = tuple(int(s) for s in settings_per_party)
    outcomes = tuple(int(o) for o in outcomes_per_party)
    if len(settings) != len(outcomes):
        raise ValueError("settings/outcomes lists must have one entry per party")
    table = np.full(settings + outcomes, 1.0 / math.prod(outcomes))
    return Box(table)


# ---------------------------------------------------------------------------
# The one text container of state and box files: a header line of integers,
# then one row of space-separated floats per line; blank lines are skipped.
# Box files: header `n_parties settings... outcomes...`, then one row per
# settings tuple (lexicographic), its distribution in lexicographic outcome order.

def _read_text(path, layout) -> tuple[tuple[int, ...], np.ndarray]:
    """The header's integers and the body rows as one ``(rows, width)`` array.

    A first pass counts the non-blank body lines.  ``layout(header, rows)``
    then runs the caller's header and count checks and returns ``(width,
    check_row)``, and only after it has passed is the array allocated and
    filled, one ``np.array`` call per block of lines.  ``check_row(i,
    tokens)`` raises the caller's message for a row of the wrong length; a
    block that does not parse is read again line by line, so the first bad
    row in file order raises that message or ``float``'s own.
    """
    with open(path) as fh:
        # A pipe, which can be read only once, and a file no larger than one
        # block's floats are read whole; the two passes then run in memory.
        size = os.fstat(fh.fileno()).st_size if fh.seekable() else None
        if size is None or size <= 8 * _TEXT_BLOCK_ENTRIES:
            text = fh.read()
            fh, size = io.StringIO(text), len(text)
        first = next(filterfalse(str.isspace, fh), None)
        if first is None:
            raise ValueError(f"empty file: {path}")
        n_rows = operator.countOf(map(str.isspace, fh), False)
        head = tuple(int(v) for v in first.split())
        width, check_row = layout(head, n_rows)
        # A row of w entries takes at least 2w characters, so in a file shorter
        # than that some row is short, and it is reported below before anything
        # of the size the header asks for is allocated.
        fits = 2 * n_rows * width <= size + 1
        rows = np.empty((n_rows if fits else 0, width))
        fh.seek(0)
        body = filterfalse(str.isspace, fh)
        next(body)
        step = max(1, _TEXT_BLOCK_ENTRIES // width)
        for start in range(0, n_rows, step):
            block = _parse_rows(list(islice(body, step)), start, width, check_row)
            if fits:
                rows[start : start + step] = block.reshape(-1, width)
    return head, rows


def _parse_rows(lines, start, width, check_row) -> np.ndarray:
    """The floats of ``lines``, ``width`` to a line, in one flat array."""
    # With one ";" token between lines, the lines hold ``width`` entries each
    # exactly when every (width+1)-th token is a ";" and no other token is:
    # a stray ";" does not parse as a float.
    tokens = " ; ".join(lines).split()
    if len(tokens) == (width + 1) * len(lines) - 1 and tokens[width :: width + 1].count(";") == len(lines) - 1:
        del tokens[width :: width + 1]
        try:
            return np.array(tokens, dtype=float)
        except ValueError:
            pass
    rows = []
    for i, line in enumerate(lines, start):
        tokens = line.split()
        check_row(i, tokens)
        rows.append(np.array(tokens, dtype=float))
    return np.concatenate(rows)


def _write_text(path, header, rows) -> None:
    """Each float is written by ``repr``, so ``float`` reads back its bits."""
    with open(path, "w") as fh:
        fh.write(" ".join(str(v) for v in header) + "\n")
        fh.writelines(" ".join(repr(float(v)) for v in row) + "\n" for row in rows)


def save_box(path, b: Box) -> None:
    _write_text(path, (b.n_parties, *b.table.shape), b.table.reshape(math.prod(b.settings_per_party), -1))


def load_box(path) -> Box:
    def layout(head, n_rows):
        n = head[0]
        if len(head) != 1 + 2 * n:
            raise ValueError(f"{path}: header needs n_parties, {n} settings and {n} outcomes")
        settings, outcomes = head[1 : 1 + n], head[1 + n :]
        if min(settings + outcomes, default=0) < 1:
            raise ValueError(f"{path}: header needs at least one party, with positive settings and outcomes")
        if n_rows != math.prod(settings):
            raise ValueError(f"{path}: expected {math.prod(settings)} distribution rows, got {n_rows}")

        def check_row(i, tokens):
            if len(tokens) != math.prod(outcomes):
                xs = tuple(int(v) for v in np.unravel_index(i, settings))
                raise ValueError(f"{path}: row for settings {xs} has wrong length")

        return math.prod(outcomes), check_row

    head, rows = _read_text(path, layout)
    return Box(rows.reshape(head[1:]))
