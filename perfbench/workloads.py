"""The three seeded query workloads.

Each build function turns a seed and a block number into a list of queries.
A query holds the call into losrkit (looked up through the module attribute
at call time, so the tracer's wrappers see it), a check against an
independent reference from ``references``, and a deliberately wrong answer
that the check must reject.  Program objects are built here, at set-up,
outside the timed region.

Why these workloads:

* ``hardy_sweep`` is the query mix of the Hardy acceptance criteria: the
  penalty-ramp Nelder-Mead optimizer dominates it.
* ``linear_sweep`` runs the linear functionals (closed-form see-saw) on
  sources and LOSR-channel outputs and never calls the Hardy path, so a
  Hardy-only change predicts no change here.
* ``decide`` drives the CLI on state and box files: Schmidt spectra,
  factorization, LP membership, demos and flag round-trips.  It never
  touches ``monotones``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import numpy as np

import references as ref

# A few reference tolerances, from the acceptance criteria.
HARDY_TOL = 1e-3  # optimizer vs closed form
HARDY_ATTEMPTS = 3  # optimizer seeds a pure-state Hardy query may use
MONO_SLACK = 5e-4  # channel output vs source
CHSH_TOL = 1e-5  # see-saw vs Horodecki
LINEAR_BOUND_TOL = 1e-9  # above a quantum maximum
GHZ_TOL = 1e-6


@dataclass
class Query:
    kind: str
    key: str  # stable description of the input, hashed into the query digest
    run: Callable[[], object]
    check: Callable[[object, list], bool]  # (answer, all answers of the pass)
    wrong: Callable[[object, list], object]  # an answer ``check`` must reject
    hardy_closed: float | None = None  # closed-form Hardy value, pure inputs
    attempts: list[int] = field(default_factory=list)  # optimizer seeds the last run used


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise RuntimeError(f"benchmark input construction failed: {what}")


def _rng(seed: int, workload: str, block: int) -> np.random.Generator:
    return np.random.default_rng([seed, block, sum(map(ord, workload))])


def stratified(rng, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi], shuffled,
    so every block covers the whole range."""
    edges = lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n
    return [float(x) for x in rng.permutation(edges)]


def random_amplitudes(rng, dims) -> np.ndarray:
    total = int(np.prod(dims))
    amp = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return amp / np.linalg.norm(amp)


def random_density(rng, total: int) -> np.ndarray:
    g = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def local_rotate(rng, amp: np.ndarray, dims) -> np.ndarray:
    """Apply an independent random unitary on every party."""
    t = amp.reshape(dims)
    for p, d in enumerate(dims):
        t = np.moveaxis(np.tensordot(random_unitary(rng, d), t, axes=([1], [p])), 0, p)
    return t.reshape(-1)


def schmidt_form(values) -> np.ndarray:
    lam = np.asarray(values, dtype=float)
    return np.diag(np.sqrt(lam)).reshape(-1)


def random_spectrum(rng, rank: int) -> np.ndarray:
    return np.sort(rng.dirichlet(np.ones(rank)))[::-1]


def fingerprint(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:12]


def pure_density(amp: np.ndarray) -> np.ndarray:
    return np.outer(amp, amp.conj())


def _yield_value(result) -> float:
    return float(result.value)


# ---------------------------------------------------------------------------
# hardy_sweep


def build_hardy(L, seed: int, block: int, workdir: str) -> list[Query]:
    rng = _rng(seed, "hardy_sweep", block)
    M, S, cat = L.monotones, L.states, L.catalog
    hardy = L.boxes.HardyScore()
    restarts = 6
    queries: list[Query] = []

    def pure(theta, opt_seed, kind, state, tol):
        closed = ref.hardy_closed_form(theta)
        attempts: list[int] = []

        def run():
            # Time to an answer of stated accuracy: when all six starts land
            # in a lower local maximum (about one query in two hundred), the
            # client asks again with the next optimizer seed and keeps the
            # best value, and the query's latency includes the retry.
            attempts.clear()
            best = -np.inf
            for k in range(HARDY_ATTEMPTS):
                attempts.append(opt_seed + k)
                best = max(best, _yield_value(M.optimize_yield(state, hardy, restarts=restarts, seed=opt_seed + k)))
                if best >= closed - tol:
                    break
            return best

        queries.append(
            Query(
                kind,
                f"hardy partial({theta!r}) seed={opt_seed}",
                run,
                lambda ans, answers: abs(ans - closed) <= tol,
                lambda ans, answers: ans + 10 * HARDY_TOL,
                hardy_closed=closed,
                attempts=attempts,
            )
        )

    # Stratified draws give every block the whole range of theta, so the
    # blocks of different seeds hold comparable inputs.
    for theta in stratified(rng, 0.05, np.pi / 2 - 0.05, 21):
        pure(theta, int(rng.integers(2**31)), "hardy_pure", cat.partial(theta), HARDY_TOL)
    pure(np.pi / 4, int(rng.integers(2**31)), "hardy_phi_plus", cat.phi_plus(), 1e-6)

    def channel_output(src_state, src_bound, src_index):
        ch_seed = int(rng.integers(2**31))
        opt_seed = int(rng.integers(2**31))

        def run():
            out = S.apply_channel(src_state, M.sample_losr_channel((2, 2), seed=ch_seed))
            return _yield_value(M.optimize_yield(out, hardy, restarts=restarts, seed=opt_seed))

        def source(answers):
            return src_bound if src_index is None else answers[src_index]

        queries.append(
            Query(
                "hardy_channel",
                f"hardy channel({ch_seed}) of source#{src_index} seed={opt_seed}",
                run,
                lambda ans, answers: ans <= min(ref.HARDY_MAX + HARDY_TOL, source(answers) + MONO_SLACK),
                lambda ans, answers: source(answers) + 2 * MONO_SLACK,
            )
        )

    pi8 = cat.partial(np.pi / 8).density()
    for _ in range(2):
        channel_output(pi8, ref.hardy_closed_form(np.pi / 8), None)
    rho = S.DensityMatrix((2, 2), random_density(rng, 4))
    opt_seed = int(rng.integers(2**31))
    src_index = len(queries)
    queries.append(
        Query(
            "hardy_mixed",
            f"hardy mixed {fingerprint(rho.matrix)} seed={opt_seed}",
            lambda: _yield_value(M.optimize_yield(rho, hardy, restarts=restarts, seed=opt_seed)),
            lambda ans, answers: ans <= ref.HARDY_MAX + HARDY_TOL,
            lambda ans, answers: ref.HARDY_MAX + 1e-2,
        )
    )
    for _ in range(2):
        channel_output(rho, None, src_index)

    # A grid call costs a fifth of a yield; few enough of them keep the median
    # latency inside the yields, away from the step between the two kinds.
    for theta in stratified(rng, 0.05, np.pi / 2 - 0.05, 7):
        closed = ref.hardy_closed_form(theta)
        queries.append(
            Query(
                "hardy_grid",
                f"grid {theta!r}",
                lambda theta=theta: float(M.hardy_grid_maximum([theta])[0]),
                lambda ans, answers, closed=closed: abs(ans - closed) <= HARDY_TOL,
                lambda ans, answers: ans - 10 * HARDY_TOL,
            )
        )
    return queries


# ---------------------------------------------------------------------------
# linear_sweep


def build_linear(L, seed: int, block: int, workdir: str) -> list[Query]:
    rng = _rng(seed, "linear_sweep", block)
    M, S, B = L.monotones, L.states, L.boxes
    queries: list[Query] = []

    def add_source(kind, label, rho_m, functional, check, wrong):
        state = S.DensityMatrix((2,) * int(round(np.log2(rho_m.shape[0]))), rho_m)
        opt_seed = int(rng.integers(2**31))
        queries.append(
            Query(
                kind,
                f"{kind} {label} {fingerprint(rho_m)} seed={opt_seed}",
                lambda: _yield_value(M.optimize_yield(state, functional, restarts=32, seed=opt_seed)),
                check,
                wrong,
            )
        )
        return state, len(queries) - 1

    def add_outputs(kind, state, functional, src_index, src_value, count, local, cap):
        """Channel outputs of ``state``: at most max(source, local bound) plus
        the optimizer slack, since LOSR maps any state onto a local box."""
        dims = state.party_dims
        for _ in range(count):
            ch_seed = int(rng.integers(2**31))
            o_seed = int(rng.integers(2**31))

            def run(ch_seed=ch_seed, o_seed=o_seed):
                out = S.apply_channel(state, M.sample_losr_channel(dims, seed=ch_seed))
                return _yield_value(M.optimize_yield(out, functional, restarts=6, seed=o_seed))

            def limit(answers):
                src = answers[src_index] if src_value is None else src_value
                return min(cap, max(src, local) + MONO_SLACK)

            queries.append(
                Query(
                    kind,
                    f"{kind} channel({ch_seed}) of #{src_index} seed={o_seed}",
                    run,
                    lambda ans, answers: ans <= limit(answers),
                    lambda ans, answers: limit(answers) + MONO_SLACK,
                )
            )

    def pure_pair(lam_min):
        """A two-qubit pure state with smaller Schmidt coefficient lam_min,
        turned by random local unitaries."""
        return pure_density(local_rotate(rng, schmidt_form([1 - lam_min, lam_min]), (2, 2)))

    # See-saw convergence slows sharply near maximal entanglement and at small
    # tilt; every block holds exactly one query in each of those regimes, so
    # their cost shows in every run without making the run-to-run spread
    # depend on how many random draws land there.
    chsh = B.CHSH()
    chsh_local = ref.local_max(ref.chsh_value, (2, 2), (2, 2))
    theta = rng.uniform(0.1, 0.55)
    chsh_sources = [("pure", pure_pair(lam)) for lam in stratified(rng, 0.0, 0.4, 3)]
    chsh_sources.append(("near_maximal", pure_pair(0.45)))
    chsh_sources += [("mixed", random_density(rng, 4)) for _ in range(2)]
    chsh_sources.append(("partial", pure_density(schmidt_form([np.cos(theta) ** 2, np.sin(theta) ** 2]))))
    for label, rho_m in chsh_sources:
        value = ref.horodecki_chsh(rho_m)
        state, idx = add_source(
            "chsh_source",
            label,
            rho_m,
            chsh,
            lambda ans, answers, value=value: abs(ans - value) <= CHSH_TOL,
            lambda ans, answers: ans + 10 * CHSH_TOL,
        )
        add_outputs("chsh_channel", state, chsh, idx, value, 3, chsh_local, 2 * np.sqrt(2) + LINEAR_BOUND_TOL)

    # Tilted CHSH: never above sqrt(8 + 2 alpha^2), attained on partial(theta*).
    alphas = [0.25] + stratified(rng, 0.4, 1.2, 9)
    lams = iter(stratified(rng, 0.0, 0.4, 5))
    for label, alpha in zip(("attaining", "pure") * 5, alphas):
        bound = ref.tilted_bound(alpha)
        if label == "attaining":
            t = ref.tilted_optimal_theta(alpha)
            rho_m = pure_density(schmidt_form([np.cos(t) ** 2, np.sin(t) ** 2]))
            check = lambda ans, answers, bound=bound: abs(ans - bound) <= CHSH_TOL  # noqa: E731
        else:
            rho_m = pure_pair(next(lams))
            check = lambda ans, answers, bound=bound: ans <= bound + LINEAR_BOUND_TOL  # noqa: E731
        tilted = B.TiltedCHSH(alpha)
        state, idx = add_source(
            "tilted_source",
            f"alpha={alpha!r} {label}",
            rho_m,
            tilted,
            check,
            lambda ans, answers, bound=bound: bound + 1e-3,
        )
        local = ref.local_max(lambda t, alpha=alpha: ref.tilted_value(t, alpha), (2, 2), (2, 2))
        add_outputs("tilted_channel", state, tilted, idx, None, 1, local, bound + LINEAR_BOUND_TOL)

    # Mermin: GHZ reaches 1; channel outputs of 3-qubit states stay at most 1.
    mermin = B.MerminGHZ()
    mermin_local = ref.local_max(ref.mermin_value, (2, 2, 2), (2, 2, 2))
    ghz = np.zeros(8)
    ghz[[0, 7]] = 1 / np.sqrt(2)
    state, idx = add_source(
        "mermin_source",
        "ghz",
        pure_density(ghz),
        mermin,
        lambda ans, answers: abs(ans - 1.0) <= GHZ_TOL,
        lambda ans, answers: 1.0 - 10 * GHZ_TOL,
    )
    add_outputs("mermin_channel", state, mermin, idx, None, 1, mermin_local, 1.0 + LINEAR_BOUND_TOL)
    state = S.DensityMatrix((2, 2, 2), pure_density(random_amplitudes(rng, (2, 2, 2))))
    add_outputs("mermin_channel", state, mermin, None, 1.0, 1, mermin_local, 1.0 + LINEAR_BOUND_TOL)
    return queries


# ---------------------------------------------------------------------------
# decide


def _write_state(path: str, dims, amplitudes: np.ndarray) -> str:
    with open(path, "w") as fh:
        fh.write(" ".join(str(d) for d in dims) + "\n")
        for z in amplitudes:
            fh.write(f"{float(z.real)!r} {float(z.imag)!r}\n")
    return path


def _write_box(path: str, settings, outcomes, table: np.ndarray) -> str:
    with open(path, "w") as fh:
        fh.write(" ".join(map(str, [len(settings), *settings, *outcomes])) + "\n")
        for xs in product(*[range(s) for s in settings]):
            fh.write(" ".join(repr(float(v)) for v in table[xs].reshape(-1)) + "\n")
    return path


def _cli(L, argv):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = L.cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code
        return code, out.getvalue()

    return run


def _first_line(ans) -> list[str]:
    code, text = ans
    lines = text.splitlines()
    return lines[0].split() if code == 0 and lines else []


def _swap_first_word(ans, answers, replacement):
    code, text = ans
    lines = text.splitlines() or [""]
    words = lines[0].split() or [""]
    words[0] = replacement
    return code, "\n".join([" ".join(words)] + lines[1:])


def _floats(tokens) -> np.ndarray:
    return np.array([float(t) for t in tokens])


def _tensor_amp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bipartite (a tensor b) with parties (A_a A_b, B_a B_b)."""
    da, db = int(round(np.sqrt(a.size))), int(round(np.sqrt(b.size)))
    t = np.kron(a, b).reshape(da, da, db, db).transpose(0, 2, 1, 3)
    return t.reshape(-1)


def random_vertex_mixture(rng, settings, outcomes, k: int) -> np.ndarray:
    """Dirichlet mixture of k random deterministic strategies."""
    table = np.zeros(tuple(settings) + tuple(outcomes))
    for w in rng.dirichlet(np.ones(k)):
        strat = [rng.integers(o, size=s) for s, o in zip(settings, outcomes)]
        for xs in product(*[range(s) for s in settings]):
            table[xs + tuple(int(strat[p][xs[p]]) for p in range(len(settings)))] += w
    return table


def build_decide(L, seed: int, block: int, workdir: str) -> list[Query]:
    rng = _rng(seed, "decide", block)
    queries: list[Query] = []
    counter = iter(range(10**6))

    def path(ext):
        return os.path.join(workdir, f"b{block}-{next(counter)}.{ext}")

    def cli(kind, argv, check, wrong, key=None):
        key = key or " ".join(os.path.relpath(a, workdir) if a.startswith(workdir) else a for a in argv)
        queries.append(Query(kind, key, _cli(L, argv), check, wrong))

    # -- schmidt: printed spectrum vs singular values -----------------------
    two_bell = np.zeros((4, 2, 2))
    for a1, a2 in np.ndindex(2, 2):
        two_bell[a1 * 2 + a2, a1, a2] = 0.5
    ghz = np.zeros(8)
    ghz[[0, 7]] = 1 / np.sqrt(2)
    chiral = np.full(8, 1 / (2 * np.sqrt(2)), dtype=complex)
    chiral[7] += (1j - 1) / (2 * np.sqrt(2))
    schmidt_inputs = [
        ("two_bell", (4, 2, 2), two_bell.reshape(-1), "A|BC"),
        ("ghz", (2, 2, 2), ghz, "A|BC"),
        ("chiral", (2, 2, 2), chiral, "AB|C"),
    ]
    for dims, label in (((2, 3, 4), "B|AC"), ((4, 4, 4), "AB|C"), ((2, 2, 2, 2), "AC|BD"), ((8, 8, 8, 8), "AB|CD")):
        amp = random_amplitudes(rng, dims)
        schmidt_inputs.append((_write_state(path("state"), dims, amp), dims, amp, label))
    for name, dims, amp, label in schmidt_inputs:
        left = [ord(c) - ord("A") for c in label.split("|")[0]]
        expect = ref.schmidt_values(amp, dims, left)

        def check(ans, answers, expect=expect):
            got = _first_line(ans)
            return len(got) == expect.size and float(np.max(np.abs(_floats(got) - expect))) <= 1e-8

        cli("schmidt", ["schmidt", name, label], check,
            lambda ans, answers: (ans[0], ans[1].replace(ans[1].split()[0], "0.7", 1)),
            key=f"schmidt {os.path.basename(name)} {label}")

    # -- compare / factor on bipartite constructions -------------------------
    def verdict_check(direction):
        return lambda ans, answers: _first_line(ans)[:1] == [direction]

    def verdict_wrong(direction):
        other = "Incomparable" if direction != "Incomparable" else "Equivalent"
        return lambda ans, answers: _swap_first_word(ans, answers, other)

    def bipartite_file(amp):
        d = int(round(np.sqrt(amp.size)))
        return _write_state(path("state"), (d, d), local_rotate(rng, amp, (d, d)))

    pairs = []
    for r1, r2 in ((2, 3), (3, 2), (4, 4), (2, 2), (8, 8)):
        phi = random_spectrum(rng, r1)
        zeta = random_spectrum(rng, r2)
        phi_amp, zeta_amp = schmidt_form(phi), schmidt_form(zeta)
        big = bipartite_file(_tensor_amp(phi_amp, zeta_amp))
        small = bipartite_file(phi_amp)
        pairs.append((big, small, phi, zeta))
    for big, small, phi, zeta in pairs[:3]:
        cli("compare", ["compare", big, small], verdict_check("PsiToPhiOnly"), verdict_wrong("PsiToPhiOnly"))
        cli("compare", ["compare", small, big], verdict_check("PhiToPsiOnly"), verdict_wrong("PhiToPsiOnly"))
    for big, small, phi, zeta in pairs[3:]:
        d = phi.size * zeta.size
        twin_amp = local_rotate(rng, _tensor_amp(schmidt_form(phi), schmidt_form(zeta)), (d, d))
        twin = _write_state(path("state"), (d, d), twin_amp)
        cli("compare", ["compare", big, twin], verdict_check("Equivalent"), verdict_wrong("Equivalent"))
    for r1, r2 in ((3, 6), (5, 7)):
        a, b = random_spectrum(rng, r1), random_spectrum(rng, r2)
        if r2 <= 6:
            _require(ref.factors_over(b, a) is None and ref.factors_over(a, b) is None, "independent spectra")
        cli("compare", ["compare", bipartite_file(schmidt_form(a)), bipartite_file(schmidt_form(b))],
            verdict_check("Incomparable"), verdict_wrong("Incomparable"))
    cli("compare", ["compare", "phi_plus", "partial(0.3927)"],
        verdict_check("Incomparable"), verdict_wrong("Incomparable"))

    for big, small, phi, zeta in pairs[:3]:
        if phi.size * zeta.size <= 6:
            _require(ref.factors_over(np.kron(phi, zeta), phi) is not None, "constructed factorization")

        def found(ans, answers, zeta=zeta):
            got = _first_line(ans)
            return got[:1] == ["found"] and len(got) == zeta.size + 1 and \
                float(np.max(np.abs(_floats(got[1:]) - zeta))) <= 1e-8

        cli("factor", ["factor", big, small], found, lambda ans, answers: _swap_first_word(ans, answers, "not_found"))
        cli("factor", ["factor", small, big],
            lambda ans, answers: _first_line(ans) == ["not_found", "RankRatioNonInteger"],
            lambda ans, answers: _swap_first_word(ans, answers, "found"))
    a, b = random_spectrum(rng, 6), random_spectrum(rng, 3)
    _require(ref.factors_over(a, b) is None, "independent spectra")
    cli("factor", ["factor", bipartite_file(schmidt_form(a)), bipartite_file(schmidt_form(b))],
        lambda ans, answers: _first_line(ans) == ["not_found", "FactorizationFailed"],
        lambda ans, answers: _swap_first_word(ans, answers, "found"))

    # -- multipartite: equal spectra stay Inconclusive -----------------------
    def tripartite_times_pair(psi3, phi):
        """psi3 on (A, B, C) times a bipartite phi on (A', B'), grouped as
        parties (A A', B B', C)."""
        r = int(round(np.sqrt(phi.size)))
        t = np.tensordot(psi3.reshape(2, 2, 2), phi.reshape(r, r), axes=0)  # A B C A' B'
        return t.transpose(0, 3, 1, 4, 2).reshape(-1), (2 * r, 2 * r, 2)

    psi3 = random_amplitudes(rng, (2, 2, 2))
    psi3_file = _write_state(path("state"), (2, 2, 2), psi3)
    amp, dims = tripartite_times_pair(psi3, schmidt_form(random_spectrum(rng, 3)))
    bigger = _write_state(path("state"), dims, local_rotate(rng, amp, dims))
    cli("multi-check", ["multi-check", "two_bell", "ghz"],
        lambda ans, answers: _first_line(ans) == ["Incomparable", "MarginalContradiction"],
        lambda ans, answers: _swap_first_word(ans, answers, "Inconclusive"))
    chiral_file = _write_state(path("state"), (2, 2, 2), chiral)
    conj_file = _write_state(path("state"), (2, 2, 2), chiral.conj())
    inconclusive = lambda ans, answers: _first_line(ans) == ["Inconclusive", "NecessaryPassedOnly"]  # noqa: E731
    cli("multi-check", ["multi-check", chiral_file, conj_file], inconclusive, verdict_wrong("Inconclusive"),
        key="multi-check chiral conj")
    cli("multi-check", ["multi-check", bigger, psi3_file], inconclusive, verdict_wrong("Inconclusive"))
    for dims in ((3, 4, 5), (8, 8, 8, 8)):
        amp = random_amplitudes(rng, dims)
        one = _write_state(path("state"), dims, amp)
        two = _write_state(path("state"), dims, local_rotate(rng, amp, dims))
        cli("multi-check", ["multi-check", one, two], inconclusive, verdict_wrong("Inconclusive"))
        other = _write_state(path("state"), dims, random_amplitudes(rng, dims))
        cli("compare", ["compare", one, other], verdict_check("Incomparable"), verdict_wrong("Incomparable"))
    cli("factor", ["factor", bigger, psi3_file, "--bipartition", "A|BC"],
        lambda ans, answers: _first_line(ans)[:1] == ["found"],
        lambda ans, answers: _swap_first_word(ans, answers, "not_found"))

    # -- box-local: the truth comes from the construction --------------------
    chsh_bound = ref.local_max(ref.chsh_value, (2, 2), (2, 2))
    mermin_bound = ref.local_max(ref.mermin_value, (2, 2, 2), (2, 2, 2))

    def box_query(settings, outcomes, table, local: bool, kind="box_local"):
        f = _write_box(path("box"), settings, outcomes, table)
        if local:
            check = lambda ans, answers: (_first_line(ans)[:1] == ["Local"]  # noqa: E731
                                          and float(_first_line(ans)[2]) <= 1e-6)
        else:
            check = lambda ans, answers: _first_line(ans)[:1] == ["Nonlocal"]  # noqa: E731
        wrong = lambda ans, answers: _swap_first_word(ans, answers, "Nonlocal" if local else "Local")  # noqa: E731
        cli(kind, ["box-local", f], check, wrong,
            key=f"box-local {settings}/{outcomes} {fingerprint(table)}")

    def noisy(table, settings, outcomes, v):
        return v * table + (1 - v) * ref.uniform_table(settings, outcomes)

    s22, s222 = (2, 2), (2, 2, 2)
    for base, lo, hi in ((ref.pr_table(), 0.5, 1.0), (ref.tsirelson_table(), 1 / np.sqrt(2), 1.0)):
        v_non = float(rng.uniform(lo + 0.05, hi))
        v_loc = float(rng.uniform(0.2, lo - 0.05))
        for v, local in ((v_non, False), (v_loc, True)):
            t = noisy(base, s22, s22, v)
            margin = ref.chsh_value(t) - chsh_bound
            _require(margin <= -1e-3 if local else margin >= 1e-3, "CHSH away from the local bound")
            box_query(s22, s22, t, local)
    t = ref.repeat_settings(noisy(ref.pr_table(), s22, s22, float(rng.uniform(0.6, 1.0))), 2, 3)
    _require(ref.chsh_value(t[:2, :2]) >= chsh_bound + 1e-3, "CHSH above the local bound")
    box_query((3, 3), s22, t, False)
    for settings, outcomes in ((s22, s22), ((3, 3), s22), (s22, (3, 3)), (s222, s222), ((3, 3, 3), s222)):
        box_query(settings, outcomes, random_vertex_mixture(rng, settings, outcomes, 5), True)
    for settings in (s222, (3, 3, 3)):
        t = noisy(ref.ghz_xy_table(), s222, s222, float(rng.uniform(0.6, 1.0)))
        _require(ref.mermin_value(t) >= mermin_bound + 1e-3, "Mermin above the local bound")
        box_query(settings, s222, ref.repeat_settings(t, 3, settings[0]), False)
    box_query((4, 4, 4), s222, random_vertex_mixture(rng, (4, 4, 4), s222, 8), True, kind="box_local_4096")

    # -- demos --------------------------------------------------------------
    demo_seed = str(int(rng.integers(2**31)))
    for name in ("catalysis", "ghz_mermin"):
        cli("demo", ["--seed", demo_seed, "demo", name],
            lambda ans, answers: ans[0] == 0 and ans[1].rstrip().endswith("demo result: pass"),
            lambda ans, answers: (1, ans[1].replace("demo result: pass", "demo result: fail")))

    # -- flag round-trips (library call: the CLI has no command for it) -------
    Sel, cat, S = L.selftest, L.catalog, L.states
    flag_shapes = [(2, 2, False), (2, 2, True), (3, 2, False), (3, 4, True)] + [(3, 6, False), (3, 6, True)] * 3
    for da, flags, factorized in flag_shapes:
        if da == 2:
            base = cat.phi_plus()
        else:
            base = S.PureState((3, 3), local_rotate(rng, schmidt_form(random_spectrum(rng, 3)), (3, 3)))
        if factorized:
            dist = np.outer(rng.dirichlet(np.ones(flags)), rng.dirichlet(np.ones(flags)))
        else:
            dist = rng.dirichlet(np.ones(flags * flags)).reshape(flags, flags)
        fc = Sel.FlagConstruction(
            base, dist,
            tuple(random_unitary(rng, da) for _ in range(flags)),
            tuple(random_unitary(rng, da) for _ in range(flags)),
        )
        queries.append(
            Query(
                "flag_roundtrip",
                f"flag {da}x{flags} factorized={factorized} {fingerprint(dist)}",
                lambda fc=fc: bool(Sel.flag_roundtrip_check(fc)),
                lambda ans, answers: ans is True,
                lambda ans, answers: False,
            )
        )
    return queries


WORKLOADS = {
    "hardy_sweep": build_hardy,
    "linear_sweep": build_linear,
    "decide": build_decide,
}

# Seconds one block took at the seed commit on a 2-vCPU Xeon virtual machine.
# A run does round(--seconds / BLOCK_S) blocks (at least enough for 100
# queries), a count that does not depend on how fast the machine is today.
BLOCK_S = {
    "hardy_sweep": 15.0,
    "linear_sweep": 9.0,
    "decide": 3.3,
}

# One cheap query per workload for the set-up measurement: a fresh interpreter
# imports losrkit and answers it.
WARMUP_SNIPPETS = {
    "hardy_sweep": (
        "import losrkit as L\n"
        "L.optimize_yield(L.catalog.partial(0.4), L.HardyScore(), restarts=1, seed=0)\n"
    ),
    "linear_sweep": (
        "import losrkit as L\n"
        "L.optimize_yield(L.catalog.phi_plus(), L.CHSH(), restarts=1, seed=0)\n"
    ),
    "decide": (
        "import contextlib, io\n"
        "import losrkit.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    losrkit.cli.main(['schmidt', 'two_bell', 'A|BC'])\n"
    ),
}
