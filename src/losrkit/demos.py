"""End-to-end demonstration runs behind the ``demo`` CLI subcommand.

Each demo returns the lines of a plain-text report, numbers written by the
CLI's ``fmt``, and True iff all of its internal assertions hold; the CLI
prints the lines and maps the flag to exit codes 0/1.
"""

from __future__ import annotations

import numpy as np

from . import catalog
from .boxes import CHSH, HardyScore, MerminGHZ, NonlocalCertificate, local_membership
from .cli import fmt, scan_text
from .monotones import horodecki_chsh, optimize_yield
from .preorder import Direction, Reason, _cut_product, _factor, compare, factor_spectrum
from .selftest import FlagConstruction, closure_scan, flag_roundtrip_check, forward_channel
from .states import SchmidtSpectrum, born_box

# See-saw restarts of the demos' CHSH yields, and catalysis trials.
_RESTARTS = 8
_CATALYSIS_TRIALS = 500


class _Report:
    def __init__(self):
        self.lines: list[str] = []
        self.ok = True

    def say(self, text: str) -> None:
        self.lines.append(text)

    def check(self, cond: bool, text: str) -> None:
        tag = "ok" if cond else "FAIL"
        self.lines.append(f"{tag}: {text}")
        self.ok = self.ok and bool(cond)


def demo_anomaly(seed: int = 0) -> tuple[list[str], bool]:
    """Hardy reachable from a partially entangled state but not from the
    maximally entangled one, while the states are order-incomparable."""
    rep = _Report()
    phi = catalog.phi_plus()
    hardy_max = optimize_yield(phi, HardyScore()).value
    rep.say(f"hardy yield phi_plus      {fmt(hardy_max)}")
    rep.check(hardy_max <= 1e-6, "maximally entangled state cannot reach the Hardy box")

    best_theta, best_val = 0.0, -1.0
    for theta in np.linspace(0.25, 0.65, 5):
        v = optimize_yield(catalog.partial(theta), HardyScore()).value
        if v > best_val:
            best_theta, best_val = float(theta), v
    rep.say(f"hardy yield partial({fmt(best_theta)})  {fmt(best_val)}")
    rep.check(best_val > 0.05, "a partially entangled state reaches the Hardy box")

    chsh_max = optimize_yield(phi, CHSH(), restarts=_RESTARTS, seed=seed).value
    chsh_partial = optimize_yield(catalog.partial(best_theta), CHSH(), restarts=_RESTARTS, seed=seed).value
    rep.say(f"chsh yield phi_plus       {fmt(chsh_max)}")
    rep.say(f"chsh yield partial        {fmt(chsh_partial)}")
    rep.check(abs(chsh_max - 2 * np.sqrt(2)) <= 1e-6, "phi_plus reaches the Tsirelson value")
    rep.check(chsh_partial < chsh_max - 1e-3, "the partial state does not reach it")

    verdict = compare(phi, catalog.partial(best_theta))
    rep.say(f"compare phi_plus partial  {verdict.direction.value}")
    rep.check(verdict.direction == Direction.INCOMPARABLE, "the two states are incomparable")
    rep.check(
        abs(horodecki_chsh(phi) - chsh_max) <= 1e-6,
        "see-saw agrees with the closed-form correlation-matrix bound",
    )
    return rep.lines, rep.ok


def demo_ghz_mermin(seed: int = 0) -> tuple[list[str], bool]:
    """The parity game from the three-qubit GHZ state, and incomparability of
    GHZ with two Bell pairs."""
    rep = _Report()
    box = born_box(catalog.ghz().density(), catalog.xy_measurements(3))
    mermin = MerminGHZ()
    wins = mermin.setting_win_probabilities(box)
    for setting, p in sorted(wins.items()):
        rep.say(f"win prob {setting}: {fmt(p)}")
    rep.check(all(abs(p - 1.0) <= 1e-10 for p in wins.values()), "parity relation holds with certainty")
    rep.check(abs(mermin.evaluate(box) - 1.0) <= 1e-10, "parity-game score is 1")
    rep.check(
        isinstance(local_membership(box), NonlocalCertificate),
        "the realized box is outside the local polytope",
    )

    verdict = compare(catalog.two_bell(), catalog.ghz())
    rep.say(f"two_bell vs ghz: {verdict.direction.value}")
    rep.check(verdict.direction == Direction.INCOMPARABLE, "two Bell pairs and GHZ are incomparable")
    rep.check(
        verdict.forward.reason == Reason.MARGINAL_CONTRADICTION,
        "two_bell -> ghz blocked by the auxiliary-marginal contradiction",
    )
    rep.check(
        verdict.backward.reason == Reason.RANK_RATIO_NON_INTEGER,
        "ghz -> two_bell blocked by a non-integer rank ratio",
    )
    return rep.lines, rep.ok


def demo_flag_selftest(seed: int = 0) -> tuple[list[str], bool]:
    """Flagged mixed states are operationally equivalent to their base state,
    so a self-tested pure state drags a mixed-state family along with it."""
    rep = _Report()
    rng = np.random.default_rng(seed)

    def random_unitary(d: int) -> np.ndarray:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(g)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    base = catalog.phi_plus()
    dist = rng.dirichlet(np.ones(4)).reshape(2, 2)
    fc = FlagConstruction(base, dist, (random_unitary(2), random_unitary(2)),
                          (random_unitary(2), random_unitary(2)))
    rep.check(flag_roundtrip_check(fc), "random flagged state round-trips to the base state")
    _, needs_sr = forward_channel(fc)
    rep.say(f"joint flag distribution needs shared randomness: {needs_sr}")

    pa, pb = rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))
    fc_prod = FlagConstruction(base, np.outer(pa, pb),
                               (random_unitary(2), random_unitary(2)),
                               (random_unitary(2), random_unitary(2)))
    fam, needs_sr = forward_channel(fc_prod)
    rep.check(not needs_sr, "factorized flag distribution needs no shared randomness")
    rep.check(flag_roundtrip_check(fc_prod), "factorized-flag state round-trips as well")

    candidates = [catalog.phi_plus(), catalog.partial(np.pi / 8), catalog.partial(0.0)]
    report = closure_scan(CHSH(), 2 * np.sqrt(2), base, candidates,
                          tol=1e-6, restarts=_RESTARTS, seed=seed)
    rep.lines += scan_text(report)
    reachers = [e.index for e in report.entries if e.is_reacher]
    rep.check(reachers == [0], "only phi_plus reaches the Tsirelson value")
    rep.check(report.satisfied, "every reacher converts to the target state")
    return rep.lines, rep.ok


def demo_catalysis(seed: int = 0) -> tuple[list[str], bool]:
    """Catalysis is impossible for bipartite pure states: an auxiliary shared
    state never unlocks a conversion.  Each trial draws the three Schmidt
    spectra once and decides both conversions on them, as
    ``catalytic_convertible`` does on the spectra of states: each spectrum
    cut at the rank cutoff, the products factored whole."""
    rep = _Report()
    rng = np.random.default_rng(seed)
    counterexamples = 0
    convertible_cases = 0
    for t in range(_CATALYSIS_TRIALS):
        ranks = rng.integers(1, 5, size=3)
        if t % 2 == 0:
            phi = SchmidtSpectrum(rng.dirichlet(np.ones(ranks[0])))
            psi = phi.tensor(SchmidtSpectrum(rng.dirichlet(np.ones(ranks[1]))))
        else:
            psi = SchmidtSpectrum(rng.dirichlet(np.ones(ranks[0])))
            phi = SchmidtSpectrum(rng.dirichlet(np.ones(ranks[1])))
        chi = SchmidtSpectrum(rng.dirichlet(np.ones(max(2, ranks[2]))))
        plain = factor_spectrum(psi, phi).found
        cat = _factor(_cut_product(psi, chi), _cut_product(phi, chi)).found
        convertible_cases += int(plain)
        if cat != plain:
            counterexamples += 1
            rep.say(f"counterexample at trial {t}")
    rep.say(f"trials {_CATALYSIS_TRIALS}, plainly convertible cases {convertible_cases}")
    rep.check(counterexamples == 0, "catalytic convertibility always equals plain convertibility")
    rep.check(convertible_cases > 0, "the sweep exercised genuinely convertible pairs")
    return rep.lines, rep.ok


# In sorted order: the CLI reads this dict as the demo choices when it parses
# a command line, and lists them in this order.
DEMOS = {
    "anomaly": demo_anomaly,
    "catalysis": demo_catalysis,
    "flag_selftest": demo_flag_selftest,
    "ghz_mermin": demo_ghz_mermin,
}
