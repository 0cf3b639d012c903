import argparse
import contextlib
import dataclasses
import io
import math
import tempfile
import tracemalloc
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from losrkit import (
    Bipartition,
    Box,
    PureState,
    Tolerances,
    catalog,
    config,
    local_membership,
    save_box,
    save_state,
    schmidt_spectrum,
    uniform_box,
)
from losrkit.cli import build_parser, fmt, main
from losrkit.selftest import conjugate_state
from conftest import phi_plus_box, random_pure, random_unitary


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSchmidt:
    def test_two_bell(self, capsys):
        code, out, _ = run(capsys, "schmidt", "two_bell", "A|BC")
        assert code == 0
        assert out == "0.25 0.25 0.25 0.25\n"

    def test_ghz(self, capsys):
        code, out, _ = run(capsys, "schmidt", "ghz", "A|BC")
        assert code == 0
        assert out == "0.5 0.5\n"

    def test_phi_plus(self, capsys):
        code, out, _ = run(capsys, "schmidt", "phi_plus", "A|B")
        assert code == 0
        assert out == "0.5 0.5\n"

    def test_state_from_file(self, capsys, tmp_path):
        path = tmp_path / "st.txt"
        save_state(path, catalog.phi_plus())
        code, out, _ = run(capsys, "schmidt", str(path), "A|B")
        assert code == 0
        assert out == "0.5 0.5\n"

    def test_tolerance_flags_match_config_fields(self):
        # A global flag left unset reads None only if it is a tolerance, which
        # main passes to config.override when given.
        args = build_parser().parse_args(["demo", "anomaly"])
        flags = {name for name, value in vars(args).items() if value is None}
        assert flags == {f.name for f in dataclasses.fields(Tolerances)}

    def test_tolerance_flags_do_not_leak(self, capsys):
        # The cutoff removes every coefficient, so the command fails; the
        # override is undone on that error path too.
        code, out, _ = run(capsys, "--tau-rank", "0.3", "schmidt", "two_bell", "A|BC")
        assert code == 2
        assert config.current() == Tolerances()
        spec = schmidt_spectrum(catalog.two_bell(), Bipartition.parse("A|BC", 3))
        assert spec.rank() == 4

    def test_malformed_state_file_names_both_parsers(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n0.7 x\n0 0\n0 0\n0.7 0\n")
        code, out, err = run(capsys, "schmidt", str(path), "A|B")
        assert code == 2
        assert out == ""
        assert "could not convert string to float: 'x'" in err
        assert err.index("as a state") < err.index("as a box")

    def test_bad_bipartition_is_input_error(self, capsys):
        code, _, err = run(capsys, "schmidt", "phi_plus", "A|X")
        assert code == 2
        assert "error" in err

    def test_box_is_not_a_state(self, capsys):
        code, _, err = run(capsys, "schmidt", "pr_box", "A|B")
        assert code == 2


class TestCompare:
    def test_incomparable_pair(self, capsys):
        code, out, _ = run(capsys, "compare", "phi_plus", "partial(0.3927)")
        assert code == 0
        assert out.splitlines()[0].startswith("Incomparable")

    def test_two_bell_vs_ghz(self, capsys):
        code, out, _ = run(capsys, "compare", "two_bell", "ghz")
        assert code == 0
        assert out.splitlines()[0].startswith("Incomparable")

    def test_self_compare(self, capsys):
        code, out, _ = run(capsys, "compare", "phi_plus", "phi_plus")
        assert code == 0
        assert out.splitlines()[0] == "Equivalent Decided"

    def test_long_directional_report(self, capsys):
        code, out, _ = run(capsys, "--long", "compare", "max_entangled(4)", "phi_plus")
        assert code == 0
        assert out.splitlines() == [
            "PsiToPhiOnly Decided",
            "A|B: 0.5 0.5",
            "psi->phi: passes necessity (Decided)",
            "phi->psi: ruled out (RankRatioNonInteger at A|B)",
        ]

    def test_long_equivalent_report(self, capsys):
        code, out, _ = run(capsys, "--long", "compare", "phi_plus", "phi_plus")
        assert code == 0
        assert out.splitlines() == [
            "Equivalent Decided",
            "A|B: 1",
            "psi->phi: passes necessity (Decided)",
            "phi->psi: passes necessity (Decided)",
        ]

    def test_unknown_state(self, capsys):
        code, _, err = run(capsys, "compare", "phi_plus", "nonsense")
        assert code == 2
        assert "catalog" in err


class TestFactor:
    def test_max4_over_bell(self, capsys):
        code, out, _ = run(capsys, "factor", "max_entangled(4)", "phi_plus")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "found 0.5 0.5"
        assert lines[1].startswith("residual")

    def test_not_found(self, capsys):
        code, out, _ = run(capsys, "factor", "phi_plus", "partial(0.3)")
        assert code == 0
        assert out.splitlines()[0] == "not_found FactorizationFailed"

    def test_multipartite_requires_bipartition(self, capsys):
        code, _, err = run(capsys, "factor", "two_bell", "ghz")
        assert code == 2
        code, out, _ = run(capsys, "factor", "two_bell", "ghz", "--bipartition", "A|BC")
        assert code == 0
        assert out.splitlines()[0] == "found 0.5 0.5"


class TestMultiCheck:
    def test_ghz_two_bell(self, capsys):
        code, out, _ = run(capsys, "--long", "multi-check", "ghz", "two_bell")
        assert code == 0
        assert out.splitlines()[0] == "Incomparable RankRatioNonInteger"
        assert "MarginalContradiction" in out

    def test_rejects_bipartite(self, capsys):
        code, _, err = run(capsys, "multi-check", "phi_plus", "phi_plus")
        assert code == 2

    @pytest.mark.parametrize("pair", ["two_bell ghz", "chiral conjugate", "four_party lu_copy"])
    def test_same_records_as_compare(self, capsys, tmp_path, rng, pair):
        if pair == "chiral conjugate":
            path = tmp_path / "conj.txt"
            save_state(path, conjugate_state(catalog.chiral()))
            names = ["chiral", str(path)]
        elif pair == "four_party lu_copy":
            psi = random_pure(rng, (2, 2, 2, 2))
            u = reduce(np.kron, [random_unitary(rng, 2) for _ in range(4)])
            names = [str(tmp_path / "psi.txt"), str(tmp_path / "phi.txt")]
            save_state(names[0], psi)
            save_state(names[1], PureState((2, 2, 2, 2), u @ psi.amplitudes))
        else:
            names = pair.split()
        outs = []
        for command in ("compare", "multi-check"):
            code, out, err = run(capsys, "--long", command, *names)
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[0] in (
            "Incomparable MarginalContradiction",
            "Inconclusive NecessaryPassedOnly",
        )

    def test_party_count_errors_exit_two(self, capsys, tmp_path):
        single = tmp_path / "single.txt"
        save_state(single, PureState((2,), np.array([0.6, 0.8])))
        for argv in (
            ["multi-check", "phi_plus", "phi_plus"],
            ["compare", "phi_plus", "ghz"],
            ["compare", str(single), str(single)],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")


class TestBoxCommands:
    def test_box_local_pr(self, capsys):
        code, out, _ = run(capsys, "box-local", "pr_box")
        assert code == 0
        assert out.startswith("Nonlocal margin 2 ")

    def test_box_local_uniform_from_file(self, capsys, tmp_path):
        path = tmp_path / "uni.txt"
        save_box(path, uniform_box((2, 2), (2, 2)))
        code, out, _ = run(capsys, "box-local", str(path))
        assert code == 0
        assert out.startswith("Local reconstruction_error")

    def test_box_local_long_lists_the_local_weights(self, capsys, tmp_path):
        path = tmp_path / "uni.txt"
        box = uniform_box((2, 2), (2, 2))
        save_box(path, box)
        code, out, _ = run(capsys, "--long", "box-local", str(path))
        assert code == 0
        assert out.splitlines() == [
            "Local reconstruction_error 0",
            "weights: 3:0.25 4:0.25 8:0.25 15:0.25",
            "lp rounds 1 columns 16",
        ]
        weights = local_membership(box).weights
        listed = " ".join(f"{i}:{fmt(weights[i])}" for i in np.flatnonzero(weights))
        assert out.splitlines()[1] == "weights: " + listed

    def test_box_local_long_reports_lp_rounds(self, capsys):
        code, out, _ = run(capsys, "--long", "box-local", "pr_box")
        assert code == 0
        assert out.splitlines()[-1] == "lp rounds 1 columns 16"

    def test_box_local_beyond_dense_lp(self, capsys, tmp_path):
        # (10,10)/(2,2) has 2**20 strategies: its dense vertex LP was refused
        path = tmp_path / "ten.txt"
        save_box(path, phi_plus_box(10, 0.8))
        code, out, err = run(capsys, "box-local", str(path))
        assert (code, err) == (0, "")
        assert out.startswith("Nonlocal margin 3.33")

    def test_box_eval_chsh(self, capsys):
        code, out, _ = run(capsys, "box-eval", "tsirelson_box", "chsh")
        assert code == 0
        assert out.strip() == f"{2 * np.sqrt(2):.10g}"

    def test_box_eval_shape_mismatch(self, capsys):
        code, _, err = run(capsys, "box-eval", "pr_box", "mermin")
        assert code == 2

    def test_state_is_not_a_box(self, capsys):
        code, _, err = run(capsys, "box-local", "ghz")
        assert code == 2

    def test_box_local_signaling_is_input_error(self, capsys, tmp_path):
        table = np.zeros((2, 2, 2, 2))
        for x in range(2):
            for y in range(2):
                table[x, y, y, 0] = 1.0  # a = y
        path = tmp_path / "sig.txt"
        save_box(path, Box(table))
        code, _, err = run(capsys, "box-local", str(path))
        assert code == 2
        assert err.startswith("error:")

    def test_box_local_over_cap_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        save_box(path, uniform_box((8, 8), (8, 8)))
        code, _, err = run(capsys, "box-local", str(path))
        assert code == 2
        assert err.startswith("error:")


class TestYield:
    def test_chsh_phi_plus(self, capsys):
        code, out, _ = run(capsys, "--restarts", "8", "--seed", "5", "yield", "phi_plus", "chsh")
        assert code == 0
        value = float(out.split()[0])
        assert value == pytest.approx(2 * np.sqrt(2), abs=1e-6)

    def test_state_file_just_inside_eps_norm(self, capsys, tmp_path):
        # Amplitudes of norm 1 + 0.9 eps_norm: accepted, renormalized without
        # a warning before the record, and the yield's density matrix has unit trace.
        a = float((1 + 0.9 * config.current().eps_norm) / np.sqrt(2))
        path = tmp_path / "near_unit.txt"
        path.write_text(f"2 2\n{a!r} 0.0\n0.0 0.0\n0.0 0.0\n{a!r} 0.0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "yield", str(path), "chsh")
        assert (code, err, caught) == (0, "", [])
        assert out.split()[0] == "2.828427125"

    def test_state_file_inside_loose_eps_norm(self, capsys, tmp_path):
        # Squared norm 1 + 1.1e-7: inside --eps-norm 1e-6, so neither the
        # state nor its Born boxes are rescaled or rejected.
        path = tmp_path / "loose.txt"
        path.write_text("2 2\n0.70710682 0\n0 0\n0 0\n0.70710682 0\n")
        code, out, err = run(capsys, "--eps-norm", "1e-6", "yield", str(path), "chsh")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "2.828427435 32 0"

    def test_negative_exponent_alpha(self, capsys):
        _, expected, _ = run(capsys, "yield", "phi_plus", "tilted", "--alpha=-1e3")
        code, out, _ = run(capsys, "yield", "phi_plus", "tilted", "--alpha", "-1e3")
        assert code == 0
        assert out.splitlines()[0] == expected.splitlines()[0]

    def test_hardy_phi_plus(self, capsys):
        code, out, _ = run(capsys, "--restarts", "4", "yield", "phi_plus", "hardy")
        assert code == 0
        assert float(out.split()[0]) <= 1e-6

    def test_unknown_functional(self, capsys):
        code, _, err = run(capsys, "yield", "phi_plus", "klrate")
        assert code == 2

    def test_wrong_dims_refused_before_density(self, capsys):
        # The density matrix of max_entangled(64) would take 256 MiB.
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "yield", "max_entangled(64)", "chsh")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == "error: CHSH needs 2 qubit parties, state has dims (64, 64)\n"
        assert peak < 2**20

    def test_hardy_angles_pinned(self, capsys):
        code, out, _ = run(capsys, "yield", "partial(0.4387)", "hardy")
        assert code == 0
        assert out == (
            "0.0901456848 32 0\n"
            "party 0: 2.519672123 0 1.201144077 0\n"
            "party 1: 2.519672123 3.141592654 1.201144077 3.141592654\n"
        )

    @pytest.mark.parametrize(
        "state, functional, expected",
        [
            ("ghz", "mermin", [
                [1, 32, 0],
                [1.570796327, 2.212582982, 1.570796327, -2.499805998],
                [1.570796327, 1.367179366, 1.570796327, 2.937975693],
                [1.570796327, 2.703422958, 1.570796327, -2.008966022],
            ]),
            ("partial(0.39)", "chsh", [
                [2.445078274, 32, 0],
                [2.163880735, 2.720891228, 0.3217903666, 2.720907952],
                [1.120190895, -2.720895845, 2.906719677, -2.720880917],
            ]),
        ],
    )
    def test_linear_angles_pinned(self, capsys, state, functional, expected):
        code, out, _ = run(capsys, "yield", state, functional)
        assert code == 0
        lines = out.splitlines()
        assert [ln.split(":")[0] for ln in lines[1:]] == [f"party {p}" for p in range(len(lines) - 1)]
        got = [[float(t) for t in ln.split(":")[-1].split()] for ln in lines]
        assert len(got) == len(expected)
        for row, want in zip(got, expected):
            assert row == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["yield", "max_entangled(2)", "chsh"], (
                "2.828427125 32 0\n"
                "party 0: 2.683327811 -2.583528525 1.792068631 -0.5392009233\n"
                "party 1: 2.480526383 1.009829095 2.070264842 -2.925104061\n"
            )),
            (["--seed", "5", "yield", "ghz", "mermin"], (
                "1 32 5\n"
                "party 0: 1.570796327 -0.1001238934 1.570796327 1.470672433\n"
                "party 1: 1.570796327 -1.787149859 1.570796327 -0.2163535318\n"
                "party 2: 1.570796327 1.887273752 1.570796327 -2.825115228\n"
            )),
            (["--restarts", "6", "--seed", "3", "yield", "max_entangled(2)", "tilted", "--alpha", "0.7"], (
                "2.828427125 6 3\n"
                "party 0: 0.09035709657 1.874132187 1.617688397 2.900498675\n"
                "party 1: 0.8351362952 -2.826812761 0.741631106 0.1602047425\n"
            )),
        ],
        ids=["max_entangled_chsh", "ghz_mermin_seed5", "max_entangled_tilted"],
    )
    def test_tied_restarts_pinned(self, capsys, argv, expected):
        # Several restarts reach the optimum here, so which one is printed
        # hangs on the last bit of each restart's value.
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == expected

    def test_hardy_restarts_and_seed_pinned(self, capsys):
        # The Hardy yield ignores both options but echoes them.
        code, out, _ = run(capsys, "--restarts", "6", "--seed", "3", "yield", "partial(0.43)", "hardy")
        assert code == 0
        assert out == (
            "0.0901368776 6 3\n"
            "party 0: 2.539313467 0 1.190540453 0\n"
            "party 1: 2.539313467 3.141592654 1.190540453 3.141592654\n"
        )

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "--restarts", "6", "--seed", "3", "yield", "partial(0.43)", "hardy")
        _, out2, _ = run(capsys, "--restarts", "6", "--seed", "3", "yield", "partial(0.43)", "hardy")
        assert out1 == out2


class TestSelftestScan:
    def test_chsh_scan(self, capsys):
        code, out, _ = run(
            capsys,
            "--restarts",
            "8",
            "selftest-scan",
            "chsh",
            f"{2 * np.sqrt(2):.12f}",
            "phi_plus",
            "phi_plus",
            "partial(0.3927)",
        )
        assert code == 0
        assert "satisfied on candidate set: True" in out


class TestDemos:
    def test_catalysis_demo_passes(self, capsys):
        code, out, _ = run(capsys, "demo", "catalysis")
        assert code == 0
        assert "demo result: pass" in out

    def test_catalysis_demo_matches_state_level_loop(self):
        from losrkit.demos import demo_catalysis
        from oracles import demo_catalysis_states

        for seed in range(20):
            assert demo_catalysis(seed) == demo_catalysis_states(seed)

    def test_ghz_mermin_demo_passes(self, capsys):
        code, out, _ = run(capsys, "demo", "ghz_mermin")
        assert code == 0
        assert "demo result: pass" in out

    def test_flag_selftest_demo_passes(self, capsys):
        code, out, _ = run(capsys, "demo", "flag_selftest")
        assert code == 0
        assert "demo result: pass" in out

    def test_anomaly_demo_passes(self, capsys):
        code, out, _ = run(capsys, "demo", "anomaly")
        assert code == 0
        assert "demo result: pass" in out

    def test_unknown_demo_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "unknown"])
        assert exc.value.code == 2

    def test_failing_demo_exits_one(self, capsys, monkeypatch):
        from losrkit import demos

        monkeypatch.setitem(demos.DEMOS, "always_fails", lambda seed=0: (["FAIL: forced"], False))
        code, out, _ = run(capsys, "demo", "always_fails")
        assert code == 1
        assert "demo result: fail" in out


class TestParserReuse:
    """One parser serves every call in a process; no call may leak into the next."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_long_does_not_stick(self, capsys):
        code, long_out, _ = run(capsys, "--long", "compare", "two_bell", "ghz")
        assert code == 0
        assert len(long_out.splitlines()) == 3
        code, out, _ = run(capsys, "compare", "two_bell", "ghz")
        assert code == 0
        assert out == "Incomparable MarginalContradiction\n"

    def test_tolerance_flag_does_not_stick(self, capsys):
        argv = ["factor", "max_entangled(4)", "partial(0.3)"]
        assert run(capsys, *argv)[1] == "not_found FactorizationFailed\n"
        code, loose, _ = run(capsys, "--eps-match", "0.5", *argv)
        assert code == 0
        assert loose.startswith("found ")
        assert run(capsys, *argv)[1] == "not_found FactorizationFailed\n"
        assert config.current() == Tolerances()

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "unknown"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(
            "invalid choice: 'unknown' (choose from 'anomaly', 'catalysis', 'flag_selftest', 'ghz_mermin')\n"
        )
        assert "{anomaly,catalysis,flag_selftest,ghz_mermin}" in err
        code, out, err = run(capsys, "schmidt", "two_bell", "A|BC")
        assert (code, out, err) == (0, "0.25 0.25 0.25 0.25\n", "")

    def test_seed_does_not_stick(self, capsys, monkeypatch):
        from losrkit import demos

        seeds = []
        monkeypatch.setitem(demos.DEMOS, "ghz_mermin", lambda seed=0: (seeds.append(seed) or [], True))
        assert run(capsys, "--seed", "3", "demo", "ghz_mermin")[0] == 0
        assert run(capsys, "demo", "ghz_mermin")[0] == 0
        assert seeds == [3, 0]


MALFORMED = [
    # (argv, text the error line must contain)
    # tolerance flags outside (0, 1)
    (["--eps-match", "-1", "compare", "phi_plus", "phi_plus"], ["eps_match"]),
    (["--eps-match", "inf", "factor", "phi_plus", "partial(0.3)"], ["eps_match"]),
    (["--eps-norm", "nan", "schmidt", "phi_plus", "A|B"], ["eps_norm"]),
    (["--eps-norm", "-1", "schmidt", "phi_plus", "A|B"], ["eps_norm"]),
    (["--long", "--tau-rank", "0", "schmidt", "phi_plus", "A|B"], ["tau_rank"]),
    # malformed inputs that the library rejects with ValueError
    (["compare", "phi_plus", "partial(abc)"], ["'partial(abc)'"]),
    (["compare", "phi_plus", "max_entangled(0)"], ["'max_entangled(0)'"]),
    (["--tau-rank", "0.9", "compare", "phi_plus", "partial(0.3)"], ["tau_rank 0.9", "largest 0.5"]),
    (["compare", "max_entangled(2.5)", "phi_plus"], ["'max_entangled(2.5)'"]),
    (["schmidt", "max_entangled(20000)", "A|B"], ["'max_entangled(20000)'", "4096"]),
    (["--tau-rank", "0.6", "--long", "schmidt", "phi_plus", "A|B"], ["tau_rank 0.6", "largest 0.5"]),
    (["--tau-rank", "0.3", "schmidt", "two_bell", "A|BC"], ["tau_rank 0.3", "largest 0.25"]),
    # scan thresholds that are not finite, and restarts over the cap
    (["selftest-scan", "chsh", "nan", "phi_plus", "phi_plus"], ["target_value", "nan"]),
    (["selftest-scan", "chsh", "2.8", "phi_plus", "phi_plus", "--tol", "nan"], ["tol", "nan"]),
    (["selftest-scan", "chsh", "2.8", "phi_plus", "phi_plus", "--tol", "-1"], ["tol", "-1"]),
    (["--restarts", "1000000000000", "yield", "phi_plus", "chsh"], ["restarts", "1000000000000"]),
    # tilts whose CHSH part rounds away or whose see-saw overflows
    (["box-eval", "tsirelson_box", "tilted", "--alpha", "1e17"], ["alpha", "1e+17"]),
    (["yield", "phi_plus", "tilted", "--alpha", "1e308"], ["alpha", "1e+308"]),
    # negative values in exponent form reach the check, not the usage error
    (
        ["selftest-scan", "chsh", "2.8", "phi_plus", "phi_plus", "--tol", "-1e-3"],
        ["tol must be finite and >= 0", "-0.001"],
    ),
]


@pytest.mark.parametrize("case", ["box_file", "state_file", "alpha"])
def test_non_finite_input_exits_two(capsys, tmp_path, case):
    if case == "box_file":
        path = tmp_path / "box.txt"
        save_box(path, uniform_box((2, 2), (2, 2)))
        path.write_text(path.read_text().replace("0.25", "nan", 1))
        argv = ["box-eval", str(path), "chsh"]
    elif case == "state_file":
        path = tmp_path / "state.txt"
        save_state(path, catalog.phi_plus())
        lines = path.read_text().splitlines()
        lines[1] = "nan 0.0"
        path.write_text("\n".join(lines) + "\n")
        argv = ["schmidt", str(path), "A|B"]
    else:
        argv = ["yield", "phi_plus", "tilted", "--alpha", "nan"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("argv, named", MALFORMED, ids=[f"argv{i}" for i in range(len(MALFORMED))])
def test_malformed_input_exits_two_with_one_error_line(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    for text in named:
        assert text in lines[0]


class TestFileArguments:
    @pytest.mark.parametrize("command", [["schmidt", "{dir}", "A|B"], ["box-local", "{dir}"]])
    def test_directory_exits_two(self, capsys, tmp_path, command):
        argv = [str(tmp_path) if a == "{dir}" else a for a in command]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and str(tmp_path) in lines[0]

    @pytest.mark.parametrize("text", ["65536 65536 65536 65536\n1.0 0.0\n", "4294967296 4294967296\n"])
    def test_header_beyond_int64_names_its_size(self, capsys, tmp_path, text):
        # Both headers multiply to 2**64, which int64 arithmetic wraps to 0.
        path = tmp_path / "huge.txt"
        path.write_text(text)
        code, out, err = run(capsys, "schmidt", str(path), "A|B")
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and str(2**64) in lines[0]

    # Inputs that once printed numpy RuntimeWarning lines before the error
    # line: cos/sin of a non-finite theta, and an overflowing state norm.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["schmidt", "partial(inf)", "A|B"], "theta must be finite, got inf"),
            (["schmidt", "partial(1e400)", "A|B"], "theta must be finite, got inf"),
            (["box-eval", "{file}", "chsh"], "state norm inf too far from 1"),
        ],
    )
    def test_no_numpy_warning_before_the_error(self, capsys, tmp_path, argv, named):
        path = tmp_path / "overflow.txt"
        path.write_text("1\n0.0 1.3407807929942597e+154\n")
        code, out, err = run(capsys, *[str(path) if a == "{file}" else a for a in argv])
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and named in lines[0]

    # Under --eps-norm 1e-300 every catalog state is renormalized; the
    # library's warning once came before the record on stderr.
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["schmidt", "chiral", "A|BC"], (0, "0.8952847075 0.1047152925\n", "")),
            (["box-eval", "chiral", "chsh"], (2, "", "error: 'chiral' is not a box\n")),
        ],
    )
    def test_renormalized_state_prints_only_the_record(self, capsys, argv, expected):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            seen = run(capsys, "--eps-norm", "1e-300", *argv)
        assert (seen, caught) == (expected, [])
        with pytest.warns(UserWarning, match="renormalizing"), config.override(eps_norm=1e-300):
            catalog.resolve("chiral")  # the library still warns its own callers


# ---------------------------------------------------------------------------
# Every command line drawn from the subcommand table ends in exit 0 or 2
# (1 only for a failing demo), exit 2 prints exactly one error line, and no
# exception leaves ``main``.

# Bound on the tracemalloc peak of one call.  The largest input drawn is
# max_entangled(64), 4096 amplitudes; 500 examples peaked at 12 MiB.
_PEAK_BOUND = 32 * 2**20

_NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e308", "-1e3", "0", "-0", "0.5", "2.8", "1e-300"]),
)
_ARG_TEXT = st.one_of(
    st.integers(-3, 70).map(str),
    st.sampled_from([str(2**64), "1e400", "abc", "", "2.5", "0.3927", "nan"]),
    st.floats().map(repr),
)
_CATALOG_NAMES = st.one_of(
    st.sampled_from([n for n in catalog.names() if "(" not in n] + ["PHI_PLUS", "nope"]),
    st.builds(
        "{}({})".format,
        st.sampled_from([n.split("(")[0] for n in catalog.names() if "(" in n]),
        _ARG_TEXT,
    ),
)
_SAVED = [
    catalog.phi_plus(),
    catalog.ghz(),
    catalog.partial(0.3),
    catalog.chiral(),
    catalog.phi_plus().density(),
    catalog.pr_box(),
    catalog.tsirelson_box(),
    uniform_box((3, 3), (2, 2)),
    uniform_box((1,), (5,)),
]
_HEADER_TOKEN = st.one_of(
    st.integers(-2, 4).map(str),
    st.sampled_from(["65536", "4294967296", str(2**64), "100000000", "2.5", "x", "nan", "1e3"]),
)
_ENTRY_TOKEN = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["0.5", "0.25", "0", "1", "nan", "inf", "-1", "x", "1,0", "0j"]),
)


@st.composite
def _file_text(draw) -> str:
    """A header of drawn tokens over rows of drawn entries; the row count and
    length are either drawn or those the header asks for, read as a state or
    as a box."""
    head = draw(st.lists(_HEADER_TOKEN, min_size=1, max_size=6))
    ints = [int(t) for t in head if t.lstrip("-").isdigit()]
    n_rows, width = draw(st.integers(0, 12)), draw(st.integers(0, 5))
    if len(ints) == len(head) and all(1 <= v <= 4 for v in ints) and draw(st.booleans()):
        n = ints[0]
        if len(ints) == 1 + 2 * n:  # a box header
            n_rows, width = math.prod(ints[1 : 1 + n]), math.prod(ints[1 + n :])
        else:
            n_rows, width = math.prod(ints), 2
        n_rows = n_rows if n_rows * width <= 64 else draw(st.integers(0, 12))
    rows = [" ".join(draw(st.lists(_ENTRY_TOKEN, min_size=width, max_size=width))) for _ in range(n_rows)]
    return "\n".join([" ".join(head), *rows]) + "\n"


_INPUT = st.one_of(
    st.tuples(st.just("name"), _CATALOG_NAMES),
    st.tuples(st.just("saved"), st.sampled_from(range(len(_SAVED))), st.integers(0, 40), _ENTRY_TOKEN),
    st.tuples(st.just("text"), _file_text()),
    st.tuples(st.just("bytes"), st.binary(max_size=64)),
    st.tuples(st.just("dir")),
)
_POSITIONAL = {
    "state": _INPUT,
    "state1": _INPUT,
    "state2": _INPUT,
    "target_state": _INPUT,
    "box": _INPUT,
    "candidates": st.lists(_INPUT, min_size=1, max_size=3),
    "bipartition": st.sampled_from(["A|B", "A|BC", "AB|C", "b|ac", "A|X", "AB", "A||B", "|", ""]),
    "functional": st.sampled_from(["chsh", "tilted", "hardy", "mermin", "Mermin", "foo"]),
    "target_value": _NUMBER_TEXT,
}
_SUBCOMMAND_OPTIONS = {
    "--alpha": _NUMBER_TEXT,
    "--tol": _NUMBER_TEXT,
    "--bipartition": _POSITIONAL["bipartition"],
}
# Tolerances inside (0, 1) are drawn often, so that most draws get past them.
_TOLERANCE_TEXT = st.one_of(st.floats(1e-12, 0.1).map(repr), _NUMBER_TEXT)
_GLOBAL_OPTIONS = {
    "--eps-norm": _TOLERANCE_TEXT,
    "--tau-rank": _TOLERANCE_TEXT,
    "--eps-match": _TOLERANCE_TEXT,
    "--seed": st.integers(-1, 2**70).map(str),
    "--restarts": st.sampled_from(["1", "3", "0", "-1", "10001", str(2**64)]),
}


def _subcommand_table() -> dict:
    """Each subcommand's parser, read from the CLI's own parser."""
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@st.composite
def _command_lines(draw) -> tuple[str, list]:
    """argv as a list of strings and drawn inputs; every positional and option
    value is one argparse accepts, so no draw ends in a usage error."""
    command, sub = draw(st.sampled_from(sorted(_subcommand_table().items())))
    argv = []
    for flag, values in _GLOBAL_OPTIONS.items():
        if draw(st.integers(0, 3)) == 3:
            argv += [flag, draw(values)]
    if draw(st.booleans()):
        argv.append("--long")
    argv.append(command)
    for action in sub._actions:
        if action.option_strings:
            if action.dest != "help" and draw(st.booleans()):
                argv += [action.option_strings[0], draw(_SUBCOMMAND_OPTIONS[action.option_strings[0]])]
        elif action.choices:
            argv.append(draw(st.sampled_from(sorted(action.choices))))
        else:
            value = draw(_POSITIONAL[action.dest])
            argv += value if action.nargs == "+" else [value]
    return command, argv


def _materialize(item, directory: Path, index: int) -> str:
    """The command-line text of one drawn input, writing its file if it has one."""
    kind, *rest = item
    if kind == "name":
        return rest[0]
    if kind == "dir":
        return str(directory)
    path = directory / f"input{index}.txt"
    if kind == "saved":
        obj, line, token = _SAVED[rest[0]], rest[1], rest[2]
        (save_box if isinstance(obj, Box) else save_state)(path, obj)
        lines = path.read_text().splitlines()
        if line < len(lines):  # otherwise the saved file is used as it is
            lines[line] = f"{token} {lines[line].split(' ', 1)[-1]}"
        path.write_text("\n".join(lines) + "\n")
    elif kind == "text":
        path.write_text(rest[0])
    else:
        path.write_bytes(rest[0])
    return str(path)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_command_lines())
def test_drawn_command_lines_end_in_one_record(drawn):
    command, argv = drawn
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        args = [a if isinstance(a, str) else _materialize(a, directory, i) for i, a in enumerate(argv)]
        out, err = io.StringIO(), io.StringIO()
        tracemalloc.start()
        try:
            # Recorded here, since pytest's own capture would take a warning
            # before it reached the redirected stderr.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(args)
            peak = tracemalloc.get_traced_memory()[1]
        except SystemExit:
            pytest.fail(f"argparse rejected {args}")
        finally:
            tracemalloc.stop()
    assert code in ((0, 1, 2) if command == "demo" else (0, 2)), args
    assert not caught, (args, [str(w.message) for w in caught])
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert err.getvalue() == ""
    assert peak < _PEAK_BOUND, (args, peak)


# One catalog command line per subcommand; where --long has lines to add,
# the input is one that gets them.
_LONG_CASES = {
    "box-eval": ["box-eval", "tsirelson_box", "hardy"],
    "box-local": ["box-local", "pr_box"],
    "compare": ["--eps-match", "0.05", "compare", "partial(0.78)", "phi_plus"],
    "demo": ["demo", "flag_selftest"],
    "factor": ["--eps-match", "0.05", "factor", "partial(0.78)", "phi_plus"],
    "multi-check": ["multi-check", "two_bell", "ghz"],
    "schmidt": ["schmidt", "two_bell", "A|BC"],
    "selftest-scan": ["--restarts", "4", "selftest-scan", "chsh", "2.828427", "phi_plus", "phi_plus", "partial(0.39)"],
    "yield": ["--restarts", "4", "yield", "phi_plus", "chsh"],
}


@pytest.mark.parametrize("command", sorted(_subcommand_table()))
def test_long_only_appends(capsys, command):
    argv = _LONG_CASES[command]
    code, out, _ = run(capsys, *argv)
    long_code, long_out, _ = run(capsys, "--long", *argv)
    assert code == long_code == 0
    assert long_out.startswith(out)
