import re
import tracemalloc

import numpy as np
import pytest

from losrkit import (
    CHSH,
    Box,
    HardyScore,
    LocalModel,
    MerminGHZ,
    NonlocalCertificate,
    TiltedCHSH,
    born_box,
    catalog,
    config,
    is_no_signaling,
    load_box,
    local_membership,
    mix_boxes,
    save_box,
    uniform_box,
)
from losrkit.boxes import MAX_TILT, _lp_rows, _strategy_layout
from conftest import phi_plus_box, run_fresh
from oracles import deterministic_vertices, local_membership_dense


def vertex_tables(settings, outcomes) -> np.ndarray:
    """The oracle's deterministic vertices as flattened rows, in its order."""
    return np.array([v.table.reshape(-1) for v in deterministic_vertices(settings, outcomes)])


def signaling_box():
    # Alice outputs Bob's setting: a = y, b = 0
    table = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            table[x, y, y, 0] = 1.0
    return Box(table)


class TestBoxType:
    def test_negative_probability_rejected(self):
        table = np.full((2, 2, 2, 2), 0.25)
        table[0, 0, 0, 0] = -1e-6
        table[0, 0, 1, 1] = 0.25 + 1e-6
        with pytest.raises(ValueError):
            Box(table)

    def test_non_finite_entry_rejected(self):
        table = np.full((2, 2, 2, 2), 0.25)
        table[1, 0, 0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Box(table)

    def test_unnormalized_conditional_rejected(self):
        table = np.full((2, 2, 2, 2), 0.3)
        with pytest.raises(ValueError):
            Box(table)

    @pytest.mark.parametrize("shape", [(), (2, 2, 2), (2, 0, 2, 2)])
    def test_table_without_2n_nonempty_axes_rejected(self, shape):
        with pytest.raises(ValueError, match=f"shape {re.escape(str(shape))}"):
            Box(np.ones(shape))

    def test_scenario_read_from_table_shape(self):
        box = Box(np.full((3, 2, 1, 2, 2, 4), 1 / 16))
        assert box.n_parties == 3
        assert box.shape == ((3, 2, 1), (2, 2, 4))

    def test_conditional_sums_checked_within_eps_norm(self):
        table = np.full((2, 2, 2, 2), 0.25)
        table[:, :, 0, 0] += 1e-7
        with config.override(eps_norm=1e-6):
            assert Box(table).table[0, 0, 0, 0] == 0.25 + 1e-7
        with pytest.raises(ValueError, match="does not sum to 1"):
            Box(table)


class TestNoSignaling:
    def test_pr_box(self):
        assert is_no_signaling(catalog.pr_box(), 1e-12)

    def test_signaling_box(self):
        assert not is_no_signaling(signaling_box(), 1e-6)

    def test_born_boxes(self, rng):
        from conftest import random_density

        for _ in range(5):
            box = born_box(random_density(rng, (2, 2)), catalog.xy_measurements(2))
            assert is_no_signaling(box, 1e-10)


class TestVertices:
    def test_counts(self):
        assert len(deterministic_vertices((2, 2), (2, 2))) == 16
        assert len(deterministic_vertices((2, 2, 2), (2, 2, 2))) == 64
        assert len(deterministic_vertices((1,), (5,))) == 5

    def test_lp_rows_match_oracle_in_order(self):
        scenarios = (((2, 2), (2, 2)), ((3, 3), (2, 2)), ((2, 3), (3, 2)), ((2, 2, 2), (2, 2, 2)), ((1,), (5,)))
        for settings, outcomes in scenarios:
            oracle = vertex_tables(settings, outcomes)
            prefix, perm = _strategy_layout(settings, outcomes)
            rows = _lp_rows(prefix, perm, settings[-1], outcomes[-1], np.arange(len(oracle)))
            np.testing.assert_array_equal(rows[:, :-1], oracle)
            np.testing.assert_array_equal(rows[:, -1], -1.0)

    def test_oversize_rejected(self):
        # (8,8)/(8,8) has 2**24 Alice strategies over 64 of her (setting,
        # outcome) pairs, (2,)*9/(2,)*9 has 2**16 over 2**16: the cap must
        # refuse them before anything is allocated.
        for settings, outcomes in (((8, 8), (8, 8)), ((2,) * 9, (2,) * 9)):
            box = uniform_box(settings, outcomes)
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="cap"):
                    local_membership(box)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * box.table.nbytes + 2**20


class TestLocalMembership:
    def test_uniform_box_local_with_verified_weights(self):
        box = uniform_box((2, 2), (2, 2))
        res = local_membership(box)
        assert isinstance(res, LocalModel)
        verts = deterministic_vertices((2, 2), (2, 2))
        recon = sum(w * v.table for w, v in zip(res.weights, verts))
        assert np.max(np.abs(recon - box.table)) <= 1e-8
        assert res.weights.min() >= 0

    def test_pr_box_nonlocal_with_verified_certificate(self):
        res = local_membership(catalog.pr_box())
        assert isinstance(res, NonlocalCertificate)
        assert res.margin > 1e-6
        f = res.functional
        for v in deterministic_vertices((2, 2), (2, 2)):
            assert float(f @ v.table.reshape(-1)) <= res.local_bound + 1e-9
        assert float(f @ catalog.pr_box().table.reshape(-1)) > res.local_bound + 1e-9

    def test_tsirelson_box_nonlocal(self):
        res = local_membership(catalog.tsirelson_box())
        assert isinstance(res, NonlocalCertificate)
        assert res.margin > 1e-6

    @pytest.mark.parametrize("d", [1e-7, 1e-8, 1e-9, -1e-9, -1e-7])
    def test_noisy_tsirelson_decided_at_the_margin(self, d):
        # Visibility 1/sqrt(2) + d has CHSH gap 2 sqrt(2) d.  At HiGHS's default
        # feasibility tolerance, 1e-7, gaps up to about 3e-7 were reported local.
        res = local_membership(mix_boxes(uniform_box((2, 2), (2, 2)), catalog.tsirelson_box(), 1 / np.sqrt(2) + d))
        if d > 0:
            assert isinstance(res, NonlocalCertificate)
            assert res.margin == pytest.approx(2 * np.sqrt(2) * d, rel=1e-3)
        else:
            assert isinstance(res, LocalModel)
            assert res.reconstruction_error <= 1e-15

    def test_local_mixture_recognized(self, rng, monkeypatch):
        import losrkit.boxes

        calls = []
        solve = losrkit.boxes.linprog

        def counting_linprog(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(losrkit.boxes, "linprog", counting_linprog)
        for settings, outcomes in (((2, 2), (2, 2)), ((3, 3), (2, 2)), ((2, 2, 2), (2, 2, 2))):
            verts = deterministic_vertices(settings, outcomes)
            w = rng.dirichlet(np.ones(len(verts)))
            table = sum(wi * v.table for wi, v in zip(w, verts))
            calls.clear()
            res = local_membership(Box(table))
            assert isinstance(res, LocalModel)
            # one solve per round, and no separate weights LP; with no more
            # vertices than LP variables the first LP holds them all
            assert len(calls) == res.rounds
            if len(verts) <= table.size + 1:
                assert res.rounds == 1
            assert res.reconstruction_error <= 1e-8
            # the weights index the oracle's vertex order
            recon = sum(wi * v.table for wi, v in zip(res.weights, verts))
            assert np.max(np.abs(recon - table)) <= 1e-8

    def test_local_certified_boxes_respect_chsh_bound(self, rng):
        verts = deterministic_vertices((2, 2), (2, 2))
        for _ in range(10):
            w = rng.dirichlet(np.ones(len(verts)) * 0.3)
            box = Box(sum(wi * v.table for wi, v in zip(w, verts)))
            if isinstance(local_membership(box), LocalModel):
                assert CHSH().evaluate(box) <= 2 + 1e-8

    def test_signaling_input_rejected(self):
        with pytest.raises(ValueError):
            local_membership(signaling_box())

    def test_many_last_party_strategies_stay_within_the_weights(self):
        # Bob's 2**20 strategies: a one-hot table of all of them would hold
        # 335 MB, while the weight vector over all 2**22 strategies is 32 MB.
        box = uniform_box((2, 20), (2, 2))
        tracemalloc.start()
        try:
            res = local_membership(box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(res, LocalModel)
        assert peak <= res.weights.nbytes + 8 * 2**20


def _repeat_settings(box: Box, settings) -> Box:
    """``box`` on more settings per party, setting x playing setting x mod 2:
    still no-signaling, and as nonlocal as ``box``."""
    table = box.table
    for p, s in enumerate(settings):
        table = np.take(table, np.arange(s) % 2, axis=p)
    return Box(table)


def _pad_outcomes(box: Box, outcomes) -> Box:
    """``box`` with outcomes it never produces appended to each party."""
    n = box.n_parties
    pad = [(0, 0)] * n + [(0, o - a) for o, a in zip(outcomes, box.outcomes_per_party)]
    return Box(np.pad(box.table, pad))


def _gap(res) -> float:
    return res.margin if isinstance(res, NonlocalCertificate) else 0.0


_GHZ_BOX = born_box(catalog.ghz().density(), catalog.xy_measurements(3))
_VISIBILITIES = (0.5 - 1e-3, 0.5 + 1e-3, 1 / np.sqrt(2) - 1e-4, 1 / np.sqrt(2) + 1e-4)


class TestDenseOracle:
    """Column generation against the single LP over every vertex."""

    @pytest.mark.parametrize(
        "settings, outcomes",
        [((2, 2), (2, 2)), ((3, 3), (2, 2)), ((2, 2), (3, 3)), ((2, 2, 2), (2, 2, 2)), ((3, 3, 3), (2, 2, 2)), ((4, 4, 4), (2, 2, 2))],
    )
    def test_same_verdict_and_gap(self, settings, outcomes, rng):
        uni = uniform_box(settings, outcomes)
        verts = vertex_tables(settings, outcomes)
        mixture = Box((rng.dirichlet(np.ones(len(verts))) @ verts).reshape(uni.table.shape))
        if len(settings) == 2:
            bases, visibilities = (catalog.pr_box(), catalog.tsirelson_box()), _VISIBILITIES
        else:
            # the GHZ box's Mermin value 1 meets the local bound 3/4 at v = 1/2
            bases, visibilities = (_GHZ_BOX,), _VISIBILITIES[:2]
        boxes = [uni, mixture]
        for base in bases:
            base = _pad_outcomes(_repeat_settings(base, settings), outcomes)
            boxes += [mix_boxes(uni, base, v) for v in visibilities]
        kinds = set()
        for box in boxes:
            res, dense = local_membership(box), local_membership_dense(box)
            assert type(res) is type(dense)
            assert abs(_gap(res) - _gap(dense)) <= 1e-9
            kinds.add(type(res))
            p_flat = box.table.reshape(-1)
            if isinstance(res, NonlocalCertificate):
                # the bound holds on every vertex, not only the LP's columns
                assert float(np.max(verts @ res.functional)) == pytest.approx(res.local_bound, abs=1e-12)
                assert res.value == pytest.approx(float(res.functional @ p_flat), abs=1e-12)
            else:
                assert res.weights.shape == (len(verts),)
                assert res.weights.min() >= 0
                assert np.max(np.abs(res.weights @ verts - p_flat)) <= 1e-8
                assert res.reconstruction_error <= 1e-8
            assert 1 <= res.rounds and res.columns <= len(verts)
        assert kinds == {LocalModel, NonlocalCertificate}


class TestMembershipScale:
    """Scenarios whose dense vertex LP would not fit: each runs in a fresh
    interpreter that has loaded scipy.optimize and solved one small LP, so
    ru_maxrss, a high-water mark, measures the call alone."""

    PRELUDE = """
        import json, resource, time
        from losrkit import catalog, local_membership, uniform_box

        local_membership(catalog.pr_box())

        def measure(box):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            start = time.perf_counter()
            res = local_membership(box)
            seconds = time.perf_counter() - start
            rise_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
            return res, {"kind": type(res).__name__, "seconds": seconds, "rise_mb": rise_mb}
        """

    def test_uniform_5x5_3x3_within_50_mb(self):
        # 59,049 strategies over 225 entries: the dense LP raised RSS by 436 MB
        seen = run_fresh(self.PRELUDE + """
        res, seen = measure(uniform_box((5, 5), (3, 3)))
        seen["error"] = res.reconstruction_error
        print(json.dumps(seen))
        """)
        assert seen["kind"] == "LocalModel"
        assert seen["error"] <= 1e-8
        assert seen["rise_mb"] < 50

    def test_ten_settings_decided_within_budget(self):
        # (10,10)/(2,2): 2**20 strategies, over the old dense cap.  Measured
        # at 0.6 s and +25 MB on a 2-core Xeon VM; the budget is 4 s and 80 MB.
        seen = run_fresh(self.PRELUDE + """
        from conftest import phi_plus_box

        res, seen = measure(phi_plus_box(10, 0.8))
        seen.update(functional=res.functional.tolist(), bound=res.local_bound, value=res.value)
        print(json.dumps(seen))
        """)
        assert seen["kind"] == "NonlocalCertificate"
        assert seen["seconds"] < 4
        assert seen["rise_mb"] < 80
        # the bound is the maximum over all 1024 x 1024 strategy pairs
        strategies = np.indices((2,) * 10).reshape(10, -1).T[:, :, None] == np.arange(2)
        one_hot = strategies.reshape(1024, 20).astype(float)
        f = np.array(seen["functional"]).reshape(10, 10, 2, 2).transpose(0, 2, 1, 3).reshape(20, 20)
        assert float(np.max(one_hot @ f @ one_hot.T)) == pytest.approx(seen["bound"], abs=1e-12)
        p = phi_plus_box(10, 0.8).table.reshape(-1)
        assert float(np.array(seen["functional"]) @ p) == pytest.approx(seen["value"], abs=1e-12)
        assert seen["value"] - seen["bound"] > 3


class TestCHSH:
    def test_deterministic_maximum_is_two(self):
        values = [CHSH().evaluate(v) for v in deterministic_vertices((2, 2), (2, 2))]
        assert max(values) == pytest.approx(2.0, abs=1e-12)
        assert min(values) == pytest.approx(-2.0, abs=1e-12)

    def test_tsirelson_value(self):
        assert CHSH().evaluate(catalog.tsirelson_box()) == pytest.approx(
            2 * np.sqrt(2), abs=1e-9
        )

    def test_pr_box_value(self):
        assert CHSH().evaluate(catalog.pr_box()) == pytest.approx(4.0, abs=1e-12)

    def test_mixing_toward_uniform_never_increases(self, rng):
        uni = uniform_box((2, 2), (2, 2))
        for box in (catalog.pr_box(), catalog.tsirelson_box()):
            base = abs(CHSH().evaluate(box))
            for t in rng.uniform(0, 1, 10):
                mixed = mix_boxes(box, uni, float(t))
                assert abs(CHSH().evaluate(mixed)) <= base + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            CHSH().evaluate(uniform_box((2, 2, 2), (2, 2, 2)))


class TestTiltedCHSH:
    def test_local_bound_from_vertex_enumeration(self):
        verts = deterministic_vertices((2, 2), (2, 2))
        for alpha in np.linspace(0.0, 2.0, 9):
            f = TiltedCHSH(float(alpha))
            best = max(f.evaluate(v) for v in verts)
            assert best == pytest.approx(2.0 + alpha, abs=1e-9)

    def test_non_finite_alpha_rejected(self):
        for alpha in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                TiltedCHSH(alpha)

    def test_tilt_capped(self):
        box = catalog.tsirelson_box()
        for alpha in (MAX_TILT, -MAX_TILT):
            assert TiltedCHSH(alpha).evaluate(box) == pytest.approx(2 * np.sqrt(2), abs=1e-9)
        for alpha in (np.nextafter(MAX_TILT, np.inf), 1e17, 1e308, -1e17):
            with pytest.raises(ValueError, match="alpha"):
                TiltedCHSH(alpha)

    def test_reduces_to_chsh_at_zero(self):
        box = catalog.tsirelson_box()
        assert TiltedCHSH(0.0).evaluate(box) == pytest.approx(CHSH().evaluate(box), abs=1e-12)


class TestHardyScore:
    def test_gate_zeroes_score_when_constraints_violated(self):
        box = uniform_box((2, 2), (2, 2))
        f = HardyScore()
        assert f.constraint_violation(box) == pytest.approx(0.25)
        assert f.evaluate(box) == 0.0

    def test_phi_plus_measurements_cannot_run_hardy(self, rng):
        from losrkit import MeasurementFamily

        f = HardyScore()
        for _ in range(12):
            vecs = rng.standard_normal((2, 2, 3))
            vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
            box = born_box(catalog.phi_plus().density(), MeasurementFamily(vecs))
            assert f.evaluate(box) <= 1e-6 or f.constraint_violation(box) > 1e-7


class TestMerminGHZ:
    def test_ghz_xy_box_wins_every_even_setting(self):
        box = born_box(catalog.ghz().density(), catalog.xy_measurements(3))
        f = MerminGHZ()
        wins = f.setting_win_probabilities(box)
        assert set(wins) == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
        for p in wins.values():
            assert p == pytest.approx(1.0, abs=1e-10)
        assert f.evaluate(box) == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_bound_below_one(self):
        best = max(
            MerminGHZ().evaluate(v) for v in deterministic_vertices((2, 2, 2), (2, 2, 2))
        )
        assert best == pytest.approx(0.75, abs=1e-12)


class TestBoxFiles:
    def test_roundtrip(self, tmp_path):
        box = catalog.tsirelson_box()
        path = tmp_path / "box.txt"
        save_box(path, box)
        back = load_box(path)
        assert back.shape == box.shape
        assert np.max(np.abs(back.table - box.table)) < 1e-15

    def test_literal_file(self, tmp_path):
        path = tmp_path / "pr.txt"
        path.write_text(
            "2 2 2 2 2\n"
            "0.5 0.0 0.0 0.5\n"
            "0.5 0.0 0.0 0.5\n"
            "0.5 0.0 0.0 0.5\n"
            "0.0 0.5 0.5 0.0\n"
        )
        box = load_box(path)
        assert np.max(np.abs(box.table - catalog.pr_box().table)) < 1e-15

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 2\n0.5 0.5\n")
        with pytest.raises(ValueError):
            load_box(path)

    @pytest.mark.parametrize("header", ["1 0 2", "1 2 -1", "2 -1 -1 2 2", "0"])
    def test_nonpositive_header_rejected(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n0.5 0.5\n")
        with pytest.raises(ValueError, match="header"):
            load_box(path)

    def test_huge_header_rejected_before_allocating(self, tmp_path):
        # 10**8 outcomes would be an 800 MB table; the short row decides first
        path = tmp_path / "huge.txt"
        path.write_text("1 1 100000000\n0.5 0.5\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="wrong length"):
                load_box(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


# The exact text the writer puts out, and its reload bit for bit.
_GOLDEN_BOXES = [
    (
        catalog.tsirelson_box(),
        "2 2 2 2 2\n"
        + "0.42677669529663687 0.07322330470336313 0.07322330470336313 0.42677669529663687\n" * 3
        + "0.07322330470336313 0.42677669529663687 0.42677669529663687 0.07322330470336313\n",
    ),
    (uniform_box((1,), (5,)), "1 1 5\n0.2 0.2 0.2 0.2 0.2\n"),
]


@pytest.mark.parametrize("box, text", _GOLDEN_BOXES, ids=["tsirelson", "one_setting"])
def test_saved_box_text_pinned(tmp_path, box, text):
    path = tmp_path / "box.txt"
    save_box(path, box)
    assert path.read_bytes() == text.encode()
    back = load_box(path)
    assert back.table.shape == box.table.shape
    assert back.table.tobytes() == np.ascontiguousarray(box.table).tobytes()
