import re

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
from losrkit.boxes import MAX_TILT, _vertex_matrix
from oracles import deterministic_vertices


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
        for settings, outcomes in (((2, 2), (2, 2)), ((3, 3), (2, 2)), ((2, 2, 2), (2, 2, 2)), ((1,), (5,))):
            rows = _vertex_matrix(settings, outcomes)
            oracle = np.array([v.table.reshape(-1) for v in deterministic_vertices(settings, outcomes)])
            np.testing.assert_array_equal(rows[:, :-1], oracle)
            np.testing.assert_array_equal(rows[:, -1], -1.0)

    def test_oversize_rejected(self):
        # (2,)*9/(2,)*9 has 262,144 vertices of 262,144 entries: the cap must
        # refuse it before anything is allocated.
        for settings, outcomes in (((8, 8), (8, 8)), ((2,) * 9, (2,) * 9)):
            with pytest.raises(ValueError):
                _vertex_matrix(settings, outcomes)
            with pytest.raises(ValueError):
                local_membership(uniform_box(settings, outcomes))


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
            assert len(calls) == 1
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
