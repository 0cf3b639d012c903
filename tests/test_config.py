import dataclasses
import threading

import pytest

from losrkit import Bipartition, Tolerances, catalog, config, schmidt_spectrum


def partial_rank() -> int:
    return schmidt_spectrum(catalog.partial(0.3), Bipartition.parse("A|B", 2)).rank()


class TestOverride:
    def test_nested_overrides_restore_in_order(self):
        with config.override(tau_rank=0.3) as outer:
            assert outer.tau_rank == 0.3
            with config.override(eps_match=1e-3) as inner:
                assert inner == Tolerances(tau_rank=0.3, eps_match=1e-3)
                assert config.current() is inner
                assert partial_rank() == 1
            assert config.current() == outer
        assert config.current() == Tolerances()
        assert partial_rank() == 2

    def test_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with config.override(tau_rank=0.3):
                raise RuntimeError("inside the block")
        assert config.current() == Tolerances()

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.current().tau_rank = 0.3

    @pytest.mark.parametrize("value", [0.0, 1.0, -1e-9, float("inf"), float("nan")])
    def test_out_of_range_rejected(self, value):
        with pytest.raises(ValueError):
            with config.override(eps_norm=value):
                pass
        assert config.current() == Tolerances()

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            with config.override(eps_unknown=1e-3):
                pass

    def test_hardy_slack_is_not_a_tolerance(self):
        with pytest.raises(TypeError):
            with config.override(eps_hardy=1e-7):
                pass


class TestThreads:
    def test_each_thread_sees_its_own_override(self):
        barrier = threading.Barrier(2, timeout=30)
        ranks = {}

        def worker(tau):
            with config.override(tau_rank=tau):
                barrier.wait()  # both overrides are now in effect at once
                ranks[tau] = partial_rank()
                barrier.wait()

        threads = [threading.Thread(target=worker, args=(tau,)) for tau in (0.1, 0.05)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert ranks == {0.1: 1, 0.05: 2}
        assert config.current() == Tolerances()

    def test_new_thread_starts_from_defaults(self):
        seen = []
        with config.override(tau_rank=0.3):
            t = threading.Thread(target=lambda: seen.append(config.current()))
            t.start()
            t.join(timeout=60)
            assert not t.is_alive()
        assert seen == [Tolerances()]
