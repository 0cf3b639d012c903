"""What a fresh interpreter loads, and what its first calls return.

scipy.optimize is imported by the first LP solve and scipy.linalg by the
first density matrix above 64 dimensions that the constructor checks: the
PSD check of a smaller one runs in numpy.  So pure-state and small mixed-state
yields, channel outputs, ``demo anomaly`` and a ``selftest-scan`` over pure
candidates load no scipy module.  Each check runs in its own interpreter:
this suite's process has loaded both long before any test runs.
"""

import textwrap

import numpy as np
import pytest

from conftest import run_fresh


class TestScipyLoadedOnDemand:
    def test_each_path_loads_only_its_scipy_module(self):
        seen = run_fresh(
            """
            import contextlib, io, json, sys

            def loaded():
                return [m for m in ("scipy.optimize", "scipy.linalg") if m in sys.modules]

            seen = {}
            import losrkit, losrkit.cli
            from losrkit import CHSH, catalog, optimize_yield
            seen["import"] = loaded()
            with contextlib.redirect_stdout(io.StringIO()):
                losrkit.cli.main(["schmidt", "two_bell", "A|BC"])
                seen["schmidt"] = loaded()
                losrkit.cli.main(["compare", "phi_plus", "partial(0.3)"])
                seen["compare"] = loaded()
                optimize_yield(catalog.phi_plus(), CHSH())
                seen["yield"] = loaded()
                losrkit.cli.main(["demo", "anomaly"])
                seen["demo anomaly"] = loaded()
                losrkit.cli.main(["--restarts", "4", "selftest-scan", "chsh", "2.8", "phi_plus",
                                  "phi_plus", "partial(0.3)"])
                seen["selftest-scan"] = loaded()
                losrkit.cli.main(["box-local", "pr_box"])
                seen["box-local"] = loaded()
            print(json.dumps(seen))
            """
        )
        assert seen == {
            "import": [],
            "schmidt": [],
            "compare": [],
            "yield": [],
            "demo anomaly": [],
            "selftest-scan": [],
            "box-local": ["scipy.optimize", "scipy.linalg"],
        }


def run_fresh_recording_checks(script: str) -> dict:
    """``run_fresh`` with the constructor's Cholesky step wrapped, so that
    ``checks`` lists each PSD check made: its matrix size, and whether the
    factorization succeeded."""
    recorder = """
    from losrkit import states

    checks = []

    def recorded(shifted, factor=states._cholesky_succeeds):
        checks.append([shifted.shape[0], factor(shifted)])
        return checks[-1][1]

    states._cholesky_succeeds = recorded
    """
    return run_fresh(textwrap.dedent(recorder) + textwrap.dedent(script))


class TestFirstCallsInFreshProcess:
    def test_first_density_matrix_still_checks_psd(self):
        seen = run_fresh_recording_checks(
            """
            import json, sys
            import numpy as np
            from losrkit import DensityMatrix

            try:
                DensityMatrix((2,), np.diag([1.5, -0.5]))
                error = None
            except ValueError as exc:
                error = str(exc)
            print(json.dumps({"checks": checks, "error": error, "scipy": "scipy" in sys.modules}))
            """
        )
        assert seen["checks"] == [[2, False]]
        assert seen["error"] is not None and "negative eigenvalue" in seen["error"]
        assert not seen["scipy"]

    def test_flag_mixed_state_checks_its_first_matrix(self):
        # The flagged state is assembled entry by entry, so the constructor
        # checks it; only its regrouping skips the checks.
        seen = run_fresh_recording_checks(
            """
            import json
            import numpy as np
            from losrkit import catalog
            from losrkit.selftest import FlagConstruction, flag_mixed_state

            fc = FlagConstruction(catalog.phi_plus(), np.full((2, 2), 0.25),
                                  (np.eye(2), np.diag([1.0, -1.0])), (np.eye(2), np.eye(2)[::-1]))
            rho = flag_mixed_state(fc)
            print(json.dumps({"checks": checks, "dims": rho.party_dims}))
            """
        )
        assert seen["checks"] == [[16, True]]
        assert seen["dims"] == [4, 4]

    def test_pure_state_hardy_yield_checks_no_density_matrix(self):
        # The yield reads the amplitudes, and its Born box the outer product,
        # which is valid by construction.
        seen = run_fresh_recording_checks(
            """
            import contextlib, io, json, sys
            import losrkit.cli
            from losrkit import HardyScore, catalog, optimize_yield

            value = optimize_yield(catalog.partial(0.4), HardyScore()).value
            with contextlib.redirect_stdout(io.StringIO()):
                code = losrkit.cli.main(["yield", "partial(0.4387)", "hardy"])
            scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            print(json.dumps({"checks": checks, "scipy": scipy, "value": value, "code": code}))
            """
        )
        assert seen == {"checks": [], "scipy": [], "value": pytest.approx(0.0884091072, abs=1e-10), "code": 0}

    def test_small_mixed_states_load_no_scipy(self):
        seen = run_fresh(
            """
            import json, sys
            import numpy as np
            from losrkit import CHSH, DensityMatrix, LocalChannelFamily, apply_channel, catalog, optimize_yield
            from losrkit.selftest import FlagConstruction, flag_mixed_state

            def loaded():
                return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

            seen = {}
            rho = DensityMatrix((2, 2), 0.8 * catalog.phi_plus().density().matrix + 0.05 * np.eye(4))
            seen["literal"] = loaded()
            noise = LocalChannelFamily.from_local_kraus(
                [[np.sqrt(0.9) * np.eye(2), np.sqrt(0.1) * np.diag([1.0, -1.0])], [np.eye(2)]])
            out = apply_channel(rho, noise)
            seen["channel"] = loaded()
            fc = FlagConstruction(catalog.phi_plus(), np.full((2, 2), 0.25),
                                  (np.eye(2), np.diag([1.0, -1.0])), (np.eye(2), np.eye(2)[::-1]))
            flag_mixed_state(fc)
            seen["flag"] = loaded()
            seen["value"] = optimize_yield(out, CHSH()).value
            seen["yield"] = loaded()
            n = 324
            DensityMatrix((18, 18), np.eye(n) / n)
            seen["324"] = "scipy.linalg" in sys.modules
            print(json.dumps(seen))
            """
        )
        assert seen.pop("324")
        assert seen.pop("value") == pytest.approx(2 * 0.8 * np.sqrt(1 + 0.8**2), abs=1e-6)  # Horodecki bound
        assert seen == {"literal": [], "channel": [], "flag": [], "yield": []}

    def test_first_local_membership_matches_second(self):
        seen = run_fresh(
            """
            import json, sys
            from losrkit import catalog, local_membership, mix_boxes, uniform_box

            box = mix_boxes(catalog.tsirelson_box(), uniform_box((2, 2), (2, 2)), 0.5)
            before = "scipy.optimize" in sys.modules
            first, second = local_membership(box), local_membership(box)
            print(json.dumps({
                "before": before,
                "kinds": [type(first).__name__, type(second).__name__],
                "errors": [first.reconstruction_error, second.reconstruction_error],
                "weights": [first.weights.tolist(), second.weights.tolist()],
            }))
            """
        )
        assert not seen["before"]
        assert seen["kinds"] == ["LocalModel", "LocalModel"]
        assert seen["errors"][0] == seen["errors"][1]
        assert seen["weights"][0] == seen["weights"][1]
