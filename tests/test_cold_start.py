"""What a fresh interpreter loads, and what its first calls return.

scipy.optimize is imported by the first LP solve and scipy.linalg by the
first density matrix that the constructor checks: one from a file, a literal
matrix or a channel output.  A pure state's ``density()`` is not re-checked,
so pure-state yields, ``demo anomaly`` and a ``selftest-scan`` over pure
candidates load no scipy module.  Each check runs in its own interpreter:
this suite's process has loaded both long before any test runs.
"""

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


class TestFirstCallsInFreshProcess:
    def test_first_density_matrix_still_checks_psd(self):
        seen = run_fresh(
            """
            import json, sys
            import numpy as np
            from losrkit import DensityMatrix

            before = "scipy.linalg" in sys.modules
            try:
                DensityMatrix((2,), np.diag([1.5, -0.5]))
                error = None
            except ValueError as exc:
                error = str(exc)
            print(json.dumps({"before": before, "error": error, "after": "scipy.linalg" in sys.modules}))
            """
        )
        assert not seen["before"]
        assert seen["error"] is not None and "negative eigenvalue" in seen["error"]
        assert seen["after"]

    def test_flag_mixed_state_checks_its_first_matrix(self):
        # The flagged state is assembled entry by entry, so the constructor
        # checks it; only its regrouping skips the checks.
        seen = run_fresh(
            """
            import json, sys
            import numpy as np
            from losrkit import catalog
            from losrkit.selftest import FlagConstruction, flag_mixed_state

            fc = FlagConstruction(catalog.phi_plus(), np.full((2, 2), 0.25),
                                  (np.eye(2), np.diag([1.0, -1.0])), (np.eye(2), np.eye(2)[::-1]))
            before = "scipy.linalg" in sys.modules
            rho = flag_mixed_state(fc)
            print(json.dumps({"before": before, "dims": rho.party_dims,
                              "after": "scipy.linalg" in sys.modules}))
            """
        )
        assert not seen["before"]
        assert seen["dims"] == [4, 4]
        assert seen["after"]

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
