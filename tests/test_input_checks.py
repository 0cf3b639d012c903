"""Each input check of the library and the CLI refuses a bad input with its
own message: one case per check that no other test drives."""

import contextlib
import io

import numpy as np
import pytest

from losrkit import (
    Bipartition,
    FlagConstruction,
    LocalChannelFamily,
    MeasurementFamily,
    PureState,
    SchmidtSpectrum,
    all_bipartitions,
    born_box,
    catalog,
    group_parties,
    load_box,
    mix_boxes,
    partial_trace,
    pauli_expectations,
    permute_parties,
    schmidt_spectrum,
    uniform_box,
)
from losrkit.cli import main


def refusal(call, *args) -> str:
    """The message of the ValueError that ``call(*args)`` raises."""
    with pytest.raises(ValueError) as info:
        call(*args)
    return str(info.value)


def cli_refusal(*argv) -> str:
    """The error line of a CLI command that must exit 2."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(list(argv)) == 2
    return err.getvalue()


def short_box_file(tmp_path):
    path = tmp_path / "box.txt"
    path.write_text("2 2 2 2 2\n" + "0.25 0.25 0.25 0.25\n" * 3)
    return path


I2, I3 = np.eye(2), np.eye(3)
Z_POVM = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]

CASES = {
    "bipartition_empty": (
        lambda tmp: refusal(Bipartition, frozenset(), 2),
        "left side must be a nonempty proper subset",
    ),
    "bipartition_out_of_range": (
        lambda tmp: refusal(Bipartition, frozenset({5}), 3),
        "party index out of range for n=3: [5]",
    ),
    "all_bipartitions_one_party": (lambda tmp: refusal(all_bipartitions, 1), "need at least 2 parties"),
    "spectrum_negative_entry": (lambda tmp: refusal(SchmidtSpectrum, [1.1, -0.1]), "spectrum entry -0.1 below zero"),
    "channel_negative_weight": (
        lambda tmp: refusal(LocalChannelFamily, ((-0.5, ((I2,),)), (1.5, ((I2,),)))),
        "negative mixing weight -0.5",
    ),
    "channel_components_disagree": (
        lambda tmp: refusal(LocalChannelFamily, ((0.5, ((I2,),)), (0.5, ((I3,),)))),
        "components disagree on channel dimensions",
    ),
    "permute_not_a_permutation": (
        lambda tmp: refusal(permute_parties, catalog.phi_plus(), (0, 0)),
        "perm (0, 0) is not a permutation of 2 parties",
    ),
    "group_out_of_order": (
        lambda tmp: refusal(group_parties, catalog.phi_plus(), [[1], [0]]),
        "groups must partition the parties in their current order",
    ),
    "partial_trace_out_of_range": (
        lambda tmp: refusal(partial_trace, catalog.phi_plus().density(), [2]),
        "keep indices out of range: [2]",
    ),
    "schmidt_party_count": (
        lambda tmp: refusal(schmidt_spectrum, catalog.ghz(), Bipartition(frozenset({0}), 2)),
        "bipartition does not match the state's party count",
    ),
    "born_box_party_count": (
        lambda tmp: refusal(born_box, catalog.phi_plus(), [[Z_POVM]]),
        "measurement party count does not match the state",
    ),
    "born_box_element_shape": (
        lambda tmp: refusal(born_box, catalog.phi_plus(), [[[I3, 0 * I3]], [Z_POVM]]),
        "POVM element shape (3, 3) != (2,2) for party 0",
    ),
    "mix_boxes_scenarios": (
        lambda tmp: refusal(mix_boxes, uniform_box((2, 2), (2, 2)), uniform_box((3, 2), (2, 2)), 0.5),
        "boxes live in different scenarios",
    ),
    "uniform_box_lengths": (
        lambda tmp: refusal(uniform_box, (2, 2), (2,)),
        "settings/outcomes lists must have one entry per party",
    ),
    "load_box_row_count": (
        lambda tmp: refusal(load_box, short_box_file(tmp)),
        "expected 4 distribution rows, got 3",
    ),
    "measurement_family_shape": (
        lambda tmp: refusal(MeasurementFamily, np.ones((2, 2))),
        "vectors must have shape (n_parties, n_settings, 3)",
    ),
    "pauli_on_a_qutrit": (
        lambda tmp: refusal(pauli_expectations, PureState((3,), [1.0, 0.0, 0.0])),
        "Pauli expectations need qubit parties",
    ),
    "flag_dist_shape": (
        lambda tmp: refusal(FlagConstruction, catalog.phi_plus(), np.full((2, 2), 0.25), [I2], [I2]),
        "dist shape (2, 2) must be (1, 1)",
    ),
    "cli_factor_party_counts": (
        lambda tmp: cli_refusal("factor", "phi_plus", "ghz"),
        "error: states must have the same number of parties",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_input_is_refused_with_its_message(case, tmp_path):
    make, message = CASES[case]
    assert message in make(tmp_path)
