"""Records that hold arrays compare and hash by identity.

A generated ``__eq__`` would compare array fields with ``==`` and raise on
their ambiguous truth value; equality up to a tolerance is what
``spectra_equal`` and ``eps_match`` decide, not ``==``.
"""

import numpy as np
import pytest

from losrkit import (
    CHSH,
    Bipartition,
    catalog,
    compare,
    factor_spectrum,
    local_membership,
    optimize_yield,
    sample_losr_channel,
    schmidt_spectrum,
    uniform_box,
)
from losrkit.selftest import FlagConstruction


def _records():
    """Two independently built, equal-valued instances of each record."""
    split = Bipartition(frozenset({0}), 2)
    makers = {
        "Box": catalog.pr_box,
        "LocalModel": lambda: local_membership(uniform_box((2, 2), (2, 2))),
        "NonlocalCertificate": lambda: local_membership(catalog.pr_box()),
        "PureState": catalog.phi_plus,
        "DensityMatrix": lambda: catalog.phi_plus().density(),
        "SchmidtSpectrum": lambda: schmidt_spectrum(catalog.phi_plus(), split),
        "LocalChannelFamily": lambda: sample_losr_channel((2, 2), seed=1),
        "MeasurementFamily": lambda: catalog.xy_measurements(2),
        "YieldResult": lambda: optimize_yield(catalog.phi_plus(), CHSH(), restarts=2, seed=0),
        "FactorizationResult": lambda: factor_spectrum(
            schmidt_spectrum(catalog.max_entangled(4), split), schmidt_spectrum(catalog.phi_plus(), split)
        ),
        "ConversionVerdict": lambda: compare(catalog.max_entangled(4), catalog.phi_plus()),
        "FlagConstruction": lambda: FlagConstruction(
            catalog.phi_plus(), np.full((2, 2), 0.25), (np.eye(2), np.eye(2)), (np.eye(2), np.eye(2))
        ),
    }
    return {name: (make(), make()) for name, make in makers.items()}


RECORDS = _records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_identity_equality_and_hash(name):
    a, b = RECORDS[name]
    assert type(a).__name__ == name
    assert a == a and not (a != a)
    assert a != b and not (a == b)
    assert hash(a) == hash(a)
    assert a in {a} and b not in {a}


def test_direction_reports_hash():
    verdict = RECORDS["ConversionVerdict"][0]
    assert verdict.forward.zetas is not None
    assert len({verdict.forward, verdict.backward, verdict.forward}) == 2
