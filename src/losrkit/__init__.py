"""Desk-scale toolkit for LOSR-entanglement: convertibility of pure states,
local-polytope classification of boxes, and yield monotones by measurement
optimization."""

from .config import Tolerances
from .states import (
    Bipartition,
    DensityMatrix,
    LocalChannelFamily,
    PureState,
    SchmidtSpectrum,
    all_bipartitions,
    apply_channel,
    born_box,
    group_parties,
    load_state,
    partial_trace,
    pauli_expectations,
    permute_parties,
    save_state,
    schmidt_spectrum,
    tensor_product,
)
from .boxes import (
    CHSH,
    Box,
    HardyScore,
    LocalModel,
    MerminGHZ,
    NonlocalCertificate,
    TiltedCHSH,
    is_no_signaling,
    load_box,
    local_membership,
    mix_boxes,
    save_box,
    uniform_box,
)
from .preorder import (
    ConversionVerdict,
    Direction,
    FactorizationResult,
    Reason,
    catalytic_convertible,
    compare,
    factor_spectrum,
    rank_ratio_admissible,
    spectra_equal,
)
from .monotones import (
    MeasurementFamily,
    YieldResult,
    hardy_grid_maximum,
    horodecki_chsh,
    optimize_yield,
    sample_losr_channel,
)
from .selftest import (
    ClosureScanReport,
    FlagConstruction,
    backward_channel,
    closure_scan,
    conjugate_state,
    flag_mixed_state,
    flag_roundtrip_check,
    forward_channel,
)
from . import catalog

__all__ = [name for name in dir() if not name.startswith("_")]
