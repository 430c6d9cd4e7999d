"""PT-symmetric qubit Liouvillians: builders, symbolic certification, spectral analysis."""

from .errors import (
    BrokenPhaseError,
    DimensionError,
    LinearDependenceError,
    ModelConfigError,
    PTLiouvilleError,
    UncertifiedModelError,
)
from .pauli_algebra import (
    PRUNE_TOL,
    PauliOperator,
    anticommutator,
    as_identity_multiple,
    commutator,
    sigma_minus,
    sigma_plus,
    string_mul,
)
from .model_builder import (
    CustomParts,
    Dephasing,
    Injection,
    Model,
    ModelSpec,
    build_example1,
    build_example2,
    build_model,
    parse_model_config,
    scale_noise,
    validate_spec,
)
from .lemma_checker import (
    TOL_CERT,
    ConditionIIIReport,
    ConditionIIReport,
    ConditionIReport,
    LemmaReport,
    ReflectionMatrix,
    check_condition_i,
    check_condition_iii,
    check_lemma,
    solve_reflection_matrix,
)
from .superoperator import (
    SuperOp,
    build_liouvillian,
    pauli_to_dense,
    pt_residual,
    symmetry_sectors,
    z2_symmetry_strings,
)
from .spectral_analysis import (
    BROKEN,
    TOL_DEG,
    TOL_IM,
    UNBROKEN,
    DegeneracyReport,
    EnergyEigenbasis,
    PairingReport,
    PhaseClassification,
    ScanProbe,
    ScanResult,
    SpectrumResult,
    UniformRateReport,
    VMatrix,
    canonical_sort,
    check_nondegeneracy,
    check_pt_pairing,
    check_uniform_rate,
    classify_pt_phase,
    hamiltonian_eigenbasis,
    liouvillian_spectra,
    scan_pt_breaking,
    v_matrix,
)

__version__ = "0.1.0"
