"""Spectral response strength of exceptional points via residue calculus.

A desk-scale numpy/scipy library for non-Hermitian spectral analysis:
Green's functions and pseudospectra, EP detection and response strength xi
(nilpotent-power and contour-integral routes), spectral decompositions,
Petermann factors, and perturbation bounds, plus reference models with
closed-form oracles and a small CLI (``epsrs``) that reproduces the
headline experiments as CSV files.
"""

from .exceptions import (
    AmbiguousOrderError,
    AtEpError,
    BracketingError,
    ContourError,
    EpsrsError,
    NotAnEpError,
    NumericalFailureError,
    PairingError,
    SeparationError,
    SingularMatrixError,
)
from .greens import PseudospectrumGrid, greens_function, pseudospectrum, separatrix_level
from .linalg import (
    EigenPair,
    as_matrix,
    eig,
    eigenvalues,
    frobenius_norm,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    save_matrix,
    spectral_norm,
)
from .models import (
    ChiralityModelParams,
    ToyModelParams,
    chirality_eigenvalues,
    chirality_h0,
    chirality_xi2,
    chirality_xi4,
    toy_h0,
    toy_h1,
    toy_xi2,
    toy_xi3,
)
from .petermann import (
    PetermannRecord,
    PetermannXiEstimate,
    bauer_fike_bound,
    petermann_factor,
    petermann_records,
    projector_of_state,
    records_to_csv,
    xi_via_petermann,
)
from .response import (
    Contour,
    EpReport,
    PassiveBound,
    SpectralCluster,
    SpectralDecomposition,
    cluster_spectrum,
    clustering_tolerance,
    default_contour,
    passive_bound_check,
    spectral_decomposition,
    splitting_bound,
    surface_scan,
    xi_residue,
    xi_special,
)
from .tables import ScanTable

__version__ = "0.1.0"

__all__ = [
    "AmbiguousOrderError", "AtEpError", "BracketingError", "ContourError",
    "EpsrsError", "NotAnEpError", "NumericalFailureError", "PairingError",
    "SeparationError", "SingularMatrixError",
    "PseudospectrumGrid", "greens_function", "pseudospectrum", "separatrix_level",
    "EigenPair", "as_matrix", "eig", "eigenvalues", "frobenius_norm",
    "load_matrix", "matrix_from_json", "matrix_to_json", "save_matrix",
    "spectral_norm",
    "ChiralityModelParams", "ToyModelParams", "chirality_eigenvalues",
    "chirality_h0", "chirality_xi2", "chirality_xi4", "toy_h0", "toy_h1",
    "toy_xi2", "toy_xi3",
    "PetermannRecord", "PetermannXiEstimate", "bauer_fike_bound",
    "petermann_factor", "petermann_records", "projector_of_state",
    "records_to_csv", "xi_via_petermann",
    "Contour", "EpReport", "PassiveBound", "SpectralCluster",
    "SpectralDecomposition", "cluster_spectrum", "clustering_tolerance",
    "default_contour", "passive_bound_check",
    "spectral_decomposition", "splitting_bound", "surface_scan", "xi_residue",
    "xi_special",
    "ScanTable",
]
