"""Terminated coherent-state series spectra for a laser-driven trapped ion.

The package solves, beyond the rotating-wave approximation, the eigenvalue
problem of a single trapped ion coupled to two lasers: writing the
eigenfunctions in the coherent-state (Bargmann) representation turns the
stationary equation into coupled series recurrences, and on special parameter
manifolds the series terminate, giving exact energies E = N + branch*eps.
Closed forms are provided for termination orders 1 and 2, a numeric solver for
higher orders, rotating-wave reference spectra for comparison, a
displaced-even-coherent ("cat") state constructor, and an independent
truncated-basis diagonalization oracle that validates every analytic claim.
"""

from .errors import (
    BasisMismatchError,
    ConstraintInfeasibleError,
    DegenerateCaseError,
    DegenerateQuadraticError,
    InvalidBasisError,
    IonSeriesError,
    NoSolutionFoundError,
    NonHermitianError,
    PoleError,
    SingularRecurrenceError,
    TruncationError,
)
from .model import (
    DerivedParams,
    FockBasis,
    ModelParams,
    OperatorMatrix,
    build_h_lab,
    build_h_transformed,
    derive_params,
    displacement_matrix,
    ladder_matrix,
    transform_uv,
)
from .oracle import (
    ConvergenceReport,
    EigenPair,
    Spectrum,
    ValidationReport,
    cutoff_convergence,
    hermitian_eigensystem,
    nearest_eigenpair,
    validate_series_solution,
)
from .rwa import RwaQuery, rwa_energy, rwa_hamiltonian, rwa_resonant_rabi
from .series import (
    QuadraticCoeffs,
    SeriesCoefficients,
    SeriesSolution,
    SpecialCaseSolution,
    appendix_quadratic,
    bargmann_to_fock,
    case1_closed_form,
    case2_closed_form,
    case2_energies,
    energy_identity_case1,
    eq7_residual,
    implied_detuning_case1,
    recurrence_coefficients,
    series_to_fock,
    special_case_small_eta,
    terminate_general,
)
from .states import (
    StateVector,
    cat_state,
    coherent_state,
    fidelity,
    parity,
    wigner_grid,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "IonSeriesError",
    "InvalidBasisError",
    "BasisMismatchError",
    "SingularRecurrenceError",
    "ConstraintInfeasibleError",
    "DegenerateQuadraticError",
    "PoleError",
    "TruncationError",
    "NonHermitianError",
    "NoSolutionFoundError",
    "DegenerateCaseError",
    # model
    "ModelParams",
    "DerivedParams",
    "FockBasis",
    "OperatorMatrix",
    "derive_params",
    "ladder_matrix",
    "displacement_matrix",
    "build_h_lab",
    "build_h_transformed",
    "transform_uv",
    # series
    "SeriesCoefficients",
    "SeriesSolution",
    "QuadraticCoeffs",
    "SpecialCaseSolution",
    "recurrence_coefficients",
    "case1_closed_form",
    "energy_identity_case1",
    "implied_detuning_case1",
    "appendix_quadratic",
    "case2_closed_form",
    "case2_energies",
    "eq7_residual",
    "terminate_general",
    "special_case_small_eta",
    "series_to_fock",
    "bargmann_to_fock",
    # rwa
    "RwaQuery",
    "rwa_resonant_rabi",
    "rwa_energy",
    "rwa_hamiltonian",
    # oracle
    "Spectrum",
    "EigenPair",
    "ConvergenceReport",
    "ValidationReport",
    "hermitian_eigensystem",
    "nearest_eigenpair",
    "cutoff_convergence",
    "validate_series_solution",
    # states
    "StateVector",
    "coherent_state",
    "cat_state",
    "fidelity",
    "parity",
    "wigner_grid",
]
