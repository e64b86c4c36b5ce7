"""Joint approximate spectra of tuples of non-commuting Hermitian observables.

Two indicator functions over probe points lambda in R^d:

* the quadratic gap, the square root of the smallest eigenvalue of
  Q_lambda = sum_j (X_j - lambda_j)^2 — the best joint eigen-error any unit
  state can achieve at lambda;
* the Clifford (localizer) gap, the smallest singular value of
  L_lambda = sum_j (X_j - lambda_j) (x) Gamma_j for a Clifford representation
  {Gamma_j} — a K-theory-aware variant whose sign data carries topological
  indices.

The package provides lattice model builders, grid sweeps, spectral flow along
model paths, certified spatial truncation, and localized-state extraction,
plus a `jointspec` command-line tool.
"""

from .clifford import CliffordRep, build_clifford, flip_last_unitary, verify_clifford
from .composites import (GapResult, ObservableTuple, ProbePoint, clifford_gap,
                         commutator_bound, commutator_bound_2d,
                         determinant_sign_index, gap_pair_with_bound, localizer,
                         minimizing_state, quadratic_gap, quadratic_operator,
                         reduced_localizer, tall_composite, verify_symmetry)
from .errors import JointSpecError
from .models import (LatticeModelSpec, ScaledTuple, build_chern2d,
                     build_example, build_ssh, build_ssh_path, scale_positions,
                     ssh_grading)
from .operators import (HermitianOperator, StateVector, eigen_error,
                        expectation, operator_norm, smallest_singular_value,
                        variance_sq)
from .states import LocalizedStateReport, extract_state, kappa_sweep
from .sweep import (GapGrid, GridSpec, SpectralFlowTable, epsilon_mask,
                    model_fingerprint, spectral_flow, sweep_grid)
from .truncation import (TruncationCertificate, compress_to_ball,
                         distance_operator, modified_gap_bounds,
                         perturbation_constant, shift_to_origin, truncated_gap)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "JointSpecError",
    "HermitianOperator", "StateVector", "operator_norm",
    "smallest_singular_value",
    "expectation", "variance_sq", "eigen_error",
    "CliffordRep", "build_clifford", "verify_clifford", "flip_last_unitary",
    "ObservableTuple", "ProbePoint", "GapResult",
    "tall_composite", "quadratic_operator", "localizer",
    "quadratic_gap", "clifford_gap", "commutator_bound", "commutator_bound_2d",
    "gap_pair_with_bound", "minimizing_state", "reduced_localizer",
    "determinant_sign_index", "verify_symmetry",
    "LatticeModelSpec", "ScaledTuple", "build_ssh", "build_ssh_path",
    "build_example", "build_chern2d", "scale_positions", "ssh_grading",
    "GridSpec", "GapGrid", "SpectralFlowTable", "model_fingerprint",
    "sweep_grid", "spectral_flow", "epsilon_mask",
    "TruncationCertificate", "shift_to_origin", "distance_operator",
    "perturbation_constant", "modified_gap_bounds", "compress_to_ball",
    "truncated_gap",
    "LocalizedStateReport", "extract_state", "kappa_sweep",
]
