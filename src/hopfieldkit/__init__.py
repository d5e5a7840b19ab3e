"""Content-addressable memory toolkit: Hebbian storage with iterative,
matrix-inversion, and simulated-quantum recall, plus an experiment harness."""

from .patterns import (
    BASE_TO_BITS,
    ClampSet,
    TrainingSet,
    as_pattern,
    encode_rna,
    load_fasta,
    load_patterns,
)
from .hebbian import (
    DensityMatrix,
    WeightMatrix,
    density,
    save_matrix_csv,
    spectral_norm,
    train,
)
from .iterative import RecallTrace, energy, recall
from .inversion import (
    LinearSystem,
    SolveReport,
    assemble,
    certify_minimum,
    discretize,
    solve,
    solve_perturbed,
    truncated_pseudoinverse_apply,
)
from .experiments import (
    CurvePoint,
    ExperimentConfig,
    GammaPoint,
    fixture_path,
    ingest,
    run_gamma_sweep,
    run_quantum_crosscheck,
    run_recovery_curve,
    synthetic_patterns,
    write_points_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BASE_TO_BITS", "ClampSet", "TrainingSet", "as_pattern", "encode_rna",
    "load_fasta", "load_patterns",
    "DensityMatrix", "WeightMatrix", "density",
    "save_matrix_csv", "spectral_norm", "train",
    "RecallTrace", "energy", "recall",
    "LinearSystem", "SolveReport", "assemble", "certify_minimum",
    "discretize", "solve", "solve_perturbed", "truncated_pseudoinverse_apply",
    "CurvePoint", "ExperimentConfig", "GammaPoint", "fixture_path", "ingest",
    "run_gamma_sweep", "run_quantum_crosscheck", "run_recovery_curve",
    "synthetic_patterns", "write_points_csv",
    "__version__",
]
