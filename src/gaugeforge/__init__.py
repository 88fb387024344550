"""Subsystem codes from binary matrices: construction, reduced bases,
energy separations and open-system simulation of encoded states."""

from __future__ import annotations

from .codes import (
    CodeMatrix,
    SubsystemCode,
    build_code,
    combined_matrix,
    distance,
    encode_ising,
    encode_operator,
    load_code_matrix,
    logical_operator,
)
from .extraction import (
    ExtractionError,
    ReducedBasis,
    VerificationReport,
    extract_reduced_basis,
    verify_reduced_basis,
)
from .opensys import (
    BathSpec,
    DaviesGenerator,
    Trajectory,
    bath_correlation,
    davies_generator,
    decode_logical,
    encode_state,
    entanglement_of_formation,
    evolve,
    purity,
    simulate_code,
    simulate_two_blocks,
    trace_distance,
)
from .pauli import (
    PauliError,
    PauliOp,
    express_in_basis,
    pauli_from_string,
)
from .spectra import (
    PauliSum,
    SeparationReport,
    WeightSpec,
    build_full_hamiltonian,
    energy_separation,
    full_ground_energy,
)

__version__ = "0.1.0"

__all__ = [
    "BathSpec",
    "CodeMatrix",
    "DaviesGenerator",
    "ExtractionError",
    "PauliError",
    "PauliOp",
    "PauliSum",
    "ReducedBasis",
    "SeparationReport",
    "SubsystemCode",
    "Trajectory",
    "VerificationReport",
    "WeightSpec",
    "bath_correlation",
    "build_code",
    "build_full_hamiltonian",
    "combined_matrix",
    "davies_generator",
    "decode_logical",
    "distance",
    "encode_ising",
    "encode_operator",
    "encode_state",
    "energy_separation",
    "entanglement_of_formation",
    "evolve",
    "express_in_basis",
    "extract_reduced_basis",
    "full_ground_energy",
    "load_code_matrix",
    "logical_operator",
    "pauli_from_string",
    "purity",
    "simulate_code",
    "simulate_two_blocks",
    "trace_distance",
    "verify_reduced_basis",
]
