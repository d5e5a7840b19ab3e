"""Desk-scale state-vector simulation of the quantum recall pipeline.

A register is a unit-norm amplitude vector. The paper's Hebbian steps are
the conditional pattern step, its swap-trick realization and the pattern
product formula; the solver evolves under the padded saddle-point matrix,
estimates its eigenvalues and inverts the kept ones.
"""
from .register import QuantumRegister, SwapTestReport, embed, embed_w, swap_test
from .evolution import (
    conditional_pattern_step,
    conditional_pattern_step_swap,
    pattern_product_unitary,
    assemble_quantum_a,
)
from .solver import QhopReport, qhop_recall, qhop_solve

__all__ = [
    "QuantumRegister", "SwapTestReport", "embed", "embed_w", "swap_test",
    "conditional_pattern_step", "conditional_pattern_step_swap",
    "pattern_product_unitary", "assemble_quantum_a",
    "QhopReport", "qhop_recall", "qhop_solve",
]
