"""Desk-scale state-vector simulation of the quantum recall pipeline."""
from .register import QuantumRegister, SwapTestReport, embed, embed_w, swap_test
from .evolution import (
    TrotterPlan,
    conditional_pattern_step,
    conditional_pattern_step_swap,
    pattern_product_unitary,
    qheb_evolve,
    qheb_step,
    assemble_quantum_a,
)
from .solver import QhopReport, qhop_recall, qhop_solve

__all__ = [
    "QuantumRegister", "SwapTestReport", "embed", "embed_w", "swap_test",
    "TrotterPlan", "conditional_pattern_step", "conditional_pattern_step_swap",
    "pattern_product_unitary", "qheb_evolve", "qheb_step", "assemble_quantum_a",
    "QhopReport", "qhop_recall", "qhop_solve",
]
