"""Plane-wave and dual-basis electronic structure toolkit.

Builds second-quantized Hamiltonians whose potentials (dual basis) or
kinetic term (plane-wave basis) are diagonal, compiles them into low-depth
circuits (fermionic Fourier transform, split-operator steps, planar swap
schedules, selection/preparation oracles), and verifies every construction
against an exact statevector engine at small qubit counts.
"""

from .geometry import Cell, ModeGrid, build_grid
from .fermion import FermionOperator, normal_order, jordan_wigner, \
    fermion_matrix
from .pauli import QubitOperator, qubit_operator_matrix, \
    self_inverse_decompose
from .hamiltonian import HamiltonianSet, NucleiSpec, build_plane_wave, \
    build_dual, build_qubit, build_finite_difference, norm_bounds
from .statevector import Statevector, Gate, Circuit, apply_gate, \
    apply_circuit, exact_evolve, expectation, sample_bitstrings
from .ffft import build_ffft_1d, build_ffft_nd
from .swapnet import SwapSchedule, build_full_schedule, lower_diagonal_layer
from .trotter import TrotterConfig, split_operator_step, direct_jw_step, \
    estimate_r, trotter_circuit
from .lcu import LcuModel, build_weights, select_matrix, prepare_state, \
    taylor_segment
from .measurement import MeasurementPlan, estimate_energy, shot_budget
from .vqe import AnsatzSpec, prepare_reference, optimize, layer_train

__version__ = "0.1.0"
