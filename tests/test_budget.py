"""The one dense-memory budget: every kernel that allocates in proportion
to 2^n, 4^n, a sector or a block checks ``pauli.require_bytes`` first.

Past the limit each kernel raises DenseLimitError before allocating; on a
small cell the bytes it passes cover what it really holds at its peak.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from pwdual.fermion import FermionOperator, block_matrix, fermion_matrix, \
    sector_states, _entries
from pwdual.geometry import build_grid
from pwdual.hamiltonian import HamiltonianSet, build_dual, build_qubit
from pwdual.lcu import build_weights, select_matrix, taylor_errors
from pwdual.pauli import DenseLimitError, QubitOperator, \
    qubit_operator_matrix, require_bytes
from pwdual.statevector import Circuit, Gate, Statevector, circuit_matrix, \
    exact_evolve
from pwdual.trotter import TrotterConfig, measure_error_scaling, \
    number_block_propagator, number_blocks, number_block_view, \
    split_operator_blocks, trotter_circuit
from pwdual.vqe import Ansatz, AnsatzSpec, SectorModel, \
    prepare_reference

# Python objects and numpy's ufunc buffers (8192 elements per strided
# operand) are not budgeted; they do not grow with the register
UNBUDGETED = 2 ** 19


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def dual(m, spinful=False, nuclei=()):
    return build_dual(build_grid(1, m, float(m), spinful), list(nuclei))


def hopping_chain(n):
    """Nearest-neighbour hopping on n orbitals: one connected block per
    electron number, C(n, n // 2) states in the largest."""
    op = FermionOperator()
    for q in range(n - 1):
        op += FermionOperator({((q + 1, 1), (q, 0)): 1.0,
                               ((q, 1), (q + 1, 0)): 1.0})
    return HamiltonianSet(op, FermionOperator(), FermionOperator(), 0.0,
                          "test", None, n)


def past_limit_cases():
    """name -> a function returning the call that must be refused."""
    def sector_16_8():
        hs = dual(8, spinful=True)  # C(16, 8) = 12870 states
        return lambda: SectorModel(Ansatz(AnsatzSpec(), hs.grid), hs, 8)

    def circuit_13():
        circ = Circuit(13, [Gate("H", (0,))])
        return lambda: circuit_matrix(circ)

    def evolve_15():
        state = Statevector.basis_state(15, 0)
        return lambda: exact_evolve(QubitOperator({((0, "Z"),): 1.0}), 0.1,
                                    state)

    def select_15():
        model = build_weights(dual(4, spinful=True))  # 8 + 7 qubits
        return lambda: select_matrix(model)

    def scaling_14():
        # zero-byte stand-ins for the blocks of a 14-qubit exact propagator
        exact = [np.broadcast_to(np.complex128(0), (len(b), len(b)))
                 for b in number_blocks(14)]
        return lambda: measure_error_scaling(lambda tau: (exact, 0.0), exact,
                                             [1], 1.0)

    def split_blocks_16():
        hs = dual(8, spinful=True)  # the blocks alone: 16 C(32, 16) B
        return lambda: split_operator_blocks(hs)

    def taylor_16():
        model = build_weights(dual(16))
        return lambda: taylor_errors(model, QubitOperator(), 0.01, [2], 0)

    def blocks_15():
        hs = hopping_chain(15)  # a 6435-state block: 1.3 GB dense
        return hs.blocks

    def propagator_14():
        hs = dual(14)
        return lambda: number_block_propagator(hs, 1.0)

    return {
        "basis_state": lambda: lambda: Statevector.basis_state(40, 0),
        "qubit_operator_matrix": lambda: lambda: qubit_operator_matrix(
            QubitOperator.identity(), 15),
        "fermion_matrix": lambda: lambda: fermion_matrix(
            FermionOperator.number(0), 15),
        # the entries of a 40-orbital operator, refused before its block
        "block_matrix": lambda: lambda: block_matrix(
            sector_states(40, 1), *_entries(FermionOperator.number(0), 40, 0,
                                            "a 40-orbital operator")),
        "circuit_matrix": circuit_13,
        "exact_evolve": evolve_15,
        "select_matrix": select_15,
        "blocks": blocks_15,
        "sector_model": sector_16_8,
        # 40 qubits: 780 two-electron states, but a 16 TiB state
        "prepare_reference": lambda: lambda: prepare_reference(
            build_grid(1, 20, 20.0, True), 2),
        "number_block_propagator": propagator_14,
        # a zero-byte stand-in for a 13-qubit matrix
        "number_block_view": lambda: lambda: number_block_view(
            np.broadcast_to(np.complex128(0), (2 ** 13, 2 ** 13))),
        "measure_error_scaling": scaling_14,
        "split_operator_blocks": split_blocks_16,
        "taylor_errors": taylor_16,
    }


PAST_LIMIT = past_limit_cases()


@pytest.mark.parametrize("name", sorted(PAST_LIMIT))
def test_kernel_refuses_past_budget(name):
    call = PAST_LIMIT[name]()
    tracemalloc.start()
    try:
        with pytest.raises(DenseLimitError, match="DENSE_BYTES_LIMIT"):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.fixture
def budgets(monkeypatch):
    """Every byte count a pwdual module passes to require_bytes."""
    seen = []

    def spy(nbytes, what):
        seen.append(nbytes)
        require_bytes(nbytes, what)

    for name, module in list(sys.modules.items()):
        if name.startswith("pwdual.") and hasattr(module, "require_bytes"):
            monkeypatch.setattr(module, "require_bytes", spy)
    return seen


def small_cases():
    """name -> a function returning a call on a cell of a few MB."""
    def operator_10():
        op = build_qubit(dual(10, nuclei=[((2.3,), 1.0)]))
        return lambda: qubit_operator_matrix(op, 10)

    def fermion_10():
        op = dual(10, nuclei=[((2.3,), 1.0)]).total()
        return lambda: fermion_matrix(op, 10)

    def block_12():
        # the two-electron block of a 12-orbital operator
        op = dual(6, spinful=True, nuclei=[((2.3,), 1.0)]).total()
        states = sector_states(12, 2)

        def call():
            rows, cols, values = _entries(op, 12, 0, "a 12-orbital operator")
            inside = np.isin(rows, states) & np.isin(cols, states)
            block_matrix(states, rows[inside], cols[inside], values[inside])
        return call

    def split_step_8():
        hs = dual(4, spinful=True, nuclei=[((1.3,), 1.0)])
        circ = trotter_circuit(hs, TrotterConfig("split_operator", 2, 1,
                                                 0.1))
        return lambda: circuit_matrix(circ)

    def wide_gate_8():
        circ = Circuit(8, [*(Gate("H", (q,)) for q in range(8)),
                           Gate("PEXP", tuple(range(8)), angle=0.3,
                                letters="XZZZZZZY")])
        return lambda: circuit_matrix(circ)

    def evolve_8():
        op = build_qubit(dual(8, nuclei=[((2.1,), 1.0)]))
        rng = np.random.default_rng(3)
        amps = rng.normal(size=256) + 1j * rng.normal(size=256)
        state = Statevector(8, amps / np.linalg.norm(amps))
        return lambda: exact_evolve(op, 0.1, state)

    def select_9():
        model = build_weights(dual(2, spinful=True))  # 4 + 5 qubits
        return lambda: select_matrix(model)

    def blocks_12():
        return dual(6, spinful=True, nuclei=[((2.3,), 1.0)]).blocks

    def sector_16_3():
        hs = dual(8, spinful=True)  # C(16, 3) = 560 states
        return lambda: SectorModel(Ansatz(AnsatzSpec(), hs.grid), hs, 3)

    def block_view_8():
        hs = dual(4, spinful=True, nuclei=[((1.3,), 1.0)])
        step = circuit_matrix(trotter_circuit(
            hs, TrotterConfig("direct_jw", 2, 1, 0.1)))
        return lambda: number_block_view(step, shift=1)

    def split_blocks_8():
        hs = dual(4, spinful=True, nuclei=[((1.3,), 1.0)])
        return lambda: split_operator_blocks(hs)

    def propagator_10():
        hs = dual(10, nuclei=[((2.3,), 1.0)])
        return lambda: number_block_propagator(hs, 1.0)

    def scaling_10():
        hs = dual(10, nuclei=[((2.3,), 1.0)])
        exact = number_block_propagator(hs, 1.0)
        half = number_block_propagator(hs, 0.5)
        return lambda: measure_error_scaling(lambda tau: (half, 0.0), exact,
                                             [2], 1.0)

    def taylor_8():
        hs = dual(8, nuclei=[((2.1,), 1.0)])
        model = build_weights(hs)
        rec = model.reconstruction()
        return lambda: taylor_errors(model, rec, 0.01, [2, 4], 0)

    return {
        "basis_state": lambda: lambda: Statevector.basis_state(18, 5),
        "qubit_operator_matrix": operator_10,
        "fermion_matrix": fermion_10,
        "block_matrix": block_12,
        "circuit_matrix": split_step_8,
        "circuit_matrix_wide_gate": wide_gate_8,
        "exact_evolve": evolve_8,
        "select_matrix": select_9,
        "blocks": blocks_12,
        "sector_model": sector_16_3,
        # 16 qubits, 1820 four-electron states
        "prepare_reference": lambda: lambda: prepare_reference(
            build_grid(2, 4, 4.0), 4),
        "number_block_propagator": propagator_10,
        "number_block_view": block_view_8,
        "measure_error_scaling": scaling_10,
        "split_operator_blocks": split_blocks_8,
        "taylor_errors": taylor_8,
    }


SMALL = small_cases()


@pytest.mark.filterwarnings("ignore:degenerate mode shell")
@pytest.mark.parametrize("name", sorted(SMALL))
def test_budget_covers_peak(name, budgets):
    call = SMALL[name]()
    budgets.clear()
    peak = traced_peak(call)
    assert budgets, "no require_bytes call"
    assert peak <= max(budgets) + UNBUDGETED


def test_gate_matrix_held_by_nothing_after_the_call():
    # a 10-letter PEXP matrix is 16 MB, budget-checked when built; a
    # cache would keep it past the budget for the life of the process
    gate = Gate("PEXP", tuple(range(10)), 0.3, letters="XZZZZZZZZY")
    tracemalloc.start()
    try:
        gate.matrix()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2 ** 20
