"""The dense-verification kernels against their earlier implementations.

``reference_string_matrix`` builds a Pauli string from n Kronecker
products and ``reference_apply`` runs a gate as one matrix product on a
moveaxis copy of the amplitudes, with PEXP applied through
``apply_string``. Both are the package's implementations before the
signed-permutation and strided-block kernels replaced them, kept here
unchanged as independent references."""

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from pwdual.geometry import build_grid
from pwdual.hamiltonian import NucleiSpec, build_dual, build_qubit
from pwdual.pauli import QubitOperator, apply_string, \
    qubit_operator_matrix, string_matrix
from pwdual.statevector import GATE_KINDS, Circuit, Gate, Statevector, \
    apply_circuit, circuit_matrix
from pwdual.trotter import direct_jw_step, split_operator_step

_PAULI_MATS = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def reference_string_matrix(key: tuple, n_qubits: int) -> np.ndarray:
    mat = np.ones((1, 1), dtype=complex)
    letters = dict(key)
    for q in range(n_qubits):
        factor = _PAULI_MATS.get(letters.get(q), np.eye(2, dtype=complex))
        mat = np.kron(factor, mat)
    return mat


def reference_operator_matrix(op: QubitOperator, n_qubits: int):
    dim = 2 ** n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for key, coeff in op.items():
        mat += coeff * reference_string_matrix(key, n_qubits)
    return mat


def reference_apply(amps: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    if gate.kind == "PEXP":
        key = tuple(sorted(zip(gate.targets, gate.letters)))
        theta = -gate.angle if gate.dagger else gate.angle
        return math.cos(theta) * amps \
            - 1j * math.sin(theta) * apply_string(key, amps)
    k = len(gate.targets)
    batch = amps.shape[:-1]
    lead = len(batch)
    psi = amps.reshape(batch + (2,) * n)
    # tensor axis of qubit q is lead+n-1-q; gate index axes ordered MSB first
    axes = [lead + n - 1 - t for t in reversed(gate.targets)]
    gate_axes = range(lead, lead + k)
    psi = np.moveaxis(psi, axes, gate_axes)
    shape = psi.shape
    psi = gate.matrix() @ psi.reshape(batch + (2 ** k, -1))
    psi = np.moveaxis(psi.reshape(shape), gate_axes, axes)
    return psi.reshape(amps.shape)


def reference_circuit_matrix(circuit: Circuit) -> np.ndarray:
    rows = np.eye(2 ** circuit.n_qubits, dtype=complex)
    for g in circuit.gates:
        rows = reference_apply(rows, g, circuit.n_qubits)
    return np.ascontiguousarray(rows.T)


coefficients = st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                  allow_infinity=False)


@st.composite
def operators(draw):
    n = draw(st.integers(1, 7))
    op = QubitOperator.identity(draw(coefficients))
    for _ in range(draw(st.integers(0, 12))):
        letters = draw(st.lists(st.sampled_from("IXYZ"), min_size=n,
                                max_size=n))
        key = tuple((q, p) for q, p in enumerate(letters) if p != "I")
        op.terms[key] = op.terms.get(key, 0.0) + draw(coefficients)
    return op, n + draw(st.integers(0, 1))


@settings(max_examples=60, deadline=None)
@given(operators())
def test_operator_matrix_equals_kron_reference(case):
    op, n = case
    assert np.array_equal(qubit_operator_matrix(op, n),
                          reference_operator_matrix(op, n))


@st.composite
def placed_gates(draw, n):
    kind = draw(st.sampled_from(sorted(GATE_KINDS)))
    letters = ""
    arity = GATE_KINDS[kind].arity
    if arity is None:
        letters = draw(st.text(alphabet="XYZ", min_size=1, max_size=3))
        arity = len(letters)
    targets = draw(st.permutations(range(n)))[:arity]
    return Gate(kind, tuple(targets), angle=draw(st.floats(-4.0, 4.0)),
                letters=letters, dagger=draw(st.booleans()))


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 6).flatmap(
    lambda n: st.lists(placed_gates(n), min_size=1, max_size=8).map(
        lambda gates: Circuit(n, gates))))
def test_circuit_matrix_matches_matmul_reference(circ):
    assert np.max(np.abs(circuit_matrix(circ)
                         - reference_circuit_matrix(circ))) <= 1e-14


def test_every_gate_kind_matches_matmul_reference():
    n = 4
    rng = np.random.default_rng(3)
    for kind, spec in sorted(GATE_KINDS.items()):
        for letters in (["X", "YZ", "ZXY"] if spec.arity is None else [""]):
            arity = spec.arity or len(letters)
            for dagger in (False, True):
                targets = tuple(int(t) for t in rng.permutation(n)[:arity])
                circ = Circuit(n, [Gate(kind, targets,
                                        angle=float(rng.uniform(-4, 4)),
                                        letters=letters, dagger=dagger)])
                assert np.max(np.abs(circuit_matrix(circ)
                                     - reference_circuit_matrix(circ))) \
                    <= 1e-14, circ.gates[0]


def test_long_monomial_runs_match_matmul_reference():
    """Fused runs over many gates: the 8-qubit split-operator step, whose
    potential and FSWAP layers are long monomial runs, and a 40-gate mix
    of every kind. Columns stay bit-identical to the gate-by-gate path."""
    grid = build_grid(1, 4, 4.0, spinful=True)
    hs = build_dual(grid, NucleiSpec.build([((1.3,), 1.0)]))
    rng = np.random.default_rng(11)
    kinds = sorted(GATE_KINDS)
    mix = []
    for _ in range(40):
        kind = kinds[rng.integers(len(kinds))]
        letters = "".join(rng.choice(list("XYZ"), size=rng.integers(1, 4))) \
            if GATE_KINDS[kind].arity is None else ""
        arity = GATE_KINDS[kind].arity or len(letters)
        mix.append(Gate(kind, tuple(int(t) for t in
                                    rng.permutation(6)[:arity]),
                        angle=float(rng.uniform(-4, 4)), letters=letters,
                        dagger=bool(rng.integers(2))))
    for circ in (split_operator_step(hs, 0.1), Circuit(6, mix)):
        u = circuit_matrix(circ)
        assert np.max(np.abs(u - reference_circuit_matrix(circ))) <= 1e-14
        for j in range(0, 2 ** circ.n_qubits, 13):
            column = apply_circuit(Statevector.basis_state(circ.n_qubits, j),
                                   circ)
            assert np.array_equal(u[:, j], column.amplitudes)


def test_pexp_matrix_is_bit_identical_to_uncached_build():
    rng = np.random.default_rng(5)
    for letters in ("X", "Y", "Z", "XY", "ZZ", "YZX", "XXYZ"):
        key = tuple(enumerate(letters))
        for dagger in (False, True):
            angle = float(rng.uniform(-4, 4))
            want = math.cos(angle) * np.eye(2 ** len(letters)) \
                - 1j * math.sin(angle) * string_matrix(key, len(letters))
            if dagger:
                want = want.conj().T
            gate = Gate("PEXP", tuple(range(len(letters))), angle=angle,
                        letters=letters, dagger=dagger)
            for _ in range(2):  # a cold and a warm cache
                assert np.array_equal(gate.matrix(), want)


def test_circuit_matrix_peak_memory():
    """No full-size temporary per gate: the peak stays near the input rows,
    the output rows and one block of scratch."""
    op = build_qubit(build_dual(build_grid(1, 10, 10.0)))
    circ = direct_jw_step(op, 0.1, order=1, n_qubits=10)
    tracemalloc.start()
    try:
        u = circuit_matrix(circ)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * u.nbytes
