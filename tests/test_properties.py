"""Property tests of the circuit primitives: the odd-even transposition
sort, the gate table and its text format, and gate validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwdual.statevector import GATE_KINDS, Circuit, Gate, Statevector, \
    apply_circuit, circuit_matrix, dumps_circuit, loads_circuit
from pwdual.swapnet import snake_position, snake_qubit, \
    transposition_phases


@given(st.lists(st.integers(-5, 5), max_size=40))
def test_transposition_phases_sort(keys):
    phases = transposition_phases(keys)
    assert len(phases) <= len(keys)
    arr = list(keys)
    for k, phase in enumerate(phases):
        assert all(i % 2 == k % 2 and 0 <= i < len(arr) - 1 for i in phase)
        assert len(set(phase)) == len(phase)  # pairs (i, i+1) disjoint
        for i in phase:
            assert arr[i] > arr[i + 1]
            arr[i], arr[i + 1] = arr[i + 1], arr[i]
    assert arr == sorted(keys)


@given(st.integers(1, 9), st.integers(1, 9), st.data())
def test_snake_position_inverts_snake_qubit(rows, cols, data):
    r = data.draw(st.integers(0, rows - 1))
    c = data.draw(st.integers(0, cols - 1))
    assert snake_position(cols, snake_qubit(cols, r, c)) == (r, c)


def gate_of(kind, angle, dagger, letters):
    arity = GATE_KINDS[kind].arity
    if arity is None:
        return Gate(kind, tuple(range(len(letters))), angle=angle,
                    letters=letters, dagger=dagger)
    return Gate(kind, tuple(range(arity)), angle=angle, dagger=dagger)


gates = st.builds(
    gate_of, st.sampled_from(sorted(GATE_KINDS)),
    st.floats(-4.0, 4.0), st.booleans(),
    st.text(alphabet="XYZ", min_size=1, max_size=3))


@settings(max_examples=200)
@given(gates)
def test_gate_times_inverse_is_identity(gate):
    n = len(gate.targets)
    product = circuit_matrix(Circuit(n, [gate, gate.inverse()]))
    assert np.allclose(product, np.eye(2 ** n), atol=1e-12)
    assert np.allclose(gate.matrix() @ gate.inverse().matrix(),
                       np.eye(2 ** n), atol=1e-12)


@settings(max_examples=200)
@given(gates)
def test_circuit_text_round_trip(gate):
    text = dumps_circuit(Circuit(len(gate.targets), [gate]))
    back = loads_circuit(text, len(gate.targets))
    assert dumps_circuit(back) == text
    assert back.gates[0].kind == gate.kind
    assert back.gates[0].dagger == gate.dagger
    if gate.inverse() is not gate:  # kinds that carry an angle
        assert back.gates[0].angle == gate.angle


@settings(max_examples=50, deadline=None)
@given(st.lists(gates, min_size=1, max_size=12), st.integers(0, 2))
def test_circuit_matrix_columns_match_state_path(gate_list, spare):
    """The batched kernel gives each column exactly what the state path
    gives the basis state."""
    n = max(max(g.targets) for g in gate_list) + 1 + spare
    circ = Circuit(n, list(gate_list))
    u = circuit_matrix(circ)
    for j in range(2 ** n):
        column = apply_circuit(Statevector.basis_state(n, j), circ)
        assert np.array_equal(u[:, j], column.amplitudes)


@pytest.mark.parametrize("kind,targets,letters", [
    ("FOO", (0,), ""),
    ("CNOT", (1,), ""),
    ("H", (0, 1), ""),
    ("PEXP", (0,), "ZZ"),
    ("PEXP", (0, 1), "Z"),
    ("PEXP", (0,), "Q"),
    ("PEXP", (0,), ""),
    ("RZ", (0,), "Z"),
])
def test_malformed_gate_rejected(kind, targets, letters):
    with pytest.raises(ValueError):
        Gate(kind, targets, angle=0.1, letters=letters)


@pytest.mark.parametrize("line", ["FOO 0", "CNOT 1", "PEXP:ZZ 0 0.1",
                                  "H 0,1", "H", "H 0 1 2", "H 0 0.5",
                                  "FSWAP 0,1 0.5", "RZ 0", "FK 0,1",
                                  "PEXP:X 0", "GPHASE 0", "H 5\n",
                                  "H 99999999999999999999"])
def test_malformed_circuit_text_rejected(line):
    with pytest.raises(ValueError):
        loads_circuit(line, 2)
