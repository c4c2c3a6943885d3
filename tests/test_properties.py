"""Property tests of the circuit primitives: the odd-even transposition
sort, the gate table and its text format, and gate validation."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwdual.statevector import GATE_KINDS, Circuit, Gate, Statevector, \
    apply_circuit, apply_gate, circuit_matrix, dumps_circuit, loads_circuit
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


# each malformed gate and the message that names it
MALFORMED_GATES = {
    ("FOO", (0,), ""): "unknown gate kind 'FOO'",
    ("CNOT", (1,), ""): "CNOT needs 2 targets, got 1",
    ("H", (0, 1), ""): "H needs 1 targets, got 2",
    ("PEXP", (0,), "ZZ"): "PEXP needs 2 targets, got 1",
    ("PEXP", (0, 1), "Z"): "PEXP needs 1 targets, got 2",
    ("PEXP", (0,), "Q"): "PEXP needs Pauli letters X, Y, Z, got 'Q'",
    ("PEXP", (0,), ""): "PEXP needs Pauli letters X, Y, Z, got ''",
    ("RZ", (0,), "Z"): "RZ takes no Pauli letters",
}


@pytest.mark.parametrize("kind,targets,letters", list(MALFORMED_GATES))
def test_malformed_gate_rejected(kind, targets, letters):
    """A Gate is a plain record; the Circuit that holds it and apply_gate
    reject it, with the same message."""
    gate = Gate(kind, targets, angle=0.1, letters=letters)
    message = f"^{re.escape(MALFORMED_GATES[kind, targets, letters])}$"
    with pytest.raises(ValueError, match=message):
        Circuit(2, [gate])
    with pytest.raises(ValueError, match=message):
        apply_gate(Statevector.basis_state(2, 0), gate)


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_non_finite_angle_rejected(angle):
    """A NaN or infinite angle would pass the norm-drift check (NaN > tol
    is False) and poison every amplitude; it is refused where the gate is
    checked: in circuit text, in a Circuit and in apply_gate."""
    gate = Gate("RZ", (0,), angle=float(angle))
    message = f"^{re.escape(f'angle of {gate} is not finite')}$"
    with pytest.raises(ValueError, match=message):
        loads_circuit(f"RZ 0 {angle}\n", 1)
    with pytest.raises(ValueError, match=message):
        Circuit(1, [Gate("H", (0,)), gate])
    with pytest.raises(ValueError, match=message):
        apply_gate(Statevector.basis_state(1, 0), gate)


@pytest.mark.parametrize("line", ["FOO 0", "CNOT 1", "PEXP:ZZ 0 0.1",
                                  "H 0,1", "H", "H 0 1 2", "H 0 0.5",
                                  "FSWAP 0,1 0.5", "RZ 0", "FK 0,1",
                                  "PEXP:X 0", "GPHASE 0", "H 5\n",
                                  "H 99999999999999999999"])
def test_malformed_circuit_text_rejected(line):
    with pytest.raises(ValueError):
        loads_circuit(line, 2)


def gate_by_gate_error(gates, n, connectivity):
    """The message of the first broken rule, read gate by gate and target
    by target with no deduplication: the order the checks promise."""
    for g in gates:
        if g.kind not in GATE_KINDS:
            return f"unknown gate kind {g.kind!r}"
        arity = GATE_KINDS[g.kind].arity
        if arity is None:
            if not g.letters or set(g.letters) - set("XYZ"):
                return f"PEXP needs Pauli letters X, Y, Z, got {g.letters!r}"
            arity = len(g.letters)
        elif g.letters:
            return f"{g.kind} takes no Pauli letters"
        if len(g.targets) != arity:
            return f"{g.kind} needs {arity} targets, got {len(g.targets)}"
        if len(set(g.targets)) != arity:
            return f"repeated target in {g}"
        if not np.isfinite(g.angle):
            return f"angle of {g} is not finite"
    for g in gates:
        for t in g.targets:
            if not isinstance(t, int):
                return f"target {t!r} is not an integer"
            if not 0 <= t < n:
                return f"target {t} outside {n} qubits"
    if connectivity is not None:
        for g in gates:
            if len(g.targets) > 2:
                return f"planar circuit holds >2-qubit gate {g}"
            if len(g.targets) == 2:
                (r1, c1), (r2, c2) = (snake_position(connectivity[2], t)
                                      for t in g.targets)
                if abs(r1 - r2) + abs(c1 - c2) != 1:
                    return (f"gate {g} acts on non-adjacent grid sites "
                            f"({r1},{c1})-({r2},{c2})")
    return None


# how a drawn gate is spoilt, if at all: each rule, broken now and then
FLAWS = [None] * 15 + ["kind", "letters", "size", "repeat", "target",
                       "float", "angle"]


@st.composite
def gate_lists(draw):
    """Well-formed gates with a rule broken now and then, and repeats of
    them, some with float targets (equal, but not integral)."""
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind, letters = draw(st.sampled_from(
            [("H", ""), ("RZ", ""), ("CZ", ""), ("SWAP", ""),
             ("PEXP", "Z"), ("PEXP", "XY")]))
        size = len(letters) or GATE_KINDS[kind].arity
        targets = draw(st.lists(st.integers(0, 3), min_size=size,
                                max_size=size, unique=True))
        angle = draw(st.sampled_from([0.25, -1.5]))
        flaw = draw(st.sampled_from(FLAWS))
        if flaw == "kind":
            kind = "FOO"
        elif flaw == "letters":
            letters = "Q" if kind == "PEXP" else "Z"
        elif flaw == "size":
            targets.append(3 - targets[0])
        elif flaw == "repeat":
            targets[-1] = targets[0]
        elif flaw == "target":
            targets[0] = draw(st.sampled_from([4, -1]))
        elif flaw == "float":
            targets[0] = float(targets[0])
        elif flaw == "angle":
            angle = draw(st.sampled_from([float("nan"), float("inf")]))
        gates.append(Gate(kind, tuple(targets), angle=angle,
                          letters=letters))
    for i, as_float in draw(st.lists(st.tuples(
            st.integers(0, len(gates) - 1), st.booleans()),
            max_size=6)) if gates else []:
        g = gates[i]
        gates.append(g._replace(targets=tuple(map(float, g.targets)))
                     if as_float else g)
    return gates


@settings(max_examples=300, deadline=None)
@given(gate_lists(), st.booleans())
def test_check_names_the_gate_by_gate_first_offender(gates, planar):
    """Repeated gates exercise the once-per-distinct-gate checks: the
    message is the first that a gate-by-gate reading finds, for a Circuit
    and, on a lone gate, for apply_gate."""
    connectivity = ("planar", 2, 2) if planar else None
    want = gate_by_gate_error(gates, 4, connectivity)
    if want is None:
        Circuit(4, gates, connectivity)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            Circuit(4, gates, connectivity)
    for g in gates[:3]:
        lone = gate_by_gate_error([g], 4, None)
        if lone is None:
            apply_gate(Statevector.basis_state(4, 0), g)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(lone)}$"):
                apply_gate(Statevector.basis_state(4, 0), g)
