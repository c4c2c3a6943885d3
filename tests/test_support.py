"""The support a statevector carries: sorted, repeat-free, zero outside,
and invisible in every amplitude and every draw.

A state with a support takes the gate path that touches only its active
blocks; the same amplitudes without one take the strided dense path. The
nonzero amplitudes of the two agree bit for bit (only the sign of an
exact zero may differ), and so do the sampled rows."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwdual.geometry import build_grid
from pwdual.hamiltonian import build_dual
from pwdual.statevector import GATE_KINDS, Gate, Statevector, apply_gate, \
    sample_bitstrings
from pwdual.vqe import Ansatz, AnsatzSpec, SectorModel


@st.composite
def sparse_states(draw, values=st.complex_numbers(max_magnitude=2.0)):
    """(n, amplitudes, support): amplitudes zero outside a random support,
    and possibly zero at some of its entries too."""
    n = draw(st.integers(1, 7))
    support = np.array(sorted(draw(st.sets(
        st.integers(0, 2 ** n - 1), min_size=1, max_size=min(12, 2 ** n)))),
        dtype=np.int64)
    amps = np.zeros(2 ** n, dtype=complex)
    amps[support] = draw(st.lists(values, min_size=len(support),
                                  max_size=len(support)))
    return n, amps, support


@st.composite
def gate_lists(draw, n):
    out = []
    for kind in draw(st.lists(st.sampled_from(sorted(GATE_KINDS)),
                              max_size=10)):
        letters = ""
        arity = GATE_KINDS[kind].arity
        if arity is None:
            letters = draw(st.text(alphabet="XYZ", min_size=1,
                                   max_size=min(3, n)))
            arity = len(letters)
        if arity > n:
            continue
        targets = tuple(draw(st.permutations(range(n)))[:arity])
        out.append(Gate(kind, targets, angle=draw(st.floats(-4.0, 4.0)),
                        letters=letters, dagger=draw(st.booleans())))
    return out


def assert_support_invariant(state):
    support = state.support
    assert support.dtype == np.int64
    assert np.all(np.diff(support) > 0)  # sorted, no repeats
    outside = np.ones(2 ** state.n_qubits, dtype=bool)
    outside[support] = False
    assert np.all(state.amplitudes[outside] == 0)


def assert_nonzero_bits_equal(a, b):
    """Every nonzero real or imaginary part is the same float, bit for bit."""
    a, b = a.view(np.float64), b.view(np.float64)
    nonzero = (a != 0) | (b != 0)
    assert np.array_equal(a[nonzero].view(np.int64),
                          b[nonzero].view(np.int64))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_support_path_matches_dense_path(data):
    n, amps, support = data.draw(sparse_states())
    sparse = Statevector(n, amps.copy(), support)
    dense = Statevector(n, amps.copy())
    for gate in data.draw(gate_lists(n)):
        sparse, dense = apply_gate(sparse, gate), apply_gate(dense, gate)
        assert dense.support is None
        if sparse.support is not None:
            assert_support_invariant(sparse)
        assert_nonzero_bits_equal(sparse.amplitudes, dense.amplitudes)


# values whose probabilities are exactly zero, subnormal or ordinary
awkward = st.sampled_from([0.0, -0.0, 1e-160, 3e-162j, 0.5, -0.25 + 0.5j,
                           1.0, 1e-8])


@settings(max_examples=150, deadline=None)
@given(sparse_states(values=awkward), st.integers(1, 40),
       st.lists(st.integers(0, 2 ** 32), min_size=1, max_size=3))
def test_sampling_ignores_the_support(state, shots, seeds):
    n, amps, support = state
    if not np.any(amps):
        return  # nothing to draw from; both paths refuse
    with_support = sample_bitstrings(Statevector(n, amps, support),
                                     shots=shots, seed=seeds)
    without = sample_bitstrings(Statevector(n, amps), shots=shots,
                                seed=seeds)
    assert np.array_equal(with_support, without)
    probs = np.abs(amps) ** 2
    assert np.all(probs[with_support] > 0)


def test_cancelled_amplitude_leaves_the_support():
    plus = apply_gate(Statevector.basis_state(3, 0), Gate("H", (0,)))
    assert plus.support.tolist() == [0, 1]
    back = apply_gate(plus, Gate("H", (0,)))
    assert back.support.tolist() == [0]
    assert back.amplitudes[1] == 0


def test_support_may_empty():
    """A support may name a zero amplitude; a gate then leaves an empty
    support, which still takes gates, and sampling it refuses as the dense
    path does."""
    state = Statevector(3, np.zeros(8, dtype=complex),
                        np.array([0], dtype=np.int64))
    state = apply_gate(state, Gate("H", (1,)))
    assert len(state.support) == 0
    state = apply_gate(state, Gate("CNOT", (0, 1)))
    assert len(state.support) == 0 and not np.any(state.amplitudes)
    with pytest.raises(ValueError, match="probabilities sum to 0"):
        sample_bitstrings(state)


def test_sampling_skips_a_zero_amplitude_inside_the_support():
    amps = np.zeros(8, dtype=complex)
    amps[[1, 6]] = [0.6, 0.8]
    state = Statevector(3, amps, np.array([0, 1, 5, 6], dtype=np.int64))
    rows = sample_bitstrings(state, shots=500, seed=[3, 4])
    assert set(rows.ravel()) == {1, 6}
    assert np.array_equal(rows, sample_bitstrings(Statevector(3, amps),
                                                  shots=500, seed=[3, 4]))


def test_more_than_half_the_blocks_takes_the_dense_path():
    """Five qubits, a gate on qubit 0: 16 blocks. Eight active bases stay
    on the support path; nine drop the support."""
    amps = np.zeros(32, dtype=complex)
    eight = np.arange(0, 32, 4, dtype=np.int64)  # eight distinct bases
    amps[eight] = 1.0 / np.sqrt(8)
    out = apply_gate(Statevector(5, amps, eight), Gate("H", (0,)))
    assert out.support is not None
    assert len(out.support) == 16
    nine = np.append(eight, 2)
    amps[nine] = 1.0 / 3.0
    out = apply_gate(Statevector(5, amps, nine), Gate("H", (0,)))
    assert out.support is None
    dense = apply_gate(Statevector(5, amps), Gate("H", (0,)))
    assert np.array_equal(out.amplitudes, dense.amplitudes)


@pytest.mark.filterwarnings("ignore:degenerate")
def test_sources_of_a_support():
    state = Statevector.basis_state(4, [1, 0, 1, 0])
    assert state.support.tolist() == [5]
    assert state.copy().support.tolist() == [5]
    assert Statevector(2, np.ones(4, dtype=complex) / 2).support is None
    assert Statevector(2, np.ones(4, dtype=complex) / 2).norm() == 1.0
    hs = build_dual(build_grid(1, 4, 4.0))
    model = SectorModel(Ansatz(AnsatzSpec(), hs.grid), hs, 2)
    embedded = Statevector.on_support(model.n_qubits, model.states,
                                      model.reference)
    assert np.array_equal(embedded.support, model.states)
    assert_support_invariant(embedded)
