"""Occupation-basis matrices and the block-by-block exact spectrum.

``reference_fermion_matrix`` is the slow definition: one Python loop over
every basis state per term, applying the ladder factors one by one.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from pwdual.fermion import FermionOperator, RAISE, block_matrix, \
    fermion_matrix, _check_number_conserving, _entries, _ladder_action
from pwdual.geometry import build_grid
from pwdual.hamiltonian import HamiltonianSet, build_dual, \
    build_finite_difference, build_plane_wave
from pwdual.pauli import _real_if_exact
from pwdual.vqe import sector_ground_energy, sector_states


def reference_fermion_matrix(op, n_orbitals):
    dim = 2 ** n_orbitals
    mat = np.zeros((dim, dim), dtype=complex)
    for key, coeff in op.terms.items():
        for x in range(dim):
            state = x
            amp = coeff
            dead = False
            for q, flag in reversed(key):  # rightmost factor acts first
                bit = (state >> q) & 1
                if flag == RAISE:
                    if bit:
                        dead = True
                        break
                    parity = bin(state & ((1 << q) - 1)).count("1")
                    amp *= -1 if parity % 2 else 1
                    state |= 1 << q
                else:
                    if not bit:
                        dead = True
                        break
                    parity = bin(state & ((1 << q) - 1)).count("1")
                    amp *= -1 if parity % 2 else 1
                    state &= ~(1 << q)
            if not dead:
                mat[state, x] += amp
    return mat


def reference_sector_ground_energy(hs, eta):
    """The eta-electron popcount slice of the dense matrix."""
    mat = hs.matrix()
    idx = [i for i in range(mat.shape[0]) if bin(i).count("1") == eta]
    return float(np.linalg.eigvalsh(mat[np.ix_(idx, idx)])[0])


def entries(op, n_orbitals):
    return _entries(op, n_orbitals, 0, f"a {n_orbitals}-orbital operator")


def assert_spectrum_matches_dense(hs):
    dense = np.linalg.eigvalsh(hs.matrix())
    blocks = hs.spectrum()
    assert blocks.shape == dense.shape
    assert np.all(np.abs(blocks - dense)
                  <= 1e-12 * np.maximum(1.0, np.abs(dense)))


def random_operator(n):
    factor = st.tuples(st.integers(0, n - 1), st.integers(0, 1))
    coeff = st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                               allow_infinity=False)
    return st.dictionaries(st.lists(factor, max_size=4).map(tuple), coeff,
                           max_size=6).map(FermionOperator)


@st.composite
def operators(draw):
    n = draw(st.integers(1, 8))
    return draw(random_operator(n)), n


@settings(max_examples=60, deadline=None)
@given(operators())
def test_matrix_equals_reference_loop(case):
    # keys are drawn in any order, so most terms are not normal ordered
    op, n = case
    mat = fermion_matrix(op, n)
    assert np.array_equal(mat, reference_fermion_matrix(op, n))
    assert block_matrix(np.arange(2 ** n), *entries(op, n)).tobytes() \
        == mat.tobytes()


def scatter_reference(op, n_orbitals):
    """Each term's ladder action added onto zeros, one term after another:
    the order every occupation-basis matrix sums an entry's terms in."""
    dim = 2 ** n_orbitals
    mat = np.zeros((dim, dim), dtype=complex)
    for key, coeff in op.terms.items():
        rows, cols, signs = _ladder_action(key, n_orbitals)
        mat[rows, cols] += coeff * signs
    return mat


@st.composite
def overlapping_operators(draw):
    """Few orbitals and many terms, so that entries share positions; a term
    may come with its first two factors swapped, which cancels it exactly,
    and the identity may join the diagonal."""
    n = draw(st.integers(1, 5))
    coeff = st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                               allow_infinity=False)
    factor = st.tuples(st.integers(0, n - 1), st.integers(0, 1))
    op = FermionOperator()
    for key, c, swap in draw(st.lists(st.tuples(
            st.lists(factor, max_size=3).map(tuple), coeff, st.booleans()),
            max_size=30)):
        keys = [key]
        if swap and len(key) >= 2 and key[0][0] != key[1][0]:
            keys.append((key[1], key[0]) + key[2:])
        for k in keys:
            op.terms[k] = op.terms.get(k, 0.0) + c
    if draw(st.booleans()):
        op.terms[()] = op.terms.get((), 0.0) + draw(coeff)
    return op, n


@settings(max_examples=200, deadline=None)
@given(overlapping_operators())
@example((FermionOperator(), 3))
@example((build_dual(build_grid(1, 4, 4.0, True),
                     [((1.3,), 1.0)]).total(), 8))
@example((FermionOperator({((1, 1), (0, 0)): 0.3, ((0, 0), (1, 1)): 0.3,
                           (): 1.1, ((0, 1), (0, 0)): -0.7 + 0.1j}), 2))
def test_dense_and_sparse_sum_each_entry_in_term_order(case):
    op, n = case
    want = scatter_reference(op, n).tobytes()
    assert fermion_matrix(op, n).tobytes() == want
    assert block_matrix(np.arange(2 ** n), *entries(op, n)).tobytes() == want


def test_contraction_term_equals_reference_loop():
    # a_1 a+_1 a+_2 carries a contraction once normal ordered
    op = FermionOperator({((1, 0), (1, 1), (2, 1)): 0.7 + 0.2j,
                          ((0, 0), (3, 1), (0, 1)): -1.1})
    assert np.array_equal(fermion_matrix(op, 4),
                          reference_fermion_matrix(op, 4))


def test_cancelled_entries_decouple():
    # the two hops cancel exactly, leaving four one-state blocks
    hop = ((0, 1), (1, 0))
    op = FermionOperator({hop: 1.0, ((1, 1), (0, 0)): 1.0})
    op += FermionOperator({hop: -1.0, ((1, 1), (0, 0)): -1.0})
    assert len(hermitian_set(op, 2).blocks()) == 4


CELLS = [(1, 4, 4.0, True), (1, 8, 8.0, False), (2, 2, 4.0, True),
         (1, 2, 4.0, True)]


def nuclei_cases():
    for cell in CELLS:
        d, m, volume, _ = cell
        length = volume ** (1.0 / d)
        yield cell, []
        for count in (1, 2):
            yield cell, [((tuple(0.37 * length * (j + 1) / d
                                 for _ in range(d))), 1.0 + j)
                         for j in range(count)]


@pytest.mark.parametrize("builder", [build_dual, build_plane_wave])
@pytest.mark.parametrize("cell,nuclei", list(nuclei_cases()))
def test_block_spectrum_matches_dense(builder, cell, nuclei):
    assert_spectrum_matches_dense(builder(build_grid(*cell), nuclei, None,
                                          0.25))


@pytest.mark.parametrize("shape,spinful,nuclei", [
    ((3,), False, []), ((2,), True, [((0.5,), 1.0)]),
    ((2, 2), False, [((0.5, 0.5), 1.0), ((1.3, 0.2), 2.0)]),
    ((2, 1, 1), True, [])])
def test_finite_difference_block_spectrum_matches_dense(shape, spinful,
                                                        nuclei):
    hs, _ = build_finite_difference(shape, 1.0, nuclei, spinful=spinful)
    assert_spectrum_matches_dense(hs)


def hermitian_set(op, n):
    return HamiltonianSet(op, FermionOperator(), FermionOperator(), 0.0,
                          "test", None, n)


def test_number_breaking_operator_is_one_block():
    single = hermitian_set(FermionOperator.raising(0)
                           + FermionOperator.lowering(0), 1)
    assert len(single.blocks()) == 1
    assert np.allclose(single.spectrum(), [-1.0, 1.0])
    op = FermionOperator()
    for q in range(3):
        op += FermionOperator.raising(q, 0.3 * q + 1) \
            + FermionOperator.lowering(q, 0.3 * q + 1)
    chain = hermitian_set(op, 3)
    assert len(chain.blocks()) == 1
    assert_spectrum_matches_dense(chain)
    with pytest.raises(ValueError, match="particle number"):
        sector_ground_energy(chain, 1)


def test_hamiltonian_blocks_keep_each_spin_count():
    hs = build_dual(build_grid(1, 4, 4.0, True), [((1.3,), 1.0)])
    blocks = hs.blocks()
    assert len(blocks) == 25  # (N_up, N_down) in 0..4 x 0..4
    for states, _ in blocks:
        up = np.bitwise_count(states & 0b01010101)
        down = np.bitwise_count(states & 0b10101010)
        assert len(set(up)) == 1 and len(set(down)) == 1


@pytest.mark.parametrize("cell,nuclei", [
    ((1, 4, 4.0, True), []), ((1, 4, 4.0, True), [((1.3,), 1.0)]),
    ((1, 8, 8.0, False), [((2.1,), 1.0), ((5.5,), 1.0)])])
@pytest.mark.parametrize("eta", [1, 2, 3])
def test_sector_ground_energy_matches_popcount_slice(cell, nuclei, eta):
    hs = build_dual(build_grid(*cell), nuclei)
    want = reference_sector_ground_energy(hs, eta)
    assert abs(sector_ground_energy(hs, eta) - want) \
        <= 1e-12 * max(1.0, abs(want))


def test_sector_ground_energy_at_16_qubits():
    # only the three 2-electron blocks are diagonalized; the reference is
    # one dense eigvalsh on the popcount slice of the entries
    hs = build_dual(build_grid(1, 8, 8.0, True), [((2.9,), 1.0)], None, 0.5)
    states = sector_states(16, 2)
    rows, cols, values = entries(hs.total(), 16)
    inside = np.isin(rows, states) & np.isin(cols, states)
    sector = block_matrix(states, rows[inside], cols[inside], values[inside])
    want = np.linalg.eigvalsh(sector)[0] + hs.constant
    assert abs(sector_ground_energy(hs, 2) - want) \
        <= 1e-12 * max(1.0, abs(want))
    assert sorted(len(s) for s, _ in hs.blocks(2)) == [28, 28, 64]


def test_blocks_keep_those_holding_the_electron_count():
    hs = build_dual(build_grid(1, 4, 4.0, True), [((1.3,), 1.0)])
    every = hs.blocks()
    for electrons in range(9):
        want = [(s, v) for s, v in every
                if np.bitwise_count(s[0]) == electrons]
        kept = hs.blocks(electrons)
        assert len(kept) == len(want)
        for (states, vals), (want_states, want_vals) in zip(kept, want):
            assert np.array_equal(states, want_states)
            assert np.array_equal(vals, want_vals)


def test_sector_ground_energy_rejects_empty_sector():
    with pytest.raises(ValueError, match="no 5-electron states"):
        sector_ground_energy(build_dual(build_grid(1, 4, 4.0)), 5)


def test_spectrum_memory_at_12_qubits():
    # the dense 4096 x 4096 complex matrix alone would take 268 MB
    hs = build_dual(build_grid(1, 6, 6.0, True), [((2.3,), 1.0)])
    tracemalloc.start()
    try:
        spectrum = hs.spectrum()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spectrum.shape == (4096,)
    assert peak < 64 * 2 ** 20


def test_realness_rule_narrows_only_exactly_real_matrices():
    real = np.array([[1.0, -2.0], [-2.0, 0.5]])
    narrowed = _real_if_exact(real.astype(complex))
    assert narrowed.dtype == np.float64
    assert np.array_equal(narrowed, real)
    for imag in (1e-3j, 5e-324j):  # the second is the smallest subnormal
        mat = real + imag * np.array([[0, 1], [-1, 0]])
        assert mat.dtype == complex
        assert _real_if_exact(mat) is mat
    assert _real_if_exact(real) is real


def test_complex_plane_wave_blocks_take_the_complex_solver():
    """A block with a nonzero imaginary entry is diagonalized exactly as a
    per-block complex eigvalsh does it, bit for bit."""
    hs = build_plane_wave(build_grid(1, 4, 4.0, True), [((1.3,), 1.0)],
                          None, 0.25)
    dense = fermion_matrix(hs.total(), hs.n_qubits)
    complex_blocks = 0
    for states, vals in hs.blocks():
        block = dense[np.ix_(states, states)]
        if np.any(block.imag != 0):
            complex_blocks += 1
            assert np.array_equal(
                vals, np.linalg.eigvalsh(block) + hs.constant)
    assert complex_blocks > 0


def csgraph_blocks(hs, electrons=None):
    """(states, eigvalsh input) of each block as scipy finds them: the
    connected components of a compressed-rows matrix's nonzero pattern,
    then the matrix permuted and sliced block by block."""
    n, dim = hs.n_qubits, 2 ** hs.n_qubits
    rows, cols, values = entries(hs.total(), n)
    # narrowed before the matrix is built, as blocks() narrows its entries
    mat = scipy.sparse.csr_matrix(
        (_real_if_exact(values), cols,
         np.searchsorted(rows, np.arange(dim + 1))), shape=(dim, dim))
    count, labels = connected_components(mat != 0, directed=False)
    order = np.argsort(labels, kind="stable")
    edges = np.searchsorted(labels[order], np.arange(count + 1))
    spans = list(zip(edges[:-1], edges[1:]))
    if electrons is not None:
        coo = mat.tocoo()
        _check_number_conserving(coo.row, coo.col, coo.data)
        spans = [(lo, hi) for lo, hi in spans
                 if np.bitwise_count(order[lo]) == electrons]
    mat = mat[order][:, order]
    return [(order[lo:hi], mat[lo:hi, lo:hi].toarray()) for lo, hi in spans]


@st.composite
def hermitian_cases(draw):
    """A Hermitian operator on up to 6 orbitals, number-conserving or
    not, real or complex; a term may come with a copy that cancels it
    exactly; a constant; an electron count or None."""
    n = draw(st.integers(1, 6))
    conserving, real = draw(st.booleans()), draw(st.booleans())
    orbital = st.integers(0, n - 1)
    if conserving:
        key = st.integers(0, 2).flatmap(lambda k: st.tuples(
            st.lists(orbital, min_size=k, max_size=k),
            st.lists(orbital, min_size=k, max_size=k))).map(
            lambda pair: tuple((q, 1) for q in pair[0])
            + tuple((q, 0) for q in pair[1]))
    else:
        key = st.lists(st.tuples(orbital, st.integers(0, 1)),
                       max_size=3).map(tuple)
    coeff = st.floats(-3, 3) if real else st.complex_numbers(
        max_magnitude=3.0, allow_nan=False, allow_infinity=False)
    op = FermionOperator()
    for k, c, cancel in draw(st.lists(st.tuples(key, coeff, st.booleans()),
                                      max_size=12)):
        keys = [k]
        if cancel and len(k) >= 2 and k[0][0] != k[1][0]:
            keys.append((k[1], k[0]) + k[2:])
        for k in keys:
            op.terms[k] = op.terms.get(k, 0.0) + c
    op = op + op.hermitian_conjugate()
    hs = hermitian_set(op, n)
    hs.constant = draw(st.floats(-2, 2))
    return hs, draw(st.none() | st.integers(0, n))


@settings(max_examples=150, deadline=None)
@given(hermitian_cases())
@example((build_dual(build_grid(1, 4, 4.0, True), [((1.3,), 1.0)]), None))
@example((build_dual(build_grid(1, 4, 4.0, True), [((1.3,), 1.0)]), 3))
@example((build_plane_wave(build_grid(1, 2, 4.0, True), [((1.3,), 1.0)],
                           None, 0.25), None))
def test_blocks_match_csgraph_and_sparse_slices(case):
    """The partition, the block order, every eigvalsh input and every
    eigenvalue equal scipy's path bit for bit."""
    hs, electrons = case
    try:
        want = csgraph_blocks(hs, electrons)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            hs.blocks(electrons)
        return
    solved, eigvalsh = [], np.linalg.eigvalsh

    def spy(block):
        solved.append(block.copy())
        return eigvalsh(block)

    with mock.patch.object(np.linalg, "eigvalsh", spy):
        got = hs.blocks(electrons)
    assert len(got) == len(solved) == len(want)
    for (states, vals), block, (want_states, want_block) in zip(
            got, solved, want):
        assert np.array_equal(states, want_states)
        assert block.dtype == want_block.dtype
        assert block.tobytes() == want_block.tobytes()
        assert vals.tobytes() == (eigvalsh(want_block)
                                  + hs.constant).tobytes()
