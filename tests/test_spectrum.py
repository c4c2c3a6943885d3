"""Occupation-basis matrices and the block-by-block exact spectrum.

``reference_fermion_matrix`` is the slow definition: one Python loop over
every basis state per term, applying the ladder factors one by one.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwdual.fermion import FermionOperator, RAISE, fermion_matrix, \
    fermion_sparse
from pwdual.geometry import build_grid
from pwdual.hamiltonian import HamiltonianSet, build_dual, \
    build_finite_difference, build_plane_wave
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
    scale = max(1.0, float(np.max(np.abs(mat), initial=0.0)))
    assert np.allclose(fermion_sparse(op, n).toarray(), mat,
                       rtol=0.0, atol=1e-14 * scale)


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
    # one dense eigvalsh on the popcount slice of the sparse matrix
    hs = build_dual(build_grid(1, 8, 8.0, True), [((2.9,), 1.0)], None, 0.5)
    states = sector_states(16, 2)
    sector = fermion_sparse(hs.total(), 16)[states][:, states].toarray()
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
