"""The Jordan-Wigner compile against the per-qubit dict product.

``reference_multiply_strings`` multiplies two Pauli strings qubit by qubit
through a table of single-qubit products, and ``reference_jordan_wigner``
expands each ladder factor through it. The compile in ``pwdual`` works on
(x, z) bit masks instead; with the same accumulation order it must give
the same keys, in the same insertion order, with bit-identical
coefficients.
"""

import pytest
from hypothesis import given, settings, strategies as st

from pwdual.fermion import FermionOperator, RAISE, jordan_wigner
from pwdual.geometry import build_grid
from pwdual.hamiltonian import NucleiSpec, build_dual, build_qubit
from pwdual.pauli import QubitOperator, multiply_strings, pauli_string

# single-qubit products: (a, b) -> (phase, result letter or None for identity)
_REFERENCE_PRODUCT = {
    ("X", "X"): (1, None), ("Y", "Y"): (1, None), ("Z", "Z"): (1, None),
    ("X", "Y"): (1j, "Z"), ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"), ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"), ("X", "Z"): (-1j, "Y"),
}


def reference_multiply_strings(a, b):
    da, db = dict(a), dict(b)
    phase = 1 + 0j
    out = {}
    for q in sorted(set(da) | set(db)):
        la, lb = da.get(q), db.get(q)
        if la is None:
            out[q] = lb
        elif lb is None:
            out[q] = la
        else:
            ph, res = _REFERENCE_PRODUCT[(la, lb)]
            phase *= ph
            if res is not None:
                out[q] = res
    return phase, tuple(sorted(out.items()))


def reference_product(a, b):
    out = QubitOperator()
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            phase, key = reference_multiply_strings(ka, kb)
            out.terms[key] = out.terms.get(key, 0.0) + ca * cb * phase
    return out


def reference_jordan_wigner(op, n_qubits):
    out = QubitOperator()
    for key, coeff in op.terms.items():
        factor = QubitOperator.identity(coeff)
        for q, flag in key:
            if q >= n_qubits:
                raise ValueError(f"orbital {q} outside register of {n_qubits}")
            sign = -1j if flag == RAISE else 1j
            chain = tuple((j, "Z") for j in range(q))
            half = QubitOperator({chain + ((q, "X"),): 0.5,
                                  chain + ((q, "Y"),): 0.5 * sign})
            factor = reference_product(factor, half)
        out += factor
    return out.simplify()


def assert_identical(got, want):
    """Same keys in the same order with equal coefficients; repr also
    tells signed zeros apart."""
    assert list(got.terms.items()) == list(want.terms.items())
    assert repr(list(got.terms.items())) == repr(list(want.terms.items()))


coefficients = st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                  allow_infinity=False)


@st.composite
def fermion_operators(draw):
    n = draw(st.integers(1, 10))
    factor = st.tuples(st.integers(0, n - 1), st.integers(0, 1))
    terms = draw(st.dictionaries(st.lists(factor, max_size=4).map(tuple),
                                 coefficients, max_size=6))
    return FermionOperator(terms), n


strings = st.dictionaries(st.integers(0, 9), st.sampled_from("XYZ"),
                          max_size=10).map(lambda d: pauli_string(d.items()))
qubit_operators = st.dictionaries(strings, coefficients,
                                  max_size=5).map(QubitOperator)


@settings(max_examples=200, deadline=None)
@given(fermion_operators())
def test_jordan_wigner_equals_reference(case):
    op, n = case
    assert_identical(jordan_wigner(op, n), reference_jordan_wigner(op, n))


@settings(deadline=None)
@given(strings, strings)
def test_multiply_strings_equals_reference(a, b):
    assert multiply_strings(a, b) == reference_multiply_strings(a, b)


@settings(deadline=None)
@given(qubit_operators, qubit_operators)
def test_operator_product_equals_reference(a, b):
    assert_identical(a * b, reference_product(a, b))


# Registers past one and two 64-bit words: orbitals and qubits reach 200,
# with the word edges drawn often.
def wide_indices(n):
    edges = [q for q in (0, 63, 64, 127, 128, n - 1) if q < n]
    return st.one_of(st.integers(0, n - 1), st.sampled_from(edges))


@st.composite
def wide_fermion_operators(draw):
    n = draw(st.integers(65, 200))
    factor = st.tuples(wide_indices(n), st.integers(0, 1))
    terms = draw(st.dictionaries(st.lists(factor, max_size=4).map(tuple),
                                 coefficients, max_size=3))
    return FermionOperator(terms), n


wide_strings = st.dictionaries(wide_indices(200), st.sampled_from("XYZ"),
                               max_size=12).map(
                                   lambda d: pauli_string(d.items()))
wide_qubit_operators = st.dictionaries(wide_strings, coefficients,
                                       max_size=4).map(QubitOperator)


@settings(max_examples=60, deadline=None)
@given(wide_fermion_operators())
def test_wide_jordan_wigner_equals_reference(case):
    op, n = case
    assert_identical(jordan_wigner(op, n), reference_jordan_wigner(op, n))


@settings(deadline=None)
@given(wide_strings, wide_strings)
def test_wide_multiply_strings_equals_reference(a, b):
    assert multiply_strings(a, b) == reference_multiply_strings(a, b)


@settings(deadline=None)
@given(wide_qubit_operators, wide_qubit_operators)
def test_wide_operator_product_equals_reference(a, b):
    assert_identical(a * b, reference_product(a, b))


@pytest.mark.parametrize("dimension,m,spinful,n_nuclei", [
    (1, 4, True, 0), (1, 8, False, 1), (2, 2, True, 2),
    (2, 4, False, 1), (3, 2, False, 2), (3, 2, True, 1),
])
def test_dual_hamiltonian_equals_reference(dimension, m, spinful, n_nuclei):
    grid = build_grid(dimension, m, float(m ** dimension), spinful)
    side = grid.cell.length
    nuclei = NucleiSpec.build([((f * side,) * dimension, 1.0)
                               for f in (0.3, 0.7)[:n_nuclei]])
    hs = build_dual(grid, nuclei, None, 0.25)
    want = reference_jordan_wigner(hs.total(), hs.n_qubits)
    want += QubitOperator.identity(hs.constant)
    assert_identical(build_qubit(hs), want.simplify())
