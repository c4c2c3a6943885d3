"""Ladder-operator sums, normal ordering, the Jordan-Wigner encoding, and
an independent occupation-basis matrix builder.

Terms are tuples of (orbital, flag) with flag 1 for raising and 0 for
lowering. Canonical form is normal ordered: all raising factors first,
indices strictly descending inside each block. The empty tuple is the
identity.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .pauli import QubitOperator, TermSum, PRUNE_TOL, HERMITIAN_TOL, \
    _product, require_bytes

RAISE = 1
LOWER = 0


class FermionOperator(TermSum):
    """Weighted sum of ladder-operator products, kept in normal order."""

    def __init__(self, terms=None):
        # raw storage; canonical form is produced by normal_order()
        super().__init__()
        if terms:
            for key, coeff in dict(terms).items():
                key = tuple((int(q), int(f)) for q, f in key)
                self.terms[key] = self.terms.get(key, 0.0) + complex(coeff)

    @classmethod
    def from_term(cls, key, coeff=1.0):
        return cls({tuple(key): coeff})

    @classmethod
    def identity(cls, coeff=1.0):
        return cls({(): coeff})

    @classmethod
    def raising(cls, orbital, coeff=1.0):
        return cls({((orbital, RAISE),): coeff})

    @classmethod
    def lowering(cls, orbital, coeff=1.0):
        return cls({((orbital, LOWER),): coeff})

    @classmethod
    def number(cls, orbital, coeff=1.0):
        return cls({((orbital, RAISE), (orbital, LOWER)): coeff})

    def _product_with(self, other):
        out = FermionOperator()
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = ka + kb
                out.terms[key] = out.terms.get(key, 0.0) + ca * cb
        return out

    def hermitian_conjugate(self):
        out = FermionOperator()
        for key, coeff in self.terms.items():
            conj_key = tuple((q, 1 - f) for q, f in reversed(key))
            out.terms[conj_key] = out.terms.get(conj_key, 0.0) + coeff.conjugate()
        return out

    def is_hermitian(self, tol=HERMITIAN_TOL) -> bool:
        diff = normal_order(self) - normal_order(self.hermitian_conjugate())
        diff.simplify(tol)
        return not diff.terms

    n_orbitals = TermSum._extent

    @staticmethod
    def _label(key) -> str:
        return "[" + (" ".join(f"{q}^" if f else f"{q}" for q, f in key)
                      or "1") + "]"


def _normal_order_term(key, coeff, out):
    """Rewrite one product into canonical form, accumulating into ``out``.

    Bubble pass using the anticommutation rules; recursion handles the
    contraction term produced by a_p a+_p swaps.
    """
    key = list(key)
    i = 0
    while i + 1 < len(key):
        (q1, f1), (q2, f2) = key[i], key[i + 1]
        if f1 == LOWER and f2 == RAISE:
            # a_q1 a+_q2 = delta - a+_q2 a_q1
            if q1 == q2:
                _normal_order_term(key[:i] + key[i + 2:], coeff, out)
            key[i], key[i + 1] = key[i + 1], key[i]
            coeff = -coeff
            i = max(i - 1, 0)
        elif f1 == f2:
            if q1 == q2:
                return  # nilpotent
            if q1 < q2:  # descending order within a block
                key[i], key[i + 1] = key[i + 1], key[i]
                coeff = -coeff
                i = max(i - 1, 0)
            else:
                i += 1
        else:
            i += 1
    k = tuple(key)
    out[k] = out.get(k, 0.0) + coeff


def normal_order(op: FermionOperator, tol=PRUNE_TOL) -> FermionOperator:
    """Canonical normal-ordered form with equal action on every Fock state."""
    acc = {}
    for key, coeff in op.terms.items():
        _normal_order_term(key, coeff, acc)
    out = FermionOperator()
    out.terms = acc
    return out.simplify(tol)


# -- Jordan-Wigner ----------------------------------------------------------

_HALF_X = 0.5 + 0j
_HALF_Y = {RAISE: -0.5j, LOWER: 0.5j}


def jordan_wigner(op: FermionOperator, n_qubits: int) -> QubitOperator:
    """Encode ladder operators as Pauli strings with Z parity chains.

    a+_p -> (X_p - iY_p)/2 * Z_{p-1} ... Z_0 ; lowering takes the +i sign.
    """
    out = {}
    for key, coeff in op.terms.items():
        factor = {(0, 0): complex(coeff)}
        for q, flag in key:
            if q >= n_qubits:
                raise ValueError(f"orbital {q} outside register of {n_qubits}")
            bit, chain = 1 << q, (1 << q) - 1
            factor = _product(factor.items(), (
                ((bit, chain), _HALF_X), ((bit, chain | bit), _HALF_Y[flag])))
        for k, c in factor.items():
            out[k] = out.get(k, 0.0) + c
    return QubitOperator._from_masks(out).simplify()


# -- occupation-basis matrices (independent of the Pauli path) --------------


def _ladder_action(key, n_orbitals: int):
    """Action of one ladder product on every occupation basis state.

    Returns (rows, cols, signs): basis state ``cols[i]`` maps to
    ``signs[i] * |rows[i]>``; states the product annihilates are dropped.
    Factors act right to left; each passes the parity of the occupied
    orbitals below it, the Jordan-Wigner sign, computed here from bits.
    """
    cols = np.arange(2 ** n_orbitals, dtype=np.int64)
    rows = cols.copy()
    parity = np.zeros(cols.size, dtype=np.uint8)
    for q, flag in reversed(key):
        alive = ((rows >> q) & 1) != flag  # raising needs an empty orbital
        rows, cols, parity = rows[alive], cols[alive], parity[alive]
        parity ^= np.bitwise_count(rows & ((1 << q) - 1)) & 1
        rows ^= 1 << q
    return rows, cols, np.where(parity, -1.0, 1.0)


# bytes of the 2^n int64 and uint8 vectors one _ladder_action call holds
_LADDER_BYTES = 64


def _check_register(op: FermionOperator, n_orbitals: int):
    if op.n_orbitals() > n_orbitals:
        raise ValueError("operator acts outside the requested register")


def fermion_matrix(op: FermionOperator, n_orbitals: int) -> np.ndarray:
    """Dense matrix in the occupation basis, built directly from ladder
    actions with explicit parity signs.

    Basis index bit q holds the occupation of orbital q (bit 0 least
    significant), identical to the qubit convention, so this matrix can be
    compared against the Jordan-Wigner image built through the Pauli path.
    """
    _check_register(op, n_orbitals)
    dim = 2 ** n_orbitals
    # the matrix, one ladder action and its signed values
    require_bytes(16 * dim * dim + (_LADDER_BYTES + 48) * dim,
                  f"a {n_orbitals}-orbital occupation-basis matrix")
    mat = np.zeros((dim, dim), dtype=complex)
    for key, coeff in op.terms.items():
        rows, cols, signs = _ladder_action(key, n_orbitals)
        # a product maps distinct states to distinct states: no repeats
        mat[rows, cols] += coeff * signs
    return mat


def fermion_sparse(op: FermionOperator,
                   n_orbitals: int) -> scipy.sparse.csr_matrix:
    """The matrix of ``fermion_matrix`` in compressed sparse rows."""
    _check_register(op, n_orbitals)
    # a term on k distinct orbitals fixes their occupations, so it keeps at
    # most 2^(n-k) states; each entry is a row, a column and a value (32
    # bytes) as a triplet, and under twice that again through the scipy
    # conversion to compressed rows
    entries = sum(2 ** (n_orbitals - len({q for q, _ in key}))
                  for key in op.terms)
    require_bytes(_LADDER_BYTES * 2 ** n_orbitals + 3 * 32 * entries,
                  f"a {n_orbitals}-orbital sparse matrix")
    rows = np.empty(entries, dtype=np.int64)
    cols = np.empty(entries, dtype=np.int64)
    vals = np.empty(entries, dtype=complex)
    end = 0
    for key, coeff in op.terms.items():
        r, c, signs = _ladder_action(key, n_orbitals)
        at = slice(end, end + len(r))
        rows[at], cols[at], vals[at] = r, c, coeff * signs
        end = at.stop
    dim = 2 ** n_orbitals
    return scipy.sparse.coo_matrix(
        (vals[:end], (rows[:end], cols[:end])), shape=(dim, dim)).tocsr()


def total_number_operator(n_orbitals: int) -> FermionOperator:
    op = FermionOperator()
    for q in range(n_orbitals):
        op += FermionOperator.number(q)
    return op
