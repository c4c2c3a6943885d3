"""Ladder-operator sums, normal ordering, the Jordan-Wigner encoding, and
an independent occupation-basis matrix builder.

Terms are tuples of (orbital, flag) with flag 1 for raising and 0 for
lowering. Canonical form is normal ordered: all raising factors first,
indices strictly descending inside each block. The empty tuple is the
identity.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .pauli import QubitOperator, TermSum, PRUNE_TOL, HERMITIAN_TOL, \
    _I_POWER_ARRAY, _mask_product, _pack, _sum_equal, _times, _words, \
    require_bytes

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

    The terms of one length form one batch of mask arrays, and each ladder
    factor multiplies every string of the batch at once: each string times
    the X half, then times the Y half. After each factor the equal strings
    of one term are summed into zeros in the order the products first reach
    them. The terms' totals are then summed into the output in term order,
    so every key, its insertion order and every coefficient bit match a
    term-by-term, factor-by-factor scalar product.
    """
    keys = list(op.terms)
    if not keys:
        return QubitOperator()
    coeffs = np.fromiter(op.terms.values(), dtype=complex, count=len(keys))
    sizes = np.fromiter(map(len, keys), dtype=np.intp, count=len(keys))
    factors = np.fromiter(itertools.chain.from_iterable(
        itertools.chain.from_iterable(keys)), dtype=np.int64,
        count=2 * int(sizes.sum())).reshape(-1, 2)
    orbitals, flags = factors[:, 0], factors[:, 1]
    outside = (orbitals < 0) | (orbitals >= n_qubits)
    if outside.any():
        raise ValueError(f"orbital {orbitals[outside.argmax()]} outside "
                         f"register of {n_qubits}")
    words = _words(n_qubits)
    bits = _pack(np.eye(n_qubits, 64 * words, dtype=np.uint8))
    chains = _pack(np.tri(n_qubits, 64 * words, -1, dtype=np.uint8))
    # the X half, then the Y half of a raising or of a lowering factor
    halves = np.array([_HALF_X, _HALF_Y[RAISE], _HALF_Y[LOWER]])
    starts = np.cumsum(sizes) - sizes
    pieces = []
    for size in np.unique(sizes).tolist():
        terms = np.flatnonzero(sizes == size)
        row = np.arange(len(terms))  # the term of each string, in the batch
        x = z = np.zeros((len(terms), words), dtype=np.uint64)
        values = coeffs[terms]
        for j in range(size):
            at = starts[terms[row]] + j  # the factor each string meets
            q = orbitals[at]
            # each string times the X half, then times the Y half
            half_x = np.repeat(bits[q], 2, axis=0)
            half_z = np.stack([chains[q], chains[q] | bits[q]],
                              axis=1).reshape(half_x.shape)
            half = np.stack([np.zeros_like(q),
                             np.where(flags[at] == RAISE, 1, 2)], axis=1)
            x, z, k = _mask_product(np.repeat(x, 2, axis=0),
                                    np.repeat(z, 2, axis=0), half_x, half_z)
            values = _times(_times(np.repeat(values, 2), halves[half.ravel()]),
                            _I_POWER_ARRAY[k])
            row = np.repeat(row, 2)
            first, values = _sum_equal(
                np.column_stack([row.astype(np.uint64), x, z]), values)
            row, x, z = row[first], x[first], z[first]
        pieces.append((terms[row], x, z, values))
    term, x, z, values = (np.concatenate(part) for part in zip(*pieces))
    order = np.argsort(term, kind="stable")
    x, z = x[order], z[order]
    first, sums = _sum_equal(np.hstack([x, z]), values[order])
    return QubitOperator._from_masks(x[first], z[first], sums).simplify()


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


def sector_states(n_orbitals: int, eta: int) -> np.ndarray:
    """Ascending basis indices of the C(n, eta) states with eta electrons."""
    count = math.comb(n_orbitals, eta)
    occupied = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(n_orbitals), eta)), dtype=np.int64,
        count=count * eta).reshape(count, eta)
    return np.sort((1 << occupied).sum(axis=1))


def _entries(op: FermionOperator, n_orbitals: int, held: int, what: str):
    """(rows, cols, values) of the occupation-basis matrix of ``op``, each
    position once, in row-major order. Each value is its terms' entries
    summed into zeros in term order; entries that cancel stay, as zeros.
    The budget adds the ``held`` bytes the caller keeps beside them."""
    if op.n_orbitals() > n_orbitals:
        raise ValueError("operator acts outside the requested register")
    # a term on k distinct orbitals fixes their occupations, so it keeps at
    # most 2^(n-k) states; a ladder action holds 64 bytes a state, and the
    # entries under 64 bytes each while they are summed
    bound = sum(2 ** (n_orbitals - len({q for q, _ in key}))
                for key in op.terms)
    require_bytes(held + 64 * 2 ** n_orbitals + 64 * bound, what)
    keys = np.empty(bound, dtype=np.int64)  # row << n | col
    values = np.empty(bound, dtype=complex)
    end = 0
    for key, coeff in op.terms.items():
        rows, cols, signs = _ladder_action(key, n_orbitals)
        at = slice(end, end + len(rows))
        keys[at], values[at] = rows << n_orbitals | cols, coeff * signs
        end = at.stop
    keys, values = keys[:end], values[:end]
    # as in pauli._sum_equal: a stable sort numbers the positions, and
    # bincount adds each entry onto 0.0 in term order
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.ones(end, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    keys = keys[new]
    group = np.empty(end, dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    del order, new
    parts = [np.bincount(group, part, len(keys))
             for part in (values.real, values.imag)]
    del group, values
    sums = np.empty(len(keys), dtype=complex)
    sums.real, sums.imag = parts
    return keys >> n_orbitals, keys & (2 ** n_orbitals - 1), sums


def _check_number_conserving(rows, cols, values):
    """Raise ValueError if a nonzero entry joins two particle numbers."""
    joins = np.bitwise_count(rows) != np.bitwise_count(cols)
    if np.any(values[joins] != 0):
        raise ValueError("the operator joins different particle numbers")


def fermion_matrix(op: FermionOperator, n_orbitals: int) -> np.ndarray:
    """Dense matrix in the occupation basis, built directly from ladder
    actions with explicit parity signs.

    Basis index bit q holds the occupation of orbital q (bit 0 least
    significant), identical to the qubit convention, so this matrix can be
    compared against the Jordan-Wigner image built through the Pauli path.
    """
    dim = 2 ** n_orbitals
    rows, cols, values = _entries(
        op, n_orbitals, 16 * dim * dim,
        f"a {n_orbitals}-orbital occupation-basis matrix")
    mat = np.zeros((dim, dim), dtype=complex)
    mat[rows, cols] = values
    return mat


def block_matrix(states: np.ndarray, rows, cols, values) -> np.ndarray:
    """The dense matrix on ``states`` (ascending basis indices) of entries
    of ``_entries`` that all lie inside it, each written once onto zeros;
    the rows and columns follow ``states``."""
    out = np.zeros((len(states), len(states)), dtype=values.dtype)
    out[np.searchsorted(states, rows), np.searchsorted(states, cols)] = values
    return out


def total_number_operator(n_orbitals: int) -> FermionOperator:
    op = FermionOperator()
    for q in range(n_orbitals):
        op += FermionOperator.number(q)
    return op
