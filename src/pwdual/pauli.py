"""Sparse Pauli-string sums with exact complex coefficients.

A PauliString is a sorted tuple of (qubit, letter) pairs with letter in
{X, Y, Z}; identity factors are omitted, the empty tuple is the identity.
QubitOperator is a TermSum, a dict from PauliString to complex coefficient
with deterministic iteration order; fermion.FermionOperator shares the
same base.

Strings are multiplied in batches by one array kernel, ``_mask_product``:
each string is a pair of (x, z) masks held as rows of (rows, words) uint64
arrays, and each row gives its product string and phase. ``_sum_equal``
then sums equal strings into zeros, each in row order, with keys in the
order the rows first reach them. Rows are laid out as the scalar loop
visits them (left term outer, right term inner), so products, the
Jordan-Wigner compile (``fermion.jordan_wigner``) and ``multiply_strings``
give the keys, insertion order and coefficient bits of that loop.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

PRUNE_TOL = 1e-12
HERMITIAN_TOL = 1e-12
# the most any one dense kernel call may hold at its peak: one 13-qubit
# matrix or one 26-qubit statevector
DENSE_BYTES_LIMIT = 2 ** 30


class DenseLimitError(ValueError):
    """A dense kernel would hold more than DENSE_BYTES_LIMIT bytes."""


def require_bytes(nbytes: int, what: str):
    """Raise DenseLimitError before ``what`` allocates, when the ``nbytes``
    it holds at its peak pass DENSE_BYTES_LIMIT."""
    if nbytes > DENSE_BYTES_LIMIT:
        raise DenseLimitError(
            f"{what} needs {nbytes} bytes; dense work is limited to "
            f"DENSE_BYTES_LIMIT = {DENSE_BYTES_LIMIT} bytes")


def _real_if_exact(mat: np.ndarray) -> np.ndarray:
    """The real part of an array whose imaginary parts are all exactly
    zero, so that a real symmetric matrix reaches LAPACK's real solvers
    (the dual basis); any other array (a complex plane-wave block, say),
    unchanged."""
    if np.iscomplexobj(mat) and not mat.imag.any():
        return mat.real
    return mat


# Inside products a string is a pair of masks (x, z): bit q of x flips
# qubit q, bit q of z phases it, and a qubit with both bits is Y = iXZ. A
# batch of strings keeps each mask as a (rows, words) uint64 array, qubit q
# at bit q % 64 of word q // 64, with words = ceil(n / 64): one code path
# for every register size.
_LETTERS = "IZXY"  # indexed by 2 * x bit + z bit
_CODES = {"Z": 1, "X": 2, "Y": 3}
_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)
_I_POWER_ARRAY = np.array(_I_POWERS)


def _masks(key: tuple) -> tuple:
    """The (x, z) masks of one string as Python ints, for dense indexing."""
    x = z = 0
    for q, letter in key:
        x |= (letter != "Z") << q
        z |= (letter != "X") << q
    return x, z


def _words(n_qubits: int) -> int:
    return max(1, -(-n_qubits // 64))


def _pack(bits: np.ndarray) -> np.ndarray:
    """(rows, 64 * words) 0/1 uint8 array -> (rows, words) uint64 masks."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


def _unpack(masks: np.ndarray) -> np.ndarray:
    """(rows, words) uint64 masks -> (rows, 64 * words) 0/1 uint8 array."""
    raw = np.ascontiguousarray(masks, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, bitorder="little")


def _mask_arrays(keys: list, n_qubits: int) -> tuple:
    """(x, z) mask arrays of a list of strings on ``n_qubits`` qubits."""
    sizes = np.fromiter(map(len, keys), dtype=np.intp, count=len(keys))
    pairs = list(itertools.chain.from_iterable(keys))
    qubits = np.fromiter((q for q, _ in pairs), dtype=np.intp,
                         count=len(pairs))
    if qubits.size and qubits.min() < 0:
        raise ValueError(f"negative qubit {qubits.min()} in Pauli string")
    codes = np.zeros((len(keys), 64 * _words(n_qubits)), dtype=np.uint8)
    codes[np.repeat(np.arange(len(keys)), sizes), qubits] = np.fromiter(
        (_CODES[letter] for _, letter in pairs), dtype=np.uint8,
        count=len(pairs))
    return _pack(codes >> 1), _pack(codes & 1)


@functools.lru_cache(maxsize=None)
def _pair_table(width: int) -> np.ndarray:
    """[code, q] -> the (q, letter) pair, shared by every string built."""
    table = np.empty((len(_LETTERS), width), dtype=object)
    for code, letter in enumerate(_LETTERS):
        for q in range(width):
            table[code, q] = (q, letter)
    return table


def _strings(x: np.ndarray, z: np.ndarray) -> list:
    """The string of each row of a pair of mask arrays."""
    codes = 2 * _unpack(x) + _unpack(z)
    rows, qubits = np.nonzero(codes)
    pairs = _pair_table(codes.shape[1])[codes[rows, qubits], qubits].tolist()
    ends = np.cumsum(np.bincount(rows, minlength=len(codes))).tolist()
    return [tuple(pairs[a:b]) for a, b in zip([0] + ends, ends)]


def _mask_product(x1, z1, x2, z2) -> tuple:
    """Row-wise product of two batches of strings: (x3, z3, k) with
    P(x1, z1) P(x2, z2) = i^k P(x3, z3) in each row, k in 0..3.

    With P(x, z) = i^|x&z| X^x Z^z, x3 = x1 ^ x2, z3 = z1 ^ z2 and k = |x1&z1|
    + |x2&z2| - |x3&z3| + 2|z1&x2| (Aaronson and Gottesman,
    quant-ph/0406196)."""
    def count(masks):
        return np.bitwise_count(masks).sum(axis=1, dtype=np.int64)
    x3, z3 = x1 ^ x2, z1 ^ z2
    k = count(x1 & z1) + count(x2 & z2) - count(x3 & z3) + 2 * count(z1 & x2)
    return x3, z3, k & 3


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise a * b with Python's complex product: four real products
    and two sums, each rounded alone, so every bit (signed zeros included)
    matches the scalar arithmetic."""
    out = np.empty(len(a), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _sum_equal(keys: np.ndarray, values: np.ndarray) -> tuple:
    """Sum the values of equal rows of a 2-D uint64 key array into zeros,
    each in row order, with keys numbered in the order rows first reach
    them: the scalar ``acc[k] = acc.get(k, 0.0) + v``. Returns (the first
    row of each key, the sums)."""
    order = np.lexsort(keys.T)  # stable: equal keys keep their row order
    ordered = keys[order]
    new = np.ones(len(order), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    first = order[new]
    reach = np.argsort(first)
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.argsort(reach)[np.cumsum(new) - 1]
    sums = np.empty(len(first), dtype=complex)
    # bincount adds each weight onto 0.0 in row order, as the scalar sum
    # adds each part of a complex value
    sums.real = np.bincount(group, values.real, len(first))
    sums.imag = np.bincount(group, values.imag, len(first))
    return first[reach], sums


def pauli_string(pairs) -> tuple:
    """Canonicalize an iterable of (qubit, letter) pairs."""
    d = {}
    for q, letter in pairs:
        if letter not in ("X", "Y", "Z"):
            raise ValueError(f"bad Pauli letter {letter!r}")
        if q in d:
            raise ValueError(f"duplicate qubit {q} in Pauli string")
        d[int(q)] = letter
    return tuple(sorted(d.items()))


def multiply_strings(a: tuple, b: tuple):
    """Product of two Pauli strings: returns (phase, string)."""
    n = 1 + max((q for q, _ in a + b), default=-1)
    x, z, k = _mask_product(*_mask_arrays([a], n), *_mask_arrays([b], n))
    return _I_POWERS[k[0]], _strings(x, z)[0]


class TermSum:
    """Sparse sum of terms: a dict from term keys to complex coefficients.

    Owns the dict algebra both operator types share. A subclass supplies
    its constructors, the product of two sums (``_product_with``) and the
    printed label of one key (``_label``); keys are tuples of
    (index, letter or flag) pairs.
    """

    def __init__(self):
        self.terms = {}

    def copy(self):
        out = type(self)()
        out.terms = dict(self.terms)
        return out

    def items(self):
        """Deterministic (key, coeff) iteration, sorted by key."""
        return sorted(self.terms.items())

    def __add__(self, other):
        out = self.copy()
        out += other
        return out

    def __iadd__(self, other):
        for key, coeff in other.terms.items():
            self.terms[key] = self.terms.get(key, 0.0) + coeff
        return self

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._product_with(other)
        out = self.copy()
        for key in out.terms:
            out.terms[key] *= complex(other)
        return out

    __rmul__ = __mul__

    def simplify(self, tol=PRUNE_TOL):
        """Drop terms with |coefficient| below tol (in place); returns self."""
        self.terms = {k: c for k, c in self.terms.items() if abs(c) > tol}
        return self

    def _extent(self) -> int:
        """One past the largest index any term touches; 0 when none does."""
        indices = [q for key in self.terms for q, _ in key]
        return max(indices) + 1 if indices else 0

    def __repr__(self):
        parts = [f"({coeff:.6g}) {self._label(key)}"
                 for key, coeff in self.items()]
        return " + ".join(parts) if parts else "0"


class QubitOperator(TermSum):
    """Weighted sum of Pauli strings."""

    def __init__(self, terms=None):
        super().__init__()
        if terms:
            for key, coeff in dict(terms).items():
                self.terms[pauli_string(key)] = complex(coeff)

    @classmethod
    def from_term(cls, pairs, coeff=1.0):
        op = cls()
        op.terms[pauli_string(pairs)] = complex(coeff)
        return op

    @classmethod
    def identity(cls, coeff=1.0):
        return cls.from_term((), coeff)

    @classmethod
    def _from_masks(cls, x: np.ndarray, z: np.ndarray, coeffs: np.ndarray):
        op = cls()
        op.terms = dict(zip(_strings(x, z), coeffs.tolist()))
        return op

    def _product_with(self, other):
        """Every left term times every right term, left outer, summed in
        the order products first reach each string."""
        n = max(self.n_qubits(), other.n_qubits())
        (xa, za), (xb, zb) = (_mask_arrays(list(op.terms), n)
                              for op in (self, other))
        left = np.repeat(np.arange(len(xa)), len(xb))
        right = np.tile(np.arange(len(xb)), len(xa))
        x, z, k = _mask_product(xa[left], za[left], xb[right], zb[right])
        ca, cb = (np.fromiter(op.terms.values(), dtype=complex,
                              count=len(op.terms)) for op in (self, other))
        first, sums = _sum_equal(np.hstack([x, z]),
                                 _times(_times(ca[left], cb[right]),
                                        _I_POWER_ARRAY[k]))
        return QubitOperator._from_masks(x[first], z[first], sums)

    n_qubits = TermSum._extent

    def is_hermitian(self, tol=HERMITIAN_TOL) -> bool:
        return all(abs(c.imag) <= tol for c in self.terms.values())

    def hermitian_conjugate(self):
        out = QubitOperator()
        out.terms = {k: c.conjugate() for k, c in self.terms.items()}
        return out

    def constant(self) -> complex:
        return self.terms.get((), 0.0)

    def coefficient_norm(self, include_identity=True) -> float:
        """Sum of absolute coefficients."""
        return sum(
            abs(c) for k, c in self.terms.items() if include_identity or k != ()
        )

    @staticmethod
    def _label(key) -> str:
        return " ".join(f"{letter}{q}" for q, letter in key) or "I"


def _permutation(key: tuple, dim: int) -> tuple:
    """Row r of P(x, z) holds i^|x&z| (-1)^|(r^x)&z| in column r ^ x."""
    x, z = _masks(key)
    if (x | z) >= dim:
        raise ValueError("string acts outside the register")
    cols = np.arange(dim) ^ x
    signs = 1.0 - 2.0 * (np.bitwise_count(cols & z) & 1)
    return cols, _I_POWERS[(x & z).bit_count() & 3] * signs


def string_matrix(key: tuple, n_qubits: int) -> np.ndarray:
    """Dense matrix of a single Pauli string; qubit 0 is the least
    significant bit of the basis index."""
    if any(q >= n_qubits for q, _ in key):
        raise ValueError("string acts outside the register")
    return qubit_operator_matrix(QubitOperator.from_term(key), n_qubits)


def qubit_operator_matrix(op: QubitOperator, n_qubits: int) -> np.ndarray:
    """Dense matrix of ``op``, writing only each term's 2^n entries."""
    if op.n_qubits() > n_qubits:
        raise ValueError("operator acts outside the requested register")
    # the matrix, and one term's index, sign and value vectors
    require_bytes(16 * 4 ** n_qubits + 96 * 2 ** n_qubits,
                  f"a {n_qubits}-qubit operator matrix")
    rows = np.arange(2 ** n_qubits)
    mat = np.zeros((len(rows), len(rows)), dtype=complex)
    for key, coeff in op.items():
        cols, values = _permutation(key, len(rows))
        mat[rows, cols] += coeff * values
    return mat


def apply_string(key: tuple, state: np.ndarray) -> np.ndarray:
    """Apply one Pauli string to dense states on the last axis, matrix-free."""
    cols, values = _permutation(key, state.shape[-1])
    return values * state[..., cols]


def expectation_value(op: QubitOperator, state: np.ndarray) -> complex:
    return sum(
        coeff * np.vdot(state, apply_string(key, state))
        for key, coeff in op.items()
    )


def self_inverse_decompose(op: QubitOperator, tol=HERMITIAN_TOL):
    """Split a Hermitian operator into signed nonnegative weights on
    self-inverse Pauli strings.

    Returns (terms, lam) where terms is a list of (weight, sign, string)
    and lam is the sum of weights.
    """
    if not op.is_hermitian(tol):
        raise ValueError("self-inverse decomposition needs a Hermitian operator")
    terms = []
    lam = 0.0
    for key, coeff in op.items():
        w = abs(coeff.real)
        if w <= tol:
            continue
        sign = 1 if coeff.real > 0 else -1
        terms.append((w, sign, key))
        lam += w
    return terms, lam
