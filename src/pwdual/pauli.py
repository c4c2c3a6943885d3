"""Sparse Pauli-string sums with exact complex coefficients.

A PauliString is a sorted tuple of (qubit, letter) pairs with letter in
{X, Y, Z}; identity factors are omitted, the empty tuple is the identity.
QubitOperator is a TermSum, a dict from PauliString to complex coefficient
with deterministic iteration order; fermion.FermionOperator shares the
same base.
"""

from __future__ import annotations

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


# Inside products a string is a pair of int masks (x, z): bit q of x flips
# qubit q, bit q of z phases it, and a qubit with both bits is Y = iXZ.
_LETTERS = "IZXY"  # indexed by 2 * x bit + z bit
_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


def _masks(key: tuple) -> tuple:
    x = z = 0
    for q, letter in key:
        x |= (letter != "Z") << q
        z |= (letter != "X") << q
    return x, z


def _string(x: int, z: int) -> tuple:
    key, support = [], x | z
    while support:
        q = (support & -support).bit_length() - 1
        key.append((q, _LETTERS[2 * (x >> q & 1) + (z >> q & 1)]))
        support &= support - 1
    return tuple(key)


def _product(left, right) -> dict:
    """Product of two sums of ((x, z), coeff) pairs, keyed by masks in the
    order the pairs first reach each key.

    With P(x, z) = i^|x&z| X^x Z^z, P(x1, z1) P(x2, z2) = i^e P(x3, z3)
    where x3 = x1 ^ x2, z3 = z1 ^ z2 and e = |x1&z1| + |x2&z2| - |x3&z3|
    + 2|z1&x2| (Aaronson and Gottesman, quant-ph/0406196)."""
    acc = {}
    for (x1, z1), ca in left:
        for (x2, z2), cb in right:
            x3, z3 = x1 ^ x2, z1 ^ z2
            e = ((x1 & z1).bit_count() + (x2 & z2).bit_count()
                 - (x3 & z3).bit_count() + 2 * (z1 & x2).bit_count())
            acc[x3, z3] = acc.get((x3, z3), 0.0) + ca * cb * _I_POWERS[e & 3]
    return acc


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
    ((x, z), phase), = _product([(_masks(a), 1)], [(_masks(b), 1)]).items()
    return phase, _string(x, z)


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
    def _from_masks(cls, terms: dict):
        op = cls()
        op.terms = {_string(x, z): c for (x, z), c in terms.items()}
        return op

    def _product_with(self, other):
        return QubitOperator._from_masks(_product(
            [(_masks(k), c) for k, c in self.terms.items()],
            [(_masks(k), c) for k, c in other.terms.items()]))

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
    flip, phase_mask = _masks(key)
    if (flip | phase_mask) >= dim:
        raise ValueError("string acts outside the register")
    cols = np.arange(dim) ^ flip
    signs = 1.0 - 2.0 * (np.bitwise_count(cols & phase_mask) & 1)
    return cols, _I_POWERS[(flip & phase_mask).bit_count() & 3] * signs


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
