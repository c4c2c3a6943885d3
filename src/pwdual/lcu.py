"""Selection and preparation oracles for the truncated-Taylor simulation of
the dual-basis qubit Hamiltonian, with weight-table accounting and a dense
single-segment Taylor applier.

Terms are indexed by (p, q, b) over spin-orbital indices plus one branch
bit. The five index classes and their signed weights:

* p == q (either b): half the Z_p coefficient; the b doubling restores it.
* b == 0, p != q: half the Z_p Z_q coefficient; ordered (p, q) and (q, p)
  both occur.
* b == 1, p != q, same spin (or any pair on spinless grids): the parity
  hopping string, X-type when p > q and Y-type when q > p, at the string's
  own coefficient.
* b == 1, opposite spins (spinful grids): an identity no-op of weight one,
  kept in the budget by default because the encoding reserves the index.

Negative weights keep their magnitude in the preparation amplitudes and
their sign inside the selection unitary, which stays self-inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import ModeGrid
from .hamiltonian import HamiltonianSet, DUAL, dual_coefficients
from .pauli import MATRIX_QUBIT_CAP, QubitOperator, string_matrix
from .serialize import fmt
from .statevector import Statevector

SEGMENT_LIMIT = math.log(2.0)


@dataclass(frozen=True)
class TermIndex:
    p: int
    q: int
    b: int

    def encode(self, width: int) -> int:
        """Selection-register basis index: |p>|q>|b> with b the low bit."""
        return (self.p << (width + 1)) | (self.q << 1) | self.b


@dataclass
class LcuModel:
    grid: ModeGrid
    weights: dict = field(default_factory=dict)  # TermIndex -> signed weight
    include_noop: bool = True

    @property
    def n_system(self) -> int:
        return self.grid.n_qubits

    @property
    def index_width(self) -> int:
        return int(round(math.log2(self.n_system)))

    @property
    def selection_width(self) -> int:
        return 2 * self.index_width + 1

    @property
    def lam(self) -> float:
        return sum(abs(w) for w in self.weights.values())

    def term_string(self, idx: TermIndex):
        """(sign, Pauli string) applied by the selection branch ``idx``;
        the empty string is the identity no-op."""
        p, q, b = idx.p, idx.q, idx.b
        sign = 1 if self.weights.get(idx, 1.0) >= 0 else -1
        if p == q:
            return sign, ((p, "Z"),)
        if b == 0:
            return sign, tuple(sorted(((p, "Z"), (q, "Z"))))
        if not self.grid.same_spin(p, q):
            return 1, ()
        lo, hi = min(p, q), max(p, q)
        end = "X" if p > q else "Y"
        middle = tuple((s, "Z") for s in range(lo + 1, hi))
        return sign, ((lo, end),) + middle + ((hi, end),)

    def reconstruction(self) -> QubitOperator:
        """Signed weighted sum over every branch, identity no-ops included."""
        out = QubitOperator()
        for idx, w in self.weights.items():
            sign, key = self.term_string(idx)
            out.terms[key] = out.terms.get(key, 0.0) + sign * abs(w)
        return out.simplify()


def build_weights(hs: HamiltonianSet, include_noop: bool = True) -> LcuModel:
    """Signed weight table for every selection branch of a dual-basis set.

    Weights are closed forms in the coefficient table (not read from the
    compiled operator), so the reconstruction identity against build_qubit
    is a real cross-check: Z_p gets (v(0)/4 - t(0)/2 - u(p)/2)/2 per
    branch, Z_p Z_q gets v(p - q)/8 per ordering, and the hopping string
    from p to q gets t(q - p)/2.
    """
    if hs.representation != DUAL:
        raise ValueError("selection weights are defined on the dual "
                         "representation")
    grid = hs.grid
    if grid.n_qubits & (grid.n_qubits - 1):
        raise ValueError("selection register needs a power-of-two orbital "
                         "count")
    coeffs = dual_coefficients(grid, hs.nuclei)
    t, v, u = coeffs.t.tolist(), coeffs.v.tolist(), coeffs.u.tolist()
    sep = grid.separation_index().tolist()  # sep[p][q]: index of q - p
    model = LcuModel(grid, include_noop=include_noop)

    n = grid.n_qubits
    for p in range(n):
        sp = grid.qubit_site_index(p)
        for q in range(n):
            sq = grid.qubit_site_index(q)
            for b in (0, 1):
                idx = TermIndex(p, q, b)
                if p == q:
                    w = (v[0] / 4.0 - t[0] / 2.0 - u[sp] / 2.0) / 2.0
                elif b == 0:
                    w = v[sep[sq][sp]] / 8.0
                elif not grid.same_spin(p, q):
                    if not include_noop:
                        continue
                    w = 1.0
                else:
                    w = t[sep[sp][sq]] / 2.0
                model.weights[idx] = w
    return model


def select_matrix(model: LcuModel) -> np.ndarray:
    """Block-diagonal selection unitary |l><l| (x) sign_l H_l over
    (selection (x) system); self-inverse by construction."""
    width = model.index_width
    n_sys = model.n_system
    total_qubits = model.selection_width + n_sys
    if total_qubits > MATRIX_QUBIT_CAP:
        raise ValueError(f"selection + system needs {total_qubits} qubits, "
                         f"cap is {MATRIX_QUBIT_CAP}")
    dim_sel = 2 ** model.selection_width
    dim_sys = 2 ** n_sys
    out = np.zeros((dim_sel * dim_sys, dim_sel * dim_sys), dtype=complex)
    for sel in range(dim_sel):
        b = sel & 1
        q = (sel >> 1) & (n_sys - 1)
        p = sel >> (width + 1)
        sign, key = model.term_string(TermIndex(p, q, b))
        block = sign * string_matrix(key, n_sys)
        lo = sel * dim_sys
        out[lo:lo + dim_sys, lo:lo + dim_sys] = block
    return out


def prepare_state(model: LcuModel) -> Statevector:
    """Selection-register state with amplitude sqrt(|W_l| / Lambda) at |l>."""
    lam = model.lam
    if lam <= 0:
        raise ValueError("cannot prepare a zero-weight table")
    width = model.index_width
    amps = np.zeros(2 ** model.selection_width, dtype=complex)
    for idx, w in model.weights.items():
        amps[idx.encode(width)] = math.sqrt(abs(w) / lam)
    return Statevector(model.selection_width, amps)


def taylor_segment(model: LcuModel, t: float, order: int,
                   state: Statevector, constant: float = 0.0):
    """Apply the order-truncated series of exp(-i H t) assembled from the
    decomposition, renormalized.

    H here is the decomposition's reconstruction (identity no-ops shift it
    by a constant, a global phase under evolution) plus ``constant``.
    Returns (state, success_amplitude) where the amplitude is the idealized
    post-selection amplitude |truncated psi| / sum_k (Lambda t)^k / k!.
    """
    lam = model.lam
    if lam * t > SEGMENT_LIMIT + 1e-12:
        raise ValueError(
            f"single-segment regime needs Lambda*t <= ln 2, got {lam * t:.4f}")
    n = state.n_qubits
    h = model.reconstruction()
    if constant:
        h += QubitOperator.identity(constant)
    from .pauli import qubit_operator_matrix
    h_mat = qubit_operator_matrix(h, n)
    psi = state.amplitudes.astype(complex)
    acc = psi.copy()
    term = psi.copy()
    for k in range(1, order + 1):
        term = (-1j * t / k) * (h_mat @ term)
        acc = acc + term
    norm = float(np.linalg.norm(acc))
    scale = sum((lam * t) ** k / math.factorial(k) for k in range(order + 1))
    success = norm / scale
    if norm == 0.0:
        raise ValueError("truncated series annihilated the state")
    return Statevector(n, acc / norm), success


def dump_weights(model: LcuModel) -> str:
    """CSV weight table: p, q, b, W with Lambda in the header."""
    lines = [f"# lambda,{fmt(model.lam)}", "p,q,b,w"]
    for idx in sorted(model.weights, key=lambda i: (i.p, i.q, i.b)):
        lines.append(f"{idx.p},{idx.q},{idx.b},{fmt(model.weights[idx])}")
    return "\n".join(lines) + "\n"
