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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import ModeGrid
from .hamiltonian import HamiltonianSet, DUAL, dual_coefficients
from .pauli import QubitOperator, qubit_operator_matrix, require_bytes, \
    string_matrix
from .serialize import fmt
from .statevector import Statevector, evolve_bytes, exact_evolve

SEGMENT_LIMIT = math.log(2.0)


@dataclass
class LcuModel:
    """The weight table as arrays, one row per selection branch in table
    order (p outer, then q, then b): ``index`` holds (p, q, b) and
    ``weights`` the signed weight."""

    grid: ModeGrid
    index: np.ndarray  # (rows, 3) int64
    weights: np.ndarray  # (rows,) float64

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
        # a sequential sum in table order; np.sum's pairwise one differs
        return sum(np.abs(self.weights).tolist())

    def selection_table(self):
        """(selection-register basis index |p>|q>|b>, b the low bit;
        signed weight) arrays, one entry per row in table order."""
        p, q, b = self.index.T
        return (p << (self.index_width + 1)) | (q << 1) | b, self.weights

    @functools.cached_property
    def _z_pairs(self) -> tuple:
        """(s, "Z") for every system qubit s; branch strings slice it."""
        return tuple((s, "Z") for s in range(self.n_system))

    def _string(self, p: int, q: int, b: int) -> tuple:
        """The Pauli string of branch (p, q, b); the empty string is the
        identity no-op."""
        z = self._z_pairs
        if p == q:
            return z[p:p + 1]
        lo, hi = (q, p) if p > q else (p, q)
        if b == 0:
            return z[lo], z[hi]
        if not self.grid.same_spin(p, q):
            return ()
        end = "X" if p > q else "Y"
        return ((lo, end),) + z[lo + 1:hi] + ((hi, end),)

    def term_string(self, row: int):
        """(sign, Pauli string) applied by the branch of table row
        ``row``."""
        p, q, b = self.index[row].tolist()
        return (1 if self.weights[row] >= 0 else -1), self._string(p, q, b)

    def reconstruction(self) -> QubitOperator:
        """Signed weighted sum over every branch, identity no-ops included."""
        out = QubitOperator()
        terms = out.terms
        for key, w in zip(map(self._string, *self.index.T.tolist()),
                          self.weights.tolist()):
            terms[key] = terms.get(key, 0.0) + w
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
    n = grid.n_qubits
    if n & (n - 1):
        raise ValueError("selection register needs a power-of-two orbital "
                         "count")
    coeffs = dual_coefficients(grid, hs.nuclei)
    t, v, u = coeffs.t, coeffs.v, coeffs.u
    sep = grid.separation_index()  # sep[a, c]: index of c - a
    p, q, b = (a.ravel() for a in np.meshgrid(
        np.arange(n), np.arange(n), np.arange(2), indexing="ij"))
    sp, sq = grid.qubit_site_index(p), grid.qubit_site_index(q)
    same = grid.same_spin(p, q)  # an array, or True on spinless grids
    diag = p == q
    weights = np.select(
        [diag, b == 0, same],
        [(v[0] / 4.0 - t[0] / 2.0 - u[sp] / 2.0) / 2.0, v[sep[sq, sp]] / 8.0,
         t[sep[sp, sq]] / 2.0], 1.0)
    keep = include_noop | diag | (b == 0) | same
    return LcuModel(grid, np.stack([p, q, b], axis=1)[keep], weights[keep])


def select_matrix(model: LcuModel) -> np.ndarray:
    """Block-diagonal selection unitary |l><l| (x) sign_l H_l over
    (selection (x) system); self-inverse by construction."""
    n_sys = model.n_system
    dim_sel = 2 ** model.selection_width
    dim_sys = 2 ** n_sys
    # the unitary, and one term's system matrix with its scaled copy
    require_bytes(16 * (dim_sel * dim_sys) ** 2 + 32 * dim_sys ** 2
                  + 96 * dim_sys, "the selection unitary")
    # a branch outside the table (a dropped no-op) applies the identity
    out = np.eye(dim_sel * dim_sys, dtype=complex)
    codes, _ = model.selection_table()
    for row, sel in enumerate(codes.tolist()):
        sign, key = model.term_string(row)
        block = sign * string_matrix(key, n_sys)
        lo = sel * dim_sys
        out[lo:lo + dim_sys, lo:lo + dim_sys] = block
    return out


def prepare_state(model: LcuModel) -> Statevector:
    """Selection-register state with amplitude sqrt(|W_l| / Lambda) at |l>."""
    lam = model.lam
    if lam <= 0:
        raise ValueError("cannot prepare a zero-weight table")
    indices, weights = model.selection_table()
    amps = np.zeros(2 ** model.selection_width, dtype=complex)
    amps[indices] = np.sqrt(np.abs(weights) / lam)
    return Statevector(model.selection_width, amps)


def taylor_segment(model: LcuModel, t: float, order, state: Statevector):
    """Apply the order-truncated series of exp(-i H t) assembled from the
    decomposition, renormalized.

    H here is the decomposition's reconstruction (identity no-ops shift it
    by a constant, a global phase under evolution).
    Returns (state, success_amplitude) where the amplitude is the idealized
    post-selection amplitude |truncated psi| / sum_k (Lambda |t|)^k / k!.
    ``order`` may be a list of orders instead: one matrix of H and one pass
    of the series to the highest order then serve them all, and a list of
    (state, success_amplitude), one per order, comes back.
    """
    orders = list(order) if np.ndim(order) else [order]
    lam_t = model.lam * abs(t)
    if lam_t > SEGMENT_LIMIT + 1e-12:
        raise ValueError(
            f"single-segment regime needs Lambda*|t| <= ln 2, got {lam_t:.4f}")
    if min(orders, default=0) < 0:
        raise ValueError(f"Taylor orders must be >= 0, got {orders}")
    n = state.n_qubits
    h_mat = qubit_operator_matrix(model.reconstruction(), n)
    psi = state.amplitudes.astype(complex)
    acc = psi.copy()
    term = psi.copy()
    partial = [acc]  # partial[k]: the sum through order k
    for k in range(1, max(orders, default=0) + 1):
        term = (-1j * t / k) * (h_mat @ term)
        acc = acc + term
        partial.append(acc)
    out = []
    for k in orders:
        norm = float(np.linalg.norm(partial[k]))
        scale = sum(lam_t ** j / math.factorial(j) for j in range(k + 1))
        if norm == 0.0:
            raise ValueError("truncated series annihilated the state")
        out.append((Statevector(n, partial[k] / norm), norm / scale))
    return out if np.ndim(order) else out[0]


def taylor_errors(model: LcuModel, hamiltonian: QubitOperator, t: float,
                  orders, seed: int) -> dict:
    """{str(order): {"error", "success_amplitude"}}: each segment's
    distance from exact evolution under ``hamiltonian`` on one random
    state drawn from ``seed``, checked against the budget of exact
    evolution before the state is drawn. The segments of every order come
    from one pass of the series."""
    n = model.n_system
    require_bytes(evolve_bytes(n), f"exact evolution on {n} qubits")
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    psi = Statevector(n, amps / np.linalg.norm(amps))
    exact = exact_evolve(hamiltonian, t, psi)
    segments = taylor_segment(model, t, orders, psi)
    return {str(order): {
        "error": float(np.linalg.norm(out.amplitudes - exact.amplitudes)),
        "success_amplitude": success,
    } for order, (out, success) in zip(orders, segments)}


def dump_weights(model: LcuModel) -> str:
    """CSV weight table: p, q, b, W with Lambda in the header."""
    lines = [f"# lambda,{fmt(model.lam)}", "p,q,b,w"]
    codes, weights = model.selection_table()
    # each distinct weight formatted once, told apart by its bits so that
    # -0.0 and 0.0 stay apart
    bits, which = np.unique(weights.view(np.int64), return_inverse=True)
    text = [fmt(w) for w in bits.view(np.float64).tolist()]
    # encoded indices sort as (p, q, b) does
    order = np.argsort(codes)
    for (p, q, b), j in zip(model.index[order].tolist(),
                            which[order].tolist()):
        lines.append(f"{p},{q},{b},{text[j]}")
    return "\n".join(lines) + "\n"
