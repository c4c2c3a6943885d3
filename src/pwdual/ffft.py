"""Fermionic fast Fourier transform circuits.

The emitted circuit C satisfies, for every mode nu with slot j,

    C^dag a^dag_{slot j} C = (1/sqrt(N)) sum_p a^dag_p e^{-i k_nu . r_p},

i.e. conjugation by C turns the local ladder operator at slot j into the
momentum-mode combination. Construction is radix-2 decimation in time:
adjacent-transposition fermionic-swap sorts separate even and odd samples,
recursion transforms the halves, a riffle brings butterfly partners
adjacent, one layer of twiddled butterflies combines them, and a final sort
restores mode order. All two-qubit gates act on chain-adjacent orbitals, so
the circuit is legal on a planar lattice routed along a boustrophedon path.

Spinful registers are handled by fermionic-sorting the interleaved qubits
into spin blocks, transforming each block, and sorting back.
"""

from __future__ import annotations

import numpy as np

from .geometry import ModeGrid
from .pauli import require_bytes
from .statevector import KIND_CODE, Circuit, Gate, GateColumns, \
    gate_columns
from .swapnet import _is_power_of_two, _odd_even_swaps

# entries of a two-qubit matrix that mix the 0-, 1- and 2-particle blocks
_OUTSIDE_BLOCKS = np.array([[0, 1, 1, 1], [1, 0, 0, 1], [1, 0, 0, 1],
                            [1, 1, 1, 0]], dtype=bool)


def _swaps(*orders):
    """(kind, pairs, angle) columns of the fermionic swaps of slots
    (i, i + 1), in application order, that move the orbital at slot i to
    slot ``keys[i]``, on qubits 0, 1, ...; one piece per key list, the
    lists of one length sorted together. Fermionic swaps are self-inverse,
    so the reversed columns undo the move."""
    swapped = _odd_even_swaps(np.array(orders, dtype=np.int64))
    pieces = []
    for row in range(len(orders)):
        phase, j = np.nonzero(swapped[:, row])
        slots = 2 * j + phase % 2
        pieces.append((np.full(len(slots), KIND_CODE["FSWAP"]),
                       slots[:, None] + np.arange(2), np.zeros(len(slots))))
    return pieces


def _stack(pieces, shift=0):
    """(kind, pairs, angle) columns of the pieces in order, the pairs
    moved up by ``shift`` qubits; a piece is such columns."""
    kind, pairs, angle = (np.concatenate(column) for column in zip(*pieces))
    return kind, pairs + shift, angle


def _reversed(piece):
    return tuple(column[::-1] for column in piece)


def _piece(columns: GateColumns):
    """(kind, pairs, angle) columns of two-qubit GateColumns."""
    return columns.kind, columns.targets.reshape(-1, 2), columns.angle


def _even_odd_keys(m):
    """Slots sending even labels to the left half in order, odd labels to
    the right half."""
    return [j // 2 + (j % 2) * (m // 2) for j in range(m)]


def _ffft_1d_ops(positions) -> GateColumns:
    """Gates (application order) of one 1D transform over ``positions``
    (slot -> qubit), as columns.

    Steps follow the decimation data flow: even/odd sort, half transforms,
    riffle, butterfly layer, output sort. The single-particle matrices of
    the steps then compose right-to-left into the mode transform. The half
    transform is made once, on slots 0..M/2-1, and moved onto each half.
    """
    m = len(positions)
    half = m // 2
    if m == 1:
        return gate_columns("FK", np.zeros((0, 2), dtype=np.int64))
    sub = _piece(_ffft_1d_ops(list(range(half))))
    j = np.arange(half)
    split, riffle, restore = _swaps(
        _even_odd_keys(m),
        # riffle: [E0..E_{m/2-1}, O0..O_{m/2-1}] -> [E0, O0, E1, O1, ...]
        [2 * i if i < half else 2 * (i - half) + 1 for i in range(m)],
        # outputs sit as [c_0, c_{m/2}, c_1, c_{1+m/2}, ...]; restore mode
        # order
        [x for i in range(half) for x in (i, half + i)])
    kind, pairs, angle = _stack([
        split, sub, _stack([sub], half), riffle,
        # one butterfly layer: pair (2j, 2j+1) combines E_j with O_j under
        # the twiddle exp(-2 pi i j / M)
        (np.full(half, KIND_CODE["FK"]), 2 * j[:, None] + np.arange(2),
         2.0 * np.pi * j / m),
        restore])
    return gate_columns(kind, np.asarray(positions)[pairs], angle)


def _axis_keys(grid: ModeGrid, axis):
    """Slot of each site once ``axis`` is the fastest-varying index; the
    identity for the last axis, which already is."""
    axes = [a for a in range(grid.dimension) if a != axis] + [axis]
    keys = []
    for p in grid.site_vectors():
        idx = 0
        for a in axes:
            idx = idx * grid.modes_per_axis + p[a]
        keys.append(idx)
    return keys


def build_ffft_nd(grid: ModeGrid, connectivity=None) -> Circuit:
    """Axis-by-axis transform on a d-dimensional grid, with fermionic-swap
    relabelings between axes; spinful grids sort the interleaved spins into
    blocks (all up, then all down), transform each block, and sort back.

    Built as columns: the 1D transform is made once, on qubits 0..M-1,
    and tiled over the lines of each axis; each axis sort is made once
    and serves both spin blocks."""
    m = grid.modes_per_axis
    if not _is_power_of_two(m):
        raise ValueError(f"modes per axis must be a power of two, got {m}")
    n_spatial = grid.n_spatial
    kind, pairs, angle = _piece(_ffft_1d_ops(list(range(m))))
    lines = np.arange(0, n_spatial, m)
    tiled = (np.tile(kind, len(lines)),
             (pairs + lines[:, None, None]).reshape(-1, 2),
             np.tile(angle, len(lines)))
    pieces = []
    for axis in range(grid.dimension - 1, -1, -1):
        to_axis, = _swaps(_axis_keys(grid, axis))
        pieces += [to_axis, tiled, _reversed(to_axis)]
    sector = _stack(pieces)
    if grid.cell.spinful:
        to_blocks, = _swaps(_even_odd_keys(2 * n_spatial))
        sector = _stack([to_blocks, sector, _stack([sector], n_spatial),
                         _reversed(to_blocks)])
    return Circuit.join(grid.n_qubits, [gate_columns(*sector)], connectivity)


def mode_ladder_operator(grid: ModeGrid, nu, spin=None):
    """(1/sqrt(N)) sum_p a^dag_p e^{-i k_nu . r_p} as a FermionOperator."""
    from .fermion import FermionOperator
    op = FermionOperator()
    k = grid.k_vector(nu)
    norm = 1.0 / np.sqrt(grid.n_spatial)
    for p in grid.site_vectors():
        phase = np.exp(-1j * float(k @ grid.r_vector(p)))
        op += FermionOperator.raising(grid.qubit_index(p, spin), norm * phase)
    return op


def single_particle_transform(circuit: Circuit) -> np.ndarray:
    """Matrix W with C^dag a^dag_p C = sum_q W[p, q] a^dag_q for a circuit C
    of number-conserving Gaussian two-mode gates on adjacent orbitals.

    A gate with matrix m sends a^dag on its two orbitals through the 2x2
    block B = m[1:3, 1:3] on {|01>, |10>}, relative to its vacuum amplitude
    m[0, 0]; no Jordan-Wigner string lies between adjacent orbitals. So W is
    the ordered product of conj(B / m[0, 0]), O(gates * n) with no 2^n state
    (Terhal and DiVincenzo, quant-ph/0108010). Any other gate raises
    ValueError.
    """
    w = np.eye(circuit.n_qubits, dtype=complex)
    for g in circuit.gates:
        if len(g.targets) != 2 or abs(g.targets[0] - g.targets[1]) != 1:
            raise ValueError(f"{g} is not a two-mode gate on adjacent "
                             f"orbitals")
        m = g.matrix()
        block = m[1:3, 1:3]
        det = block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]
        if m[_OUTSIDE_BLOCKS].any() or abs(m[3, 3] * m[0, 0] - det) > 1e-12:
            raise ValueError(f"{g} is not a number-conserving Gaussian gate")
        rows = list(g.targets)
        w[rows] = np.conj(block / m[0, 0]) @ w[rows]
    return w


def _minor_rows(dim: int, eta: int) -> int:
    """Rows of a dim-state sector matrix whose eta x eta minors are taken
    at once, about 16 MB of minors."""
    return min(dim, max(1, (1 << 20) // max(1, dim * eta * eta)))


def _occupied(states: np.ndarray, n: int) -> np.ndarray:
    """Orbitals occupied in each state, one row per state."""
    bits = (states[:, None] >> np.arange(n)) & 1
    return np.nonzero(bits)[1].reshape(len(states), -1)


def sector_transform(circuit: Circuit, blocks) -> list:
    """<I|C|J> for a number-conserving circuit C on each (rows, cols) pair
    in ``blocks``: the occupation states I in rows and J in cols, which all
    hold the same eta electrons. One matrix per pair, in order.

    With A = conj(W) the circuit's single-particle matrix, C a^dag_q C^dag
    = sum_p A[p, q] a^dag_p, and C|vac> = v|vac> with v the product of each
    gate's m[0, 0]. So entry (I, J) is v det(A[I, J]) over the orbitals
    occupied in I and J: v times the eta-th compound of A. A and v are
    formed once for all the pairs.
    """
    n = circuit.n_qubits
    sizes = [(len(rows), len(cols),
              int(cols[0]).bit_count() if len(cols) else 0)
             for rows, cols in blocks]
    # the outputs and the largest chunk of minors with the copy det takes
    require_bytes(sum(16 * r * c for r, c, _ in sizes)
                  + max(32 * min(r, _minor_rows(c, eta)) * c * eta ** 2
                        for r, c, eta in sizes),
                  "<I|C|J> on " + ", ".join(f"{r} x {c} {eta}-electron"
                                            for r, c, eta in sizes)
                  + " states")
    a = single_particle_transform(circuit).conj()
    vacuum = np.prod([g.matrix()[0, 0] for g in circuit.gates])
    outs = []
    for rows, cols in blocks:
        occupied, occupied_cols = _occupied(rows, n), _occupied(cols, n)
        out = np.empty((len(rows), len(cols)), dtype=complex)
        chunk = _minor_rows(len(cols), occupied.shape[1])
        for start in range(0, len(rows), chunk):
            block = occupied[start:start + chunk]
            minors = a[block[:, None, :, None],
                       occupied_cols[None, :, None, :]]
            out[start:start + chunk] = vacuum * np.linalg.det(minors)
        outs.append(out)
    return outs


def stage_listing(circuit: Circuit):
    """JSON-compatible summary of the circuit's alternating structure:
    runs of fermionic swaps (sorting stages) and butterfly layers, with the
    overall gate count and greedy depth; intended for depth audits."""
    stages = []
    current = None
    for g in circuit.gates:
        kind = "butterfly" if g.kind == "FK" else "swap_sort"
        if current is None or current["stage"] != kind:
            current = {"stage": kind, "gates": 0}
            if kind == "butterfly":
                current["pairs"] = []
            stages.append(current)
        current["gates"] += 1
        if kind == "butterfly":
            current["pairs"].append([g.targets[0], g.targets[1],
                                     float(g.angle)])
    return {
        "stages": stages,
        "gate_count": len(circuit.gates),
        "depth": circuit.depth(),
    }


def fswap_properties_report(theta_values=(0.0, np.pi / 8, np.pi / 4, 1.0)):
    """Matrix-level check of the defining fermionic-swap identities.

    Asserts, on a 2-orbital register: Hermiticity, unitarity, involution,
    ladder exchange under conjugation, and the partial-swap conjugation
    formula for each theta. Returns a dict of maximum deviations.
    """
    from .fermion import FermionOperator, fermion_matrix
    from .statevector import Statevector, apply_gate

    f = np.zeros((4, 4), dtype=complex)
    for idx in range(4):
        out = apply_gate(Statevector.basis_state(2, idx), Gate("FSWAP", (0, 1)))
        f[:, idx] = out.amplitudes
    adag_p = fermion_matrix(FermionOperator.raising(0), 2)
    adag_q = fermion_matrix(FermionOperator.raising(1), 2)
    eye = np.eye(4)

    report = {
        "hermitian": float(np.max(np.abs(f - f.conj().T))),
        "unitary": float(np.max(np.abs(f @ f.conj().T - eye))),
        "involution": float(np.max(np.abs(f @ f - eye))),
        "exchange_p": float(np.max(np.abs(f @ adag_p @ f - adag_q))),
        "exchange_q": float(np.max(np.abs(f @ adag_q @ f - adag_p))),
    }
    for theta in theta_values:
        ef = np.cos(theta) * eye + 1j * np.sin(theta) * f
        lhs = ef @ adag_p @ ef.conj().T
        rhs = 0.5 * (np.exp(-2j * theta) * (adag_p - adag_q)
                     + (adag_p + adag_q))
        report[f"partial_swap_theta_{theta:.6g}"] = \
            float(np.max(np.abs(lhs - rhs)))
    return report
