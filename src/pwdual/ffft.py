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
from .statevector import Circuit, Gate, _apply, fk_gate, require_dense
from .swapnet import _is_power_of_two, transposition_phases


def _fswap_sort(positions, keys):
    """Fermionic swaps (application order) moving the orbital at slot i to
    slot ``keys[i]``; ``positions`` maps slot -> qubit. Fermionic swaps are
    self-inverse, so the reversed list undoes the move."""
    return [Gate("FSWAP", (positions[i], positions[i + 1]))
            for phase in transposition_phases(keys) for i in phase]


def _even_odd_keys(m):
    """Slots sending even labels to the left half in order, odd labels to
    the right half."""
    return [j // 2 + (j % 2) * (m // 2) for j in range(m)]


def _ffft_1d_ops(positions):
    """Gate list (application order) for one 1D transform over ``positions``.

    Steps follow the decimation data flow: even/odd sort, half transforms,
    riffle, butterfly layer, output sort. The single-particle matrices of
    the steps then compose right-to-left into the mode transform.
    """
    m = len(positions)
    if m == 1:
        return []
    half = m // 2
    ops = _fswap_sort(positions, _even_odd_keys(m))
    ops += _ffft_1d_ops(positions[:half])
    ops += _ffft_1d_ops(positions[half:])
    # riffle: [E0..E_{m/2-1}, O0..O_{m/2-1}] -> [E0, O0, E1, O1, ...]
    ops += _fswap_sort(positions, [2 * j if j < half else 2 * (j - half) + 1
                                   for j in range(m)])
    # one butterfly layer: pair (2j, 2j+1) combines E_j with O_j
    for j in range(half):
        ops.append(fk_gate(j, m, positions[2 * j], positions[2 * j + 1]))
    # outputs sit as [c_0, c_{m/2}, c_1, c_{1+m/2}, ...]; restore mode order
    ops += _fswap_sort(positions, [x for j in range(half)
                                   for x in (j, half + j)])
    return ops


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


def build_ffft_1d(m: int, connectivity=None) -> Circuit:
    """1D transform circuit on m spinless orbitals (m a power of two)."""
    if not _is_power_of_two(m) or m < 2:
        raise ValueError(f"mode count must be a power of two >= 2, got {m}")
    circ = Circuit(m, connectivity=connectivity)
    circ.extend(_ffft_1d_ops(list(range(m))))
    if connectivity is not None:
        circ.check_connectivity()
    return circ


def build_ffft_nd(grid: ModeGrid, connectivity=None) -> Circuit:
    """Axis-by-axis transform on a d-dimensional grid, with fermionic-swap
    relabelings between axes; spinful grids sort the interleaved spins into
    blocks (all up, then all down), transform each block, and sort back."""
    m = grid.modes_per_axis
    if not _is_power_of_two(m):
        raise ValueError(f"modes per axis must be a power of two, got {m}")
    n_spatial = grid.n_spatial
    axis_keys = [_axis_keys(grid, axis)
                 for axis in range(grid.dimension - 1, -1, -1)]

    def spatial_ops(offset):
        """Gates for one spin sector occupying positions
        [offset, offset + n_spatial)."""
        sector = []
        positions = list(range(offset, offset + n_spatial))
        for keys in axis_keys:
            to_axis = _fswap_sort(positions, keys)
            sector += to_axis
            for run in range(0, n_spatial, m):
                sector += _ffft_1d_ops(positions[run:run + m])
            sector += to_axis[::-1]
        return sector

    if grid.cell.spinful:
        to_blocks = _fswap_sort(range(2 * n_spatial),
                                _even_odd_keys(2 * n_spatial))
        ops = to_blocks + spatial_ops(0) + spatial_ops(n_spatial) \
            + to_blocks[::-1]
    else:
        ops = spatial_ops(0)

    circ = Circuit(grid.n_qubits, connectivity=connectivity)
    circ.extend(ops)
    if connectivity is not None:
        circ.check_connectivity()
    return circ


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


def single_particle_transform(circuit: Circuit, n_orbitals: int) -> np.ndarray:
    """Matrix W with C^dag a^dag_p C = sum_q W[p, q] a^dag_q for a
    number-conserving circuit C.

    The vacuum and the n one-electron basis states go through C^dag as one
    batch, (n+1) 2^n amplitudes: C^dag|p> = e^{-i phi} sum_q W[p, q] |q>
    where C^dag|vac> = e^{-i phi}|vac>, so dividing by the vacuum amplitude
    leaves W.
    """
    require_dense(n_orbitals, "single-particle transform")
    singles = 1 << np.arange(n_orbitals)
    rows = np.zeros((n_orbitals + 1, 2 ** n_orbitals), dtype=complex)
    rows[0, 0] = 1.0
    rows[np.arange(1, n_orbitals + 1), singles] = 1.0
    for g in circuit.inverse().gates:
        rows = _apply(rows, g, n_orbitals)
    return rows[1:, singles] / rows[0, 0]


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
        "gate_count": circuit.gate_count(),
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
