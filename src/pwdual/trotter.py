"""Product-formula time evolution: split-operator steps that hop between the
site and momentum bases, direct Pauli-term steps with grouped layers, the
step-count estimate, and empirical error-scaling fits.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fermion import _check_number_conserving, _entries, block_matrix, \
    sector_states
from .ffft import _minor_rows, build_ffft_nd, sector_transform
from .hamiltonian import HamiltonianSet, DUAL, build_qubit, diagonal_terms, \
    diagonal_potential_values, kinetic_mode_values, mode_phases
from .pauli import QubitOperator, require_bytes
from .statevector import Circuit, Gate
from .swapnet import build_full_schedule, lower_diagonal_layer, \
    transposition_phases

SPLIT_OPERATOR = "split_operator"
DIRECT_JW = "direct_jw"
# largest bound on how far a block-wise error may sit from the full-space one
LEAK_TOL = 1e-12
# ||U - S^r||_2 <= 2 for unitaries, so an error of 1 or more is saturation,
# not the r^(-order) regime; the pass/fail fit leaves such points out
SATURATED_ERROR = 1.0
# an error at or below this is roundoff: the step is exact to machine
# precision there, so the pass/fail fit leaves such points out too
ROUNDOFF_ERROR = 1e-12
# leading constant of the split-operator step-count bound (estimate_r)
STEP_COUNT_CONSTANT = 1.0


def _diagonal_potential_gates(hs: HamiltonianSet, tau: float):
    """Exact gates for exp(-i (U + V) tau): number phases and pair phases."""
    external, interaction = diagonal_terms(hs)
    return [Gate("PHASEN", (q,), angle=-u * tau) for q, u in external] \
        + [Gate("CPHASE", pair, angle=-v * tau) for pair, v in interaction]


def _planar_potential_gates(hs: HamiltonianSet, tau: float, schedule):
    """exp(-i (U + V) tau) lowered to lattice-adjacent gates.

    Pair phases run through the swap schedule as exp(-i phi ZZ) rotations;
    a chain sort undoes the schedule's final label permutation so later
    layers see qubits in place. Single-qubit corrections and the accumulated
    global phase are emitted up front.
    """
    gates = []
    z_angle = {}      # coefficient of Z_q in (U + V) tau
    global_phase = 0.0
    pair_phases = {}
    external, interaction = diagonal_terms(hs)
    for q, u in external:
        # n = (I - Z)/2
        z_angle[q] = z_angle.get(q, 0.0) - u * tau / 2.0
        global_phase += -u * tau / 2.0
    for (q1, q2), v in interaction:
        theta = v * tau
        # n n = (I - Z - Z + ZZ)/4
        global_phase += -theta / 4.0
        z_angle[q1] = z_angle.get(q1, 0.0) - theta / 4.0
        z_angle[q2] = z_angle.get(q2, 0.0) - theta / 4.0
        pair_phases[(q1, q2)] = pair_phases.get((q1, q2), 0.0) + theta / 4.0
    gates.append(Gate("GPHASE", (0,), angle=global_phase))
    for q, ang in sorted(z_angle.items()):
        # exp(+i ang Z) = RZ(-2 ang)
        gates.append(Gate("RZ", (q,), angle=2.0 * ang))
    circ, final_labels = lower_diagonal_layer(pair_phases, schedule)
    gates += circ.gates
    # chain-adjacent qubits are lattice neighbors along the snake path
    gates.extend(Gate("SWAP", (i, i + 1))
                 for phase in transposition_phases(final_labels)
                 for i in phase)
    return gates


def _kinetic_mode_gates(hs: HamiltonianSet, tau: float):
    """exp(-i T_diag tau) in the momentum frame: one phase per orbital
    that ``mode_phases`` keeps."""
    return [Gate("PHASEN", (q,), angle=-e * tau) for q, e in mode_phases(hs)]


def split_operator_step(hs: HamiltonianSet, tau: float, order: int = 2,
                        connectivity=None) -> Circuit:
    """One product-formula step alternating between the bases.

    Second order: exp(-i(U+V)tau/2), inverse mode rotation, kinetic phases,
    mode rotation, exp(-i(U+V)tau/2). The potential block is exact (diagonal),
    so all step error comes from the kinetic/potential split. With planar
    connectivity the pair phases are lowered through a swap schedule and the
    whole step is emitted on lattice-adjacent gates.
    """
    if hs.representation != DUAL:
        raise ValueError("split-operator steps need the dual representation")
    grid = hs.grid
    ffft = build_ffft_nd(grid, connectivity=connectivity)

    if connectivity is not None:
        _, rows, cols = connectivity
        schedule = build_full_schedule(rows, cols)
        potential = lambda s: _planar_potential_gates(hs, s, schedule)
    else:
        potential = lambda s: _diagonal_potential_gates(hs, s)

    # exp(-iT tau) = C^dag exp(-iT_diag tau) C with C the mode rotation
    kinetic = [*ffft.gates, *_kinetic_mode_gates(hs, tau),
               *ffft.inverse().gates]
    if order == 2:
        half = potential(tau / 2.0)  # gates are immutable: emit it twice
        gates = half + kinetic + half
    elif order == 1:
        gates = potential(tau) + kinetic
    else:
        raise ValueError("order must be 1 or 2")
    return Circuit(hs.n_qubits, gates, connectivity)


# -- direct Pauli-term stepping ------------------------------------------------


def group_qubit_terms(op: QubitOperator):
    """Split a dual-basis image into (identity, z, zz, hopping) groups.

    Hopping terms are X..X / Y..Y parity strings; the two partners of each
    (p, q) pair must carry equal coefficients. Groups are ordered
    lexicographically.
    """
    identity = 0.0
    z_terms = []
    zz_terms = []
    hops = {}
    for key, coeff in op.items():
        qubits = [q for q, _ in key]
        letters = [letter for _, letter in key]
        if not key:
            identity = coeff.real
        elif letters == ["Z"]:
            z_terms.append((qubits[0], coeff.real))
        elif letters == ["Z", "Z"]:
            zz_terms.append((tuple(qubits), coeff.real))
        elif letters[0] in "XY" and letters[-1] == letters[0] and \
                all(l == "Z" for l in letters[1:-1]):
            pair = (qubits[0], qubits[-1])
            hops.setdefault(pair, {})[letters[0]] = coeff.real
        else:
            raise ValueError(f"unsupported Pauli pattern {key}")
    hop_terms = []
    for pair in sorted(hops):
        entry = hops[pair]
        if set(entry) != {"X", "Y"} or \
                not math.isclose(entry["X"], entry["Y"], rel_tol=1e-9,
                                 abs_tol=1e-12):
            raise ValueError(f"hopping pair {pair} lacks matched X/Y strings")
        hop_terms.append((pair, entry["X"]))
    return identity, sorted(z_terms), sorted(zz_terms), hop_terms


def _zz_rounds(zz_terms):
    """Greedy partition of ZZ terms into vertex-disjoint rounds so each
    round's rotations can run in parallel."""
    rounds = []
    for (pair, coeff) in zz_terms:
        for rnd in rounds:
            if all(set(pair).isdisjoint(set(p)) for p, _ in rnd):
                rnd.append((pair, coeff))
                break
        else:
            rounds.append([(pair, coeff)])
    return rounds


def _zz_gates(pair, theta):
    """exp(-i theta Z_a Z_b) via the CNOT / RZ / CNOT pattern."""
    a, b = pair
    return [Gate("CNOT", (a, b)), Gate("RZ", (b,), angle=2.0 * theta),
            Gate("CNOT", (a, b))]


def hopping_template_gates(p: int, q: int, theta: float):
    """exp(-i theta (X_p Z.. X_q + Y_p Z.. Y_q)) via the two-rotation
    template: map the pair into the Bell basis where both strings are
    diagonal, fold the parity string onto p with a CNOT ladder, rotate
    twice, and undo."""
    if q <= p:
        raise ValueError("expects p < q")
    string = list(range(p + 1, q))
    gates = [Gate("CNOT", (p, q)), Gate("H", (p,))]
    gates += [Gate("CNOT", (s, p)) for s in string]
    gates.append(Gate("RZ", (p,), angle=2.0 * theta))
    gates.append(Gate("CNOT", (q, p)))
    gates.append(Gate("RZ", (p,), angle=-2.0 * theta))
    gates.append(Gate("CNOT", (q, p)))
    gates += [Gate("CNOT", (s, p)) for s in reversed(string)]
    gates += [Gate("H", (p,)), Gate("CNOT", (p, q))]
    return gates


def direct_jw_step(op: QubitOperator, tau: float, order: int = 2,
                   n_qubits: int = None) -> Circuit:
    """One grouped product-formula step over the Pauli form: single-Z layer,
    parallel ZZ rounds, then hopping templates in lexicographic order; the
    symmetric formula appends the factor blocks again in reverse order.

    The diagonal groups commute, so the round-robin ZZ grouping leaves the
    compiled operator identical to the lexicographic-ordered product; only
    the hopping factors are order-sensitive.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    n = n_qubits if n_qubits is not None else op.n_qubits()
    identity, z_terms, zz_terms, hop_terms = group_qubit_terms(op)

    def factor_blocks(s):
        blocks = []
        for q, coeff in z_terms:
            blocks.append([Gate("RZ", (q,), angle=2.0 * coeff * s)])
        for rnd in _zz_rounds(zz_terms):
            for pair, coeff in rnd:
                blocks.append(_zz_gates(pair, coeff * s))
        for (p, q), coeff in hop_terms:
            blocks.append(hopping_template_gates(p, q, coeff * s))
        return blocks

    gates = [Gate("GPHASE", (0,), angle=-identity * tau)] if identity else []
    if order == 2:
        blocks = factor_blocks(tau / 2.0)
        blocks += blocks[::-1]
    else:
        blocks = factor_blocks(tau)
    return Circuit(n, gates + [g for block in blocks for g in block])


def trotter_step(hs: HamiltonianSet, strategy: str, order: int):
    """The product-formula step of the named strategy as a function of its
    time tau: the one place a strategy name picks its step builder. The
    strategy and the order are checked before any gate is built, and a
    direct-JW step compiles the Pauli form here, once for every tau."""
    if strategy not in (SPLIT_OPERATOR, DIRECT_JW):
        raise ValueError(f"unknown strategy {strategy!r}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if strategy == SPLIT_OPERATOR:
        return lambda tau: split_operator_step(hs, tau, order)
    qubit = build_qubit(hs)
    return lambda tau: direct_jw_step(qubit, tau, order, hs.n_qubits)


@functools.lru_cache(maxsize=None)
def number_blocks(n_qubits: int) -> tuple:
    """The n + 1 particle-number blocks, block k ``sector_states(n, k)``,
    listed once per register size and shared, so read-only."""
    blocks = tuple(sector_states(n_qubits, k) for k in range(n_qubits + 1))
    for block in blocks:
        block.flags.writeable = False
    return blocks


def number_block_view(matrix: np.ndarray, shift: int = 0):
    """The particle-number blocks of a 2^n x 2^n matrix and the Frobenius
    norm of every entry outside them: block k holds the rows of the states
    with k + shift particles and the columns of those with k, for each k
    where both exist. The one place a full matrix is cut into blocks."""
    n = len(matrix).bit_length() - 1
    # the off-block mask, and the off-block entries and the blocks (one
    # matrix together)
    require_bytes(17 * 4 ** n, f"{n}-qubit particle-number blocks")
    blocks = number_blocks(n)
    count = np.bitwise_count(np.arange(2 ** n))
    off = count[:, None] != count[None, :] + shift
    return [matrix[np.ix_(rows, cols)]
            for rows, cols in zip(blocks[shift:], blocks)], \
        float(np.linalg.norm(matrix[off]))


def number_block_propagator(hs: HamiltonianSet, t: float) -> list:
    """The blocks of exp(-iHt) on ``number_blocks``, from one eigh per
    particle-number block of H; raises ValueError if H joins different
    particle numbers."""
    n = hs.n_qubits
    # the blocks, and the largest block's matrix, eigh and products
    rows, cols, values = _entries(
        hs.total(), n, 16 * math.comb(2 * n, n)
        + 112 * math.comb(n, n // 2) ** 2,
        f"the exact {n}-qubit propagator")
    _check_number_conserving(rows, cols, values)
    numbers = np.bitwise_count(rows), np.bitwise_count(cols)
    exact = []
    for k, block in enumerate(number_blocks(n)):
        at = (numbers[0] == k) & (numbers[1] == k)
        h_block = block_matrix(block, rows[at], cols[at], values[at])
        h_block[np.diag_indices_from(h_block)] += hs.constant
        vals, vecs = np.linalg.eigh(h_block)
        exact.append((vecs * np.exp(-1j * vals * t)) @ vecs.conj().T)
    return exact


def split_operator_blocks(hs: HamiltonianSet, order: int = 2):
    """The split-operator step on each particle-number block, as algebra:
    tau -> [dv_b C_b^dag diag(dt_b) C_b dv_b] (first order: C_b^dag
    diag(dt_b) C_b dv_b) over ``number_blocks``, with C_b the FFFT's Slater
    determinants on block b (``sector_transform``), dv_b = exp(-i(U+V)s)
    with s = tau/2 (first order: tau) and dt_b = exp(-i T_diag tau). The
    compiled ``split_operator_step`` at tau is the same operator."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    n = hs.n_qubits
    dims = [math.comb(n, k) for k in range(n + 1)]
    # the blocks and one step's blocks; every basis state and its diagonals
    # with the evaluators' copies; the largest block's minors and bit table
    require_bytes(32 * math.comb(2 * n, n) + 64 * 2 ** n + max(
        32 * _minor_rows(d, k) * d * k * k + 24 * d * n
        for k, d in enumerate(dims)),
        f"the {n}-qubit split-operator step on particle-number blocks")
    every, ffft = np.arange(2 ** n), build_ffft_nd(hs.grid)
    potential = diagonal_potential_values(hs, every)
    kinetic = kinetic_mode_values(hs, every)
    blocks = number_blocks(n)
    parts = [(c, potential[b], kinetic[b]) for c, b in
             zip(sector_transform(ffft, [(b, b) for b in blocks]), blocks)]

    def step(tau):
        out = []
        for c, v, e in parts:
            dv = np.exp(-1j * v * (tau / order))
            s = c.conj().T @ (np.exp(-1j * e * tau)[:, None] * c) * dv
            out.append(dv[:, None] * s if order == 2 else s)
        return out
    return step


def measure_error_scaling(step_blocks_fn, exact_blocks, r_list, t: float,
                          counts: dict = None):
    """Table of (r, ||step(t/r)^r - exact||_2) with a log-log slope fit.

    ``exact_blocks`` are the particle-number blocks of the exact propagator
    (``number_block_propagator``); ``step_blocks_fn(tau)`` gives the step's
    blocks and the Frobenius norm of its entries that join different
    particle numbers, as ``number_block_view`` does. Both conserve particle
    number, so the 2-norm is the largest over the blocks of
    ||S_b^r - U_b||_2. The leak r ||off(S)||_F bounds how far that answer
    can sit from the full-space one; a leak above LEAK_TOL raises
    ValueError. A ``counts`` dict receives ``blocks``, ``largest_block``
    and the largest ``leak`` over r.
    """
    largest = max(len(u) for u in exact_blocks)
    # one block's power, difference and SVD
    require_bytes(112 * largest ** 2,
                  f"{len(exact_blocks) - 1}-qubit Trotter errors on "
                  f"particle-number blocks")
    rows, worst_leak = [], 0.0
    for r in r_list:
        step, off = step_blocks_fn(t / r)
        leak = r * off
        if leak > LEAK_TOL:
            raise ValueError(
                f"particle-number leak {leak:.3e} at r={r} is above "
                f"{LEAK_TOL:g}: the step joins different particle numbers")
        worst_leak = max(worst_leak, leak)
        err = max(float(np.linalg.norm(np.linalg.matrix_power(s, r) - u, 2))
                  for s, u in zip(step, exact_blocks))
        rows.append((int(r), err))
    if counts is not None:
        counts.update(blocks=len(exact_blocks), largest_block=largest,
                      leak=worst_leak)
    return rows, fit_slope(rows)


def fit_slope(rows) -> float:
    """Least-squares slope of log error against log r over (r, error) rows;
    nan below two rows."""
    if len(rows) < 2:
        return float("nan")
    logs = [(math.log(r), math.log(max(err, 1e-300))) for r, err in rows]
    return float(np.polyfit([x for x, _ in logs], [y for _, y in logs], 1)[0])


def estimate_r(eta: int, n_orbitals: int, omega: float, t: float,
               eps: float) -> int:
    """Step count sufficient for the split-operator formula at error eps,
    evaluated with leading constant STEP_COUNT_CONSTANT."""
    for name, value in (("eta", eta), ("n_orbitals", n_orbitals),
                        ("omega", omega), ("t", t), ("epsilon", eps)):
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")
    value = STEP_COUNT_CONSTANT * (eta ** 2) * (n_orbitals ** (5.0 / 6.0)) \
        * (t ** 1.5) / ((omega ** (5.0 / 6.0)) * math.sqrt(eps)) \
        * math.sqrt(1.0 + eta * omega ** (1.0 / 3.0)
                    / n_orbitals ** (1.0 / 3.0))
    return max(1, int(math.ceil(value)))
