"""Kinetic, external-potential, and interaction operators in the plane-wave,
dual, and finite-difference representations, plus analytic norm bounds.

All builders are pure functions of (grid, nuclei, options) and return a
HamiltonianSet whose components are FermionOperators over qubit-indexed
orbitals (see geometry for the index conventions).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .fermion import FermionOperator, RAISE, LOWER, block_matrix, \
    fermion_matrix, jordan_wigner, _check_number_conserving, _entries
from .geometry import ModeGrid, UP, DOWN
from .pauli import QubitOperator, PRUNE_TOL, require_bytes, \
    _real_if_exact

PLANE_WAVE = "plane_wave"
DUAL = "dual"
FINITE_DIFFERENCE = "finite_difference"

# mean inverse separation of two uniform unit-cube charge clouds, halved
ONSITE_REPULSION_CONSTANT = (
    (1 + math.sqrt(2) - 2 * math.sqrt(3)) / 5
    - math.pi / 3
    + math.log((1 + math.sqrt(2)) * (2 + math.sqrt(3)))
)


def _number(x) -> float:
    """``x`` as a float; TypeError unless it is a real number (not a bool
    or a string)."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


@dataclass(frozen=True)
class NucleiSpec:
    """Point charges: tuple of (position vector, positive charge)."""

    entries: tuple = ()

    @classmethod
    def build(cls, entries) -> "NucleiSpec":
        """A spec from (position, charge) pairs of numbers, the charge
        positive; a spec comes back as is. ValueError names a malformed
        pair."""
        if isinstance(entries, cls):
            return entries
        norm = []
        for entry in entries or ():
            try:
                pos, charge = entry
                pos, charge = tuple(map(_number, pos)), _number(charge)
            except (TypeError, ValueError):
                raise ValueError(f"a nucleus is a (position, charge) pair of "
                                 f"numbers, got {entry!r}") from None
            if not charge > 0:
                raise ValueError(f"nuclear charge must be positive, got {charge}")
            norm.append((pos, charge))
        return cls(tuple(norm))

    def total_charge(self) -> float:
        return sum(z for _, z in self.entries)

    def validate_inside(self, grid: ModeGrid):
        L = grid.cell.length
        for pos, _ in self.entries:
            if len(pos) != grid.dimension:
                raise ValueError("nucleus position has wrong dimension")
            if any(not (0.0 <= x <= L) for x in pos):
                raise ValueError(f"nucleus at {pos} outside cell of edge {L}")


def _components(rows, cols, values, dim: int) -> np.ndarray:
    """The smallest basis index in each state's connected component of the
    nonzero entries (rows, cols, values), by min-label hook and jump: each
    entry joining two labels hooks the larger onto the smaller, then every
    label jumps to its root, until no entry joins two labels."""
    label = np.arange(dim)
    ends = np.where(values != 0, cols, rows)  # a zero entry joins nothing
    while True:
        a, b = label[rows], label[ends]
        if np.array_equal(a, b):
            return label
        np.minimum.at(label, a, b)
        np.minimum.at(label, b, a)
        del a, b
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


@dataclass
class HamiltonianSet:
    """T, U, V components, the user-supplied zero-mode constant, and tags."""

    kinetic: FermionOperator
    external: FermionOperator
    interaction: FermionOperator
    constant: float
    representation: str
    grid: ModeGrid
    n_qubits: int
    nuclei: NucleiSpec = field(default_factory=NucleiSpec)
    truncation: float = None

    def total(self) -> FermionOperator:
        return self.kinetic + self.external + self.interaction

    def matrix(self) -> np.ndarray:
        """Dense occupation-basis matrix (built without the Pauli path)."""
        mat = fermion_matrix(self.total(), self.n_qubits)
        mat[np.diag_indices_from(mat)] += self.constant
        return mat

    def blocks(self, electrons: int = None):
        """Exact diagonalization one invariant block at a time: a list of
        (basis indices, ascending eigenvalues) pairs, one per block, or
        only for the blocks holding a state with ``electrons`` electrons.

        The blocks are the connected components of the matrix's nonzero
        entries, in the order of their smallest basis index, each block's
        states ascending. Entries that are exactly zero decouple, so this
        holds for any Hermitian operator; for a Hamiltonian the blocks lie
        inside the fixed-number sectors of each spin. An electron count
        needs an operator that conserves particle number.
        """
        n, dim = self.n_qubits, 2 ** self.n_qubits
        rows, cols, values = _entries(self.total(), n, 0,
                                      f"a {n}-orbital operator's entries")
        label = _components(rows, cols, values, dim)
        firsts = np.flatnonzero(label == np.arange(dim))
        sizes = np.bincount(label)[firsts]
        held = np.ones(len(firsts), dtype=bool)
        if electrons is not None:
            _check_number_conserving(rows, cols, values)
            held = np.bitwise_count(firsts) == electrons
        largest = int(sizes[held].max(initial=0))
        # the entries (32 bytes each) with their block order and, at most,
        # all of them copied into one block with its indices; the states'
        # labels and order; the largest dense block and eigvalsh's copy
        require_bytes(96 * len(rows) + 48 * dim + 32 * largest ** 2,
                      f"a spectrum with {largest}-state blocks")
        order = np.argsort(label, kind="stable")
        starts = np.cumsum(sizes) - sizes
        owner = label[rows]
        owner[label[cols] != owner] = -1  # a zero between two blocks
        by = np.argsort(owner, kind="stable")
        lows = np.searchsorted(owner, firsts, sorter=by)
        highs = np.searchsorted(owner, firsts, "right", sorter=by)
        del label, owner
        values = _real_if_exact(values)
        out = []
        for b in np.flatnonzero(held).tolist():
            states = order[starts[b]:starts[b] + sizes[b]]
            at = by[lows[b]:highs[b]]
            block = block_matrix(states, rows[at], cols[at], values[at])
            out.append((states, np.linalg.eigvalsh(block) + self.constant))
        return out

    def spectrum(self, counts: dict = None) -> np.ndarray:
        """All eigenvalues, ascending; never forms the dense matrix. A
        ``counts`` dict receives the number of ``blocks`` and the size of
        the ``largest_block``."""
        blocks = self.blocks()
        if counts is not None:
            counts.update(blocks=len(blocks),
                          largest_block=max(len(s) for s, _ in blocks))
        return np.sort(np.concatenate([vals for _, vals in blocks]))


def _number_key(q: int):
    return ((q, RAISE), (q, LOWER))


def _pair_key(q1: int, q2: int):
    a, b = sorted((q1, q2))
    return ((a, RAISE), (a, LOWER), (b, RAISE), (b, LOWER))


# -- Fourier coefficient table --------------------------------------------------


@dataclass(frozen=True)
class DualCoefficients:
    """Every mode sum of one grid, as flat arrays over the M^d site grid.

    Entry i of ``k2``, ``inv_k2`` and ``structure`` belongs to the mode of
    slot i; entry i of ``t``, ``v`` and ``u`` to the site, or the wrapped
    separation, of index i. The slot of mode nu is the site index of
    nu mod M, so both read the same grid.

    * k2: k^2; inv_k2: 1/k^2 with the zero mode dropped (stored as 0)
    * structure: the nuclear structure factor sum_j zeta_j e^{i k . R_j}
    * t(r) = (1/2N) sum_nu k^2 cos(k . r), the hopping
    * v(r) = (4 pi / Omega) sum_{nu != 0} cos(k . r) / k^2, the pair term,
      zero at separations farther than the truncation distance D
    * u(r) = -(4 pi / Omega) sum_{nu != 0, j} zeta_j cos(k . (R_j - r)) / k^2
    * pair_kernel: the plane-wave pair kernel, whose transform is v;
      inv_k2 itself without D, and nonzero at the zero mode with it
    * dropped: the sequential sum, in site order, of the values D cuts
    """

    k2: np.ndarray
    inv_k2: np.ndarray
    structure: np.ndarray
    t: np.ndarray
    v: np.ndarray
    u: np.ndarray
    pair_kernel: np.ndarray
    dropped: float


def dual_coefficients(grid: ModeGrid, nuclei=None,
                      truncated_D: float = None) -> DualCoefficients:
    """The dual-basis coefficient table, one FFT per mode sum: the one
    place the truncation distance D (minimum image) cuts the pair table.

    With r = p * L / M and nu = slot (mod M), k . r = 2 pi nu . p / M, so
    sum_nu f(nu) cos(k . r_p) is the real part of fftn(f)[p] for real f.
    """
    if truncated_D is not None and truncated_D <= 0:
        raise ValueError("truncation distance must be positive")
    nuclei = NucleiSpec.build(nuclei)
    M = grid.modes_per_axis
    axis = 2.0 * math.pi * np.fft.fftfreq(M, 1.0 / M) / grid.cell.length
    k = np.stack(np.meshgrid(*[axis] * grid.dimension, indexing="ij"), axis=-1)
    k2 = np.sum(k * k, axis=-1)
    inv_k2 = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)
    structure = np.zeros(k2.shape, dtype=complex)
    for pos, charge in nuclei.entries:
        structure += charge * np.exp(1j * (k @ np.asarray(pos)))
    scale = 4.0 * math.pi / grid.cell.volume

    def mode_sum(f):
        return np.fft.fftn(f.reshape(k2.shape)).real.ravel()

    v, kernel, dropped = scale * mode_sum(inv_k2), inv_k2.ravel(), 0.0
    if truncated_D is not None:
        far = np.array([grid.min_image_distance((0,) * grid.dimension, p)
                        > truncated_D for p in grid.site_vectors()])
        cut = np.where(far, 0.0, v)
        # v is even, so the inverse transform is the forward one over N
        kernel = kernel + mode_sum(cut - v) / (scale * grid.n_spatial)
        v, dropped = cut, sum(v[far].tolist(), 0.0)
    return DualCoefficients(
        k2.ravel(), inv_k2.ravel(), structure.ravel(),
        mode_sum(k2) / (2.0 * grid.n_spatial), v,
        -scale * mode_sum(structure * inv_k2), kernel, dropped)


# -- plane-wave representation ----------------------------------------------


def build_plane_wave(grid: ModeGrid, nuclei=None,
                     truncated_D: float = None,
                     constant: float = 0.0) -> HamiltonianSet:
    """Hamiltonian with momentum-indexed orbitals.

    Orbital q carries the mode at slot ``grid.qubit_site_index(q)``. U
    reads the uncut 1/k^2, zero mode dropped; V reads every nonzero entry
    of the table's pair kernel, whose transform is the dual pair table.
    """
    nuclei = NucleiSpec.build(nuclei)
    nuclei.validate_inside(grid)
    omega = grid.cell.volume
    n_spatial = grid.n_spatial
    n_spin = grid.n_spin
    coeffs = dual_coefficients(grid, nuclei, truncated_D)

    kinetic = FermionOperator()
    k2 = coeffs.k2.tolist()
    for q in range(grid.n_qubits):
        slot = grid.qubit_site_index(q)
        if k2[slot]:
            kinetic.terms[_number_key(q)] = 0.5 * k2[slot]

    external = FermionOperator()
    if nuclei.entries:
        # Exact unitary image of the diagonal dual potential. Away from the
        # self-paired mode -M/2 the two pieces coincide and this reduces to
        # the single -(4 pi / Omega) e^{i k_{q-p} . R} / k^2 amplitude; on
        # that mode they symmetrize to a cosine, keeping U Hermitian.
        amp = coeffs.inv_k2 * coeffs.structure
        sep = grid.separation_index()
        u_pw = (-(2.0 * math.pi / omega)
                * (amp[sep] + amp[sep.T].conj())).tolist()
        for spin in range(n_spin):
            for slot_p in range(n_spatial):
                for slot_q in range(n_spatial):
                    if slot_p != slot_q:
                        key = ((n_spin * slot_p + spin, RAISE),
                               (n_spin * slot_q + spin, LOWER))
                        external.terms[key] = u_pw[slot_p][slot_q]

    interaction = FermionOperator()
    kernel = coeffs.pair_kernel.tolist()
    pair = [(nu, (2.0 * math.pi / omega) * kernel[grid.mode_slot(nu)])
            for nu in grid.nu_list if kernel[grid.mode_slot(nu)]]
    for qp in range(grid.n_qubits):
        for qq in range(grid.n_qubits):
            if qp == qq:
                continue
            nu_p = grid.slot_mode(grid.qubit_site_index(qp))
            nu_q = grid.slot_mode(grid.qubit_site_index(qq))
            for nu, coeff in pair:
                slot_r = grid.mode_slot(np.add(nu_q, nu))
                slot_s = grid.mode_slot(np.subtract(nu_p, nu))
                qr = n_spin * slot_r + qq % n_spin
                qs = n_spin * slot_s + qp % n_spin
                key = ((qp, RAISE), (qq, RAISE), (qr, LOWER), (qs, LOWER))
                interaction.terms[key] = interaction.terms.get(key, 0.0) + coeff
    return HamiltonianSet(kinetic.simplify(), external.simplify(),
                          interaction.simplify(), constant, PLANE_WAVE, grid,
                          grid.n_qubits, nuclei, truncated_D)


# -- dual representation ------------------------------------------------------


def build_dual(grid: ModeGrid, nuclei=None, truncated_D: float = None,
               constant: float = 0.0) -> HamiltonianSet:
    """Hamiltonian with lattice-site orbitals: hopping kinetic term, diagonal
    potentials. With a truncation distance D, density pairs farther apart
    than D (minimum image) are dropped."""
    nuclei = NucleiSpec.build(nuclei)
    nuclei.validate_inside(grid)
    n_spatial = grid.n_spatial
    n_spin = grid.n_spin
    coeffs = dual_coefficients(grid, nuclei, truncated_D)
    sep = grid.separation_index()

    kinetic = FermionOperator()
    hop = coeffs.t[sep].tolist()  # hop[p][q] = t(q - p)
    for spin in range(n_spin):
        for p in range(n_spatial):
            for q in range(n_spatial):
                t = hop[p][q]
                if abs(t) > PRUNE_TOL:
                    key = ((n_spin * p + spin, RAISE),
                           (n_spin * q + spin, LOWER))
                    kinetic.terms[key] = t

    external = FermionOperator()
    u = coeffs.u.tolist()
    for spin in range(n_spin):
        for p in range(n_spatial):
            if abs(u[p]) > PRUNE_TOL:
                external.terms[_number_key(n_spin * p + spin)] = u[p]

    interaction = FermionOperator()
    pair = coeffs.v[sep].tolist()  # pair[p][q] = v(q - p)
    for q1 in range(grid.n_qubits):
        for q2 in range(q1 + 1, grid.n_qubits):
            v = pair[q2 // n_spin][q1 // n_spin]
            if abs(v) > PRUNE_TOL:
                interaction.terms[_pair_key(q1, q2)] = v
    return HamiltonianSet(kinetic, external, interaction, constant, DUAL,
                          grid, grid.n_qubits, nuclei, truncated_D)


# -- qubit form ----------------------------------------------------------------


def build_qubit(hs: HamiltonianSet) -> QubitOperator:
    """Jordan-Wigner image of a dual-representation Hamiltonian plus its
    constant; contains only I, Z, ZZ, and X/Y parity-string terms."""
    if hs.representation != DUAL:
        raise ValueError("qubit compilation is defined for the dual "
                         "representation")
    op = jordan_wigner(hs.total(), hs.n_qubits)
    if hs.constant:
        op.add_constant(hs.constant)
    return op.simplify()


# -- finite difference --------------------------------------------------------


def onsite_repulsion(h: float) -> float:
    """Same-cell opposite-spin repulsion scale of the grid discretization."""
    return ONSITE_REPULSION_CONSTANT / h


@dataclass
class FiniteDifferenceInfo:
    """Term-count bookkeeping for the grid-discretized two-body operator."""

    n_spin_orbitals: int
    n_onsite: int
    n_pair_terms: int

    @property
    def tally(self) -> int:
        """On-site entries counted once more as their own family, matching
        the N/2 + N(N-1)/2 = N^2/2 bookkeeping of the discretization."""
        return self.n_onsite + self.n_pair_terms


def build_finite_difference(shape, h: float, nuclei=None, spinful=True,
                            lam: float = None):
    """Second-quantized Hamiltonian on a real-space grid with open
    boundaries.

    Kinetic term: central-difference stencil, (h/2)(2d n_p - axis-neighbor
    hops). Two-body term: one entry per unordered spin-orbital pair,
    h^3/|p - q| between distinct sites and the on-site constant between
    opposite spins at the same site. ``lam`` overrides the analytic on-site
    value. Returns (HamiltonianSet, FiniteDifferenceInfo).
    """
    if h <= 0:
        raise ValueError("grid spacing must be positive")
    shape = tuple(int(s) for s in shape)
    if not shape or any(s < 1 for s in shape):
        raise ValueError(f"bad grid shape {shape}")
    d = len(shape)
    nuclei = NucleiSpec.build(nuclei)
    lam_value = onsite_repulsion(h) if lam is None else float(lam)

    sites = list(itertools.product(*(range(s) for s in shape)))
    site_index = {p: i for i, p in enumerate(sites)}
    spins = (UP, DOWN) if spinful else (None,)

    def qubit(p, sigma):
        s = site_index[p]
        if not spinful:
            return s
        return 2 * s + (0 if sigma == UP else 1)

    kinetic = FermionOperator()
    for sigma in spins:
        for p in sites:
            qp = qubit(p, sigma)
            kinetic.terms[_number_key(qp)] = \
                kinetic.terms.get(_number_key(qp), 0.0) + h * d
            for axis in range(d):
                for step in (-1, 1):
                    neigh = list(p)
                    neigh[axis] += step
                    if not 0 <= neigh[axis] < shape[axis]:
                        continue
                    qn = qubit(tuple(neigh), sigma)
                    key = ((qn, RAISE), (qp, LOWER))
                    kinetic.terms[key] = kinetic.terms.get(key, 0.0) - h / 2.0

    external = FermionOperator()
    if nuclei.entries:
        for sigma in spins:
            for p in sites:
                r = np.asarray(p, dtype=float) * h
                u = 0.0
                for pos, charge in nuclei.entries:
                    dist = float(np.linalg.norm(r - np.asarray(pos)))
                    if dist == 0.0:
                        raise ValueError("nucleus placed exactly on a grid point")
                    u -= charge / dist
                external.terms[_number_key(qubit(p, sigma))] = (h ** 3) * u

    interaction = FermionOperator()
    n_onsite = 0
    spin_orbitals = sorted((qubit(p, sigma), p) for p in sites for sigma in spins)
    for i, (q1, p1) in enumerate(spin_orbitals):
        for q2, p2 in spin_orbitals[i + 1:]:
            if p1 == p2:
                interaction.terms[_pair_key(q1, q2)] = lam_value
                n_onsite += 1
            else:
                dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(p1, p2)))
                interaction.terms[_pair_key(q1, q2)] = (h ** 3) / dist

    n_so = len(spin_orbitals)
    info = FiniteDifferenceInfo(n_so, n_onsite, len(interaction.terms))
    hs = HamiltonianSet(kinetic.simplify(), external.simplify(),
                        interaction.simplify(), 0.0, FINITE_DIFFERENCE,
                        None, n_so, nuclei, None)
    return hs, info


def mode_energies(hs: HamiltonianSet):
    """Per-mode one-body energies of a translation-invariant kinetic term.

    Raises ValueError unless every same-spin row of the hopping matrix is
    qubit 0's row translated and that row is even, the conditions under
    which the mode rotation diagonalizes the term. Returns eps[slot], the
    FFT of the hopping row; k^2/2 for the standard dual kinetic term.
    """
    grid = hs.grid
    n_spin = grid.n_spin
    hopping = np.zeros((n_spin, grid.n_spatial, grid.n_spatial))
    for ((qa, _), (qb, _)), coeff in hs.kinetic.items():
        if not grid.same_spin(qa, qb):
            raise ValueError("kinetic term couples opposite spins; "
                             "mode-basis diagonalization does not apply")
        hopping[qa % n_spin, qa // n_spin, qb // n_spin] = coeff.real
    row = hopping[0, 0]
    shape = (grid.modes_per_axis,) * grid.dimension
    eps = np.fft.fftn(row.reshape(shape)).real
    rebuilt = np.fft.ifftn(eps).real.ravel()
    if np.max(np.abs(hopping - row[grid.separation_index()])) > 1e-9 \
            or np.max(np.abs(rebuilt - row)) > 1e-9:
        raise ValueError("kinetic term is not translation invariant; "
                         "mode-basis diagonalization does not apply")
    return eps.ravel().tolist()


def mode_phases(hs: HamiltonianSet):
    """[(q, eps)] in qubit order for every orbital whose mode energy
    exceeds PRUNE_TOL in magnitude: the diagonal of the kinetic term once
    the mode rotation has been applied."""
    eps = mode_energies(hs)
    phases = [(q, eps[hs.grid.qubit_site_index(q)])
              for q in range(hs.n_qubits)]
    return [(q, e) for q, e in phases if abs(e) > PRUNE_TOL]


def diagonal_terms(hs: HamiltonianSet):
    """Real coefficients of the diagonal dual potentials, in ``items()``
    order: [(q, u)] for the n_q terms of U and [((q1, q2), v)] for the
    n_q1 n_q2 terms of V, q1 < q2. Only the dual potentials are
    diagonal, so any other representation raises ValueError."""
    if hs.representation != DUAL:
        raise ValueError(f"diagonal potentials are defined on the dual "
                         f"representation, not {hs.representation!r}")
    external = [(key[0][0], coeff.real) for key, coeff in hs.external.items()]
    interaction = [((key[0][0], key[2][0]), coeff.real)
                   for key, coeff in hs.interaction.items()]
    return external, interaction


def diagonal_potential_values(hs: HamiltonianSet, samples: np.ndarray):
    """Diagonal U + V energy of each bitstring, once per distinct one."""
    states, inverse = np.unique(samples, return_inverse=True)
    values = np.zeros(len(states), dtype=float)
    external, interaction = diagonal_terms(hs)
    for q, u in external:
        values += u * ((states >> q) & 1)
    for (q1, q2), v in interaction:
        values += v * ((states >> q1) & 1) * ((states >> q2) & 1)
    return values[inverse]


def kinetic_mode_values(hs: HamiltonianSet, samples: np.ndarray):
    """Mode-basis kinetic energy of each bitstring, over ``mode_phases``."""
    values = np.zeros(len(samples), dtype=float)
    for q, e in mode_phases(hs):
        values += e * ((samples >> q) & 1)
    return values


# -- norm bounds ---------------------------------------------------------------


def norm_bounds(hs: HamiltonianSet, eta: int) -> dict:
    """Finite-grid bound values for eta-electron expectations and
    triangle-inequality coefficient sums.

    max_* bound |<psi|O|psi>| over eta-electron states; triangle_* are
    coefficient 1-norms. Every value comes from the coefficient table and
    the term lists; nothing is compiled to qubits (the 1-norm of the qubit
    operator is ``build_qubit(hs).coefficient_norm(include_identity=True)``).
    """
    if hs.representation != DUAL:
        raise ValueError("norm bounds are defined on the dual representation")
    if eta < 1:
        raise ValueError("eta must be >= 1")
    grid = hs.grid
    omega = grid.cell.volume
    coeffs = dual_coefficients(grid, hs.nuclei)
    sum_inv_k2 = float(np.sum(coeffs.inv_k2))
    max_v = (2.0 * math.pi * eta ** 2 / omega) * sum_inv_k2
    max_u = (4.0 * math.pi * eta / omega) * hs.nuclei.total_charge() \
        * sum_inv_k2
    max_t = eta * float(np.max(coeffs.k2)) / 2.0
    triangle_t = hs.n_qubits * float(np.sum(np.abs(coeffs.t)))

    triangle_u = sum(abs(c) for c in hs.external.terms.values())
    triangle_v = sum(abs(c) for c in hs.interaction.terms.values())
    return {
        "max_v": max_v,
        "max_u": max_u,
        "max_t": max_t,
        "max_h": max_t + max_u + max_v,
        "triangle_t": triangle_t,
        "triangle_h": triangle_t + triangle_u + triangle_v,
    }
