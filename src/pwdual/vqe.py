"""Variational ground-state search for the dual-basis Hamiltonian: a
mode-occupation reference rotated by the Fourier circuit (its amplitudes are
determinants of the circuit's single-particle matrix), layered
phase-rotation ansatz circuits, a derivative-free optimizer loop, and
layer-by-layer training against an interaction ramp.

The optimizer runs the ansatz on the eta-electron sector (every ansatz
gate conserves number): the site and pair phases are one phase vector, the
mode block is the Fourier circuit's sector matrix around a phase vector,
and the energy is two diagonals weighted by probabilities. The circuit
form (``Ansatz.circuit``) stays as the reference it is checked against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .fermion import sector_states
from .ffft import _minor_rows, build_ffft_nd, sector_transform
from .geometry import ModeGrid, UP, DOWN
from .hamiltonian import HamiltonianSet, DUAL, diagonal_potential_values, \
    kinetic_mode_values
from .measurement import estimate_energy
from .pauli import require_bytes
from .statevector import Statevector, Circuit, Gate

FULL = "full"
TRANSLATION_INVARIANT = "translation_invariant"
# spread of the seeded random restarts of ``optimize``
RESTART_SCALE = 0.6


@dataclass(frozen=True)
class AnsatzSpec:
    layers: int = 1
    sharing: str = FULL
    minimal: bool = False

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.sharing not in (FULL, TRANSLATION_INVARIANT):
            raise ValueError(f"unknown sharing {self.sharing!r}")
        if self.minimal and self.layers != 1:
            raise ValueError("the minimal ansatz is single-layer")


# -- reference state ----------------------------------------------------------


def lowest_mode_occupation(grid: ModeGrid, eta: int, spin_pattern="paired"):
    """Qubits to occupy for the eta lowest single-particle mode energies.

    Ties at the boundary break lexicographically in the mode vector and a
    warning flags the open shell. ``spin_pattern``: "paired" fills both
    spins of a mode before the next, "polarized" fills spin-up only, or an
    explicit list of (mode vector, spin) pairs.
    """
    if eta > grid.n_qubits:
        raise ValueError(f"{eta} electrons exceed {grid.n_qubits} orbitals")
    if isinstance(spin_pattern, str):
        order = []
        for nu in grid.modes_by_energy():
            if grid.cell.spinful:
                if spin_pattern == "paired":
                    order.extend([(nu, UP), (nu, DOWN)])
                elif spin_pattern == "polarized":
                    order.append((nu, UP))
                else:
                    raise ValueError(f"unknown spin pattern {spin_pattern!r}")
            else:
                order.append((nu, None))
    else:
        order = list(spin_pattern)
    if eta > len(order):
        raise ValueError("spin pattern provides too few orbitals")
    chosen = order[:eta]
    if eta and len(order) > eta:
        last = grid.k_squared(chosen[-1][0])
        nxt = grid.k_squared(order[eta][0])
        if math.isclose(last, nxt, rel_tol=0.0, abs_tol=1e-12):
            warnings.warn(
                "degenerate mode shell at the boundary; filling by "
                "lexicographic tiebreak", stacklevel=2)
    qubits = []
    for nu, spin in chosen:
        slot = grid.mode_slot(nu)
        qubits.append(grid.qubit_index(grid.index_site(slot), spin))
    return sorted(qubits), chosen


def prepare_reference(grid: ModeGrid, eta: int,
                      spin_pattern="paired") -> Statevector:
    """C^dag|J> for the Fourier circuit C and the state J that occupies the
    eta lowest modes: a kinetic-term eigenstate on the site basis. Its
    amplitudes <I|C^dag|J> = conj(<J|C|I>) are row J of
    ``sector_transform``, with no gate applied; its support is the sector."""
    qubits, _ = lowest_mode_occupation(grid, eta, spin_pattern)
    n, dim = grid.n_qubits, math.comb(grid.n_qubits, eta)
    # the state, the sector's bit table, one row of minors and det's copy
    require_bytes(16 * 2 ** n + 24 * dim * n + 32 * dim * eta ** 2,
                  f"the {eta}-electron reference on {n} qubits")
    states = sector_states(n, eta)
    occupation = np.array([sum(1 << q for q in qubits)])
    [[row]] = sector_transform(build_ffft_nd(grid), [(occupation, states)])
    return Statevector.on_support(n, states, row.conj())


# -- ansatz -------------------------------------------------------------------


class Ansatz:
    """Parameterized layered circuit: per layer a diagonal phase block
    (site and pair rotations) followed by kinetic phases conjugated through
    the mode rotation; the minimal variant keeps only the diagonal block.

    ``layout`` holds, per layer, the parameter index of each qubit's site
    angle, each pair's angle (pairs in ``pairs`` order) and each qubit's
    mode angle (empty for the minimal variant).
    """

    def __init__(self, spec: AnsatzSpec, grid: ModeGrid):
        self.spec = spec
        self.grid = grid
        self.ffft = build_ffft_nd(grid)
        self.ffft_inverse = self.ffft.inverse()
        n = grid.n_qubits
        self.pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        if spec.sharing == TRANSLATION_INVARIANT:
            site_keys = ["shared"] * n
            pair_keys = [self.pair_class(a, b) for a, b in self.pairs]
        else:
            site_keys = list(range(n))
            pair_keys = list(self.pairs)
        mode_keys = [] if spec.minimal else list(range(n))
        self.names = []
        self.layout = []
        for layer in range(spec.layers):
            blocks = []
            for kind, keys in (("site", site_keys), ("pair", pair_keys),
                               ("mode", mode_keys)):
                distinct = sorted(set(keys))
                index = {key: len(self.names) + i
                         for i, key in enumerate(distinct)}
                self.names.extend((layer, kind, key) for key in distinct)
                blocks.append(np.array([index[key] for key in keys],
                                       dtype=int))
            self.layout.append(tuple(blocks))

    def pair_class(self, q1: int, q2: int):
        grid = self.grid
        d1 = grid.index_site(grid.qubit_site_index(q1))
        d2 = grid.index_site(grid.qubit_site_index(q2))
        delta = tuple(np.subtract(d2, d1))
        canonical = min(grid.wrap_mode(delta),
                        grid.wrap_mode(tuple(-x for x in delta)))
        return canonical, grid.same_spin(q1, q2)

    @property
    def parameter_count(self) -> int:
        return len(self.names)

    def circuit(self, values) -> Circuit:
        """Instantiate the circuit at the given flat parameter vector."""
        if len(values) != len(self.names):
            raise ValueError("parameter vector length mismatch")
        n = self.grid.n_qubits
        gates = []
        for site, pair, mode in self.layout:
            for q in range(n):
                # exp(i theta Z)
                gates.append(Gate("RZ", (q,), angle=-2.0 * values[site[q]]))
            for (a, b), i in zip(self.pairs, pair):
                theta = values[i]
                if theta:
                    # exp(i theta ZZ)
                    gates.append(Gate("PEXP", (a, b), angle=-theta,
                                      letters="ZZ"))
            if not self.spec.minimal:
                gates += self.ffft_inverse.gates
                gates += [Gate("RZ", (q,), angle=-2.0 * values[mode[q]])
                          for q in range(n)]
                gates += self.ffft.gates
        return Circuit(n, gates)


# -- the eta-electron sector -------------------------------------------------


class SectorModel:
    """An ansatz and a dual-basis Hamiltonian on the eta-electron sector.

    States are the C(n, eta) amplitudes on ``states``. Per layer the site
    and pair phases multiply as one vector exp(i(z . theta_site + sum
    theta_ab z_a z_b)), z = +-1 per qubit, and the mode block is
    F (exp(i z . theta_mode) * F^dag psi), with F the Fourier circuit on the
    sector. The energy is constant + |psi|^2 . d_uv + |F psi|^2 . d_t.
    The reference is C^dag|J> for the mode-occupation state J: the
    conjugate of F's row J (``prepare_reference``), with no 2^n vector.
    """

    def __init__(self, ansatz: Ansatz, hs: HamiltonianSet, eta: int,
                 spin_pattern="paired"):
        n = ansatz.grid.n_qubits
        dim = math.comb(n, eta)
        # the Fourier matrix, one chunk of minors with the copy det takes,
        # and the z and zz tables as they are built
        minors = _minor_rows(dim, eta) * dim * eta * eta
        require_bytes(16 * dim ** 2 + 32 * minors
                      + 12 * dim * (2 * n + n * (n - 1)),
                      f"the {eta}-electron sector of {n} qubits "
                      f"({dim} states)")
        qubits, _ = lowest_mode_occupation(ansatz.grid, eta, spin_pattern)
        self.ansatz = ansatz
        self.n_qubits = n
        self.states = sector_states(n, eta)
        self.z = 1.0 - 2.0 * ((self.states[:, None] >> np.arange(n)) & 1)
        a, b = np.array(ansatz.pairs, dtype=int).reshape(-1, 2).T
        self.zz = self.z[:, a] * self.z[:, b]
        [self.fourier] = sector_transform(ansatz.ffft,
                                          [(self.states, self.states)])
        j = self.states.searchsorted(sum(1 << q for q in qubits))
        self.reference = self.fourier[j].conj()
        self.constant = hs.constant
        self.d_uv = diagonal_potential_values(hs, self.states)
        self.d_t = kinetic_mode_values(hs, self.states)

    def state(self, values) -> np.ndarray:
        """Sector amplitudes of the ansatz state at the parameter vector."""
        values = np.asarray(values, dtype=float)
        psi = self.reference
        for site, pair, mode in self.ansatz.layout:
            psi = psi * np.exp(1j * (self.z @ values[site]
                                     + self.zz @ values[pair]))
            if not self.ansatz.spec.minimal:
                # F^dag psi as conj(psi^* F), without forming F^dag
                rotated = (psi.conj() @ self.fourier).conj()
                psi = self.fourier @ (np.exp(1j * (self.z @ values[mode]))
                                      * rotated)
        return psi

    def energy(self, psi: np.ndarray, d_uv: np.ndarray) -> float:
        """Exact energy of sector amplitudes psi, with potential diagonal
        d_uv (``self.d_uv``, or that of a set with the same kinetic term
        and constant)."""
        kinetic = np.abs(self.fourier @ psi) ** 2 @ self.d_t
        return float(self.constant + np.abs(psi) ** 2 @ d_uv + kinetic)


# -- optimization -------------------------------------------------------------


@dataclass
class OptimizeResult:
    theta: np.ndarray
    energy: float
    reference_energy: float
    trace: list = field(default_factory=list)
    evaluations: int = 0
    names: list = field(default_factory=list)
    budget_exhausted: bool = False


def sector_ground_energy(hs: HamiltonianSet, eta: int) -> float:
    """Lowest eigenvalue within the eta-electron occupation sector, taken
    over the invariant blocks that hold an eta-electron state; only those
    blocks are diagonalized."""
    lowest = [vals[0] for _, vals in hs.blocks(eta)]
    if not lowest:
        raise ValueError(f"no {eta}-electron states in {hs.n_qubits} modes")
    return float(min(lowest))


def optimize(spec: AnsatzSpec, hs: HamiltonianSet, eta: int, seed: int = 0,
             spin_pattern="paired", restarts: int = 4, maxiter: int = 600,
             initial_values=None, plan=None) -> OptimizeResult:
    """Simplex search over the ansatz parameters from a zero start plus
    seeded random restarts; the trace records the best energy so far, so it
    is monotone nonincreasing and starts at the reference energy.

    The zero start keeps the result variationally at or below the reference
    energy; the spread-out restarts matter because zero is a stationary
    point of the phase ansatz on a kinetic eigenstate. ``initial_values``
    adds one more start (for warm starts from a smaller ansatz). Passing a
    MeasurementPlan switches the objective from exact expectations to the
    sampled estimator (each evaluation draws fresh shots from a counter-
    derived seed, deterministic per run); exact-mode guarantees such as the
    variational floor then hold only statistically. Either way the state
    is computed on the eta-electron sector (``SectorModel``), whose
    Fourier matrix must fit in DENSE_BYTES_LIMIT.
    """
    import scipy.optimize
    if hs.representation != DUAL:
        raise ValueError("the variational loop works on the dual "
                         "representation")
    if min(restarts, maxiter) < 1:
        raise ValueError(f"restarts and maxiter must be >= 1, got restarts="
                         f"{restarts}, maxiter={maxiter}")
    ansatz = Ansatz(spec, hs.grid)
    model = SectorModel(ansatz, hs, eta, spin_pattern)
    e_ref = model.energy(model.reference, model.d_uv)

    trace = []
    state = {"best": math.inf, "evals": 0}

    def objective(values):
        prepared = model.state(values)
        if plan is None:
            energy = model.energy(prepared, model.d_uv)
        else:
            shot_plan = replace(plan, seed=plan.seed + state["evals"])
            sampled = Statevector.on_support(model.n_qubits, model.states,
                                             prepared)
            energy, _ = estimate_energy(sampled, hs, shot_plan)
        state["evals"] += 1
        state["best"] = min(state["best"], energy)
        trace.append(state["best"])
        return energy

    rng = np.random.default_rng(seed)
    starts = [np.zeros(ansatz.parameter_count)]
    if initial_values is not None:
        starts.append(np.asarray(initial_values, dtype=float))
    for _ in range(restarts - 1):
        starts.append(rng.normal(scale=RESTART_SCALE,
                                 size=ansatz.parameter_count))
    best_x = starts[0]
    best_e = objective(starts[0])
    exhausted = False
    for x0 in starts:
        res = scipy.optimize.minimize(
            objective, x0, method="Nelder-Mead",
            options={"maxiter": maxiter, "xatol": 1e-8, "fatol": 1e-10})
        if not res.success:
            exhausted = True
        if res.fun < best_e:
            best_e = float(res.fun)
            best_x = np.asarray(res.x)
    return OptimizeResult(theta=best_x, energy=best_e,
                          reference_energy=e_ref, trace=trace,
                          evaluations=state["evals"], names=list(ansatz.names),
                          budget_exhausted=exhausted)


def embed_parameters(source: OptimizeResult, target: "Ansatz") -> np.ndarray:
    """Lift a smaller ansatz's parameters into a larger one (extra names
    start at zero); used to warm-start nested searches."""
    values = np.zeros(target.parameter_count)
    lookup = dict(zip(source.names, source.theta))
    for i, name in enumerate(target.names):
        if name in lookup:
            values[i] = lookup[name]
    return values


def interaction_ramp(hs: HamiltonianSet, fraction: float) -> HamiltonianSet:
    """T + U + fraction * V, for the adiabatic training schedule."""
    return HamiltonianSet(hs.kinetic, hs.external,
                          hs.interaction * fraction, hs.constant, DUAL,
                          hs.grid, hs.n_qubits, hs.nuclei, hs.truncation)


def layer_train(spec: AnsatzSpec, hs: HamiltonianSet, eta: int,
                spin_pattern="paired", maxiter: int = 400) -> OptimizeResult:
    """Train layer m against T + U + (m/M) V with earlier layers frozen,
    then report the full-Hamiltonian energy of the assembled parameters."""
    import scipy.optimize
    ansatz = Ansatz(spec, hs.grid)
    model = SectorModel(ansatz, hs, eta, spin_pattern)
    values = np.zeros(ansatz.parameter_count)
    for layer in range(spec.layers):
        active = [i for i, (lay, _, _) in enumerate(ansatz.names)
                  if lay == layer]
        target = interaction_ramp(hs, (layer + 1) / spec.layers)
        d_uv = diagonal_potential_values(target, model.states)

        def objective(sub):
            trial = values.copy()
            trial[active] = sub
            return model.energy(model.state(trial), d_uv)

        res = scipy.optimize.minimize(
            objective, values[active], method="Nelder-Mead",
            options={"maxiter": maxiter, "xatol": 1e-8, "fatol": 1e-10})
        values[active] = res.x
    final = model.energy(model.state(values), model.d_uv)
    e_ref = model.energy(model.reference, model.d_uv)
    return OptimizeResult(theta=values, energy=final,
                          reference_energy=e_ref, names=list(ansatz.names))
