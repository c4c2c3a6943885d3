"""Variational ground-state search for the dual-basis Hamiltonian: a
mode-occupation reference rotated by the Fourier circuit (its amplitudes are
determinants of the circuit's single-particle matrix), layered
phase-rotation ansatz circuits, and a derivative-free optimizer loop that
a smaller ansatz's optimum can warm-start (``embed_parameters``).

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
from .measurement import _compile, estimate_energy
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


def lowest_mode_occupation(grid: ModeGrid, eta: int) -> list:
    """Qubits to occupy, ascending, for the eta lowest single-particle mode
    energies; both spins of a mode fill before the next mode.

    Ties at the boundary break lexicographically in the mode vector and a
    warning flags the open shell.
    """
    if eta > grid.n_qubits:
        raise ValueError(f"{eta} electrons exceed {grid.n_qubits} orbitals")
    spins = (UP, DOWN) if grid.cell.spinful else (None,)
    order = [(nu, spin) for nu in grid.modes_by_energy() for spin in spins]
    chosen = order[:eta]
    if eta and len(order) > eta:
        last = grid.k_squared(chosen[-1][0])
        nxt = grid.k_squared(order[eta][0])
        if math.isclose(last, nxt, rel_tol=0.0, abs_tol=1e-12):
            warnings.warn(
                "degenerate mode shell at the boundary; filling by "
                "lexicographic tiebreak", stacklevel=2)
    return sorted(grid.qubit_index(grid.index_site(grid.mode_slot(nu)), spin)
                  for nu, spin in chosen)


def prepare_reference(grid: ModeGrid, eta: int) -> Statevector:
    """C^dag|J> for the Fourier circuit C and the state J that occupies the
    eta lowest modes: a kinetic-term eigenstate on the site basis. Its
    amplitudes <I|C^dag|J> = conj(<J|C|I>) are row J of
    ``sector_transform``, with no gate applied; its support is the sector."""
    qubits = lowest_mode_occupation(grid, eta)
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
        parts = []  # the transforms join as the checked circuits they are
        for site, pair, mode in self.layout:
            # exp(i theta Z)
            gates = [Gate("RZ", (q,), angle=-2.0 * values[site[q]])
                     for q in range(n)]
            for (a, b), i in zip(self.pairs, pair):
                theta = values[i]
                if theta:
                    # exp(i theta ZZ)
                    gates.append(Gate("PEXP", (a, b), angle=-theta,
                                      letters="ZZ"))
            parts.append(gates)
            if not self.spec.minimal:
                parts += [self.ffft_inverse,
                          [Gate("RZ", (q,), angle=-2.0 * values[mode[q]])
                           for q in range(n)], self.ffft]
        return Circuit.join(n, parts)


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

    def __init__(self, ansatz: Ansatz, hs: HamiltonianSet, eta: int):
        n = ansatz.grid.n_qubits
        dim = math.comb(n, eta)
        # the Fourier matrix, one chunk of minors with the copy det takes,
        # and the z and zz tables as they are built
        minors = _minor_rows(dim, eta) * dim * eta * eta
        require_bytes(16 * dim ** 2 + 32 * minors
                      + 12 * dim * (2 * n + n * (n - 1)),
                      f"the {eta}-electron sector of {n} qubits "
                      f"({dim} states)")
        qubits = lowest_mode_occupation(ansatz.grid, eta)
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


def _simplex_search(fun, x0, maxiter: int, xatol: float = 1e-8,
                    fatol: float = 1e-10):
    """Nelder-Mead simplex minimization of ``fun`` from ``x0``: (x, f(x),
    done), done False when ``maxiter`` iterations ran out before the simplex
    fell within xatol of its best vertex and its values within fatol.

    A step-for-step port of scipy 1.17's ``minimize(method="Nelder-Mead")``
    without bounds, callback or adaptive coefficients: reflection 1,
    expansion 2, contraction and shrink 1/2, and the initial simplex that
    scales each nonzero entry by 1.05 and sets each zero one to 0.00025.
    Every arithmetic step and sort is scipy's, so ``fun`` sees the same
    points, bit for bit, in the same order. Unlike scipy it passes its own
    arrays, so ``fun`` must not write to its argument.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([fun(v) for v in sim], dtype=float)
    # scipy sorts the first simplex twice; both sorts stay, since argsort
    # (not stable) need not leave the ties of a sorted array in place
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    iterations = 1
    while iterations < maxiter:
        if np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and \
                np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = fun(xr)
        shrink = False
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = fun(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = 1.5 * xbar - 0.5 * sim[-1]
            fxc = fun(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = 0.5 * xbar + 0.5 * sim[-1]
            fxcc = fun(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                fsim[j] = fun(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], np.min(fsim), iterations < maxiter


def optimize(spec: AnsatzSpec, hs: HamiltonianSet, eta: int, seed: int = 0,
             restarts: int = 4, maxiter: int = 600,
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
    Fourier matrix must fit in DENSE_BYTES_LIMIT. Each start runs
    ``_simplex_search``, which evaluates the same points as scipy's
    ``minimize(method="Nelder-Mead")`` with the same options.
    """
    if hs.representation != DUAL:
        raise ValueError("the variational loop works on the dual "
                         "representation")
    if min(restarts, maxiter) < 1:
        raise ValueError(f"restarts and maxiter must be >= 1, got restarts="
                         f"{restarts}, maxiter={maxiter}")
    ansatz = Ansatz(spec, hs.grid)
    model = SectorModel(ansatz, hs, eta)
    e_ref = model.energy(model.reference, model.d_uv)
    # what the sampled objective compiles, once for every evaluation
    compiled = None if plan is None else _compile(hs, plan.strategy)

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
            energy, _ = estimate_energy(sampled, hs, shot_plan,
                                        compiled=compiled)
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
        x, fx, done = _simplex_search(objective, x0, maxiter)
        if not done:
            exhausted = True
        if fx < best_e:
            best_e = float(fx)
            best_x = x
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

