"""Variational ground-state search for the dual-basis Hamiltonian: a
mode-occupation reference prepared through the Fourier circuit, layered
phase-rotation ansatz circuits, a derivative-free optimizer loop, and
layer-by-layer training against an interaction ramp.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .ffft import build_ffft_nd
from .geometry import ModeGrid, UP, DOWN
from .hamiltonian import HamiltonianSet, DUAL, build_qubit
from .statevector import Statevector, Circuit, Gate, apply_circuit, \
    expectation

FULL = "full"
TRANSLATION_INVARIANT = "translation_invariant"


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
    """Occupy the eta lowest modes as a product state and rotate to the
    site basis; the result is a kinetic-term eigenstate."""
    qubits, _ = lowest_mode_occupation(grid, eta, spin_pattern)
    bits = [1 if q in set(qubits) else 0 for q in range(grid.n_qubits)]
    product = Statevector.basis_state(grid.n_qubits, bits)
    rotation = build_ffft_nd(grid).inverse()
    return apply_circuit(product, rotation)


# -- ansatz -------------------------------------------------------------------


class Ansatz:
    """Parameterized layered circuit: per layer a diagonal phase block
    (site and pair rotations) followed by kinetic phases conjugated through
    the mode rotation; the minimal variant keeps only the diagonal block.
    """

    def __init__(self, spec: AnsatzSpec, grid: ModeGrid):
        self.spec = spec
        self.grid = grid
        self.ffft = build_ffft_nd(grid)
        self.ffft_inverse = self.ffft.inverse()
        self.names = []
        for layer in range(spec.layers):
            for key in self._site_keys():
                self.names.append((layer, "site", key))
            for key in self._pair_keys():
                self.names.append((layer, "pair", key))
            if not spec.minimal:
                for q in range(grid.n_qubits):
                    self.names.append((layer, "mode", q))

    def _site_keys(self):
        if self.spec.sharing == TRANSLATION_INVARIANT:
            return ["shared"]
        return list(range(self.grid.n_qubits))

    def pair_class(self, q1: int, q2: int):
        grid = self.grid
        d1 = grid.index_site(grid.qubit_site_index(q1))
        d2 = grid.index_site(grid.qubit_site_index(q2))
        delta = tuple(np.subtract(d2, d1))
        canonical = min(grid.wrap_mode(delta),
                        grid.wrap_mode(tuple(-x for x in delta)))
        return canonical, grid.same_spin(q1, q2)

    def _pair_keys(self):
        pairs = [(a, b) for a in range(self.grid.n_qubits)
                 for b in range(a + 1, self.grid.n_qubits)]
        if self.spec.sharing == TRANSLATION_INVARIANT:
            return sorted({self.pair_class(a, b) for a, b in pairs})
        return pairs

    @property
    def parameter_count(self) -> int:
        return len(self.names)

    def circuit(self, values) -> Circuit:
        """Instantiate the circuit at the given flat parameter vector."""
        if len(values) != len(self.names):
            raise ValueError("parameter vector length mismatch")
        table = dict(zip(self.names, values))
        grid = self.grid
        circ = Circuit(grid.n_qubits)
        for layer in range(self.spec.layers):
            for q in range(grid.n_qubits):
                if self.spec.sharing == TRANSLATION_INVARIANT:
                    theta = table[(layer, "site", "shared")]
                else:
                    theta = table[(layer, "site", q)]
                # exp(i theta Z)
                circ.add(Gate("RZ", (q,), angle=-2.0 * theta))
            for a in range(grid.n_qubits):
                for b in range(a + 1, grid.n_qubits):
                    if self.spec.sharing == TRANSLATION_INVARIANT:
                        theta = table[(layer, "pair", self.pair_class(a, b))]
                    else:
                        theta = table[(layer, "pair", (a, b))]
                    if theta:
                        # exp(i theta ZZ)
                        circ.add(Gate("PEXP", (a, b), angle=-theta,
                                      letters="ZZ"))
            if not self.spec.minimal:
                circ.extend(self.ffft_inverse.gates)
                for q in range(grid.n_qubits):
                    theta = table[(layer, "mode", q)]
                    circ.add(Gate("RZ", (q,), angle=-2.0 * theta))
                circ.extend(self.ffft.gates)
        return circ


def build_ansatz_circuit(spec: AnsatzSpec, grid: ModeGrid,
                         values=None) -> Circuit:
    ansatz = Ansatz(spec, grid)
    if values is None:
        values = np.zeros(ansatz.parameter_count)
    return ansatz.circuit(values)


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
    over the invariant blocks whose basis states hold eta electrons."""
    lowest = []
    for states, vals in hs.blocks():
        electrons = np.bitwise_count(states)
        if np.any(electrons != electrons[0]):
            raise ValueError("operator does not conserve particle number")
        if electrons[0] == eta:
            lowest.append(vals[0])
    if not lowest:
        raise ValueError(f"no {eta}-electron states in {hs.n_qubits} modes")
    return float(min(lowest))


def optimize(spec: AnsatzSpec, hs: HamiltonianSet, eta: int, seed: int = 0,
             spin_pattern="paired", restarts: int = 4,
             restart_scale: float = 0.6, maxiter: int = 600,
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
    variational floor then hold only statistically.
    """
    if hs.representation != DUAL:
        raise ValueError("the variational loop works on the dual "
                         "representation")
    grid = hs.grid
    ansatz = Ansatz(spec, grid)
    reference = prepare_reference(grid, eta, spin_pattern)
    h_op = build_qubit(hs)
    e_ref = expectation(reference, h_op)

    trace = []
    state = {"best": math.inf, "evals": 0}

    def objective(values):
        circ = ansatz.circuit(values)
        prepared = apply_circuit(reference, circ)
        if plan is None:
            energy = expectation(prepared, h_op)
        else:
            from dataclasses import replace
            from .measurement import estimate_energy
            shot_plan = replace(plan, seed=plan.seed + state["evals"])
            energy, _ = estimate_energy(prepared, hs, shot_plan)
        state["evals"] += 1
        state["best"] = min(state["best"], energy)
        trace.append(state["best"])
        return energy

    rng = np.random.default_rng(seed)
    starts = [np.zeros(ansatz.parameter_count)]
    if initial_values is not None:
        starts.append(np.asarray(initial_values, dtype=float))
    for _ in range(max(0, restarts - 1)):
        starts.append(rng.normal(scale=restart_scale,
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


def layer_train(spec: AnsatzSpec, hs: HamiltonianSet, eta: int, seed: int = 0,
                spin_pattern="paired", maxiter: int = 400) -> OptimizeResult:
    """Train layer m against T + U + (m/M) V with earlier layers frozen,
    then report the full-Hamiltonian energy of the assembled parameters."""
    grid = hs.grid
    ansatz = Ansatz(spec, grid)
    reference = prepare_reference(grid, eta, spin_pattern)
    values = np.zeros(ansatz.parameter_count)
    for layer in range(spec.layers):
        active = [i for i, (lay, _, _) in enumerate(ansatz.names)
                  if lay == layer]
        target = interaction_ramp(hs, (layer + 1) / spec.layers)
        h_op = build_qubit(target)

        def objective(sub):
            trial = values.copy()
            trial[active] = sub
            circ = ansatz.circuit(trial)
            return expectation(apply_circuit(reference, circ), h_op)

        res = scipy.optimize.minimize(
            objective, values[active], method="Nelder-Mead",
            options={"maxiter": maxiter, "xatol": 1e-8, "fatol": 1e-10})
        values[active] = res.x
    h_full = build_qubit(hs)
    final = expectation(apply_circuit(reference, ansatz.circuit(values)),
                        h_full)
    e_ref = expectation(reference, h_full)
    return OptimizeResult(theta=values, energy=float(final),
                          reference_energy=e_ref, names=list(ansatz.names))
