"""Energy estimators by operator averaging, their shot budgets, and
empirical variance checks.

Three sampling strategies:

* ``per_term``: every Pauli term is measured in its own eigenbasis.
* ``diagonal_groups``: the diagonal potentials are read off computational
  basis samples in one group; the kinetic term is read off samples taken
  after the mode rotation, where it is diagonal too.
* ``diagonal_uv_only``: potentials as one diagonal group, kinetic term
  per-term, for hardware that wants to skip the coherent mode rotation.

Group estimators evaluate the diagonal polynomial once per distinct
sampled bitstring. Per-term sampling groups terms by measurement basis
(their X/Y letters): each basis is rotated once, reusing the gates it
shares with the previous basis in sorted order, and its terms draw from
one distribution, each with its own seed. Seeds are master * 2^16 +
counter: counter 0 (diagonal) and 1 (kinetic modes) of the plan seed, or
a term's index among the sorted terms under the plan seed (``per_term``)
or plan seed + 1 (``diagonal_uv_only``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fermion import jordan_wigner
from .ffft import build_ffft_nd
from .hamiltonian import HamiltonianSet, DUAL, build_qubit, \
    diagonal_potential_values, kinetic_mode_values, norm_bounds
from .pauli import QubitOperator, require_bytes
from .statevector import Statevector, Gate, apply_circuit, apply_gate, \
    sample_bitstrings, _check_drift

PER_TERM = "per_term"
DIAGONAL_GROUPS = "diagonal_groups"
DIAGONAL_UV_ONLY = "diagonal_uv_only"

STRATEGIES = (PER_TERM, DIAGONAL_GROUPS, DIAGONAL_UV_ONLY)
# arrays of one 8-byte entry per shot that one draw and the values of its
# group hold at once: the keys, their order and sorted copy, the picks, the
# samples and the bit and sort temporaries of the values
SHOT_TEMPORARIES = 8


@dataclass(frozen=True)
class MeasurementPlan:
    strategy: str = DIAGONAL_GROUPS
    shots: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; "
                             f"choose from {STRATEGIES}")
        if self.shots < 2:
            raise ValueError("need at least 2 shots for a variance estimate")


def _batch_seed(master: int, counter: int) -> int:
    return master * (1 << 16) + counter


def _basis_gate(q: int, letter: str) -> Gate:
    """Rotation R with R P R^dag = Z: H for X, exp(-i pi/4 X) for Y."""
    if letter == "X":
        return Gate("H", (q,))
    return Gate("PEXP", (q,), angle=math.pi / 4, letters="X")


def _pauli_term_values(key, samples: np.ndarray):
    """+-1.0 per shot: the parity of the term's qubits in each sample."""
    mask = sum(1 << q for q, _ in key)
    return 1.0 - 2.0 * (np.bitwise_count(samples & mask) & 1)


def _sample(state: Statevector, counts: dict, shots: int, seed):
    """``sample_bitstrings``, noting in ``counts`` the basis states of the
    largest distribution drawn from (``support``: its support's length, or
    2^n for a state without one) and the distributions drawn without a
    support (``dense_draws``)."""
    dense = state.support is None
    size = 2 ** state.n_qubits if dense else len(state.support)
    counts["support"] = max(counts.get("support", 0), size)
    counts["dense_draws"] = counts.get("dense_draws", 0) + dense
    return sample_bitstrings(state, shots=shots, seed=seed)


def _per_term_samples(state, op, shots, seed, counts):
    """Coefficient times per-shot eigenvalue of each non-identity term, in
    operator order."""
    terms = [(key, coeff.real, _batch_seed(seed, counter))
             for counter, (key, coeff) in enumerate(op.items()) if key != ()]
    by_basis = {}
    for i, (key, _, _) in enumerate(terms):
        by_basis.setdefault(tuple(f for f in key if f[1] != "Z"), []).append(i)
    out = [None] * len(terms)
    # levels[j] is the state after the first j gates of the previous basis
    levels, bases = [state], sorted(by_basis)
    for previous, basis in zip([()] + bases, bases):
        shared = len(previous)
        while basis[:shared] != previous[:shared]:
            shared -= 1
        del levels[shared + 1:]
        for q, letter in basis[shared:]:
            levels.append(apply_gate(levels[-1], _basis_gate(q, letter)))
        _check_drift(state, levels[-1])
        rows = _sample(levels[-1], counts, shots,
                       [terms[i][2] for i in by_basis[basis]])
        for i, row in zip(by_basis[basis], rows):
            key, coeff, _ = terms[i]
            out[i] = coeff * _pauli_term_values(key, row)
    counts["pauli_terms"] += len(terms)
    counts["bases"] += len(bases)
    return out


def _compile(hs, strategy: str):
    """What ``strategy`` compiles from ``hs`` before it samples: the
    operator whose terms are sampled one by one (``build_qubit(hs)`` for
    per_term, ``jordan_wigner`` of the kinetic term for diagonal_uv_only)
    or, for diagonal_groups, the mode rotation ``build_ffft_nd``."""
    if strategy == PER_TERM:
        return build_qubit(hs)
    if strategy == DIAGONAL_UV_ONLY:
        return jordan_wigner(hs.kinetic, hs.n_qubits)
    return build_ffft_nd(hs.grid)


def _group_samples(state, hs, plan, counts=None, compiled=None):
    """Per-shot values of each sampled group plus the exact offset;
    ``compiled`` is ``_compile(hs, plan.strategy)`` when the caller holds
    it. The dense budget refuses the shot count before the first draw."""
    counts = {} if counts is None else counts
    if compiled is None:
        compiled = _compile(hs, plan.strategy)
    groups = []
    offset = hs.constant
    # the operator whose terms are sampled one by one, and its seed
    op, term_seed = QubitOperator(), plan.seed
    if plan.strategy == DIAGONAL_UV_ONLY:
        op, term_seed = compiled, plan.seed + 1
        offset += op.constant().real
    elif plan.strategy == PER_TERM:
        op = compiled
        offset += op.constant().real - hs.constant  # constant already counted
    held = len(op) + {PER_TERM: 0, DIAGONAL_UV_ONLY: 1,
                            DIAGONAL_GROUPS: 2}[plan.strategy]
    # 8-byte words per shot: every group's values, one basis's rows and
    # their stacked copy, and the temporaries of one draw and its values
    require_bytes(8 * plan.shots * (3 * held + SHOT_TEMPORARIES),
                  f"{plan.shots} shots of {plan.strategy}")
    if plan.strategy in (DIAGONAL_GROUPS, DIAGONAL_UV_ONLY):
        uv = _sample(state, counts, plan.shots, _batch_seed(plan.seed, 0))
        groups.append(diagonal_potential_values(hs, uv))
    if plan.strategy == DIAGONAL_GROUPS:
        rotated = apply_circuit(state, compiled)
        t_samples = _sample(rotated, counts, plan.shots,
                            _batch_seed(plan.seed, 1))
        groups.append(kinetic_mode_values(hs, t_samples))
    counts.update(pauli_terms=0, bases=len(groups))
    groups += _per_term_samples(state, op, plan.shots, term_seed, counts)
    counts["shots_drawn"] = plan.shots * len(groups)
    return groups, offset


def estimate_energy(state: Statevector, hs: HamiltonianSet,
                    plan: MeasurementPlan, counts: dict = None,
                    compiled=None):
    """Unbiased energy estimate and its standard error.

    Groups are sampled independently; the estimate is the sum of group
    means plus exact constants, the standard error adds group variances.
    A ``counts`` dict receives ``pauli_terms`` sampled one by one, ``bases``
    (one distribution per distinct basis of each group), ``shots_drawn``,
    ``support`` (basis states of the largest distribution drawn from) and
    ``dense_draws`` (distributions drawn from a state without a support).
    ``compiled`` is what the strategy compiles from ``hs``: the operator
    ``build_qubit(hs)`` for per_term, ``jordan_wigner(hs.kinetic)`` for
    diagonal_uv_only, the mode rotation ``build_ffft_nd(hs.grid)`` for
    diagonal_groups. It is compiled here when None; a caller that
    estimates many times compiles it once (``_compile``).
    """
    if hs.representation != DUAL:
        raise ValueError("estimators are defined on the dual representation")
    groups, offset = _group_samples(state, hs, plan, counts, compiled)
    estimate = offset + sum(float(np.mean(g)) for g in groups)
    variance = sum(float(np.var(g, ddof=1)) / len(g) for g in groups)
    return estimate, math.sqrt(variance)


def empirical_variance(state: Statevector, hs: HamiltonianSet,
                       strategy: str, shots: int, seed: int) -> float:
    """Sample variance of the single-shot estimator (summed over groups)."""
    plan = MeasurementPlan(strategy, shots, seed)
    groups, _ = _group_samples(state, hs, plan)
    return float(np.var(np.sum(groups, axis=0), ddof=1))


def empirical_shot_requirement(state: Statevector, hs: HamiltonianSet,
                               strategy: str, target_stderr: float,
                               seed: int, start: int = 16,
                               cap: int = 1 << 22) -> int:
    """Smallest power-of-two shot count whose measured standard error meets
    the target; geometric search from ``start``."""
    shots = start
    while shots <= cap:
        _, stderr = estimate_energy(state, hs,
                                    MeasurementPlan(strategy, shots, seed))
        if stderr <= target_stderr:
            return shots
        shots *= 2
    raise RuntimeError(f"no shot count up to {cap} met {target_stderr}")


def shot_budget(hs: HamiltonianSet, eta: int, precision: float,
                mode: str = "absolute",
                strategy: str = DIAGONAL_GROUPS,
                qubit: QubitOperator = None) -> float:
    """Analytic repetition bound for the strategy at the given precision.

    ``absolute`` reads ``precision`` as the energy tolerance; ``relative``
    reads it as tolerance per electron (the allowed absolute error grows
    with eta, dividing the budget by eta^2). ``per_term`` reads ``qubit``,
    the compiled ``build_qubit(hs)``, and compiles it when it is None.
    """
    if precision <= 0:
        raise ValueError("precision must be positive")
    if mode not in ("absolute", "relative"):
        raise ValueError(f"unknown mode {mode!r}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    bounds = norm_bounds(hs, eta)
    uv = bounds["max_u"] + bounds["max_v"]
    # a tiny precision squares to zero or overflows the budget
    try:
        if strategy == DIAGONAL_GROUPS:
            budget = (bounds["max_t"] ** 2 + uv ** 2) / precision ** 2
        elif strategy == DIAGONAL_UV_ONLY:
            budget = (bounds["triangle_t"] ** 2 + uv ** 2) / precision ** 2
        else:  # per_term reads the compiled operator
            if qubit is None:
                qubit = build_qubit(hs)
            coeff_sum = qubit.coefficient_norm(include_identity=False)
            budget = (coeff_sum / precision) ** 2
        if mode == "relative":
            budget /= eta ** 2
    except (OverflowError, ZeroDivisionError):
        budget = math.inf
    if not math.isfinite(budget):
        raise ValueError(f"precision {precision} puts the shot budget past "
                         f"the float range")
    return budget


def exact_group_variances(hs: HamiltonianSet, state: Statevector):
    """Matrix-level Var[T] and Var[U+V] on the given state."""
    from .fermion import fermion_matrix
    psi = state.amplitudes
    out = {}
    for name, op in (("t", hs.kinetic),
                     ("uv", hs.external + hs.interaction)):
        mat = fermion_matrix(op, hs.n_qubits)
        mean = float(np.real(psi.conj() @ mat @ psi))
        second = float(np.real(psi.conj() @ (mat @ (mat @ psi))))
        out[name] = second - mean ** 2
    return out
