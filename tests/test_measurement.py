import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwdual.fermion import fermion_matrix, jordan_wigner
from pwdual.geometry import build_grid
from pwdual.hamiltonian import build_dual, build_plane_wave, build_qubit
from pwdual.measurement import MeasurementPlan, estimate_energy, \
    empirical_variance, empirical_shot_requirement, shot_budget, \
    exact_group_variances, diagonal_potential_values, PER_TERM, \
    DIAGONAL_GROUPS, DIAGONAL_UV_ONLY, PHASE_ESTIMATION, _batch_seed, \
    _group_samples, _pauli_term_values, _per_term_samples
from pwdual.pauli import QubitOperator
from pwdual.statevector import Statevector, Circuit, Gate, apply_circuit, \
    expectation, sample_bitstrings


def jellium(m=4, spinful=False, omega=4.0):
    return build_dual(build_grid(1, m, omega, spinful=spinful))


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return Statevector(n, amps / np.linalg.norm(amps))


def ground_state(hs):
    mat = hs.matrix()
    vals, vecs = np.linalg.eigh(mat)
    return Statevector(hs.n_qubits, vecs[:, 0].astype(complex))


class TestEstimateEnergy:
    def test_diagonal_eigenstate_has_zero_uv_variance(self):
        hs = jellium()
        state = Statevector.basis_state(hs.n_qubits, (1, 0, 1, 0))
        plan = MeasurementPlan(DIAGONAL_GROUPS, 500, 3)
        from pwdual.measurement import _group_samples
        groups, _ = _group_samples(state, hs, plan)
        uv_values = groups[0]
        assert np.var(uv_values) == 0.0

    @pytest.mark.parametrize("strategy", [PER_TERM, DIAGONAL_GROUPS,
                                          DIAGONAL_UV_ONLY])
    def test_estimate_within_3_sigma(self, strategy):
        hs = jellium()
        state = random_state(hs.n_qubits, 11)
        truth = expectation(state, build_qubit(hs))
        est, stderr = estimate_energy(state, hs,
                                      MeasurementPlan(strategy, 10000, 5))
        assert abs(est - truth) < 3.5 * stderr

    def test_per_term_bernoulli_width(self):
        # single-term sanity: bare Z has unit variance on |+>; the group
        # machinery reduces to 1/sqrt(shots) on the hopping strings too
        hs = jellium(2)
        state = random_state(hs.n_qubits, 2)
        shots = 4096
        _, stderr = estimate_energy(state, hs,
                                    MeasurementPlan(PER_TERM, shots, 1))
        assert stderr < 5.0 / np.sqrt(shots) * sum(
            abs(c) for c in build_qubit(hs).terms.values())

    def test_unbiased_over_seeds(self):
        hs = jellium()
        state = random_state(hs.n_qubits, 7)
        truth = expectation(state, build_qubit(hs))
        means = [
            estimate_energy(state, hs,
                            MeasurementPlan(DIAGONAL_GROUPS, 1000, seed))[0]
            for seed in range(200)
        ]
        pull = (np.mean(means) - truth) / (np.std(means) / np.sqrt(len(means)))
        assert abs(pull) < 4.0

    def test_constant_included(self):
        grid = build_grid(1, 2, 4.0)
        hs = build_dual(grid, constant=2.5)
        state = random_state(hs.n_qubits, 1)
        truth = expectation(state, build_qubit(hs))
        est, stderr = estimate_energy(state, hs,
                                      MeasurementPlan(DIAGONAL_GROUPS, 8000, 2))
        assert abs(est - truth) < 4 * stderr + 1e-9

    def test_per_term_rotations_check_norm_drift(self, monkeypatch):
        """Each basis rotation is applied gate by gate; the state a basis
        samples from is still checked for norm drift."""
        from pwdual.statevector import apply_gate

        def leaky(state, gate):
            out = apply_gate(state, gate)
            return Statevector(out.n_qubits, out.amplitudes * (1 + 1e-6))

        hs = jellium()
        op = build_qubit(hs)
        state = random_state(hs.n_qubits, 5)
        _per_term_samples(state, op, 10, 1, {"pauli_terms": 0, "bases": 0})
        monkeypatch.setattr("pwdual.measurement.apply_gate", leaky)
        with pytest.raises(RuntimeError, match="norm drift"):
            _per_term_samples(state, op, 10, 1,
                              {"pauli_terms": 0, "bases": 0})

    def test_rejects_tiny_shots(self):
        with pytest.raises(ValueError):
            MeasurementPlan(DIAGONAL_GROUPS, 1, 0)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            MeasurementPlan("guess", 10, 0)

    def test_rejects_budget_only_mode(self):
        with pytest.raises(ValueError, match="budget-only"):
            MeasurementPlan(PHASE_ESTIMATION, 10, 0)
        with pytest.raises(ValueError,
                           match="unknown strategy 'phase_estimation'"):
            MeasurementPlan(PHASE_ESTIMATION, 10, 0)


class TestDiagonalExactness:
    @pytest.mark.parametrize("m,spinful", [(2, True), (4, False)])
    def test_estimator_equals_matrix_diagonal(self, m, spinful):
        hs = jellium(m, spinful)
        n = hs.n_qubits
        uv_mat = fermion_matrix(hs.external + hs.interaction, n)
        samples = np.arange(2 ** n, dtype=np.int64)
        values = diagonal_potential_values(hs, samples)
        assert np.max(np.abs(values - np.real(np.diag(uv_mat)))) < 1e-12


class TestEmpiricalVariance:
    def test_matches_exact_on_ground_state(self):
        hs = jellium()
        state = ground_state(hs)
        shots = 20000
        emp = empirical_variance(state, hs, DIAGONAL_GROUPS, shots, 9)
        exact = exact_group_variances(hs, state)
        total = exact["t"] + exact["uv"]
        # variance of a sample variance ~ sqrt(2/shots) * var for gaussian-ish
        assert abs(emp - total) < 5 * total * np.sqrt(8.0 / shots) + 1e-9

    def test_matches_exact_on_product_state(self):
        hs = jellium()
        state = Statevector.basis_state(hs.n_qubits, (0, 1, 0, 1))
        shots = 20000
        emp = empirical_variance(state, hs, DIAGONAL_GROUPS, shots, 13)
        exact = exact_group_variances(hs, state)
        total = exact["t"] + exact["uv"]
        assert abs(emp - total) < 5 * max(total, 1e-6) * np.sqrt(8.0 / shots) \
            + 1e-9

    def test_eigenstate_of_h_nonnegative_group_variance(self):
        hs = jellium()
        state = ground_state(hs)
        exact = exact_group_variances(hs, state)
        assert exact["t"] >= -1e-12 and exact["uv"] >= -1e-12
        assert exact["t"] + exact["uv"] >= -1e-12


class TestShotBudget:
    def test_quadratic_in_precision(self):
        hs = jellium()
        b1 = shot_budget(hs, 2, 0.2)
        b2 = shot_budget(hs, 2, 0.1)
        assert b2 == pytest.approx(4 * b1)

    def test_per_term_dominates_groups_on_spinful_m4(self):
        hs = jellium(4, spinful=True)
        pt = shot_budget(hs, 2, 0.1, strategy=PER_TERM)
        dg = shot_budget(hs, 2, 0.1, strategy=DIAGONAL_GROUPS)
        assert pt >= dg

    def test_phase_estimation_linear(self):
        hs = jellium()
        b1 = shot_budget(hs, 2, 0.2, strategy=PHASE_ESTIMATION)
        b2 = shot_budget(hs, 2, 0.1, strategy=PHASE_ESTIMATION)
        assert b2 == pytest.approx(2 * b1)

    def test_diagonal_budgets_compile_nothing(self, monkeypatch):
        hs = jellium(4, spinful=True)
        want = {(s, mode): shot_budget(hs, 2, 0.1, mode, s)
                for s in (DIAGONAL_GROUPS, DIAGONAL_UV_ONLY)
                for mode in ("absolute", "relative")}

        def forbidden(*args, **kwargs):
            raise AssertionError("the qubit operator was compiled")

        monkeypatch.setattr("pwdual.measurement.build_qubit", forbidden)
        for (s, mode), budget in want.items():
            assert shot_budget(hs, 2, 0.1, mode, s) == budget
        with pytest.raises(AssertionError, match="compiled"):
            shot_budget(hs, 2, 0.1, strategy=PER_TERM)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            shot_budget(jellium(), 2, 0.1, strategy="guess")

    def test_relative_mode_divides_by_eta_squared(self):
        hs = jellium()
        eta = 2
        absolute = shot_budget(hs, eta, 0.1, mode="absolute")
        relative = shot_budget(hs, eta, 0.1, mode="relative")
        assert relative == pytest.approx(absolute / eta ** 2)

    def test_empirical_requirement_below_budget(self):
        hs = jellium()
        eta = 2
        target = 0.1
        budget = shot_budget(hs, eta, target, strategy=DIAGONAL_GROUPS)
        for seed, state in enumerate([
            Statevector.basis_state(hs.n_qubits, (1, 1, 0, 0)),
            random_state(hs.n_qubits, 21),
            ground_state(hs),
        ]):
            need = empirical_shot_requirement(state, hs, DIAGONAL_GROUPS,
                                              target, seed)
            assert need <= budget


# -- references: the estimators before grouping and deduplication -------------


def reference_per_term(state, op, shots, seed):
    """One basis rotation and one sample_bitstrings call per term."""
    out = []
    for counter, (key, coeff) in enumerate(op.items()):
        if key == ():
            continue
        rot = []
        for q, letter in key:
            if letter == "X":
                rot.append(Gate("H", (q,)))
            elif letter == "Y":
                rot.append(Gate("PEXP", (q,), angle=math.pi / 4, letters="X"))
        rot = Circuit(state.n_qubits, rot)
        samples = sample_bitstrings(apply_circuit(state, rot), shots=shots,
                                    seed=_batch_seed(seed, counter))
        out.append(coeff.real * _pauli_term_values(key, samples))
    return out


def reference_potential_values(hs, samples):
    """U + V energy evaluated on every sample, repeats included."""
    values = np.zeros(len(samples), dtype=float)
    for key, coeff in hs.external.items():
        q = key[0][0]
        values += coeff.real * ((samples >> q) & 1)
    for key, coeff in hs.interaction.items():
        q1, q2 = key[0][0], key[2][0]
        values += coeff.real * ((samples >> q1) & 1) * ((samples >> q2) & 1)
    return values


def reference_groups(state, hs, plan):
    if plan.strategy == PER_TERM:
        return reference_per_term(state, build_qubit(hs), plan.shots,
                                  plan.seed)
    uv = sample_bitstrings(state, shots=plan.shots,
                           seed=_batch_seed(plan.seed, 0))
    kin = jordan_wigner(hs.kinetic, hs.n_qubits)
    return [reference_potential_values(hs, uv)] + reference_per_term(
        state, kin, plan.shots, plan.seed + 1)


def state_from(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    amps[rng.random(2 ** n) < 0.25] = 0.0
    amps[0] += 0.1
    return Statevector(n, amps / np.linalg.norm(amps))


@st.composite
def grouped_operators(draw):
    """A real-weighted Pauli sum on 2-8 qubits with an identity term and
    several terms (extra Z letters) per X/Y measurement basis."""
    n = draw(st.integers(2, 8))
    weights = st.floats(-2.0, 2.0, allow_nan=False)
    qubits = st.lists(st.integers(0, n - 1), max_size=3, unique=True)
    terms = {(): draw(weights)}
    for _ in range(draw(st.integers(1, 5))):
        basis = {q: draw(st.sampled_from("XY")) for q in draw(qubits)}
        for _ in range(draw(st.integers(1, 3))):
            letters = {**{q: "Z" for q in draw(qubits)}, **basis}
            terms[tuple(sorted(letters.items()))] = draw(weights)
    return n, QubitOperator(terms)


@settings(max_examples=60, deadline=None)
@given(grouped_operators(), st.integers(0, 2 ** 32), st.integers(0, 1000),
       st.integers(1, 300))
def test_grouped_per_term_equals_reference(case, state_seed, seed, shots):
    n, op = case
    state = state_from(n, state_seed)
    counts = {"pauli_terms": 0, "bases": 0}
    got = _per_term_samples(state, op, shots, seed, counts)
    want = reference_per_term(state, op, shots, seed)
    assert len(got) == len(want) == counts["pauli_terms"]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert counts["bases"] == len({tuple(f for f in key if f[1] != "Z")
                                   for key in op.terms if key})


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(1, 2, 4.0, True), (1, 4, 4.0, False),
                        (2, 2, 4.0, False), (1, 4, 4.0, True)]),
       st.sampled_from([PER_TERM, DIAGONAL_UV_ONLY]),
       st.integers(0, 2 ** 32), st.integers(0, 1000))
def test_grouped_strategies_equal_reference(grid, strategy, state_seed, seed):
    hs = build_dual(build_grid(*grid))
    state = state_from(hs.n_qubits, state_seed)
    plan = MeasurementPlan(strategy, 200, seed)
    groups, _ = _group_samples(state, hs, plan)
    want = reference_groups(state, hs, plan)
    assert len(groups) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(groups, want))


@pytest.mark.parametrize("m,spinful", [(2, True), (4, False), (4, True)])
def test_potential_values_equal_per_sample_evaluation(m, spinful):
    hs = jellium(m, spinful)
    state = state_from(hs.n_qubits, m)
    samples = sample_bitstrings(state, shots=5000, seed=3)
    assert len(np.unique(samples)) < len(samples)
    assert np.array_equal(diagonal_potential_values(hs, samples),
                          reference_potential_values(hs, samples))


def test_potential_values_reject_plane_wave_set():
    """The plane-wave set's external and interaction keys are not number
    or pair terms; reading them as such would be a silent wrong answer."""
    hs = build_plane_wave(build_grid(1, 4, 4.0), nuclei=[([1.0], 1.0)])
    with pytest.raises(ValueError, match="dual"):
        diagonal_potential_values(hs, np.array([3, 5]))
