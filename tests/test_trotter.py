import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from pwdual.fermion import FermionOperator, fermion_matrix
from pwdual.geometry import build_grid
from pwdual.hamiltonian import build_dual, build_plane_wave, build_qubit, \
    HamiltonianSet, DUAL, NucleiSpec, mode_energies
from pwdual.measurement import kinetic_mode_values
from pwdual.pauli import QubitOperator, string_matrix, \
    qubit_operator_matrix, PRUNE_TOL
from pwdual.statevector import Circuit, Gate, circuit_matrix, Statevector, \
    apply_circuit, expectation
from pwdual.trotter import TrotterConfig, split_operator_step, \
    direct_jw_step, measure_error_scaling, estimate_r, trotter_circuit, \
    hopping_template_gates, group_qubit_terms, number_blocks, \
    number_block_propagator, number_block_view, split_operator_blocks, \
    _zz_gates


def spinful_jellium(omega=4.0):
    return build_dual(build_grid(1, 2, omega, spinful=True))


def exact_unitary(hs, t):
    h = hs.matrix()
    vals, vecs = np.linalg.eigh(h)
    return vecs @ np.diag(np.exp(-1j * vals * t)) @ vecs.conj().T


class TestSplitOperatorStep:
    def test_matches_symmetric_product(self):
        hs = spinful_jellium()
        n = hs.n_qubits
        tau = 0.3
        t_mat = fermion_matrix(hs.kinetic, n)
        uv = fermion_matrix(hs.external + hs.interaction, n)
        sym = scipy.linalg.expm(-1j * uv * tau / 2) \
            @ scipy.linalg.expm(-1j * t_mat * tau) \
            @ scipy.linalg.expm(-1j * uv * tau / 2)
        step = circuit_matrix(split_operator_step(hs, tau))
        assert np.max(np.abs(step - sym)) < 1e-10

    @pytest.mark.parametrize("d,m,omega", [(1, 8, 8.0), (2, 4, 16.0)])
    def test_kinetic_phases_cover_the_weighted_modes(self, d, m, omega):
        # the zero mode's energy is roundoff (-2.2e-16 or exactly 0 on 1D
        # M=8, depending on the FFT build; 4.4e-16 on 2D M=4), so the step
        # and the sampled kinetic estimator must both skip qubit 0
        hs = build_dual(build_grid(d, m, omega))
        assert abs(mode_energies(hs)[0]) <= PRUNE_TOL
        assert not hs.external.terms  # every PHASEN below is kinetic
        phased = {g.targets[0] for g in split_operator_step(hs, 0.1).gates
                  if g.kind == "PHASEN"}
        one_hot = 1 << np.arange(hs.n_qubits)
        weighted = set(np.flatnonzero(kinetic_mode_values(hs, one_hot)))
        assert phased == weighted == set(range(1, hs.n_qubits))

    def test_free_theory_exact_for_any_tau(self):
        grid = build_grid(1, 4, 4.0)
        hs = build_dual(grid)
        free = HamiltonianSet(hs.kinetic, FermionOperator(),
                              FermionOperator(), 0.0, DUAL, grid,
                              grid.n_qubits)
        tau = 1.7
        step = circuit_matrix(split_operator_step(free, tau))
        assert np.max(np.abs(step - exact_unitary(free, tau))) < 1e-10

    def test_tau_zero_is_identity(self):
        hs = spinful_jellium()
        step = circuit_matrix(split_operator_step(hs, 0.0))
        assert np.max(np.abs(step - np.eye(step.shape[0]))) < 1e-10

    def test_single_step_error_cubic(self):
        hs = spinful_jellium()
        errs = []
        for tau in (0.2, 0.1, 0.05):
            step = circuit_matrix(split_operator_step(hs, tau))
            errs.append(np.linalg.norm(step - exact_unitary(hs, tau), 2))
        # each halving of tau should shrink the error by about 8
        assert errs[0] / errs[1] > 5
        assert errs[1] / errs[2] > 5

    def test_rejects_plane_wave_representation(self):
        from pwdual.hamiltonian import build_plane_wave
        hs = build_plane_wave(build_grid(1, 2, 4.0))
        with pytest.raises(ValueError):
            split_operator_step(hs, 0.1)

    def test_planar_lowering_exact(self):
        hs = spinful_jellium()
        tau = 0.27
        dense = circuit_matrix(split_operator_step(hs, tau))
        planar = split_operator_step(hs, tau, connectivity=("planar", 2, 2))
        planar.check_connectivity()
        assert np.max(np.abs(circuit_matrix(planar) - dense)) < 1e-10


class TestDirectJwStep:
    def test_single_zz_term(self):
        h = QubitOperator()
        h.terms[((0, "Z"), (1, "Z"))] = 0.4
        tau = 0.9
        circ = direct_jw_step(h, tau, n_qubits=2)
        kinds = [g.kind for g in circ.gates]
        assert kinds.count("CNOT") == 4 and kinds.count("RZ") == 2
        target = scipy.linalg.expm(
            -1j * tau * qubit_operator_matrix(h, 2))
        assert np.max(np.abs(circuit_matrix(circ) - target)) < 1e-10

    def test_hopping_template_q_p_plus_3(self):
        p, q, theta = 0, 3, 0.41
        hx = string_matrix(((p, "X"), (1, "Z"), (2, "Z"), (q, "X")), 4)
        hy = string_matrix(((p, "Y"), (1, "Z"), (2, "Z"), (q, "Y")), 4)
        target = scipy.linalg.expm(-1j * theta * (hx + hy))
        circ = Circuit(4, hopping_template_gates(p, q, theta))
        assert np.max(np.abs(circuit_matrix(circ) - target)) < 1e-10

    def test_matches_ordered_exponential(self):
        hs = spinful_jellium()
        op = build_qubit(hs)
        n = hs.n_qubits
        tau = 0.3
        identity, zs, zzs, hops = group_qubit_terms(op)
        factors = []
        for q, c in zs:
            factors.append(c * string_matrix(((q, "Z"),), n))
        from pwdual.trotter import _zz_rounds
        for rnd in _zz_rounds(zzs):
            for (a, b), c in rnd:
                factors.append(c * string_matrix(((a, "Z"), (b, "Z")), n))
        for (p, q), c in hops:
            mid = tuple((i, "Z") for i in range(p + 1, q))
            mx = string_matrix(((p, "X"),) + mid + ((q, "X"),), n)
            my = string_matrix(((p, "Y"),) + mid + ((q, "Y"),), n)
            factors.append(c * (mx + my))
        fwd = np.eye(2 ** n, dtype=complex)
        for f in factors:
            fwd = fwd @ scipy.linalg.expm(-1j * f * tau / 2)
        rev = np.eye(2 ** n, dtype=complex)
        for f in reversed(factors):
            rev = rev @ scipy.linalg.expm(-1j * f * tau / 2)
        target = np.exp(-1j * identity * tau) * (fwd @ rev)
        built = circuit_matrix(direct_jw_step(op, tau, n_qubits=n))
        assert np.max(np.abs(built - target)) < 1e-10

    def test_diagonal_hamiltonian_zero_error(self):
        h = QubitOperator()
        h.terms[((0, "Z"),)] = 0.3
        h.terms[((0, "Z"), (1, "Z"))] = -0.7
        h.terms[((1, "Z"), (2, "Z"))] = 0.2
        t = 1.4
        target = scipy.linalg.expm(-1j * t * qubit_operator_matrix(h, 3))
        built = circuit_matrix(direct_jw_step(h, t, n_qubits=3))
        assert np.max(np.abs(built - target)) < 1e-12

    def test_rejects_unsupported_pattern(self):
        h = QubitOperator()
        h.terms[((0, "X"), (1, "X"), (2, "X"))] = 1.0
        with pytest.raises(ValueError):
            direct_jw_step(h, 0.1, n_qubits=3)


class TestErrorScaling:
    def test_second_order_slope(self):
        hs = spinful_jellium()
        exact, _ = number_block_view(exact_unitary(hs, 1.0))
        rows, slope = measure_error_scaling(
            lambda tau: number_block_view(
                circuit_matrix(split_operator_step(hs, tau))),
            exact, [2, 4, 8, 16, 32], 1.0)
        assert slope == pytest.approx(-2.0, abs=0.1)

    def test_first_order_slope(self):
        hs = spinful_jellium()
        exact, _ = number_block_view(exact_unitary(hs, 1.0))
        rows, slope = measure_error_scaling(
            lambda tau: number_block_view(
                circuit_matrix(split_operator_step(hs, tau, order=1))),
            exact, [4, 8, 16, 32, 64], 1.0)
        assert slope == pytest.approx(-1.0, abs=0.1)

    def test_convergence_with_r(self):
        hs = spinful_jellium()
        exact, _ = number_block_view(exact_unitary(hs, 1.0))
        rows, _ = measure_error_scaling(
            lambda tau: number_block_view(
                circuit_matrix(split_operator_step(hs, tau))),
            exact, [4, 64], 1.0)
        errs = dict(rows)
        assert errs[64] < errs[4] / 100

    def test_diagonal_only_zero_error(self):
        grid = build_grid(1, 4, 4.0)
        full = build_dual(grid)
        diag = HamiltonianSet(FermionOperator(), full.external,
                              full.interaction, 0.0, DUAL, grid,
                              grid.n_qubits)
        exact, _ = number_block_view(exact_unitary(diag, 1.0))
        rows, _ = measure_error_scaling(
            lambda tau: number_block_view(
                circuit_matrix(split_operator_step(diag, tau))),
            exact, [1], 1.0)
        assert rows[0][1] < 1e-12

    @pytest.mark.parametrize("strategy", ["split_operator", "direct_jw"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_block_errors_equal_full_space_norm(self, strategy, order):
        grid = build_grid(1, 4, 4.0, spinful=True)
        hs = build_dual(grid, NucleiSpec.build([((1.3,), 1.0)]))
        exact = exact_unitary(hs, 1.0)
        steps = {}

        def step_fn(tau):
            config = TrotterConfig(strategy, order, 1, tau)
            steps[tau] = circuit_matrix(trotter_circuit(hs, config))
            return number_block_view(steps[tau])

        counts = {}
        rows, _ = measure_error_scaling(step_fn, number_block_view(exact)[0],
                                        [2, 8, 32], 1.0, counts)
        assert counts["blocks"] == 9 and counts["largest_block"] == 70
        assert counts["leak"] < 1e-12
        for r, err in rows:
            full = np.linalg.norm(
                np.linalg.matrix_power(steps[1.0 / r], r) - exact, 2)
            assert err == pytest.approx(full, rel=1e-12, abs=0.0)

    def test_rejects_step_that_changes_particle_number(self):
        hs = spinful_jellium()
        exact, _ = number_block_view(exact_unitary(hs, 1.0))

        def step_fn(tau):
            circ = split_operator_step(hs, tau)
            return number_block_view(circuit_matrix(
                Circuit(circ.n_qubits, [*circ.gates, Gate("H", (0,))])))

        with pytest.raises(ValueError, match="leak"):
            measure_error_scaling(step_fn, exact, [2, 4], 1.0)

    def test_propagator_equals_block_eigh_of_dense_matrix(self):
        # the dense reference: one eigh per particle-number block of H
        grid = build_grid(1, 4, 4.0, spinful=True)
        hs = build_dual(grid, NucleiSpec.build([((1.3,), 1.0)]))
        hs.constant = 0.7
        want = []
        for block in number_block_view(hs.matrix())[0]:
            vals, vecs = np.linalg.eigh(block)
            want.append((vecs * np.exp(-1j * vals * 0.8)) @ vecs.conj().T)
        got = number_block_propagator(hs, 0.8)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_propagator_rejects_pair_creation(self):
        op = FermionOperator({((0, 1), (1, 1)): 1.0, ((1, 0), (0, 0)): 1.0})
        hs = HamiltonianSet(op, FermionOperator(), FermionOperator(), 0.0,
                            "test", None, 2)
        with pytest.raises(ValueError, match="particle number"):
            number_block_propagator(hs, 1.0)

    def test_number_blocks_partition_by_popcount(self):
        blocks = number_blocks(5)
        assert [len(b) for b in blocks] == [1, 5, 10, 10, 5, 1]
        assert sorted(np.concatenate(blocks).tolist()) == list(range(32))
        for k, block in enumerate(blocks):
            assert all(bin(int(x)).count("1") == k for x in block)
            assert list(block) == sorted(block)


# (dimension, modes per axis, spinful): every cell of at most 8 qubits
BLOCK_CELLS = [(1, 2, False), (1, 2, True), (1, 4, False), (1, 4, True),
               (1, 8, False), (2, 2, False), (2, 2, True), (3, 2, False)]


class TestBlockAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(BLOCK_CELLS), st.floats(2.0, 10.0),
           st.one_of(st.none(), st.tuples(
               st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
               st.floats(0.1, 3.0))),
           st.floats(0.0, 1.0, exclude_min=True), st.sampled_from([1, 2]))
    def test_equals_compiled_step_blocks(self, cell, volume, nucleus, tau,
                                         order):
        dimension, m, spinful = cell
        grid = build_grid(dimension, m, volume, spinful)
        nuclei = None
        if nucleus is not None:
            fractions, charge = nucleus
            nuclei = NucleiSpec.build([(
                [f * grid.cell.length for f in fractions[:dimension]],
                charge)])
        hs = build_dual(grid, nuclei)
        compiled, off = number_block_view(
            circuit_matrix(split_operator_step(hs, tau, order=order)))
        algebra = split_operator_blocks(hs, order)(tau)
        assert off == 0.0
        assert len(algebra) == len(compiled) == hs.n_qubits + 1
        for a, c in zip(algebra, compiled):
            assert a.shape == c.shape
            assert np.max(np.abs(a - c)) < 1e-12

    def test_rejects_plane_wave_and_bad_order(self):
        grid = build_grid(1, 2, 4.0)
        with pytest.raises(ValueError, match="dual"):
            split_operator_blocks(build_plane_wave(grid))
        with pytest.raises(ValueError, match="order"):
            split_operator_blocks(build_dual(grid), order=3)

    def test_block_view_shift_and_off_norm(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        blocks = number_blocks(4)
        for shift in (0, 1):
            got, off = number_block_view(m, shift)
            assert len(got) == 5 - shift
            kept = np.zeros((16, 16), dtype=bool)
            for k, block in enumerate(got):
                rows, cols = blocks[k + shift], blocks[k]
                assert np.array_equal(block, m[np.ix_(rows, cols)])
                kept[np.ix_(rows, cols)] = True
            assert off == pytest.approx(np.linalg.norm(m[~kept]), rel=1e-14)


class TestEstimateR:
    def test_time_homogeneity(self):
        base = estimate_r(2, 8, 4.0, 1.0, 1e-4)
        assert estimate_r(2, 8, 4.0, 4.0, 1e-4) == pytest.approx(8 * base,
                                                                 rel=0.01)

    def test_error_homogeneity(self):
        base = estimate_r(2, 8, 4.0, 1.0, 1e-4)
        assert estimate_r(2, 8, 4.0, 1.0, 2.5e-5) == pytest.approx(2 * base,
                                                                   rel=0.01)

    def test_frozen_reference_value(self):
        # eta^2 t^{3/2} / sqrt(eps) * (N/Omega)^{5/6} * sqrt(1 + eta (O/N)^{1/3})
        # = 4 / sqrt(1e-3) * 1 * sqrt(3) = 219.09..., ceil -> 220
        assert estimate_r(2, 4, 4.0, 1.0, 1e-3) == 220

    def test_floor_is_one(self):
        assert estimate_r(1, 2, 1.0, 1e-6, 1.0) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            estimate_r(2, 4, 4.0, -1.0, 1e-3)

    @pytest.mark.parametrize("t,eps,message", [
        (-1.0, 1e-3, "t must be positive, got -1.0"),
        (1.0, 0.0, "epsilon must be positive, got 0.0"),
        (1.0, float("nan"), "epsilon must be positive, got nan")])
    def test_message_names_the_argument(self, t, eps, message):
        with pytest.raises(ValueError, match=message):
            estimate_r(2, 4, 4.0, t, eps)


class TestFullEvolution:
    def test_energy_conservation(self):
        hs = spinful_jellium()
        n = hs.n_qubits
        h_op = build_qubit(hs)
        t = 1.0
        r = 8
        config = TrotterConfig(r=r, t=t)
        circ = trotter_circuit(hs, config)
        rng = np.random.default_rng(31)
        amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        amps /= np.linalg.norm(amps)
        psi0 = Statevector(n, amps)
        psi1 = apply_circuit(psi0, circ)
        e0 = expectation(psi0, h_op)
        e1 = expectation(psi1, h_op)
        err_op = np.linalg.norm(
            circuit_matrix(circ) - exact_unitary(hs, t), 2)
        h_norm = np.linalg.norm(hs.matrix(), 2)
        assert abs(e1 - e0) < 10 * err_op * h_norm

    @pytest.mark.parametrize("strategy", ["split_operator", "direct_jw"])
    def test_both_strategies_converge_hundredfold(self, strategy):
        hs = spinful_jellium()
        exact = exact_unitary(hs, 1.0)
        errs = {}
        for r in (4, 64):
            circ = trotter_circuit(hs, TrotterConfig(strategy=strategy,
                                                     r=r, t=1.0))
            errs[r] = np.linalg.norm(circuit_matrix(circ) - exact, 2)
        assert errs[64] < errs[4] / 100

    @pytest.mark.parametrize("order", [0, 3])
    def test_steps_reject_other_orders(self, order):
        hs = spinful_jellium()
        with pytest.raises(ValueError, match="order must be 1 or 2"):
            split_operator_step(hs, 0.1, order=order)
        with pytest.raises(ValueError, match="order must be 1 or 2"):
            direct_jw_step(build_qubit(hs), 0.1, order=order,
                           n_qubits=hs.n_qubits)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrotterConfig(strategy="magic")
        with pytest.raises(ValueError, match="order must be 1 or 2, got 3"):
            TrotterConfig(order=3)
        with pytest.raises(ValueError):
            TrotterConfig(r=0)


class TestDepthAudit:
    def test_planar_step_depth_linear(self):
        ratios = {}
        for m_modes, rows, cols in [(4, 2, 2), (16, 4, 4), (64, 8, 8)]:
            grid = build_grid(1, m_modes, float(m_modes))
            hs = build_dual(grid)
            step = split_operator_step(hs, 0.1,
                                       connectivity=("planar", rows, cols))
            ratios[m_modes] = step.depth() / m_modes
        assert max(ratios.values()) < 20
