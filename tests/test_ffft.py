import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwdual.fermion import RAISE, FermionOperator, fermion_matrix
from pwdual.ffft import _ffft_1d_ops, build_ffft_nd, mode_ladder_operator, \
    single_particle_transform, fswap_properties_report
from pwdual.geometry import build_grid
from pwdual.hamiltonian import build_dual, build_plane_wave
from pwdual.statevector import Circuit, Gate, circuit_matrix


def reference_single_particle_transform(circuit, n_orbitals):
    """The dense route: W[p, q] read off C^dag a^dag_p C |vac> with the full
    circuit matrix and one occupation-basis ladder matrix per orbital."""
    u = circuit_matrix(circuit)
    w = np.zeros((n_orbitals, n_orbitals), dtype=complex)
    vac = np.zeros(2 ** n_orbitals, dtype=complex)
    vac[0] = 1.0
    for p in range(n_orbitals):
        adag = fermion_matrix(FermionOperator.raising(p), n_orbitals)
        vec = u.conj().T @ adag @ u @ vac
        for q in range(n_orbitals):
            w[p, q] = vec[1 << q]
    return w


def ffft_1d(m, connectivity=None):
    """The FFFT on a 1D spinless grid of m modes."""
    return build_ffft_nd(build_grid(1, m, float(m)), connectivity)


def dft_matrix(m):
    j, p = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    return np.exp(-2j * np.pi * j * p / m) / np.sqrt(m)


class TestButterfly:
    def test_k0_is_ladder_hadamard(self):
        u = circuit_matrix(Circuit(2, [Gate("FK", (0, 1), angle=0.0)]))
        adag_p = fermion_matrix(FermionOperator.raising(0), 2)
        adag_q = fermion_matrix(FermionOperator.raising(1), 2)
        assert np.allclose(u.conj().T @ adag_p @ u,
                           (adag_p + adag_q) / np.sqrt(2))

    def test_k0_vacuum_up_to_phase(self):
        u = circuit_matrix(Circuit(2, [Gate("FK", (0, 1), angle=0.0)]))
        vac = np.zeros(4)
        vac[0] = 1.0
        out = u @ vac
        assert abs(abs(out[0]) - 1.0) < 1e-12

    def test_half_period_twiddle_is_minus_one(self):
        m = 8
        twiddle = 2.0 * np.pi * (m // 2) / m
        u = circuit_matrix(Circuit(2, [Gate("FK", (0, 1), angle=twiddle)]))
        adag_p = fermion_matrix(FermionOperator.raising(0), 2)
        adag_q = fermion_matrix(FermionOperator.raising(1), 2)
        assert np.allclose(u.conj().T @ adag_p @ u,
                           (adag_p - adag_q) / np.sqrt(2))


class TestOneDimensional:
    def test_m2_single_butterfly(self):
        circ = ffft_1d(2)
        assert [g.kind for g in circ.gates] == ["FK"]

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_single_particle_matrix_is_dft(self, m):
        w = single_particle_transform(ffft_1d(m))
        assert np.max(np.abs(w - dft_matrix(m))) < 1e-12

    def test_m4_full_conjugation(self):
        m = 4
        grid = build_grid(1, m, float(m))
        circ = build_ffft_nd(grid)
        u = circuit_matrix(circ)
        for nu in grid.nu_list:
            slot = grid.mode_slot(nu)
            adag = fermion_matrix(FermionOperator.raising(slot), m)
            rhs = fermion_matrix(mode_ladder_operator(grid, nu), m)
            assert np.max(np.abs(u.conj().T @ adag @ u - rhs)) < 1e-12

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            ffft_1d(6)

    def test_gate_count_and_depth_scaling(self):
        for m in (2, 4, 8, 16):
            circ = ffft_1d(m)
            assert len(circ.gates) <= 3 * m * m * max(np.log2(m), 1)
            assert circ.depth() <= 3 * m * max(np.log2(m), 1)

    def test_planar_legality(self):
        circ = ffft_1d(8, connectivity=("planar", 2, 4))
        circ.check_connectivity()

    def test_planar_lattice_must_hold_every_qubit(self):
        grid = build_grid(1, 16, 16.0)
        with pytest.raises(ValueError, match="2x2 has 4 sites, not 16"):
            build_ffft_nd(grid, connectivity=("planar", 2, 2))


class TestMultiDimensional:
    def test_d1_matches_1d_builder(self):
        grid = build_grid(1, 4, 4.0)
        a = build_ffft_nd(grid)
        b = Circuit(4, _ffft_1d_ops(list(range(4))))
        assert a.gates == b.gates
        assert np.allclose(circuit_matrix(a), circuit_matrix(b))

    @pytest.mark.parametrize("d,m,spinful", [
        (2, 2, False), (1, 2, True), (1, 4, True), (3, 2, False),
    ])
    def test_conjugation_identity(self, d, m, spinful):
        grid = build_grid(d, m, 2.0 ** d, spinful=spinful)
        circ = build_ffft_nd(grid)
        u = circuit_matrix(circ)
        n = grid.n_qubits
        spins = ("up", "down") if spinful else (None,)
        for nu in grid.nu_list:
            for spin in spins:
                q = grid.qubit_index(grid.index_site(grid.mode_slot(nu)), spin)
                adag = fermion_matrix(FermionOperator.raising(q), n)
                rhs = fermion_matrix(mode_ladder_operator(grid, nu, spin), n)
                assert np.max(np.abs(u.conj().T @ adag @ u - rhs)) < 1e-9

    @pytest.mark.parametrize("d,m,spinful", [
        (1, 8, False), (1, 4, True), (2, 2, False), (2, 2, True),
        (3, 2, False),
    ])
    def test_single_particle_transform_matches_dense_route(self, d, m,
                                                            spinful):
        grid = build_grid(d, m, 2.0 ** d, spinful=spinful)
        circ = build_ffft_nd(grid)
        w = single_particle_transform(circ)
        ref = reference_single_particle_transform(circ, grid.n_qubits)
        assert np.max(np.abs(w - ref)) < 1e-14
        assert np.max(np.abs(w @ w.conj().T - np.eye(grid.n_qubits))) \
            < 1e-14

    def test_unitarity(self):
        grid = build_grid(2, 2, 4.0, spinful=True)
        u = circuit_matrix(build_ffft_nd(grid))
        assert np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) < 1e-10

    def test_particle_number_conserved(self):
        grid = build_grid(2, 2, 4.0)
        u = circuit_matrix(build_ffft_nd(grid))
        n_op = np.diag(np.bitwise_count(np.arange(2 ** grid.n_qubits)))
        assert np.max(np.abs(u @ n_op - n_op @ u)) < 1e-10


# (dimension, modes per axis, spinful) with at most 128 qubits
grids = st.sampled_from([
    (d, m, spinful)
    for d, m_max in ((1, 64), (2, 8), (3, 4))
    for m in (2, 4, 8, 16, 32, 64) if m <= m_max
    for spinful in (False, True) if (1 + spinful) * m ** d <= 128])


class TestSingleParticleTransform:
    @settings(max_examples=25, deadline=None)
    @given(grids)
    def test_unitary_and_spin_blocked(self, cell):
        d, m, spinful = cell
        grid = build_grid(d, m, 2.0 ** d, spinful=spinful)
        w = single_particle_transform(build_ffft_nd(grid))
        assert np.max(np.abs(w @ w.conj().T - np.eye(grid.n_qubits))) \
            < 1e-13
        if spinful:
            parity = np.arange(grid.n_qubits) % 2
            assert not np.any(w[parity[:, None] != parity[None, :]])

    @pytest.mark.parametrize("d,m,spinful", [(3, 4, False), (2, 8, True)])
    def test_rows_are_mode_ladder_operators(self, d, m, spinful):
        grid = build_grid(d, m, 2.0 ** d, spinful=spinful)
        circ = build_ffft_nd(grid)
        tracemalloc.start()
        try:
            w = single_particle_transform(circ)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        for nu in grid.nu_list:
            for spin in (("up", "down") if spinful else (None,)):
                p = grid.qubit_index(grid.index_site(grid.mode_slot(nu)), spin)
                row = np.zeros(grid.n_qubits, dtype=complex)
                for ((q, flag),), c in mode_ladder_operator(grid, nu,
                                                           spin).terms.items():
                    assert flag == RAISE
                    row[q] = c
                assert np.max(np.abs(w[p] - row)) < 1e-12

    @pytest.mark.parametrize("gate", [
        Gate("CNOT", (0, 1)), Gate("SWAP", (0, 1)),
        Gate("CPHASE", (0, 1), angle=0.3), Gate("RZ", (0,), angle=0.3),
        Gate("PEXP", (0, 1), angle=0.3, letters="XY"),
        Gate("FSWAP", (0, 2)),
    ])
    def test_rejects_other_gates(self, gate):
        with pytest.raises(ValueError, match=gate.kind):
            single_particle_transform(Circuit(3, [gate]))


class TestKineticDiagonalization:
    @pytest.mark.parametrize("d,m,spinful", [(1, 4, False), (1, 2, True),
                                             (2, 2, False)])
    def test_conjugated_mode_energies_give_hopping_matrix(self, d, m, spinful):
        grid = build_grid(d, m, 3.0 ** d, spinful=spinful)
        circ = build_ffft_nd(grid)
        u = circuit_matrix(circ)
        n = grid.n_qubits
        diag = FermionOperator()
        spins = ("up", "down") if spinful else (None,)
        for nu in grid.nu_list:
            for spin in spins:
                q = grid.qubit_index(grid.index_site(grid.mode_slot(nu)), spin)
                diag += FermionOperator.number(q, grid.k_squared(nu) / 2.0)
        t_diag = fermion_matrix(diag, n)
        t_dual = fermion_matrix(build_dual(grid).kinetic, n)
        assert np.max(np.abs(u.conj().T @ t_diag @ u - t_dual)) < 1e-9

    def test_isospectral_transport(self):
        grid = build_grid(1, 4, 4.0)
        t_dual = fermion_matrix(build_dual(grid).kinetic, grid.n_qubits)
        t_pw = fermion_matrix(build_plane_wave(grid).kinetic, grid.n_qubits)
        assert np.allclose(np.linalg.eigvalsh(t_dual),
                           np.linalg.eigvalsh(t_pw), atol=1e-10)


class TestStageListing:
    def test_structure_and_counts(self):
        from pwdual.ffft import stage_listing
        circ = ffft_1d(4)
        listing = stage_listing(circ)
        assert listing["gate_count"] == len(circ.gates)
        assert listing["depth"] == circ.depth()
        total = sum(stage["gates"] for stage in listing["stages"])
        assert total == len(circ.gates)
        kinds = {stage["stage"] for stage in listing["stages"]}
        assert kinds == {"swap_sort", "butterfly"}
        for stage in listing["stages"]:
            if stage["stage"] == "butterfly":
                assert all(len(entry) == 3 for entry in stage["pairs"])

    def test_json_compatible(self):
        import json
        from pwdual.ffft import stage_listing
        listing = stage_listing(ffft_1d(8))
        assert json.loads(json.dumps(listing)) == listing


class TestFswapProperties:
    def test_report_all_small(self):
        report = fswap_properties_report((0.0, np.pi / 8, np.pi / 4, 1.0))
        for name, err in report.items():
            assert err < 1e-10, name

    def test_theta_zero_is_trivial(self):
        report = fswap_properties_report((0.0,))
        assert report["partial_swap_theta_0"] < 1e-15
