import itertools
import math

import numpy as np
import pytest

from pwdual.fermion import FermionOperator, RAISE, LOWER, fermion_matrix, \
    jordan_wigner
from pwdual.geometry import build_grid
from pwdual.hamiltonian import build_plane_wave, build_dual, build_qubit, \
    build_finite_difference, norm_bounds, onsite_repulsion, NucleiSpec
from pwdual.pauli import qubit_operator_matrix


def jellium_dual(d, m, omega, spinful):
    return build_dual(build_grid(d, m, omega, spinful))


def jellium_pw(d, m, omega, spinful):
    return build_plane_wave(build_grid(d, m, omega, spinful))


class TestPlaneWave:
    def test_jellium_has_no_external(self):
        hs = jellium_pw(1, 4, 5.0, False)
        assert hs.external.terms == {}

    def test_kinetic_m2(self):
        hs = jellium_pw(1, 2, 2 * np.pi, False)
        grid = hs.grid
        # slot of mode -1 carries k^2 = 1, slot of mode 0 carries 0
        slot = grid.mode_slot((-1,))
        key = ((slot, RAISE), (slot, LOWER))
        assert set(hs.kinetic.terms) == {key}
        assert hs.kinetic.terms[key] == pytest.approx(0.5)

    @pytest.mark.parametrize("m", [2, 4])
    def test_interaction_against_momentum_conservation_oracle(self, m):
        """Brute force: enumerate all (p,q,r,s) mode tuples, keep those with
        wrap(p - s) == wrap(r - q) != 0, coefficient 2*pi/(Omega k^2)."""
        omega = 3.7
        hs = jellium_pw(1, m, omega, False)
        grid = hs.grid
        oracle = {}
        modes = list(grid.nu_list)
        for p, q, r, s in itertools.product(modes, repeat=4):
            if p == q:  # (p,sigma) != (q,sigma') spinless
                continue
            nu = grid.wrap_mode(np.subtract(p, s))
            if nu != grid.wrap_mode(np.subtract(r, q)) or not any(nu):
                continue
            key = (
                (grid.mode_slot(p), RAISE), (grid.mode_slot(q), RAISE),
                (grid.mode_slot(r), LOWER), (grid.mode_slot(s), LOWER),
            )
            coeff = 2 * np.pi / (omega * grid.k_squared(nu))
            oracle[key] = oracle.get(key, 0.0) + coeff
        assert set(hs.interaction.terms) == set(oracle)
        for key, val in oracle.items():
            assert hs.interaction.terms[key] == pytest.approx(val)

    @pytest.mark.parametrize("m,expected", [(2, 2), (4, 36)])
    def test_interaction_term_count_1d(self, m, expected):
        # ordered pairs (p != q) times nonzero nu: M(M-1)(M-1)
        hs = jellium_pw(1, m, 1.0, False)
        assert len(hs.interaction.terms) == expected

    def test_hermitian_with_nuclei(self):
        grid = build_grid(1, 4, 4.0, False)
        hs = build_plane_wave(grid, nuclei=[((1.3,), 2.0)])
        assert hs.external.is_hermitian()
        assert hs.total().is_hermitian()

    def test_rejects_outside_nucleus(self):
        grid = build_grid(1, 2, 4.0)
        with pytest.raises(ValueError):
            build_plane_wave(grid, nuclei=[((9.0,), 1.0)])

    def test_truncation_noop_beyond_diameter(self):
        """A cutoff past the cell diameter cuts nothing, so the pair kernel
        is 1/k^2 and the interaction keeps its bits."""
        grid = build_grid(2, 4, 16.0, False)
        diameter = max(
            grid.min_image_distance((0, 0), p) for p in grid.site_vectors()
        )
        full = build_plane_wave(grid)
        trunc = build_plane_wave(grid, truncated_D=diameter)
        assert trunc.interaction.terms == full.interaction.terms


class TestDual:
    def test_interaction_is_density_density(self):
        hs = jellium_dual(1, 4, 4.0, True)
        for key in hs.interaction.terms:
            (a, fa), (b, fb), (c, fc), (d, fd) = key
            assert (fa, fb, fc, fd) == (RAISE, LOWER, RAISE, LOWER)
            assert a == b and c == d and a < c

    def test_one_term_per_unordered_pair(self):
        hs = jellium_dual(1, 4, 4.0, True)
        n = hs.n_qubits
        assert len(hs.interaction.terms) == n * (n - 1) // 2

    def test_translation_invariance(self):
        grid = build_grid(1, 4, 4.0, False)
        hs = build_dual(grid)
        coeffs = {}
        for key, val in hs.interaction.terms.items():
            p, q = key[0][0], key[2][0]
            delta = grid.wrap_mode((q - p,))
            coeffs.setdefault(abs(delta[0]), set()).add(round(val, 12))
        for vals in coeffs.values():
            assert len(vals) == 1

    def test_external_matches_plane_wave_by_fourier_oracle(self):
        """Conjugate the plane-wave external single-particle matrix with the
        explicit DFT and compare to the diagonal dual coefficients."""
        grid = build_grid(1, 4, 4.0, False)
        nuclei = [((0.7,), 1.5), ((2.2,), 0.5)]
        pw = build_plane_wave(grid, nuclei=nuclei)
        dual = build_dual(grid, nuclei=nuclei)
        n = grid.n_spatial
        u_pw = np.zeros((n, n), dtype=complex)
        for key, coeff in pw.external.terms.items():
            u_pw[key[0][0], key[1][0]] = coeff
        dft = np.zeros((n, n), dtype=complex)
        for slot in range(n):
            nu = grid.slot_mode(slot)
            k = grid.k_vector(nu)
            for p in range(n):
                r = grid.r_vector((p,))
                dft[slot, p] = np.exp(-1j * float(k @ r)) / np.sqrt(n)
        u_dual = dft.conj().T @ u_pw @ dft
        expected = np.zeros((n, n), dtype=complex)
        for key, coeff in dual.external.terms.items():
            expected[key[0][0], key[0][0]] = coeff
        assert np.max(np.abs(u_dual - expected)) < 1e-10

    @pytest.mark.parametrize("d,m,spinful", [
        (1, 2, False), (1, 2, True), (1, 4, False), (2, 2, False),
    ])
    def test_isospectral_with_plane_wave(self, d, m, spinful):
        omega = 2.9 ** d
        dual = jellium_dual(d, m, omega, spinful)
        pw = jellium_pw(d, m, omega, spinful)
        assert np.max(np.abs(dual.spectrum() - pw.spectrum())) < 1e-9

    def test_isospectral_with_nuclei(self):
        grid = build_grid(1, 4, 4.0, False)
        nuclei = [((1.1,), 2.0)]
        dual = build_dual(grid, nuclei=nuclei)
        pw = build_plane_wave(grid, nuclei=nuclei)
        assert np.max(np.abs(dual.spectrum() - pw.spectrum())) < 1e-9

    @pytest.mark.parametrize("d,m,omega,spinful,D,nuclei", [
        (1, 4, 4.0, True, 1.5, None),
        (1, 8, 8.0, False, 2.5, None),
        (2, 2, 4.0, True, 1.5, None),
        (1, 4, 4.0, True, 1.5, [((1.3,), 1.0)]),
    ])
    def test_isospectral_with_truncation(self, d, m, omega, spinful, D,
                                         nuclei):
        """Both bases cut the same pair table at D; the plane-wave kernel
        is its transform, zero mode included. A 1 - cos(|k| D) kernel
        missed by 7.867, 23.97, 0.591 and 7.563."""
        grid = build_grid(d, m, omega, spinful)
        dual = build_dual(grid, nuclei=nuclei, truncated_D=D)
        pw = build_plane_wave(grid, nuclei=nuclei, truncated_D=D)
        assert np.max(np.abs(dual.spectrum() - pw.spectrum())) < 1e-9

    def test_truncation_noop_beyond_diameter(self):
        grid = build_grid(2, 4, 16.0, False)
        diameter = max(
            grid.min_image_distance((0, 0), p) for p in grid.site_vectors()
        )
        full = build_dual(grid)
        trunc = build_dual(grid, truncated_D=diameter)
        assert trunc.interaction.terms == full.interaction.terms

    def test_truncation_drops_far_pairs(self):
        grid = build_grid(1, 4, 4.0, False)
        trunc = build_dual(grid, truncated_D=1.0)
        for key in trunc.interaction.terms:
            p, q = key[0][0], key[2][0]
            assert grid.min_image_distance((p,), (q,)) <= 1.0

    def test_components_conserve_particle_number(self):
        hs = jellium_dual(1, 4, 4.0, False)
        n_op = np.diag(np.bitwise_count(np.arange(2 ** hs.n_qubits)))
        for part in (hs.kinetic, hs.interaction):
            mat = fermion_matrix(part, hs.n_qubits)
            assert np.max(np.abs(n_op @ mat - mat @ n_op)) < 1e-10
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-10


class TestQubitForm:
    def test_string_census(self):
        hs = jellium_dual(1, 4, 4.0, False)
        op = build_qubit(hs)
        for key in op.terms:
            letters = [letter for _, letter in key]
            if len(key) <= 1:
                assert letters in ([], ["Z"])
            elif all(l == "Z" for l in letters):
                assert len(key) == 2
            else:
                assert letters[0] in ("X", "Y") and letters[-1] == letters[0]
                assert all(l == "Z" for l in letters[1:-1])
                qubits = [q for q, _ in key]
                assert qubits == list(range(qubits[0], qubits[-1] + 1))

    def test_identity_coefficient_spinful_jellium(self):
        grid = build_grid(1, 2, 2.0, spinful=True)
        hs = build_dual(grid)
        op = build_qubit(hs)
        expected = sum(
            grid.k_squared(nu) / 2
            - np.pi * grid.n_spatial / (grid.cell.volume * grid.k_squared(nu))
            for nu in grid.nu_list if any(nu)
        )
        assert op.constant().real == pytest.approx(expected, abs=1e-12)

    def test_matrix_equals_direct_jw(self):
        grid = build_grid(1, 2, 3.0, spinful=True)
        hs = build_dual(grid, constant=0.25)
        op = build_qubit(hs)
        lhs = qubit_operator_matrix(op, hs.n_qubits)
        rhs = qubit_operator_matrix(
            jordan_wigner(hs.total(), hs.n_qubits), hs.n_qubits
        ) + 0.25 * np.eye(2 ** hs.n_qubits)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_qubit_matrix_matches_occupation_matrix(self):
        hs = jellium_dual(1, 4, 4.0, False)
        lhs = qubit_operator_matrix(build_qubit(hs), hs.n_qubits)
        assert np.max(np.abs(lhs - hs.matrix())) < 1e-10

    def test_requires_dual(self):
        with pytest.raises(ValueError):
            build_qubit(jellium_pw(1, 2, 1.0, False))


class TestFiniteDifference:
    def test_analytic_onsite_value(self):
        assert onsite_repulsion(1.0) == pytest.approx(0.941156, abs=1e-6)
        assert onsite_repulsion(0.5) == pytest.approx(2 * 0.941156, abs=2e-6)

    def test_single_site_spinless_has_no_interaction(self):
        hs, info = build_finite_difference((1,), 1.0, spinful=False)
        assert hs.interaction.terms == {}
        assert info.n_pair_terms == 0

    def test_2x1x1_spinful_counts_and_hermiticity(self):
        hs, info = build_finite_difference((2, 1, 1), 1.0, spinful=True)
        n = info.n_spin_orbitals
        assert n == 4
        assert info.n_onsite == n // 2
        assert info.n_pair_terms == n * (n - 1) // 2
        assert info.tally == n * n // 2
        mat = hs.matrix()
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12

    def test_kinetic_stencil_values(self):
        h = 0.5
        hs, _ = build_finite_difference((2, 1, 1), h, spinful=False)
        diag = hs.kinetic.terms[((0, RAISE), (0, LOWER))]
        assert diag == pytest.approx(3 * h)  # (h/2) * 2d with d = 3
        hop = hs.kinetic.terms[((1, RAISE), (0, LOWER))]
        assert hop == pytest.approx(-h / 2)

    def test_onsite_override(self):
        hs, _ = build_finite_difference((1, 1), 1.0, spinful=True, lam=2.5)
        key = ((0, RAISE), (0, LOWER), (1, RAISE), (1, LOWER))
        assert hs.interaction.terms[key] == pytest.approx(2.5)

    def test_external_attraction(self):
        hs, _ = build_finite_difference(
            (2,), 1.0, nuclei=[((0.25,), 1.0)], spinful=False)
        u0 = hs.external.terms[((0, RAISE), (0, LOWER))]
        assert u0 == pytest.approx(-1.0 / 0.25)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            build_finite_difference((2,), -1.0)


def random_fixed_particle_state(n_qubits, eta, rng):
    dim = 2 ** n_qubits
    amps = np.zeros(dim, dtype=complex)
    for idx in range(dim):
        if bin(idx).count("1") == eta:
            amps[idx] = rng.normal() + 1j * rng.normal()
    amps /= np.linalg.norm(amps)
    return amps


class TestNormBounds:
    def test_jellium_has_zero_external_bound(self):
        hs = jellium_dual(1, 4, 4.0, False)
        assert norm_bounds(hs, 2)["max_u"] == 0.0

    def test_kinetic_bound_value(self):
        grid = build_grid(1, 2, 2 * np.pi, False)
        hs = build_dual(grid)
        eta = 1
        assert norm_bounds(hs, eta)["max_t"] == pytest.approx(
            eta * 0.5 * max(grid.k_squared(nu) for nu in grid.nu_list))

    def test_sampled_expectations_respect_bounds(self):
        grid = build_grid(1, 4, 4.0, False)
        hs = build_dual(grid)
        eta = 2
        bounds = norm_bounds(hs, eta)
        t_mat = fermion_matrix(hs.kinetic, hs.n_qubits)
        v_mat = fermion_matrix(hs.interaction, hs.n_qubits)
        rng = np.random.default_rng(17)
        for _ in range(500):
            psi = random_fixed_particle_state(hs.n_qubits, eta, rng)
            assert abs(np.real(psi.conj() @ t_mat @ psi)) <= bounds["max_t"] + 1e-12
            assert abs(np.real(psi.conj() @ v_mat @ psi)) <= bounds["max_v"] + 1e-12

    def test_triangle_h_dominates_operator_norm(self):
        hs = jellium_dual(1, 4, 4.0, False)
        bounds = norm_bounds(hs, 2)
        opnorm = np.max(np.abs(np.linalg.eigvalsh(hs.matrix())))
        assert bounds["triangle_h"] + 1e-12 >= opnorm

    def test_requires_dual(self):
        with pytest.raises(ValueError):
            norm_bounds(jellium_pw(1, 2, 1.0, False), 1)

    def test_compiles_no_qubit_operator(self, monkeypatch):
        import pwdual.hamiltonian as ham

        def refuse(*args):
            raise AssertionError("norm_bounds compiled the JW operator")
        monkeypatch.setattr(ham, "jordan_wigner", refuse)
        bounds = norm_bounds(jellium_dual(1, 4, 4.0, True), 2)
        assert set(bounds) == {"max_v", "max_u", "max_t", "max_h",
                               "triangle_t", "triangle_h"}


class TestParticleNumberAllRepresentations:
    @pytest.mark.parametrize("builder", [build_plane_wave, build_dual])
    def test_emitted_hamiltonians_commute_with_number(self, builder):
        grid = build_grid(1, 4, 4.0, False)
        hs = builder(grid, nuclei=[((0.8,), 1.0)])
        n_op = np.diag(np.bitwise_count(np.arange(2 ** hs.n_qubits)))
        mat = fermion_matrix(hs.total(), hs.n_qubits)
        assert np.max(np.abs(n_op @ mat - mat @ n_op)) < 1e-10

    def test_finite_difference_commutes_with_number(self):
        hs, _ = build_finite_difference((2, 1, 1), 1.0,
                                        nuclei=[((0.3, 0.2, 0.1), 2.0)],
                                        spinful=True)
        n_op = np.diag(np.bitwise_count(np.arange(2 ** hs.n_qubits)))
        mat = fermion_matrix(hs.total(), hs.n_qubits)
        assert np.max(np.abs(n_op @ mat - mat @ n_op)) < 1e-10


class TestBlockStructure:
    def test_particle_sector_spectra_union(self):
        hs = jellium_dual(1, 2, 2.0, True)
        mat = hs.matrix()
        full = np.sort(np.linalg.eigvalsh(mat))
        pieces = []
        dim = mat.shape[0]
        for eta in range(hs.n_qubits + 1):
            idx = [i for i in range(dim) if bin(i).count("1") == eta]
            block = mat[np.ix_(idx, idx)]
            pieces.extend(np.linalg.eigvalsh(block))
        assert np.allclose(np.sort(pieces), full, atol=1e-10)
