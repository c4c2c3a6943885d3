import numpy as np
import pytest
import scipy.linalg

from pwdual.pauli import QubitOperator, qubit_operator_matrix
from pwdual.statevector import Statevector, Gate, Circuit, apply_gate, \
    apply_circuit, circuit_matrix, exact_evolve, expectation, \
    sample_bitstrings, dumps_circuit, loads_circuit, dumps_state, \
    loads_state, fk_gate, make_rng


def kron_embed(mat2q, t0, t1, n):
    """Embed a two-qubit matrix (t0 = low bit of the gate basis) into n qubits."""
    dim = 2 ** n
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        b0 = (col >> t0) & 1
        b1 = (col >> t1) & 1
        base = col & ~(1 << t0) & ~(1 << t1)
        for row_pat in range(4):
            r0, r1 = row_pat & 1, (row_pat >> 1) & 1
            row = base | (r0 << t0) | (r1 << t1)
            out[row, col] += mat2q[row_pat, 2 * b1 + b0]
    return out


class TestGateApplication:
    def test_rz_phase_convention(self):
        state = Statevector.zero_state(1)
        out = apply_gate(state, Gate("RZ", (0,), angle=0.7))
        assert out.amplitudes[0] == pytest.approx(np.exp(-0.35j))

    def test_fswap_action(self):
        # |01> means qubit 0 occupied
        for bits, expect_idx, sign in [((1, 0), 2, 1), ((0, 1), 1, 1),
                                       ((1, 1), 3, -1), ((0, 0), 0, 1)]:
            state = Statevector.basis_state(2, bits)
            out = apply_gate(state, Gate("FSWAP", (0, 1)))
            assert out.amplitudes[expect_idx] == pytest.approx(sign)

    def test_pauliexp_zz(self):
        state = Statevector.zero_state(2)
        out = apply_gate(state, Gate("PEXP", (0, 1), angle=0.3, letters="ZZ"))
        assert out.amplitudes[0] == pytest.approx(np.exp(-0.3j))

    def test_phasen(self):
        state = Statevector.basis_state(2, (0, 1))
        out = apply_gate(state, Gate("PHASEN", (1,), angle=0.9))
        assert out.amplitudes[2] == pytest.approx(np.exp(0.9j))
        out0 = apply_gate(Statevector.zero_state(2), Gate("PHASEN", (1,), angle=0.9))
        assert out0.amplitudes[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("kind,angle", [
        ("CNOT", 0.0), ("CZ", 0.0), ("SWAP", 0.0), ("FSWAP", 0.0),
        ("FSWAP_POW", 0.37), ("CPHASE", 1.1), ("FK", 0.0),
    ])
    def test_two_qubit_gate_matches_embedding(self, kind, angle):
        # exhaustive basis-state agreement on 3 qubits, non-adjacent targets
        n, t0, t1 = 3, 0, 2
        gate = Gate(kind, (t0, t1), angle=angle)
        embedded = kron_embed(gate.matrix(), t0, t1, n)
        for idx in range(2 ** n):
            state = Statevector.basis_state(n, idx)
            out = apply_gate(state, gate)
            assert np.allclose(out.amplitudes, embedded[:, idx])

    def test_single_qubit_gates_match_embedding(self):
        n, t = 2, 1
        for kind, angle in [("H", 0.0), ("X", 0.0), ("RZ", 0.8),
                            ("PHASEN", 0.4), ("GPHASE", 1.3)]:
            gate = Gate(kind, (t,), angle=angle)
            m = gate.matrix()
            embedded = np.kron(m, np.eye(2))  # qubit 1 is the high bit
            for idx in range(4):
                out = apply_gate(Statevector.basis_state(n, idx), gate)
                assert np.allclose(out.amplitudes, embedded[:, idx])

    def test_gate_inverses(self):
        rng = np.random.default_rng(0)
        n = 3
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        gates = [Gate("H", (0,)), Gate("RZ", (1,), angle=0.3),
                 Gate("FK", (0, 1), angle=1.1), Gate("FSWAP", (1, 2)),
                 Gate("PEXP", (0, 2), angle=0.5, letters="XY"),
                 Gate("FSWAP_POW", (0, 1), angle=0.25),
                 Gate("CPHASE", (1, 2), angle=0.7)]
        for g in gates:
            state = Statevector(n, amps.copy())
            out = apply_gate(apply_gate(state, g), g.inverse())
            assert np.allclose(out.amplitudes, amps)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            apply_gate(Statevector.zero_state(1), Gate("H", (1,)))


class TestUnitarity:
    def test_norm_drift_over_random_gates(self):
        rng = np.random.default_rng(42)
        n = 10
        state = Statevector.zero_state(n)
        kinds = ["H", "X", "RZ", "CNOT", "CZ", "FSWAP", "FK", "PHASEN",
                 "FSWAP_POW", "CPHASE"]
        circ = Circuit(n)
        for _ in range(1000):
            kind = kinds[rng.integers(len(kinds))]
            if kind in ("H", "X", "RZ", "PHASEN"):
                targets = (int(rng.integers(n)),)
            else:
                targets = tuple(rng.choice(n, size=2, replace=False).tolist())
            circ.add(Gate(kind, targets, angle=float(rng.uniform(0, 2 * np.pi))))
        out = apply_circuit(state, circ)
        assert abs(out.norm() - 1.0) < 1e-10


class TestExactEvolve:
    def test_t_zero_identity(self):
        h = QubitOperator({((0, "X"),): 0.5})
        state = Statevector.basis_state(2, 1)
        out = exact_evolve(h, 0.0, state)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_z_rotation_of_plus_state(self):
        h = QubitOperator({((0, "Z"),): 1.0})
        plus = Statevector(1, np.array([1, 1]) / np.sqrt(2))
        out = exact_evolve(h, np.pi / 2, plus)
        minus = np.array([1, -1]) / np.sqrt(2)
        # up to global phase
        overlap = abs(np.vdot(minus, out.amplitudes))
        assert overlap == pytest.approx(1.0)

    def test_jellium_matches_expm_path(self):
        from pwdual.geometry import build_grid
        from pwdual.hamiltonian import build_dual, build_qubit
        hs = build_dual(build_grid(1, 2, 4.0))
        op = build_qubit(hs)
        t = 0.7
        mat = scipy.linalg.expm(
            -1j * t * qubit_operator_matrix(op, hs.n_qubits))
        rng = np.random.default_rng(6)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        out = exact_evolve(op, t, Statevector(2, amps.copy()))
        assert np.allclose(out.amplitudes, mat @ amps, atol=1e-10)

    def test_against_expm(self):
        rng = np.random.default_rng(1)
        h = QubitOperator()
        for key in [((0, "Z"),), ((1, "X"),), ((0, "Z"), (1, "Z")),
                    ((0, "X"), (1, "Y"))]:
            h.terms[key] = rng.normal()
        t = 0.83
        mat = scipy.linalg.expm(-1j * t * qubit_operator_matrix(h, 2))
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        out = exact_evolve(h, t, Statevector(2, amps.copy()))
        assert np.allclose(out.amplitudes, mat @ amps, atol=1e-10)


class TestExpectation:
    def test_z_on_zero(self):
        z = QubitOperator({((0, "Z"),): 1.0})
        assert expectation(Statevector.zero_state(1), z) == pytest.approx(1.0)

    def test_z_on_plus(self):
        z = QubitOperator({((0, "Z"),): 1.0})
        plus = Statevector(1, np.array([1, 1]) / np.sqrt(2))
        assert expectation(plus, z) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        bad = QubitOperator({((0, "Z"),): 1j})
        with pytest.raises(ValueError):
            expectation(Statevector.zero_state(1), bad)

    def test_matches_matrix_path(self):
        rng = np.random.default_rng(8)
        n = 4
        h = QubitOperator()
        letters = ["X", "Y", "Z"]
        for _ in range(8):
            qs = rng.choice(n, size=rng.integers(1, 4), replace=False)
            key = tuple(sorted((int(q), letters[rng.integers(3)]) for q in qs))
            h.terms[key] = h.terms.get(key, 0) + rng.normal()
        amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        amps /= np.linalg.norm(amps)
        direct = expectation(Statevector(n, amps), h)
        mat = qubit_operator_matrix(h, n)
        assert direct == pytest.approx(float(np.real(amps.conj() @ mat @ amps)))


class TestSampling:
    def test_zero_state_all_zero(self):
        out = sample_bitstrings(Statevector.zero_state(3), shots=100, seed=4)
        assert np.all(out == 0)

    def test_plus_state_frequencies(self):
        plus = Statevector(1, np.array([1, 1]) / np.sqrt(2))
        shots = 10000
        out = sample_bitstrings(plus, shots=shots, seed=5)
        freq = np.mean(out)
        sigma = 0.5 / np.sqrt(shots)
        assert abs(freq - 0.5) < 5 * sigma

    def test_deterministic_for_seed(self):
        plus = Statevector(1, np.array([1, 1]) / np.sqrt(2))
        a = sample_bitstrings(plus, shots=50, seed=9)
        b = sample_bitstrings(plus, shots=50, seed=9)
        assert np.array_equal(a, b)

    def test_rotation_circuit(self):
        circ = Circuit(1)
        circ.add(Gate("H", (0,)))
        out = sample_bitstrings(Statevector.zero_state(1),
                                basis_rotation=circ, shots=200, seed=3)
        assert 0 < np.mean(out) < 1

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            sample_bitstrings(Statevector.zero_state(1), shots=0)

    @pytest.mark.parametrize("amps", [[0.5, np.nan, 0.5, 0.5],
                                      [0.5, np.inf, 0.5, 0.5], [0, 0, 0, 0]])
    def test_rejects_unnormalizable_amplitudes(self, amps):
        state = Statevector(2, np.array(amps, dtype=complex))
        with pytest.raises(ValueError, match="finite and > 0"):
            sample_bitstrings(state, shots=10, seed=1)

    def test_seed_sequence_rows_equal_single_seeds_and_choice(self):
        rng = np.random.default_rng(8)
        for n in range(1, 7):
            amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            amps[rng.random(2 ** n) < 0.3] = 0.0
            amps[0] = 0.7
            state = Statevector(n, amps / np.linalg.norm(amps))
            seeds = [int(s) for s in rng.integers(0, 2 ** 40, size=5)]
            rows = sample_bitstrings(state, shots=300, seed=seeds)
            probs = np.abs(state.amplitudes) ** 2
            probs = probs / probs.sum()
            assert rows.shape == (5, 300)
            for seed, row in zip(seeds, rows):
                assert np.array_equal(
                    row, sample_bitstrings(state, shots=300, seed=seed))
                assert np.array_equal(row, make_rng(seed).choice(
                    len(probs), size=300, p=probs))


class TestDepthAndConnectivity:
    def test_greedy_depth(self):
        circ = Circuit(3)
        circ.add(Gate("H", (0,)))
        circ.add(Gate("H", (1,)))
        circ.add(Gate("CNOT", (0, 1)))
        circ.add(Gate("H", (2,)))
        assert circ.depth() == 2

    def test_planar_check(self):
        circ = Circuit(4, connectivity=("planar", 2, 2))
        circ.add(Gate("CNOT", (0, 1)))   # chain neighbors, always grid adjacent
        circ.check_connectivity()
        bad = Circuit(4, connectivity=("planar", 2, 2))
        bad.add(Gate("CNOT", (0, 2)))  # diagonal of the 2x2
        with pytest.raises(ValueError):
            bad.check_connectivity()

    def test_boustrophedon_chain_is_grid_adjacent(self):
        circ = Circuit(16, connectivity=("planar", 4, 4))
        for q in range(15):
            circ.add(Gate("SWAP", (q, q + 1)))
        circ.check_connectivity()


class TestRoundTrips:
    def test_circuit_text(self):
        circ = Circuit(4)
        circ.add(Gate("H", (2,)))
        circ.add(Gate("CNOT", (0, 3)))
        circ.add(Gate("RZ", (1,), angle=1.0 / 3.0))
        circ.add(Gate("FK", (0, 1), angle=np.pi / 2, dagger=True))
        circ.add(Gate("PEXP", (1, 3), angle=0.125, letters="ZY"))
        text = dumps_circuit(circ)
        back = loads_circuit(text, 4)
        assert dumps_circuit(back) == text
        assert np.allclose(circuit_matrix(back), circuit_matrix(circ))

    def test_state_csv(self):
        rng = np.random.default_rng(2)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = Statevector(3, amps)
        back = loads_state(dumps_state(state))
        assert back.n_qubits == 3
        assert np.array_equal(back.amplitudes, state.amplitudes)

    @pytest.mark.parametrize("rows", [
        ["0,1,0", "1,0,0", "2,0,0"],            # not a power of two
        ["0,1,0", "0,0,0"],                     # repeated index
        ["0,1,0", "2,0,0"],                     # index out of range
    ])
    def test_state_csv_malformed_rejected(self, rows):
        with pytest.raises(ValueError):
            loads_state("\n".join(["index,re,im"] + rows) + "\n")


def test_fk_defining_conjugation():
    """F_k pulls ladder operators through with the twiddle phase."""
    from pwdual.fermion import FermionOperator, fermion_matrix
    for m, k in [(2, 0), (4, 1), (4, 2), (8, 3)]:
        gate = fk_gate(k, m, 0, 1)
        circ = Circuit(2)
        circ.add(gate)
        u = circuit_matrix(circ)
        adag_p = fermion_matrix(FermionOperator.raising(0), 2)
        adag_q = fermion_matrix(FermionOperator.raising(1), 2)
        phase = np.exp(-2j * np.pi * k / m)
        lhs_p = u.conj().T @ adag_p @ u
        lhs_q = u.conj().T @ adag_q @ u
        assert np.allclose(lhs_p, (adag_p + phase * adag_q) / np.sqrt(2),
                           atol=1e-12)
        assert np.allclose(lhs_q, (adag_p - phase * adag_q) / np.sqrt(2),
                           atol=1e-12)


def test_philox_generator_named():
    rng = make_rng(123)
    assert "Philox" in type(rng.bit_generator).__name__
