import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwdual import ffft, vqe
from pwdual.ffft import build_ffft_nd
from pwdual.fermion import fermion_matrix, total_number_operator
from pwdual.geometry import build_grid
from pwdual.hamiltonian import build_dual, build_qubit, HamiltonianSet, \
    DUAL, NucleiSpec
from pwdual.fermion import FermionOperator
from pwdual.pauli import DenseLimitError
from pwdual.statevector import Statevector, apply_circuit, dumps_circuit, \
    expectation
from pwdual.vqe import AnsatzSpec, Ansatz, prepare_reference, \
    lowest_mode_occupation, optimize, layer_train, \
    sector_ground_energy, interaction_ramp, embed_parameters, SectorModel, \
    sector_states, sector_transform


def jellium_m4():
    return build_dual(build_grid(1, 4, 4.0))


def pushed_reference(grid, eta, spin_pattern="paired"):
    """The reference built gate by gate: the mode-occupation product state
    pushed through every gate of the inverse Fourier circuit."""
    qubits, _ = lowest_mode_occupation(grid, eta, spin_pattern)
    bits = [1 if q in set(qubits) else 0 for q in range(grid.n_qubits)]
    product = Statevector.basis_state(grid.n_qubits, bits)
    rotation = build_ffft_nd(grid).inverse()
    return apply_circuit(product, rotation)


class TestReference:
    def test_vacuum(self):
        grid = build_grid(1, 2, 4.0)
        state = prepare_reference(grid, 0)
        t_mat = fermion_matrix(build_dual(grid).kinetic, grid.n_qubits)
        val = np.real(state.amplitudes.conj() @ t_mat @ state.amplitudes)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_fully_filled(self):
        grid = build_grid(1, 2, 4.0)
        state = prepare_reference(grid, grid.n_qubits)
        t_mat = fermion_matrix(build_dual(grid).kinetic, grid.n_qubits)
        val = np.real(state.amplitudes.conj() @ t_mat @ state.amplitudes)
        total = sum(grid.k_squared(nu) / 2 for nu in grid.nu_list)
        assert val == pytest.approx(total, abs=1e-10)

    def test_two_electron_kinetic_value(self):
        grid = build_grid(1, 4, 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = prepare_reference(grid, 2)
        t_mat = fermion_matrix(build_dual(grid).kinetic, grid.n_qubits)
        val = np.real(state.amplitudes.conj() @ t_mat @ state.amplitudes)
        k2 = sorted(grid.k_squared(nu) for nu in grid.nu_list)
        assert val == pytest.approx((k2[0] + k2[1]) / 2, abs=1e-10)

    def test_is_kinetic_eigenstate(self):
        grid = build_grid(1, 4, 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = prepare_reference(grid, 2)
        t_mat = fermion_matrix(build_dual(grid).kinetic, grid.n_qubits)
        image = t_mat @ state.amplitudes
        val = np.real(state.amplitudes.conj() @ image)
        assert np.linalg.norm(image - val * state.amplitudes) < 1e-10

    def test_degenerate_shell_warns(self):
        grid = build_grid(1, 4, 4.0)
        with pytest.warns(UserWarning, match="degenerate"):
            lowest_mode_occupation(grid, 2)

    def test_spin_patterns(self):
        grid = build_grid(1, 2, 4.0, spinful=True)
        paired, chosen = lowest_mode_occupation(grid, 2, "paired")
        assert chosen[0][0] == chosen[1][0]  # both spins of the lowest mode
        polar, chosen = lowest_mode_occupation(grid, 2, "polarized")
        assert all(spin == "up" for _, spin in chosen)
        assert all(q % 2 == 0 for q in polar)

    def test_too_many_electrons(self):
        grid = build_grid(1, 2, 4.0)
        with pytest.raises(ValueError):
            prepare_reference(grid, 3)

    # 1D and 2D, spinless and spinful, a degenerate shell (1D M=4 with two
    # electrons), eta = 0 and eta = n, and both spin patterns
    @pytest.mark.filterwarnings("ignore:degenerate")
    @pytest.mark.parametrize("grid_args,eta,pattern", [
        ((1, 4, 4.0, False), 2, "paired"),
        ((1, 4, 4.0, True), 3, "paired"),
        ((1, 4, 4.0, True), 3, "polarized"),
        ((2, 2, 4.0, True), 3, "paired"),
        ((2, 2, 4.0, False), 0, "paired"),
        ((1, 8, 8.0, False), 8, "paired"),
        ((1, 2, 4.0, True), 4, "paired"),
        ((2, 4, 4.0, False), 4, "paired"),
        ((1, 8, 8.0, True), 4, "paired"),
    ])
    def test_equals_the_gate_by_gate_reference(self, grid_args, eta,
                                               pattern):
        grid = build_grid(*grid_args)
        state = prepare_reference(grid, eta, pattern)
        pushed = pushed_reference(grid, eta, pattern)
        # the vacuum phase included: no global phase is divided out
        assert np.max(np.abs(state.amplitudes - pushed.amplitudes)) < 1e-14
        assert np.array_equal(state.support,
                              sector_states(grid.n_qubits, eta))

    def test_runs_no_gates(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a gate was applied")

        monkeypatch.setattr("pwdual.statevector.apply_gate", forbidden)
        monkeypatch.setattr("pwdual.statevector.apply_circuit", forbidden)
        grid = build_grid(2, 2, 4.0, spinful=True)
        assert prepare_reference(grid, 2).norm() == pytest.approx(1.0)


class TestAnsatz:
    def test_zero_parameters_act_as_identity(self):
        grid = build_grid(1, 4, 4.0)
        ansatz = Ansatz(AnsatzSpec(layers=1), grid)
        circ = ansatz.circuit(np.zeros(ansatz.parameter_count))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = prepare_reference(grid, 2)
        out = apply_circuit(ref, circ)
        overlap = abs(np.vdot(ref.amplitudes, out.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_translation_invariant_pair_count_m4(self):
        grid = build_grid(1, 4, 4.0)
        ansatz = Ansatz(AnsatzSpec(sharing="translation_invariant"), grid)
        pair_names = [n for n in ansatz.names if n[1] == "pair"]
        assert len(pair_names) == 2  # wrap distances 1 and 2

    def test_minimal_has_no_mode_block(self):
        grid = build_grid(1, 4, 4.0)
        ansatz = Ansatz(AnsatzSpec(minimal=True), grid)
        assert all(kind != "mode" for _, kind, _ in ansatz.names)
        circ = ansatz.circuit(np.full(ansatz.parameter_count, 0.3))
        assert all(g.kind != "FK" for g in circ.gates)

    def test_minimal_requires_single_layer(self):
        with pytest.raises(ValueError):
            AnsatzSpec(layers=2, minimal=True)

    def test_sharing_ties_reproduce_full_energies(self):
        grid = build_grid(1, 4, 4.0)
        hs = build_dual(grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = prepare_reference(grid, 2)
        h_op = build_qubit(hs)
        shared = Ansatz(AnsatzSpec(sharing="translation_invariant"), grid)
        full = Ansatz(AnsatzSpec(), grid)
        rng = np.random.default_rng(4)
        tied = rng.normal(size=shared.parameter_count)
        table = dict(zip(shared.names, tied))
        untied = np.zeros(full.parameter_count)
        for i, (layer, kind, key) in enumerate(full.names):
            if kind == "site":
                untied[i] = table[(layer, "site", "shared")]
            elif kind == "pair":
                untied[i] = table[(layer, "pair", shared.pair_class(*key))]
            else:
                untied[i] = table[(layer, "mode", key)]
        e_shared = expectation(apply_circuit(ref, shared.circuit(tied)), h_op)
        e_full = expectation(apply_circuit(ref, full.circuit(untied)), h_op)
        assert e_shared == pytest.approx(e_full, abs=1e-10)

    def test_particle_number_conserved(self):
        grid = build_grid(1, 4, 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = prepare_reference(grid, 2)
        ansatz = Ansatz(AnsatzSpec(layers=2), grid)
        rng = np.random.default_rng(8)
        circ = ansatz.circuit(rng.normal(size=ansatz.parameter_count))
        out = apply_circuit(ref, circ)
        n_mat = fermion_matrix(total_number_operator(grid.n_qubits),
                               grid.n_qubits)
        val = np.real(out.amplitudes.conj() @ n_mat @ out.amplitudes)
        assert val == pytest.approx(2.0, abs=1e-10)


@pytest.mark.filterwarnings("ignore:degenerate")
class TestOptimize:
    def test_kinetic_only_stays_at_reference(self):
        grid = build_grid(1, 4, 4.0)
        hs = build_dual(grid)
        free = HamiltonianSet(hs.kinetic, FermionOperator(),
                              FermionOperator(), 0.0, DUAL, grid,
                              grid.n_qubits)
        res = optimize(AnsatzSpec(), free, eta=2, seed=1, restarts=2,
                       maxiter=150)
        assert res.energy == pytest.approx(res.reference_energy, abs=1e-9)

    @pytest.mark.parametrize("restarts,maxiter", [(0, 600), (-1, 600),
                                                  (4, 0), (4, -3)])
    def test_counts_below_one_rejected(self, restarts, maxiter):
        """These were clamped: maxiter=-3 still made 25 evaluations."""
        with pytest.raises(ValueError, match=f"restarts={restarts}, "
                                             f"maxiter={maxiter}"):
            optimize(AnsatzSpec(), jellium_m4(), eta=2, restarts=restarts,
                     maxiter=maxiter)

    def test_variational_ordering_and_improvement(self):
        hs = jellium_m4()
        e_exact = sector_ground_energy(hs, 2)
        res = optimize(AnsatzSpec(), hs, eta=2, seed=3)
        assert e_exact - 1e-9 <= res.energy <= res.reference_energy + 1e-12
        gap = res.reference_energy - e_exact
        assert res.reference_energy - res.energy > 0.5 * gap

    def test_trace_monotone(self):
        hs = jellium_m4()
        res = optimize(AnsatzSpec(), hs, eta=2, seed=3, restarts=2,
                       maxiter=100)
        trace = np.asarray(res.trace)
        assert np.all(np.diff(trace) <= 1e-12)
        assert trace[0] == pytest.approx(res.reference_energy, abs=1e-10)

    def test_deterministic_for_seed(self):
        hs = jellium_m4()
        a = optimize(AnsatzSpec(), hs, eta=2, seed=5, restarts=2, maxiter=60)
        b = optimize(AnsatzSpec(), hs, eta=2, seed=5, restarts=2, maxiter=60)
        assert a.energy == b.energy
        assert np.array_equal(a.theta, b.theta)

    def test_two_layers_at_least_as_good(self):
        hs = jellium_m4()
        res1 = optimize(AnsatzSpec(layers=1), hs, eta=2, seed=3, restarts=2,
                        maxiter=200)
        spec2 = AnsatzSpec(layers=2)
        warm = embed_parameters(res1, Ansatz(spec2, hs.grid))
        res2 = optimize(spec2, hs, eta=2, seed=3, restarts=2, maxiter=200,
                        initial_values=warm)
        assert res2.energy <= res1.energy + 1e-9


@pytest.mark.filterwarnings("ignore:degenerate")
class TestSampledObjective:
    def test_runs_and_is_deterministic(self):
        from pwdual.measurement import MeasurementPlan
        hs = jellium_m4()
        plan = MeasurementPlan("diagonal_groups", 400, 17)
        kwargs = dict(eta=2, seed=5, restarts=1, maxiter=40, plan=plan)
        a = optimize(AnsatzSpec(), hs, **kwargs)
        b = optimize(AnsatzSpec(), hs, **kwargs)
        assert a.energy == b.energy
        assert np.array_equal(a.theta, b.theta)

    def test_sampled_tracks_exact_loosely(self):
        from pwdual.measurement import MeasurementPlan
        hs = jellium_m4()
        plan = MeasurementPlan("diagonal_groups", 2000, 23)
        noisy = optimize(AnsatzSpec(), hs, eta=2, seed=3, restarts=2,
                         maxiter=150, plan=plan)
        exact = optimize(AnsatzSpec(), hs, eta=2, seed=3, restarts=2,
                         maxiter=150)
        assert abs(noisy.energy - exact.energy) < 0.2


@pytest.mark.filterwarnings("ignore:degenerate")
class TestLayerTrain:
    def test_single_layer_matches_optimize_target(self):
        hs = jellium_m4()
        res = layer_train(AnsatzSpec(layers=1), hs, eta=2)
        assert res.energy <= res.reference_energy + 1e-12

    def test_ramp_endpoints(self):
        hs = jellium_m4()
        h0 = interaction_ramp(hs, 0.0)
        assert h0.interaction.simplify().terms == {}
        h1 = interaction_ramp(hs, 1.0)
        for key, coeff in hs.interaction.terms.items():
            assert h1.interaction.terms[key] == pytest.approx(coeff)

    def test_layered_beats_half_of_random_baseline(self):
        hs = jellium_m4()
        e_exact = sector_ground_energy(hs, 2)
        trained = layer_train(AnsatzSpec(layers=2), hs, eta=2)
        joint = optimize(AnsatzSpec(layers=2), hs, eta=2, seed=2, restarts=2,
                         maxiter=300)
        gap_trained = trained.energy - e_exact
        gap_joint = max(joint.energy - e_exact, 1e-12)
        assert gap_trained <= 2.0 * gap_joint + 1e-6


# -- the eta-electron sector --------------------------------------------------

TI = "translation_invariant"
# (grid, eta, ansatz, nuclei): spinless and spinful, 1D and 2D, every
# ansatz shape, one cell with nuclei and a constant
SECTOR_CASES = [
    ((1, 4, 4.0, False), 2, AnsatzSpec(), []),
    ((1, 4, 4.0, False), 2, AnsatzSpec(sharing=TI), []),
    ((1, 4, 4.0, False), 2, AnsatzSpec(minimal=True), []),
    ((1, 4, 4.0, False), 2, AnsatzSpec(layers=2), []),
    ((1, 4, 4.0, True), 2, AnsatzSpec(), []),
    ((1, 4, 4.0, True), 3, AnsatzSpec(layers=2, sharing=TI), []),
    ((2, 2, 4.0, True), 3, AnsatzSpec(), [((0.3, 1.1), 1.0)]),
    ((1, 8, 8.0, False), 3, AnsatzSpec(sharing=TI),
     [((2.5,), 1.0), ((6.0,), 2.0)]),
]
_sector_cache = {}


def sector_case(index):
    """(model, ansatz, reference, qubit operator) of one case, built once."""
    if index not in _sector_cache:
        grid_args, eta, spec, nuclei = SECTOR_CASES[index]
        grid = build_grid(*grid_args)
        hs = build_dual(grid, NucleiSpec.build(nuclei), constant=0.25)
        ansatz = Ansatz(spec, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = SectorModel(ansatz, hs, eta)
            reference = pushed_reference(grid, eta)
        _sector_cache[index] = (model, ansatz, reference, build_qubit(hs))
    return _sector_cache[index]


class TestSector:
    @settings(max_examples=60, deadline=None)
    @given(index=st.integers(0, len(SECTOR_CASES) - 1),
           seed=st.integers(0, 2 ** 32 - 1),
           scale=st.floats(0.05, 3.0))
    def test_energy_and_state_match_circuit_path(self, index, seed, scale):
        model, ansatz, reference, h_op = sector_case(index)
        values = np.random.default_rng(seed).normal(
            scale=scale, size=ansatz.parameter_count)
        psi = model.state(values)
        full = apply_circuit(reference, ansatz.circuit(values))
        e_circuit = expectation(full, h_op)
        assert abs(model.energy(psi, model.d_uv) - e_circuit) \
            <= 1e-12 * max(1.0, abs(e_circuit))
        embedded = Statevector.on_support(model.n_qubits, model.states, psi)
        assert np.max(np.abs(embedded.amplitudes - full.amplitudes)) < 1e-12

    def test_reference_energy_matches_circuit_path(self):
        for index in range(len(SECTOR_CASES)):
            model, _, reference, h_op = sector_case(index)
            e_ref = expectation(reference, h_op)
            assert abs(model.energy(model.reference, model.d_uv) - e_ref) \
                <= 1e-12 * max(1.0, abs(e_ref))

    @pytest.mark.parametrize("n,eta", [(1, 0), (4, 2), (6, 3), (8, 8)])
    def test_sector_states_are_the_popcount_eta_indices(self, n, eta):
        want = [i for i in range(2 ** n) if bin(i).count("1") == eta]
        assert sector_states(n, eta).tolist() == want

    @pytest.mark.parametrize("grid_args,eta", [
        ((1, 4, 4.0, False), 2), ((1, 4, 4.0, True), 2),
        ((2, 2, 4.0, True), 3), ((1, 8, 8.0, False), 4),
        ((1, 2, 4.0, True), 0),
    ])
    def test_compound_matches_pushed_basis_states(self, grid_args, eta):
        grid = build_grid(*grid_args)
        n = grid.n_qubits
        circ = build_ffft_nd(grid)
        states = sector_states(n, eta)
        [fourier] = sector_transform(circ, [(states, states)])
        pushed = np.array([
            apply_circuit(Statevector.basis_state(n, int(s)),
                          circ).amplitudes for s in states]).T
        assert np.max(np.abs(pushed[states] - fourier)) < 1e-14
        assert np.max(np.abs(fourier @ fourier.conj().T
                             - np.eye(len(states)))) < 1e-13

    def test_sector_transform_checks_its_own_bytes(self, monkeypatch):
        # 1D M=32 spinless, 4 electrons: C(32, 4) = 35960 row and column
        # states, 20.7 GB of output
        states = sector_states(32, 4)
        assert len(states) == 35960

        def forbidden(*args, **kwargs):
            raise AssertionError("single-particle matrix before the check")

        monkeypatch.setattr(ffft, "single_particle_transform", forbidden)
        tracemalloc.start()
        try:
            with pytest.raises(DenseLimitError, match="35960 x 35960"):
                sector_transform(build_ffft_nd(build_grid(1, 32, 32.0)),
                                 [(states, states)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_oversized_sector_raises_before_allocating(self, monkeypatch):
        # 16 qubits, 8 electrons: C(16, 8) = 12870 states, 2.65 GB of F_S
        hs = build_dual(build_grid(1, 8, 8.0, spinful=True))

        def forbidden(*args, **kwargs):
            raise AssertionError("sector allocation before the limit check")

        monkeypatch.setattr(vqe, "sector_transform", forbidden)
        monkeypatch.setattr(vqe, "prepare_reference", forbidden)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="DENSE_BYTES_LIMIT"):
                optimize(AnsatzSpec(), hs, eta=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @pytest.mark.filterwarnings("ignore:degenerate")
    def test_optimize_holds_no_full_register(self):
        # 1D M=32 spinless, two electrons: 496 states and 560 parameters;
        # a 2^32-amplitude state would be 64 GiB
        hs = build_dual(build_grid(1, 32, 32.0))
        tracemalloc.start()
        try:
            res = optimize(AnsatzSpec(), hs, eta=2, restarts=1, maxiter=20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(res.names) == 560
        assert res.energy <= res.reference_energy + 1e-9
        assert peak < 64 * 2 ** 20


# sha256 of dumps_circuit for each ansatz at fixed values (every third one
# zero, so zero pair angles emit no gate); pinned from the dict-table build
ANSATZ_TEXT = [
    ((1, 4, 4.0, False), AnsatzSpec(),
     "4d13a5823f3c69a126170ca22790a6e592da608895a722f81da54450851cc61f"),
    ((1, 4, 4.0, False), AnsatzSpec(sharing=TI),
     "19a5ddda7f498f79fbcd329e1044daacc4ba01cab929b2e2b3adb15284f8f10e"),
    ((1, 4, 4.0, False), AnsatzSpec(minimal=True),
     "98c709b28521544163f0c0c2828f23808d08188a2801cb9a77a7b09670af1fdb"),
    ((1, 4, 4.0, False), AnsatzSpec(layers=2),
     "23d941ed163b75ee504404c3227d5e4decc5957a6a428c1e6da532ddf38de335"),
    ((1, 4, 4.0, False), AnsatzSpec(layers=2, sharing=TI),
     "343e73804e9989f565cf37bdd68642372b924a27eb53bfd4d299dd04dc44c5b9"),
    ((1, 2, 4.0, True), AnsatzSpec(),
     "f49f45904e039cafa4372d1e25a97b85d0caef7cf03508cc2d18b30b70571f3b"),
    ((1, 2, 4.0, True), AnsatzSpec(sharing=TI),
     "e5c820cde7134ebe69367c688f6326c33a430b743e0f595f8072ee8097575de6"),
    ((1, 2, 4.0, True), AnsatzSpec(layers=2),
     "f7fbfd37249ff7565901ff29f51543c3ecf545622da0e42cf5bf5c88728a28c5"),
    ((1, 2, 4.0, True), AnsatzSpec(layers=2, sharing=TI),
     "8d18b36b609f7fc7a9a57bfcdad8e5205456af8145475f83a75d5bea6ccef587"),
    ((2, 2, 4.0, True), AnsatzSpec(),
     "a6d0dc012eb255888b5ba095dd9b5c3045e28704366d956b150f18c96cc87510"),
    ((2, 2, 4.0, True), AnsatzSpec(sharing=TI),
     "ea5bf1db1635b96965bf755f29f70c277978b87d7b76843ac07ec92864492485"),
    ((2, 2, 4.0, True), AnsatzSpec(minimal=True),
     "7aef12feaf40e8ab9b295b5b6c90cc6df6c2b284f24ebdf48d4c37a4277172e4"),
    ((2, 2, 4.0, True), AnsatzSpec(layers=2),
     "4918eb7f07bd360db0e646b6d469a0cf210e42c9fbedb85a73d5174f2c8eacff"),
    ((2, 2, 4.0, True), AnsatzSpec(layers=2, sharing=TI),
     "f360e643233f009978d5f9e6f431624a8589d7370ae6a33d85ce68a0717817da"),
]


@pytest.mark.parametrize("grid_args,spec,digest", ANSATZ_TEXT)
def test_ansatz_circuit_text(grid_args, spec, digest):
    ansatz = Ansatz(spec, build_grid(*grid_args))
    values = np.random.default_rng(7).normal(size=ansatz.parameter_count)
    values[::3] = 0.0
    text = dumps_circuit(ansatz.circuit(values))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
