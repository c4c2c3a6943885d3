"""Acceptance suite: every exit criterion as one test, with a printed
pass/fail line and the tolerance pinned in the assertion.

Run with ``pytest -s tests/test_acceptance.py`` to see the criterion lines.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from pwdual.fermion import FermionOperator, fermion_matrix
from pwdual.geometry import build_grid
from pwdual.hamiltonian import build_dual, build_plane_wave, build_qubit, \
    build_finite_difference, norm_bounds, onsite_repulsion
from pwdual.ffft import build_ffft_1d, build_ffft_nd, \
    mode_ladder_operator, fswap_properties_report
from pwdual.lcu import build_weights, select_matrix, prepare_state, \
    taylor_segment
from pwdual.measurement import MeasurementPlan, estimate_energy, \
    empirical_shot_requirement, shot_budget, diagonal_potential_values, \
    DIAGONAL_GROUPS, PER_TERM, DIAGONAL_UV_ONLY
from pwdual.pauli import QubitOperator, qubit_operator_matrix
from pwdual.statevector import Statevector, circuit_matrix, exact_evolve, \
    expectation
from pwdual.swapnet import build_full_schedule, hamiltonian_cycle, \
    stagger_rounds, lower_diagonal_layer
from pwdual.trotter import split_operator_step, measure_error_scaling, \
    number_block_view
from pwdual.vqe import AnsatzSpec, Ansatz, optimize, prepare_reference, \
    sector_ground_energy, embed_parameters

def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_01_isospectrality():
    worst = 0.0
    cases = [(1, 2, False), (1, 2, True), (1, 4, False), (1, 4, True),
             (2, 2, False), (2, 2, True)]
    for d, m, spinful in cases:
        grid = build_grid(d, m, 3.1 ** d, spinful=spinful)
        gap = float(np.max(np.abs(build_dual(grid).spectrum()
                                  - build_plane_wave(grid).spectrum())))
        worst = max(worst, gap)
    report(1, "isospectrality", worst < 1e-9,
           f"max spectral gap {worst:.2e} over {len(cases)} configs")


def test_criterion_02_ffft_conjugation():
    worst = 0.0
    checked = 0
    for m in (2, 4, 8):
        grid = build_grid(1, m, float(m))
        u = circuit_matrix(build_ffft_1d(m))
        for nu in grid.nu_list:
            slot = grid.mode_slot(nu)
            adag = fermion_matrix(FermionOperator.raising(slot), m)
            rhs = fermion_matrix(mode_ladder_operator(grid, nu), m)
            worst = max(worst, float(np.max(np.abs(
                u.conj().T @ adag @ u - rhs))))
            checked += 1
    grid = build_grid(2, 2, 4.0)
    u = circuit_matrix(build_ffft_nd(grid))
    for nu in grid.nu_list:
        slot = grid.mode_slot(nu)
        adag = fermion_matrix(FermionOperator.raising(slot), grid.n_qubits)
        rhs = fermion_matrix(mode_ladder_operator(grid, nu), grid.n_qubits)
        worst = max(worst, float(np.max(np.abs(
            u.conj().T @ adag @ u - rhs))))
        checked += 1
    report(2, "ffft conjugation", worst < 1e-9,
           f"max error {worst:.2e} over {checked} mode operators")


def test_criterion_03_kinetic_diagonalization():
    grid = build_grid(1, 4, 4.0)
    u = circuit_matrix(build_ffft_1d(4))
    diag = FermionOperator()
    for nu in grid.nu_list:
        diag += FermionOperator.number(grid.mode_slot(nu),
                                       grid.k_squared(nu) / 2.0)
    lhs = u.conj().T @ fermion_matrix(diag, 4) @ u
    rhs = fermion_matrix(build_dual(grid).kinetic, 4)
    err = float(np.max(np.abs(lhs - rhs)))
    report(3, "kinetic diagonalization", err < 1e-9,
           f"matrix gap {err:.2e} on M=4 d=1")


def test_criterion_04_fermionic_swap_lemma():
    rep = fswap_properties_report((0.0, math.pi / 8, math.pi / 4, 1.0))
    worst = max(rep.values())
    report(4, "fermionic swap lemma", worst < 1e-10,
           f"max deviation {worst:.2e} across {len(rep)} identities")


def test_criterion_05_trotter_scaling():
    grid = build_grid(1, 2, 4.0, spinful=True)
    hs = build_dual(grid)
    h = hs.matrix()
    vals, vecs = np.linalg.eigh(h)
    exact = vecs @ np.diag(np.exp(-1j * vals)) @ vecs.conj().T
    rows, slope = measure_error_scaling(
        lambda tau: number_block_view(
            circuit_matrix(split_operator_step(hs, tau))),
        number_block_view(exact)[0], [2, 4, 8, 16, 32], 1.0)
    slope_ok = abs(slope + 2.0) <= 0.1

    from pwdual.hamiltonian import HamiltonianSet, DUAL
    diag = HamiltonianSet(FermionOperator(), hs.external, hs.interaction,
                          0.0, DUAL, grid, grid.n_qubits)
    dh = diag.matrix()
    dvals, dvecs = np.linalg.eigh(dh)
    dexact = dvecs @ np.diag(np.exp(-1j * dvals)) @ dvecs.conj().T
    diag_err = float(np.linalg.norm(
        circuit_matrix(split_operator_step(diag, 1.0)) - dexact, 2))
    report(5, "trotter scaling", slope_ok and diag_err < 1e-12,
           f"slope {slope:.3f} (want -2.0 +- 0.1), diagonal-only error "
           f"{diag_err:.2e} at r=1")


def test_criterion_06_swap_network():
    ok = True
    details = []
    for rows, cols in ((2, 2), (4, 4)):
        n = rows * cols
        sched = build_full_schedule(rows, cols)
        sched.check()
        covered = len(sched.interact_pairs())
        want = n * (n - 1) // 2
        ok &= covered == want
        details.append(f"{rows}x{cols} coverage {covered}/{want}")
    cycle = hamiltonian_cycle(4, 4)
    labels = list(range(16))
    for layer in stagger_rounds(cycle):
        for a, b in layer:
            labels[a], labels[b] = labels[b], labels[a]
    restored = labels == list(range(16))
    ok &= restored
    first_level = build_full_schedule(4, 4).first_level_layer_count()
    ok &= first_level == 18
    details.append(f"step-2 restoration {restored}, first-level layers "
                   f"{first_level} (want 18)")

    rng = np.random.default_rng(12)
    phases = {pair: float(rng.uniform(-1, 1))
              for pair in itertools.combinations(range(4), 2)}
    sched = build_full_schedule(2, 2)
    circ, _ = lower_diagonal_layer(phases, sched)
    perm, _ = lower_diagonal_layer({}, sched)
    h = QubitOperator()
    for (a, b), phi in phases.items():
        h.terms[tuple(sorted(((a, "Z"), (b, "Z"))))] = phi
    target = circuit_matrix(perm) @ scipy.linalg.expm(
        -1j * qubit_operator_matrix(h, 4))
    lower_err = float(np.max(np.abs(circuit_matrix(circ) - target)))
    ok &= lower_err < 1e-10
    details.append(f"diagonal lowering error {lower_err:.2e}")
    report(6, "swap network", ok, "; ".join(details))


def test_criterion_07_lcu_oracles():
    ok = True
    details = []
    for m in (2, 4):
        hs = build_dual(build_grid(1, m, 4.0))
        model = build_weights(hs)
        rec = model.reconstruction()
        qub = build_qubit(hs)
        gap = max(
            abs(rec.terms.get(k, 0) - qub.terms.get(k, 0))
            for k in (set(rec.terms) | set(qub.terms)) if k != ()
        )
        ok &= gap < 1e-12
        details.append(f"M={m} reconstruction gap {gap:.1e}")
        prep = prepare_state(model)
        width = model.index_width
        amp_gap = max(
            abs(abs(prep.amplitudes[(p << (width + 1)) | (q << 1) | b]) ** 2
                - abs(w) / model.lam)
            for (p, q, b), w in zip(model.index.tolist(),
                                    model.weights.tolist()))
        ok &= amp_gap < 1e-12

    hs2 = build_dual(build_grid(1, 2, 4.0))
    model2 = build_weights(hs2)
    sel = select_matrix(model2)
    sel_gap = float(np.max(np.abs(sel @ sel - np.eye(sel.shape[0]))))
    ok &= sel_gap < 1e-12
    details.append(f"select^2 gap {sel_gap:.1e}")

    rng = np.random.default_rng(4)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = Statevector(2, amps / np.linalg.norm(amps))
    t = 0.1
    exact = exact_evolve(model2.reconstruction(), t, psi)
    errs = {}
    for order in (2, 4):
        out, _ = taylor_segment(model2, t, order, psi)
        errs[order] = float(np.linalg.norm(out.amplitudes - exact.amplitudes))
    ratio = errs[4] / errs[2]
    ok &= ratio < 0.05
    details.append(f"taylor error ratio {ratio:.2e}")
    report(7, "lcu oracles", ok, "; ".join(details))


def test_criterion_08_measurement():
    hs = build_dual(build_grid(1, 4, 4.0))
    n = hs.n_qubits
    rng = np.random.default_rng(40)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    state = Statevector(n, amps / np.linalg.norm(amps))
    truth = expectation(state, build_qubit(hs))
    means = [
        estimate_energy(state, hs, MeasurementPlan(DIAGONAL_GROUPS, 1000,
                                                   seed))[0]
        for seed in range(200)
    ]
    pull = (np.mean(means) - truth) \
        / (np.std(means, ddof=1) / np.sqrt(len(means)))
    ok = abs(pull) < 4.0
    details = [f"estimator pull {pull:+.2f} sigma over 200 seeds"]

    eta, target = 2, 0.1
    budget = shot_budget(hs, eta, target, strategy=DIAGONAL_GROUPS)
    mat = hs.matrix()
    vals, vecs = np.linalg.eigh(mat)
    states = [
        Statevector.basis_state(n, (1, 1, 0, 0)),
        state,
        Statevector(n, vecs[:, 0].astype(complex)),
    ]
    needs = [
        empirical_shot_requirement(s, hs, DIAGONAL_GROUPS, target, seed=i)
        for i, s in enumerate(states)
    ]
    ok &= all(need <= budget for need in needs)
    details.append(f"shots needed {needs} <= budget {budget:.0f}")

    spin_hs = build_dual(build_grid(1, 4, 4.0, spinful=True))
    uv_mat = fermion_matrix(spin_hs.external + spin_hs.interaction,
                            spin_hs.n_qubits)
    samples = np.arange(2 ** spin_hs.n_qubits, dtype=np.int64)
    exact_gap = float(np.max(np.abs(
        diagonal_potential_values(spin_hs, samples)
        - np.real(np.diag(uv_mat)))))
    ok &= exact_gap == 0.0
    details.append(f"diagonal estimator exhaustive gap {exact_gap:.1e} "
                   f"on n={spin_hs.n_qubits}")
    report(8, "measurement", ok, "; ".join(details))


def test_criterion_09_norm_bounds():
    ok = True
    details = []
    configs = [
        (build_dual(build_grid(1, 4, 4.0)), 2, None),
        (build_dual(build_grid(1, 2, 4.0, spinful=True)), 2, None),
        (build_dual(build_grid(1, 4, 4.0), nuclei=[((1.0,), 2.0)]), 2, None),
    ]
    rng = np.random.default_rng(90)
    for hs, eta, _ in configs:
        bounds = norm_bounds(hs, eta)
        n = hs.n_qubits
        mats = {
            "max_t": fermion_matrix(hs.kinetic, n),
            "max_u": fermion_matrix(hs.external, n),
            "max_v": fermion_matrix(hs.interaction, n),
        }
        idx = [i for i in range(2 ** n) if bin(i).count("1") == eta]
        worst_excess = -np.inf
        for _ in range(500):
            psi = np.zeros(2 ** n, dtype=complex)
            psi[idx] = rng.normal(size=len(idx)) \
                + 1j * rng.normal(size=len(idx))
            psi /= np.linalg.norm(psi)
            for name, mat in mats.items():
                val = abs(float(np.real(psi.conj() @ mat @ psi)))
                worst_excess = max(worst_excess, val - bounds[name])
        ok &= worst_excess <= 1e-10
        details.append(f"n={n} max excess {worst_excess:+.1e}")
    report(9, "norm bounds", ok, "; ".join(details))


@pytest.mark.filterwarnings("ignore:degenerate")
def test_criterion_10_vqe_ordering():
    grid = build_grid(1, 4, 4.0)
    hs = build_dual(grid)
    eta = 2
    e_exact = sector_ground_energy(hs, eta)
    res1 = optimize(AnsatzSpec(layers=1), hs, eta, seed=3)
    e_ref = res1.reference_energy
    ordering = e_exact - 1e-9 <= res1.energy <= e_ref + 1e-12
    improvement = (e_ref - res1.energy) > 0.5 * (e_ref - e_exact)

    from pwdual.hamiltonian import HamiltonianSet, DUAL
    free = HamiltonianSet(hs.kinetic, FermionOperator(), FermionOperator(),
                          0.0, DUAL, grid, grid.n_qubits)
    res_free = optimize(AnsatzSpec(layers=1), free, eta, seed=1, restarts=2,
                        maxiter=150)
    free_ok = abs(res_free.energy - res_free.reference_energy) < 1e-9

    spec2 = AnsatzSpec(layers=2)
    warm = embed_parameters(res1, Ansatz(spec2, grid))
    res2 = optimize(spec2, hs, eta, seed=3, restarts=2, maxiter=300,
                    initial_values=warm)
    nested = res2.energy <= res1.energy + 1e-9
    ok = ordering and improvement and free_ok and nested
    report(10, "vqe ordering", ok,
           f"E_exact {e_exact:.6f} <= E* {res1.energy:.6f} <= E_ref "
           f"{e_ref:.6f}; improvement "
           f"{(e_ref - res1.energy) / (e_ref - e_exact):.2f} of gap; "
           f"V-off recovers reference {free_ok}; layered <= single {nested}")


def test_criterion_11_finite_difference():
    lam_gap = abs(onsite_repulsion(1.0) - 0.941156)
    hs, info = build_finite_difference((2, 1, 1), 1.0, spinful=True)
    mat = hs.matrix()
    hermitian = float(np.max(np.abs(mat - mat.conj().T)))
    n = info.n_spin_orbitals
    counts_ok = (info.tally == n * n // 2
                 and info.n_onsite == n // 2
                 and info.n_pair_terms == n * (n - 1) // 2)
    ok = lam_gap <= 1e-6 and hermitian < 1e-12 and counts_ok
    report(11, "finite difference", ok,
           f"onsite*h gap {lam_gap:.1e}; hermiticity {hermitian:.1e}; "
           f"two-body tally {info.tally} = N^2/2 with N={n}")


def test_criterion_12_depth_audits():
    step_ratios = {}
    for m_modes, rows, cols in ((4, 2, 2), (16, 4, 4), (64, 8, 8)):
        grid = build_grid(1, m_modes, float(m_modes))
        hs = build_dual(grid)
        step = split_operator_step(hs, 0.1, connectivity=("planar", rows,
                                                          cols))
        step.check_connectivity()
        step_ratios[m_modes] = step.depth() / m_modes
    c_step = max(step_ratios.values())

    ffft_ratios = {}
    for m in (2, 4, 8):
        circ = build_ffft_1d(m, connectivity=("planar", 1, m))
        circ.check_connectivity()
        ffft_ratios[m] = circ.depth() / (m * max(math.log2(m), 1.0))
    c_ffft = max(ffft_ratios.values())
    ok = c_step < 20 and c_ffft < 5
    report(12, "depth audits", ok,
           f"split-step depth/n {dict(sorted(step_ratios.items()))} "
           f"(c={c_step:.1f}); ffft depth/(MlogM) "
           f"{ {k: round(v, 2) for k, v in sorted(ffft_ratios.items())} } "
           f"(c'={c_ffft:.2f})")
