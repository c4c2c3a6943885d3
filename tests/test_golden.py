"""Golden hashes of emitted circuits and schedules.

Each value is the sha256 of the text format (or of the gate kind/target
sequence, which leaves angles out) of one construction, or of the sorted
JSON ``result`` of one seeded CLI run. A refactor of the
circuit primitives must keep every construction byte-identical; a change
that alters a circuit on purpose updates the hash and says why.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from pwdual.cli import main
from pwdual.ffft import build_ffft_nd
from pwdual.geometry import build_grid
from pwdual.hamiltonian import NucleiSpec, build_dual, build_qubit
from pwdual.statevector import dumps_circuit
from pwdual.swapnet import build_full_schedule, dumps_schedule, \
    lower_diagonal_layer
from pwdual.trotter import direct_jw_step, split_operator_step


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def gate_sequence(circ) -> str:
    return sha("\n".join(f"{g.kind} {g.targets}" for g in circ.gates))


@pytest.mark.parametrize("grid,connectivity,digest", [
    ((1, 8, 8.0, False), None,
     "c69ea6765c607e19a12369381c695d842184739a6e9c996dd2606596e22577e4"),
    ((2, 4, 16.0, True), None,
     "607ea1a4a1d50f947c96617b06184c67bc2c70fe4e0be44c41b05e041851d50a"),
    ((2, 4, 16.0, False), ("planar", 4, 4),
     "1a1bd7d5e75e494bb4284b4853445f142608c663ab89b68f5f960a7f69e75c78"),
])
def test_ffft_text(grid, connectivity, digest):
    circ = build_ffft_nd(build_grid(*grid), connectivity=connectivity)
    assert sha(dumps_circuit(circ)) == digest


@pytest.mark.parametrize("side,digest", [
    (4, "8b5e765a283fccbb9af3faa88d75b2a13c76c0fa4fe94ea234e6ce202519ddee"),
    (8, "a3bc61c5360619246509c66f0304ea0dbecb5cf61eaa04f5340b8f243badaf4c"),
])
def test_schedule_text(side, digest):
    assert sha(dumps_schedule(build_full_schedule(side, side))) == digest


# 2x8 splits vertically at every level, 8x2 horizontally at every level;
# 8x16 and 16x16 alternate, and 16x16 is the benchmark's schedule
@pytest.mark.parametrize("rows,cols,digest", [
    (16, 16,
     "7a2320da730bdd3e6cfa2827a07f60487289453e4276a1d0eb0aca76ab697968"),
    (2, 8, "b6e0e6957344444d7dadd60c609d6b27b879a96464e452fc5511544b88577046"),
    (8, 2, "1736bcd53f3778ec22595626655f8dbe2f7b93d6ff37d59ea088c93c274839fb"),
    (8, 16,
     "e879e5f713923c5f436348961529ab91f660d7198cbef6d6d09a31d4fb8c4ec3"),
])
def test_rectangular_schedule_text(rows, cols, digest):
    assert sha(dumps_schedule(build_full_schedule(rows, cols))) == digest


def seeded_pair_phases(n, seed):
    rng = np.random.default_rng(seed)
    return {pair: float(rng.uniform(-1, 1))
            for pair in itertools.combinations(range(n), 2)}


def test_phase_annotated_schedule_text():
    text = dumps_schedule(build_full_schedule(4, 4),
                          seeded_pair_phases(16, 41))
    assert sha(text) == \
        "23e8594c46123057d7cecc5b11fc81bd68a936ec693fd4f36f1333ce64bce9ee"


def test_lowered_diagonal_layer():
    circ, final = lower_diagonal_layer(seeded_pair_phases(64, 42),
                                       build_full_schedule(8, 8))
    text = dumps_circuit(circ) + json.dumps([int(x) for x in final])
    assert sha(text) == \
        "68057149cff1cc2065e8129c8db5ddfb557e41926dc5f179cbefffa1441f6443"


def test_planar_split_step_text():
    """The construct benchmark's planar step, angles included."""
    hs = build_dual(build_grid(1, 64, 64.0),
                    NucleiSpec.build([((17.3,), 1.0)]))
    circ = split_operator_step(hs, 0.1, connectivity=("planar", 8, 8))
    assert len(circ.gates) == 20705
    assert sha(dumps_circuit(circ)) == \
        "0e06a6e3f023215975a2ec2985d412c4c2dca7f4c69b4c745d3886193d98ec70"


def test_planar_split_step_gates():
    hs = build_dual(build_grid(1, 8, 8.0))
    circ = split_operator_step(hs, 0.1, connectivity=("planar", 2, 4))
    # 313, not 314: the zero mode's energy is roundoff (-2.2e-16 here), and
    # kinetic phases below PRUNE_TOL emit no PHASEN gate.
    assert len(circ.gates) == 313
    assert gate_sequence(circ) == \
        "ff7c70ea956e55933f116eec5d3e3e657de7976efa5764be37fac8813b02c5d0"


def test_direct_jw_step_gates():
    hs = build_dual(build_grid(1, 8, 8.0))
    circ = direct_jw_step(build_qubit(hs), 0.1, n_qubits=8)
    assert len(circ.gates) == 857
    assert gate_sequence(circ) == \
        "d1b4fed98065b83fbdcca736c28ef09ee55e1218458fdadf6954fd9a5452052c"


CELL_2D16 = ("system.dimension=2", "system.modes_per_axis=4",
             "system.volume=16.0", "system.eta=4")
CELL_SPINFUL8 = ("system.modes_per_axis=4", "system.volume=4.0",
                 "system.spinful=true", "system.eta=2")


@pytest.mark.parametrize("cell,strategy,shots,digest", [
    (CELL_2D16, "per_term", 2000,
     "26c1a789c558725e33de1242e9bee193e01d4a8d497986983a2c6630730218cd"),
    (CELL_2D16, "diagonal_groups", 100000,
     "2a5c6a9320b5ea6a01dd7fd44826517c2aae735047f4657dddde8cd9540ea499"),
    (CELL_2D16, "diagonal_uv_only", 2000,
     "da3bcedee582ade49c9984f9771421ef28287261c9081e053c210ca6746f15df"),
    (CELL_SPINFUL8, "per_term", 2000,
     "9ae048660eab81a78bc63c956654cc338ccd9772ebe3b582cfc2a6ce11b634ad"),
])
def test_measure_result(tmp_path, cell, strategy, shots, digest):
    args = ["measure", "--out", str(tmp_path), "--set", "seed=1"]
    for item in cell + (f"task.strategy={strategy}", f"task.shots={shots}"):
        args += ["--set", item]
    assert main(args) == 0
    doc = json.loads((tmp_path / "measure_report.json").read_text())
    assert sha(json.dumps(doc["result"], sort_keys=True)) == digest


@pytest.mark.filterwarnings("ignore:degenerate")
def test_sampled_vqe_objective():
    """A seeded VQE run whose objective is the sampled energy estimate:
    every evaluation embeds the sector state and draws fresh shots, so the
    trace pins the draws of both diagonal groups."""
    from pwdual.measurement import MeasurementPlan
    from pwdual.vqe import AnsatzSpec, optimize
    hs = build_dual(build_grid(1, 4, 4.0, True))
    plan = MeasurementPlan("diagonal_groups", 500, 7)
    res = optimize(AnsatzSpec(), hs, eta=2, seed=3, restarts=2, maxiter=30,
                   plan=plan)
    doc = {"energy": res.energy, "evaluations": res.evaluations,
           "theta": res.theta.tolist(), "trace": res.trace}
    assert sha(json.dumps(doc)) == \
        "6ae8f1fcb1245554616f6919e5506b769b2aeeb0b96609cbcddffa8dba744a71"


def test_sample_bitstrings_rows():
    """Three seeded rows of shots from a sparse 10-qubit state: three
    electrons spread by number-conserving two-qubit gates over the 120
    three-electron basis states, drawn as it is and after a basis rotation
    that leaves the sector."""
    from pwdual.statevector import Circuit, Gate, Statevector, \
        apply_circuit, sample_bitstrings
    spread = Circuit(10, [
        gate for layer in range(4) for q in range(layer % 2, 9, 2)
        for gate in (Gate("FK", (q, q + 1), angle=0.3 * q + layer),
                     Gate("CPHASE", (q, q + 1), angle=0.7 + q))])
    state = apply_circuit(Statevector.basis_state(10, 0b0010010001), spread)
    rotation = Circuit(10, [Gate("H", (2,)),
                            Gate("PEXP", (5,), angle=0.25, letters="X")])
    rows = [sample_bitstrings(state, shots=300, seed=[1, 2, 3]),
            sample_bitstrings(apply_circuit(state, rotation), shots=300,
                              seed=[1, 2, 3])]
    assert sha(json.dumps([r.tolist() for r in rows])) == \
        "42d2b1f8314526b891ce34ccb95132f5c1af6c4cfaebc71fe1a1048413fc606a"


# the construct benchmark's cube: 3D M=4 (64 qubits) with one nucleus
CELL_CUBE64 = ("system.dimension=3", "system.modes_per_axis=4",
               "system.volume=64.0", "system.nuclei=[[[1.3, 2.7, 0.4], 1.0]]")


@pytest.mark.parametrize("command,artifact,result_digest,artifact_digest", [
    ("build", "hamiltonian_dual.txt",
     "294079b94cc6e138c7ac4685d0c9526aaa0ca8772f99257a9f9950436ea34a88",
     "b0195ad127fdbb6892627776ae91aa66abcd9e4a65bb9d7fe89d09c3b43e5e45"),
    ("lcu-check", "lcu_weights.csv",
     "ac91f85060f0b817a6212a7e707beb9e75e2ebf3a8132bd1e766c49295f89fae",
     "bb74a97bddcb5c56b332ee44714f3e687c704bb338653025bf8cd15b5420e5df"),
])
def test_cube64_outputs(tmp_path, command, artifact, result_digest,
                        artifact_digest):
    args = [command, "--out", str(tmp_path), "--set", "seed=1"]
    for item in CELL_CUBE64:
        args += ["--set", item]
    assert main(args) == 0
    report = command.split("-")[0] + "_report.json"
    doc = json.loads((tmp_path / report).read_text())
    assert sha(json.dumps(doc["result"], sort_keys=True)) == result_digest
    assert sha((tmp_path / artifact).read_text()) == artifact_digest


def test_qubit_hamiltonian_at_128_qubits():
    """Keys, insertion order and coefficient reprs (signed zeros included)
    of the 2D M=8 spinful compile."""
    hs = build_dual(build_grid(2, 8, 64.0, True))
    op = build_qubit(hs)
    assert len(op.terms) == 10049
    assert sha(repr(list(op.terms.items()))) == \
        "d02008b8acace7da68366629716ddc74a404e815f3e27ee96b79493eca4a27e9"
