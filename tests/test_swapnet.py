import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from pwdual.pauli import QubitOperator, qubit_operator_matrix
from pwdual.statevector import circuit_matrix
from pwdual.swapnet import build_full_schedule, \
    lower_diagonal_layer, dumps_schedule, snake_qubit, SwapSchedule


def positions_adjacent(rows, cols, qa, qb):
    def pos(q):
        r, c = q // cols, q % cols
        return (r, cols - 1 - c) if r % 2 else (r, c)
    (ra, ca), (rb, cb) = pos(qa), pos(qb)
    return abs(ra - rb) + abs(ca - cb) == 1


def first_level_cycle(sched):
    """The closed loop of the schedule's first level, read off its two
    stagger layers: the left one pairs loop entries (2i, 2i + 1), and the
    right one must pair (2i + 1, 2i + 2), wrapping round."""
    left, right = (sched.pairs[sched.offsets[k]:sched.offsets[k + 1]]
                   for k in (0, 1))
    cycle = left.ravel().tolist()
    assert right.tolist() == [[cycle[i], cycle[(i + 1) % len(cycle)]]
                              for i in range(1, len(cycle), 2)]
    return cycle


def stagger_layers(sched):
    """The first level's stagger layers, each a list of qubit pairs."""
    k = sched.provenance[0]["step2_layers"]
    return [sched.pairs[a:b].tolist()
            for a, b in zip(sched.offsets[:k], sched.offsets[1:k + 1])]


class TestHamiltonianCycle:
    def test_2x2_is_four_cycle(self):
        cyc = first_level_cycle(build_full_schedule(2, 2))
        assert sorted(cyc) == [0, 1, 2, 3]
        for i in range(4):
            assert positions_adjacent(2, 2, cyc[i], cyc[(i + 1) % 4])

    @pytest.mark.parametrize("rows,cols", [(4, 4), (2, 8), (8, 2), (2, 4),
                                           (4, 2), (8, 8)])
    def test_cycle_verifier(self, rows, cols):
        cyc = first_level_cycle(build_full_schedule(rows, cols))
        n = rows * cols
        assert sorted(cyc) == list(range(n))
        for i in range(n):
            assert positions_adjacent(rows, cols, cyc[i], cyc[(i + 1) % n])

    def test_boustrophedon_4x4_starts_along_top_row(self):
        cyc = first_level_cycle(build_full_schedule(4, 4))
        assert cyc[:4] == [0, 1, 2, 3]

    def test_odd_cell_count_rejected(self):
        # no closed loop: an odd cell count, and a 1 x n line with n > 2
        with pytest.raises(ValueError, match="power-of-two"):
            build_full_schedule(1, 3)
        with pytest.raises(ValueError, match="no closed loop"):
            build_full_schedule(1, 4)


class TestStaggerRounds:
    @pytest.mark.parametrize("m_side", [(2, 2), (4, 4)])
    def test_positions_restored(self, m_side):
        sched = build_full_schedule(*m_side)
        lab = list(range(sched.n_qubits))
        for layer in stagger_layers(sched):
            for a, b in layer:
                lab[a], lab[b] = lab[b], lab[a]
        assert lab == list(range(sched.n_qubits))

    def test_m2_single_pair(self):
        layers = stagger_layers(build_full_schedule(1, 2))
        met = {frozenset(p) for layer in layers for p in layer}
        assert met == {frozenset((0, 1))}

    def test_m16_opposite_parity_coverage(self):
        sched = build_full_schedule(4, 4)
        parity = {q: i % 2 for i, q in enumerate(first_level_cycle(sched))}
        lab = list(range(16))
        met = set()
        for layer in stagger_layers(sched):
            for a, b in layer:
                met.add(frozenset((lab[a], lab[b])))
                lab[a], lab[b] = lab[b], lab[a]
        opposite = {
            frozenset((x, y))
            for x, y in itertools.combinations(range(16), 2)
            if parity[x] != parity[y]
        }
        assert met == opposite
        assert len(met) == 8 * 8

    def test_layer_count_equals_cycle_length(self):
        sched = build_full_schedule(4, 4)
        assert len(stagger_layers(sched)) == 16
        assert len(first_level_cycle(sched)) == 16


class TestFullSchedule:
    @pytest.mark.parametrize("rows,cols", [(2, 2), (4, 4), (2, 8)])
    def test_complete_coverage(self, rows, cols):
        sched = build_full_schedule(rows, cols)
        n = rows * cols
        assert len(sched.interact_pairs()) == n * (n - 1) // 2

    def test_layers_disjoint_and_adjacent(self):
        sched = build_full_schedule(4, 4)
        sched.check()  # raises on violation
        for start, stop in zip(sched.offsets[:-1], sched.offsets[1:]):
            qubits = sched.pairs[start:stop].ravel().tolist()
            assert len(qubits) == len(set(qubits))

    def test_first_level_count_4x4(self):
        sched = build_full_schedule(4, 4)
        assert sched.provenance[0]["step2_layers"] == 16
        assert sched.provenance[0]["step3_layers"] == 2
        assert sched.first_level_layer_count() == 18

    def test_depth_linear(self):
        ratios = []
        for rows, cols in [(2, 2), (4, 4), (8, 8)]:
            sched = build_full_schedule(rows, cols)
            ratios.append(sched.depth() / (rows * cols))
        assert max(ratios) < 3.0

    def test_check_rejects_reused_qubit(self):
        # layer 1 swaps (1, 2) and then (2, 3): qubit 2 twice in one layer
        sched = SwapSchedule(2, 2, np.array([[0, 1], [1, 2], [2, 3]]),
                             np.array([True, False, False]),
                             np.array([0, 1, 3]))
        with pytest.raises(ValueError, match="layer 1 reuses qubit 2"):
            sched.check()

    def test_check_rejects_non_adjacent_pair(self):
        # qubits 0 and 2 sit on the diagonal of the 2x2 snake
        sched = SwapSchedule(2, 2, np.array([[0, 1], [0, 2]]),
                             np.array([True, True]), np.array([0, 1, 2]))
        with pytest.raises(ValueError, match=r"pair \(0,2\) not lattice"):
            sched.check()

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            build_full_schedule(2, 3)

    def test_rejects_long_line(self):
        with pytest.raises(ValueError):
            build_full_schedule(1, 4)


class TestLowerDiagonalLayer:
    def test_zero_phases_is_permutation(self):
        sched = build_full_schedule(2, 2)
        circ, final = lower_diagonal_layer({}, sched)
        mat = circuit_matrix(circ)
        assert np.allclose(np.abs(mat) ** 2,
                           np.abs(mat) ** 2 * (np.abs(mat) > 0.5))
        assert sorted(final) == [0, 1, 2, 3]

    def _diag_exponential(self, pair_phases, n):
        h = QubitOperator()
        for (a, b), phi in pair_phases.items():
            key = tuple(sorted(((a, "Z"), (b, "Z"))))
            h.terms[key] = h.terms.get(key, 0.0) + phi
        return scipy.linalg.expm(-1j * qubit_operator_matrix(h, n))

    def test_single_pair(self):
        sched = build_full_schedule(2, 2)
        phases = {(0, 3): 0.7}
        circ, final = lower_diagonal_layer(phases, sched)
        perm_circ, _ = lower_diagonal_layer({}, sched)
        p = circuit_matrix(perm_circ)
        target = self._diag_exponential(phases, 4)
        assert np.max(np.abs(circuit_matrix(circ) - p @ target)) < 1e-10

    def test_random_phases_2x2(self):
        rng = np.random.default_rng(23)
        phases = {
            pair: float(rng.uniform(-1, 1))
            for pair in itertools.combinations(range(4), 2)
        }
        sched = build_full_schedule(2, 2)
        circ, final = lower_diagonal_layer(phases, sched)
        perm_circ, final2 = lower_diagonal_layer({}, sched)
        assert final == final2
        p = circuit_matrix(perm_circ)
        target = self._diag_exponential(phases, 4)
        assert np.max(np.abs(circuit_matrix(circ) - p @ target)) < 1e-10

    def test_planar_legality_of_emitted_circuit(self):
        sched = build_full_schedule(4, 4)
        phases = {(0, 15): 0.3, (2, 9): -0.2}
        circ, _ = lower_diagonal_layer(phases, sched)
        circ.check_connectivity()

    @pytest.mark.parametrize("compile_phases", [
        lambda sched, phases: dumps_schedule(sched, phases),
        lambda sched, phases: lower_diagonal_layer(phases, sched),
    ], ids=["dumps_schedule", "lower_diagonal_layer"])
    def test_repeated_label_rejected(self, compile_phases):
        with pytest.raises(ValueError, match="not a pair"):
            compile_phases(build_full_schedule(2, 2), {(0, 0): 1.0})

    def test_uncovered_pair_rejected(self):
        sched = SwapSchedule(2, 2)  # empty schedule covers nothing
        with pytest.raises(ValueError):
            lower_diagonal_layer({(0, 1): 0.5}, sched)


class TestScheduleExport:
    def test_layers_and_tags(self):
        from pwdual.swapnet import dumps_schedule
        sched = build_full_schedule(2, 2)
        text = dumps_schedule(sched)
        lines = text.strip().splitlines()
        assert len(lines) == sched.depth()
        assert all("(" in line for line in lines)
        assert ":interact" in text

    def test_phase_annotation_tracks_labels(self):
        from pwdual.swapnet import dumps_schedule
        sched = build_full_schedule(2, 2)
        phases = {(0, 3): 0.5}
        text = dumps_schedule(sched, phases)
        # the 0.5 phase appears each time labels 0 and 3 meet
        assert ":0.5" in text
        assert ":interact" not in text


def python_replay(sched):
    """The label walk one swap at a time over the schedule's layers."""
    label = list(range(sched.n_qubits))
    met = set()
    for start, stop in zip(sched.offsets[:-1], sched.offsets[1:]):
        for s in range(start, stop):
            qa, qb = sched.pairs[s].tolist()
            if sched.interact[s]:
                met.add(frozenset((label[qa], label[qb])))
            label[qa], label[qb] = label[qb], label[qa]
    return met, label


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(r, c) for r in (1, 2, 4, 8, 16)
                        for c in (1, 2, 4, 8, 16)
                        if r * c >= 2 and (min(r, c) > 1 or r * c == 2)]))
def test_array_replay_matches_python_replay(shape):
    sched = build_full_schedule(*shape)
    n = sched.n_qubits
    met, final = python_replay(sched)
    assert len(met) == n * (n - 1) // 2
    assert {frozenset(p) for p in sched.interact_pairs().tolist()} == met
    labels, array_final = sched.replay()
    assert array_final.tolist() == final
    assert sorted(final) == list(range(n))
