import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwdual.geometry import build_grid
from pwdual.hamiltonian import NucleiSpec, build_dual, build_qubit, \
    dual_coefficients, norm_bounds
from pwdual import lcu, statevector
from pwdual.lcu import build_weights, select_matrix, prepare_state, \
    taylor_errors, taylor_segment, dump_weights, LcuModel
from pwdual.pauli import PRUNE_TOL, QubitOperator, coefficient_gap, \
    qubit_operator_matrix
from pwdual.statevector import Statevector, exact_evolve


def jellium(m, spinful=False, omega=4.0):
    return build_dual(build_grid(1, m, omega, spinful=spinful))


def row_of(model, p, q, b):
    """The table row of branch (p, q, b)."""
    (row,) = np.flatnonzero((model.index == (p, q, b)).all(axis=1))
    return int(row)


def noop_count(model):
    return sum(1 for row in range(len(model.weights))
               if model.term_string(row)[1] == ())


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return Statevector(n, amps / np.linalg.norm(amps))


# (dimension, modes per axis, spinful) with at most 64 qubits
grids = st.sampled_from([
    (d, m, spinful)
    for d, m_max in ((1, 64), (2, 8), (3, 4))
    for m in (2, 4, 8, 16, 32, 64) if m <= m_max
    for spinful in (False, True) if (1 + spinful) * m ** d <= 64])


@st.composite
def weight_cases(draw):
    """A dual-basis set on a power-of-two grid with up to two random
    nuclei and a truncation distance or none, and an include_noop
    value."""
    d, m, spinful = draw(grids)
    volume = draw(st.floats(1.0, 500.0))
    length = volume ** (1.0 / d)
    nuclei = draw(st.lists(st.tuples(
        st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d),
        st.floats(0.25, 4.0)), max_size=2))
    truncated_D = draw(st.none() | st.floats(0.01, 1.0).map(
        lambda f: f * length))
    hs = build_dual(build_grid(d, m, volume, spinful),
                    [([x * length for x in pos], z) for pos, z in nuclei],
                    truncated_D)
    return hs, draw(st.booleans())


def scalar_table(hs, include_noop):
    """(p, q, b) rows and weights from the four closed forms, one branch
    at a time in table order. Pairs farther apart than the truncation
    distance get v = 0, and what they drop, once per spin, goes to the
    v(0) of Z_p."""
    grid = hs.grid
    spinful = grid.cell.spinful
    coeffs = dual_coefficients(grid, hs.nuclei)
    t, v, u = coeffs.t.tolist(), coeffs.v.tolist(), coeffs.u.tolist()
    dropped = 0.0
    if hs.truncation is not None:
        origin = grid.index_site(0)
        far = [s for s in range(grid.n_spatial) if grid.min_image_distance(
            origin, grid.index_site(s)) > hs.truncation]
        dropped = sum((v[s] for s in far), 0.0)
        for s in far:
            v[s] = 0.0
    v_self = v[0] + (2 if spinful else 1) * dropped
    sep = grid.separation_index().tolist()
    rows, weights = [], []
    for p in range(grid.n_qubits):
        for q in range(grid.n_qubits):
            sp, sq = (p // 2, q // 2) if spinful else (p, q)
            for b in (0, 1):
                if p == q:
                    w = (v_self / 4.0 - t[0] / 2.0 - u[sp] / 2.0) / 2.0
                elif b == 0:
                    w = v[sep[sq][sp]] / 8.0
                elif spinful and p % 2 != q % 2:
                    if not include_noop:
                        continue
                    w = 1.0
                else:
                    w = t[sep[sp][sq]] / 2.0
                rows.append([p, q, b])
                weights.append(w)
    return rows, weights


def branch_string(p, q, b, spinful):
    """The Pauli string of one branch, written apart from lcu's."""
    if p == q:
        return ((p, "Z"),)
    lo, hi = min(p, q), max(p, q)
    if b == 0:
        return ((lo, "Z"), (hi, "Z"))
    if spinful and p % 2 != q % 2:
        return ()
    end = "X" if p > q else "Y"
    return ((lo, end),) + tuple((s, "Z") for s in range(lo + 1, hi)) \
        + ((hi, end),)


class TestArrayTable:
    @settings(max_examples=40, deadline=None)
    @given(weight_cases())
    def test_rows_match_the_scalar_closed_forms(self, case):
        hs, include_noop = case
        model = build_weights(hs, include_noop)
        rows, weights = scalar_table(hs, include_noop)
        assert model.index.dtype == np.int64
        assert model.weights.dtype == np.float64
        assert model.index.tolist() == rows
        assert np.array_equal(model.weights.view(np.int64),
                              np.array(weights).view(np.int64))
        # the reconstruction against a per-row dict: keys, their order,
        # value types and bits; a no-op keeps sign +1
        spinful = hs.grid.cell.spinful
        ref = {}
        for (p, q, b), w in zip(rows, weights):
            key = branch_string(p, q, b, spinful)
            sign = 1 if key == () or w >= 0 else -1
            ref[key] = ref.get(key, 0.0) + sign * abs(w)
        want = [(key, type(c), c.hex()) for key, c in ref.items()
                if abs(c) > PRUNE_TOL]
        got = [(key, type(c), c.hex())
               for key, c in model.reconstruction().terms.items()]
        assert got == want


def dict_gap(a, b):
    """The reconstruction gap as a loop over the union of both key sets."""
    worst = 0.0
    for key in set(a.terms) | set(b.terms):
        if key == ():
            continue
        worst = max(worst, abs(a.terms.get(key, 0) - b.terms.get(key, 0)))
    return worst


class TestColumnGap:
    @settings(max_examples=30, deadline=None)
    @given(weight_cases(), st.floats(-1e-3, 1e-3), st.integers(0, 2 ** 16))
    def test_equals_the_dict_loop_bit_for_bit(self, case, nudge, pick):
        # columns on both sides, then with one string of the compile
        # nudged, dropped or added, as a dict-owned operator
        hs, include_noop = case
        rec = build_weights(hs, include_noop).reconstruction()
        qub = build_qubit(hs)
        got = coefficient_gap(rec, qub)
        want = dict_gap(build_weights(hs, include_noop).reconstruction(),
                        build_qubit(hs))
        assert got.hex() == want.hex()
        edited = build_qubit(hs)
        keys = list(edited.terms)
        key = keys[pick % len(keys)]
        if pick % 3 == 0:
            edited.terms[key] += nudge
        elif pick % 3 == 1:
            del edited.terms[key]
        else:
            edited.terms[((hs.n_qubits - 1, "X"),)] = nudge
        got = coefficient_gap(build_weights(hs, include_noop).reconstruction(),
                              edited)
        assert got.hex() == dict_gap(rec, edited).hex()

    def test_column_and_view_types(self):
        # a float64 reconstruction and a complex compile keep their value
        # types through the view
        hs = jellium(4, spinful=True)
        rec, qub = build_weights(hs).reconstruction(), build_qubit(hs)
        assert {type(c) for c in rec.terms.values()} == {float}
        assert {type(c) for c in qub.terms.values()} == {complex}
        assert isinstance(rec.constant(), float)


class TestBuildWeights:
    @pytest.mark.parametrize("m,spinful", [(2, False), (4, False), (2, True)])
    def test_reconstruction_identity(self, m, spinful):
        hs = jellium(m, spinful)
        model = build_weights(hs)
        rec = model.reconstruction()
        qub = build_qubit(hs)
        for key in set(rec.terms) | set(qub.terms):
            if key == ():
                continue
            assert abs(rec.terms.get(key, 0) - qub.terms.get(key, 0)) < 1e-12

    def test_reconstruction_identity_at_128_qubits(self):
        # 2D M=8 spinful with a nucleus: the lcu-check identity past 64 qubits
        grid = build_grid(2, 8, 64.0, spinful=True)
        hs = build_dual(grid, NucleiSpec.build([((1.0, 2.5), 1.0)]))
        assert hs.n_qubits == 128
        rec = build_weights(hs).reconstruction()
        qub = build_qubit(hs)
        for key in set(rec.terms) | set(qub.terms):
            if key == ():
                continue
            assert abs(rec.terms.get(key, 0) - qub.terms.get(key, 0)) < 1e-12

    def test_noop_branch_weight_one(self):
        hs = jellium(2, spinful=True)
        model = build_weights(hs)
        row = row_of(model, 0, 1, 1)  # opposite spins on a spinful grid
        assert model.weights[row] == 1.0
        sign, key = model.term_string(row)
        assert key == ()

    def test_noop_switch_drops_budget_not_terms(self):
        hs = jellium(2, spinful=True)
        with_noop = build_weights(hs, include_noop=True)
        without = build_weights(hs, include_noop=False)
        n_noop = noop_count(with_noop)
        assert n_noop > 0
        assert with_noop.lam == pytest.approx(without.lam + n_noop)
        rec_a = with_noop.reconstruction()
        rec_b = without.reconstruction()
        for key in set(rec_a.terms) | set(rec_b.terms):
            if key == ():
                continue
            assert abs(rec_a.terms.get(key, 0)
                       - rec_b.terms.get(key, 0)) < 1e-12

    def test_lambda_monotonicity(self):
        for m in (2, 4):
            hs = jellium(m)
            model = build_weights(hs)
            qub = build_qubit(hs)
            matching = qub.coefficient_norm(include_identity=False)
            assert model.lam >= matching - 1e-12

    def test_lambda_within_triangle_budget(self):
        hs = jellium(2, spinful=True)
        model = build_weights(hs)
        bounds = norm_bounds(hs, eta=2)
        n_noop = noop_count(model)
        assert model.lam <= bounds["triangle_h"] + n_noop + 1e-9

    def test_selection_register_width(self):
        hs = jellium(4)
        model = build_weights(hs)
        assert model.selection_width == 2 * 2 + 1

    def test_requires_dual(self):
        from pwdual.hamiltonian import build_plane_wave
        with pytest.raises(ValueError):
            build_weights(build_plane_wave(build_grid(1, 2, 4.0)))


class TestSelectMatrix:
    def test_blocks_for_each_case(self):
        hs = jellium(2)
        model = build_weights(hs)
        sign, key = model.term_string(row_of(model, 1, 1, 0))
        assert key == ((1, "Z"),)
        sign, key = model.term_string(row_of(model, 0, 1, 0))
        assert key == ((0, "Z"), (1, "Z"))
        sign, key = model.term_string(row_of(model, 1, 0, 1))  # p > q: X
        assert key == ((0, "X"), (1, "X"))
        sign, key = model.term_string(row_of(model, 0, 1, 1))  # q > p: Y
        assert key == ((0, "Y"), (1, "Y"))

    def test_parity_string_interior(self):
        hs = jellium(4)
        model = build_weights(hs)
        _, key = model.term_string(row_of(model, 3, 0, 1))
        assert key == ((0, "X"), (1, "Z"), (2, "Z"), (3, "X"))

    def test_self_inverse(self):
        hs = jellium(2)
        model = build_weights(hs)
        sel = select_matrix(model)
        assert np.max(np.abs(sel @ sel - np.eye(sel.shape[0]))) < 1e-12

    def test_unitary(self):
        hs = jellium(2, spinful=True)
        model = build_weights(hs)
        sel = select_matrix(model)
        assert np.max(np.abs(sel @ sel.conj().T - np.eye(sel.shape[0]))) < 1e-12


class TestPrepareState:
    def test_two_equal_weights(self):
        model = LcuModel(build_grid(1, 2, 1.0), np.array([[0, 0, 0],
                                                          [0, 0, 1]]),
                         np.array([0.5, 0.5]))
        prep = prepare_state(model)
        nonzero = np.flatnonzero(np.abs(prep.amplitudes) > 1e-14)
        assert len(nonzero) == 2
        assert np.allclose(np.abs(prep.amplitudes[nonzero]), 1 / np.sqrt(2))

    def test_three_one_weights(self):
        model = LcuModel(build_grid(1, 2, 1.0), np.array([[0, 0, 0],
                                                          [1, 1, 0]]),
                         np.array([3.0, -1.0]))
        prep = prepare_state(model)
        amps = np.abs(prep.amplitudes)
        assert sorted(a for a in amps if a > 1e-14) == pytest.approx(
            [math.sqrt(0.25), math.sqrt(0.75)])

    def test_jellium_amplitudes_squared_proportional_to_weights(self):
        hs = jellium(2)
        model = build_weights(hs)
        prep = prepare_state(model)
        assert prep.norm() == pytest.approx(1.0)
        width = model.index_width
        for (p, q, b), w in zip(model.index.tolist(), model.weights.tolist()):
            amp = prep.amplitudes[(p << (width + 1)) | (q << 1) | b]
            assert abs(amp) ** 2 == pytest.approx(abs(w) / model.lam)

    def test_zero_table_rejected(self):
        model = LcuModel(build_grid(1, 2, 1.0),
                         np.empty((0, 3), dtype=np.int64), np.empty(0))
        with pytest.raises(ValueError):
            prepare_state(model)


class TestTaylorSegment:
    def test_order_zero_is_identity(self):
        hs = jellium(2)
        model = build_weights(hs)
        psi = random_state(2, 5)
        out, success = taylor_segment(model, 0.05, 0, psi)
        assert np.allclose(out.amplitudes, psi.amplitudes)
        assert success == pytest.approx(1.0, abs=0.1)

    def test_error_drops_factorially(self):
        hs = jellium(2)
        model = build_weights(hs)
        psi = random_state(2, 7)
        t = 0.1
        exact = exact_evolve(model.reconstruction(), t, psi)
        errs = {}
        for order in (2, 4):
            out, _ = taylor_segment(model, t, order, psi)
            errs[order] = np.linalg.norm(out.amplitudes - exact.amplitudes)
        assert errs[4] / errs[2] < 0.05

    def test_one_pass_serves_every_order(self):
        hs = jellium(4)
        model = build_weights(hs)
        psi = random_state(4, 11)
        together = taylor_segment(model, 0.02, [4, 0, 2], psi)
        for order, (out, success) in zip([4, 0, 2], together):
            alone, alone_success = taylor_segment(model, 0.02, order, psi)
            assert np.array_equal(out.amplitudes, alone.amplitudes)
            assert success == alone_success
        with pytest.raises(ValueError, match="orders must be >= 0"):
            taylor_segment(model, 0.02, [2, -1], psi)

    def test_taylor_errors_builds_two_matrices(self, monkeypatch):
        """One matrix for exact evolution and one for the whole series,
        whatever the number of orders (the 8-qubit cell of lcu-check)."""
        calls = []

        def counted(op, n):
            calls.append(n)
            return qubit_operator_matrix(op, n)

        monkeypatch.setattr(lcu, "qubit_operator_matrix", counted)
        monkeypatch.setattr(statevector, "qubit_operator_matrix", counted)
        model = build_weights(jellium(8, omega=8.0))
        errors = taylor_errors(model, model.reconstruction(), 0.01, [2, 4],
                               0)
        assert calls == [8, 8]
        assert set(errors) == {"2", "4"}
        assert errors["4"]["error"] < errors["2"]["error"]

    def test_segment_condition_enforced(self):
        hs = jellium(2, spinful=True)  # Lambda ~ 11
        model = build_weights(hs)
        psi = random_state(4, 9)
        with pytest.raises(ValueError):
            taylor_segment(model, 0.1, 3, psi)

    def test_negative_t_reads_its_magnitude(self):
        """The guard and the normaliser read Lambda*|t|: at t = -0.01 the
        amplitude was 1.0096, and t = -1 ran past the segment limit."""
        model = build_weights(jellium(2))  # Lambda ~ 0.95
        psi = random_state(2, 3)
        for order in (1, 2, 4):
            _, forward = taylor_segment(model, 0.01, order, psi)
            _, backward = taylor_segment(model, -0.01, order, psi)
            assert backward <= 1.0
            assert backward == pytest.approx(forward, rel=1e-12)
        with pytest.raises(ValueError, match="Lambda\\*\\|t\\| <= ln 2"):
            taylor_segment(model, -1.0, 2, psi)

    def test_sign_handling_round_trip(self):
        # negative weights must reconstruct exactly through sign * |W|
        hs = jellium(4)
        model = build_weights(hs)
        assert (model.weights < 0).any()
        rec = model.reconstruction()
        qub = build_qubit(hs)
        for key in set(rec.terms) | set(qub.terms):
            if key == ():
                continue
            assert abs(rec.terms.get(key, 0) - qub.terms.get(key, 0)) < 1e-12


class TestLambdaScaling:
    def test_ratio_table_reported_and_triangle_budget_holds(self, capsys):
        """The ratio to the asymptotic shape N^{7/3}/Omega^{1/3} +
        N^{5/3}/Omega^{2/3} is reported only (its exponents come from the
        3D mode sums); the finite-grid triangle budget is the assertion."""
        omega = 4.0
        for m in (2, 4):
            hs = jellium(m, omega=omega)
            model = build_weights(hs)
            shape = m ** (7 / 3) / omega ** (1 / 3) \
                + m ** (5 / 3) / omega ** (2 / 3)
            print(f"lambda scaling M={m}: lambda={model.lam:.4f} "
                  f"ratio-to-asymptotic-shape={model.lam / shape:.4f}")
            triangle = norm_bounds(hs, eta=2)["triangle_h"]
            n_noop = noop_count(model)
            assert model.lam <= triangle + n_noop + 1e-9


class TestDump:
    def test_header_and_rows(self):
        hs = jellium(2)
        model = build_weights(hs)
        text = dump_weights(model)
        lines = text.strip().splitlines()
        assert lines[0].startswith("# lambda,")
        assert lines[1] == "p,q,b,w"
        assert len(lines) == 2 + len(model.weights)

    def test_each_row_formats_its_own_weight(self):
        """Weights formatted once per distinct value read the same as one
        format per row, signed zeros apart."""
        model = build_weights(build_dual(build_grid(1, 4, 4.0, True),
                                         [((1.3,), 1.0)]))
        values = [0.0, -0.0, 0.1 + 0.2, 0.3, -0.3, 5e-324, 1e300]
        model.weights = np.array([values[i % len(values)]
                                  for i in range(len(model.weights))])
        rows = sorted(f"{p},{q},{b},{format(w, '.17g')}"
                      for (p, q, b), w in zip(model.index.tolist(),
                                              model.weights.tolist()))
        lines = dump_weights(model).splitlines()
        assert sorted(lines[2:]) == rows
        assert {line.rsplit(",", 1)[1] for line in rows} == {
            "0", "-0", "0.30000000000000004", "0.29999999999999999",
            "-0.29999999999999999", "4.9406564584124654e-324",
            "1.0000000000000001e+300"}
