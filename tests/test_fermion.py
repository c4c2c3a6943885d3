import itertools

import numpy as np
import pytest

from pwdual.fermion import FermionOperator, RAISE, LOWER, normal_order, \
    jordan_wigner, fermion_matrix
from pwdual.pauli import QubitOperator, qubit_operator_matrix, \
    apply_string, string_matrix


def op(spec, coeff=1.0):
    """spec like '0 1^' -> lowering 0, raising 1."""
    key = []
    for tok in spec.split():
        if tok.endswith("^"):
            key.append((int(tok[:-1]), RAISE))
        elif tok:
            key.append((int(tok), LOWER))
    return FermionOperator.from_term(tuple(key), coeff)


class TestNormalOrder:
    def test_anticommutator_contraction(self):
        # a_0 a+_0 = 1 - a+_0 a_0
        out = normal_order(op("0 0^"))
        assert out.terms == {(): 1.0, ((0, RAISE), (0, LOWER)): -1.0}

    def test_antisymmetry_sign(self):
        out = normal_order(op("1^ 0^"))
        assert out.terms == {((1, RAISE), (0, RAISE)): 1.0}
        flipped = normal_order(op("0^ 1^"))
        assert flipped.terms == {((1, RAISE), (0, RAISE)): -1.0}

    def test_nilpotency(self):
        assert normal_order(op("0 0")).terms == {}
        assert normal_order(op("3^ 3^")).terms == {}

    def test_matrix_equivalence(self):
        rng = np.random.default_rng(7)
        n = 4
        for _ in range(20):
            key = tuple(
                (int(rng.integers(n)), int(rng.integers(2)))
                for _ in range(int(rng.integers(1, 5)))
            )
            raw = FermionOperator.from_term(key, complex(rng.normal(), rng.normal()))
            assert np.allclose(fermion_matrix(raw, n),
                               fermion_matrix(normal_order(raw), n))


class TestAnticommutation:
    @pytest.mark.parametrize(
        "p,q", list(itertools.combinations_with_replacement(range(3), 2)))
    def test_canonical_relations(self, p, q):
        n = 3
        ap = fermion_matrix(op(f"{p}"), n)
        aq_dag = fermion_matrix(op(f"{q}^"), n)
        anti = ap @ aq_dag + aq_dag @ ap
        expected = np.eye(2 ** n) if p == q else np.zeros((2 ** n, 2 ** n))
        assert np.allclose(anti, expected)


class TestJordanWigner:
    def test_number_operator(self):
        out = jordan_wigner(FermionOperator.number(2), 4)
        assert out.terms == {(): 0.5, ((2, "Z"),): -0.5}

    def test_density_density(self):
        prod = FermionOperator.number(0) * FermionOperator.number(2)
        out = jordan_wigner(prod, 3)
        expected = {
            (): 0.25,
            ((0, "Z"), (2, "Z")): 0.25,
            ((0, "Z"),): -0.25,
            ((2, "Z"),): -0.25,
        }
        assert set(out.terms) == set(expected)
        for k, v in expected.items():
            assert out.terms[k] == pytest.approx(v)

    def test_hopping_with_parity_chain(self):
        p, q = 1, 3
        hop = op(f"{p}^ {q}") + op(f"{q}^ {p}")
        out = jordan_wigner(hop, 4)
        expected = {
            ((1, "X"), (2, "Z"), (3, "X")): 0.5,
            ((1, "Y"), (2, "Z"), (3, "Y")): 0.5,
        }
        assert set(out.terms) == set(expected)
        for k, v in expected.items():
            assert out.terms[k] == pytest.approx(v)

    def test_matrix_against_occupation_basis(self):
        hop = op("0^ 1") + op("1^ 0")
        direct = fermion_matrix(hop, 2)
        via_jw = qubit_operator_matrix(jordan_wigner(hop, 2), 2)
        assert np.allclose(direct, via_jw)

    def test_homomorphism_on_random_products(self):
        rng = np.random.default_rng(11)
        n = 5
        for _ in range(12):
            ops = []
            for _ in range(3):
                key = tuple(
                    (int(rng.integers(n)), int(rng.integers(2)))
                    for _ in range(int(rng.integers(1, 4)))
                )
                ops.append(FermionOperator.from_term(
                    key, complex(rng.normal(), rng.normal())))
            prod = ops[0] * ops[1] * ops[2]
            lhs = qubit_operator_matrix(jordan_wigner(prod, n), n)
            rhs = np.eye(2 ** n, dtype=complex)
            for o in ops:
                rhs = rhs @ qubit_operator_matrix(jordan_wigner(o, n), n)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            jordan_wigner(FermionOperator.number(5), 4)


class TestHermiticity:
    def test_decidable_on_fermion_operators(self):
        hop = op("0^ 1") + op("1^ 0")
        assert hop.is_hermitian()
        assert not op("0^ 1").is_hermitian()
        skew = op("0^ 1", 1j) + op("1^ 0", 1j)
        assert not skew.is_hermitian()

    def test_conjugate_round_trip(self):
        a = op("2^ 0", 0.5 - 0.25j)
        assert normal_order(a.hermitian_conjugate().hermitian_conjugate()
                            - a).simplify().terms == {}


class TestPauliAlgebra:
    def test_string_products(self):
        x, y, z = (QubitOperator.from_term([(0, p)]) for p in "XYZ")
        assert (x * y).terms == {((0, "Z"),): 1j}
        assert (z * z).terms == {(): 1}

    @pytest.mark.parametrize("pairs,match", [
        ([(3, "Q")], "bad Pauli letter"),
        ([(3, "X"), (3, "Z")], "duplicate qubit"),
    ])
    def test_malformed_string_rejected(self, pairs, match):
        with pytest.raises(ValueError, match=match):
            QubitOperator.from_term(pairs)

    def test_operator_product_matrix(self):
        rng = np.random.default_rng(3)
        n = 3
        letters = ["X", "Y", "Z"]
        for _ in range(10):
            def rand_op():
                o = QubitOperator()
                for _ in range(3):
                    qs = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
                    key = tuple(sorted((int(q), letters[rng.integers(3)])
                                       for q in qs))
                    o.terms[key] = o.terms.get(key, 0
                                               ) + complex(rng.normal(), rng.normal())
                return o
            a, b = rand_op(), rand_op()
            lhs = qubit_operator_matrix(a * b, n)
            rhs = qubit_operator_matrix(a, n) @ qubit_operator_matrix(b, n)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


    @pytest.mark.parametrize("key", [((3, "X"),), ((0, "Z"), (2, "Y"))])
    def test_string_outside_register_rejected(self, key):
        with pytest.raises(ValueError, match="outside the register"):
            string_matrix(key, 2)
        with pytest.raises(ValueError, match="outside the register"):
            apply_string(key, np.ones(4, dtype=complex))


@pytest.mark.parametrize("cls,key_a,key_b", [
    (QubitOperator, ((0, "X"),), ((1, "Z"), (2, "Y"))),
    (FermionOperator, ((1, RAISE), (0, LOWER)), ((2, RAISE),)),
], ids=["qubit", "fermion"])
class TestTermSum:
    """The dict algebra both operator types inherit from pauli.TermSum."""

    def test_algebra_keeps_subclass(self, cls, key_a, key_b):
        a, b = cls.from_term(key_a, 0.5), cls.from_term(key_b, 1j)
        for out in (a.copy(), a + b, a - b, a * 2.0, 2.0 * a):
            assert type(out) is cls
        assert (a - b).terms == {key_a: 0.5, key_b: -1j}
        assert (a * 2.0).terms == (2.0 * a).terms == {key_a: 1.0}

    def test_copies_are_independent(self, cls, key_a, key_b):
        a = cls.from_term(key_a, 0.5)
        c = a.copy()
        c += cls.from_term(key_b, 1.0)
        c.terms[key_a] = 3.0
        assert a.terms == {key_a: 0.5}
        assert c.terms == {key_a: 3.0, key_b: 1.0}

    def test_simplify_prunes_in_place(self, cls, key_a, key_b):
        a = cls.from_term(key_a, 1.0) + cls.from_term(key_b, 1e-14)
        assert a.simplify() is a
        assert a.terms == {key_a: 1.0}

    def test_difference_with_self_simplifies_to_empty(self, cls, key_a, key_b):
        a = cls.from_term(key_a, 0.3) + cls.from_term(key_b, -1.5j)
        diff = (a - a).simplify()
        assert type(diff) is cls and diff.terms == {} and repr(diff) == "0"


class TestParticleNumber:
    def test_number_commutes_with_hopping(self):
        n = 4
        big_n = np.diag(np.bitwise_count(np.arange(2 ** n)))
        hop = op("0^ 3") + op("3^ 0") + op("1^ 2", 0.5j) + op("2^ 1", -0.5j)
        mat = fermion_matrix(hop, n)
        assert np.max(np.abs(big_n @ mat - mat @ big_n)) < 1e-10
