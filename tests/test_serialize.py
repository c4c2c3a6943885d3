import numpy as np
import pytest

from pwdual.fermion import FermionOperator, RAISE, LOWER
from pwdual.geometry import build_grid
from pwdual.hamiltonian import build_dual, build_plane_wave
from pwdual.serialize import dumps_fermion, loads_fermion, \
    dumps_hamiltonian, loads_hamiltonian, fmt


def test_fermion_round_trip_bit_exact():
    op = FermionOperator()
    op.terms[((3, RAISE), (0, LOWER))] = 1.0 / 3.0 + 0.1j
    op.terms[((2, RAISE), (2, LOWER), (5, RAISE), (5, LOWER))] = -np.pi
    op.terms[()] = 7.25e-17
    text = dumps_fermion(op)
    back = loads_fermion(text)
    assert back.terms == op.terms
    assert dumps_fermion(back) == text


def test_fermion_factor_tokens():
    op = FermionOperator.from_term(((3, RAISE), (3, LOWER)), 2.0)
    text = dumps_fermion(op)
    assert "3^ 3" in text


@pytest.mark.parametrize("text", ["1", "1 0\n2"])
def test_term_line_without_imaginary_part_rejected(text):
    with pytest.raises(ValueError, match="imaginary part"):
        loads_fermion(text + "\n")


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = float(rng.normal() * 10.0 ** rng.integers(-12, 12))
        assert float(fmt(x)) == x


def test_hamiltonian_round_trip():
    grid = build_grid(1, 4, 4.0, spinful=False)
    hs = build_dual(grid, nuclei=[((1.2,), 2.0)], constant=0.5)
    text = dumps_hamiltonian(hs)
    back = loads_hamiltonian(text)
    assert back.representation == hs.representation
    assert back.constant == hs.constant
    assert back.n_qubits == hs.n_qubits
    assert back.kinetic.terms == hs.kinetic.terms
    assert back.external.terms == hs.external.terms
    assert back.interaction.terms == hs.interaction.terms
    assert back.nuclei.entries == hs.nuclei.entries
    assert back.grid.modes_per_axis == 4
    assert dumps_hamiltonian(back) == text


def test_hamiltonian_round_trip_with_truncation():
    grid = build_grid(2, 2, 4.0)
    hs = build_plane_wave(grid, truncated_D=1.5)
    back = loads_hamiltonian(dumps_hamiltonian(hs))
    assert back.truncation == 1.5
    assert back.interaction.terms == hs.interaction.terms


def test_hamiltonian_term_before_section_rejected():
    text = "# representation dual\n# n_qubits 2\n# constant 0\n1.0 0.0 0^ 0\n"
    with pytest.raises(ValueError, match="before any"):
        loads_hamiltonian(text)


def test_hamiltonian_unknown_section_rejected():
    text = dumps_hamiltonian(build_dual(build_grid(1, 2, 4.0)))
    with pytest.raises(ValueError, match="unknown section"):
        loads_hamiltonian(text.replace("[external]", "[externel]"))
